/**
 * @file
 * Parameterized sweep over the full accelerator configuration matrix
 * (prefetch x bandwidth technique x ideal hash x cache scaling x
 * FIFO depth): every point must (a) decode identically to the
 * software reference and (b) produce self-consistent timing stats.
 * This is the broad property net behind the "timing knobs never
 * change results" invariant.
 */

#include <gtest/gtest.h>

#include "accel/accelerator.hh"
#include "acoustic/scorer.hh"
#include "decoder/viterbi.hh"
#include "wfst/generate.hh"
#include "wfst/sorted.hh"

using namespace asr;
using namespace asr::accel;

namespace {

struct MatrixCase
{
    bool prefetch;
    bool bandwidth;
    bool ideal_hash;
    unsigned cache_div;   //!< scale Table-I caches down by this
    unsigned fifo_depth;
    std::uint32_t max_active;
};

struct SharedWorkload
{
    wfst::Wfst net;
    wfst::SortedWfst sorted;
    acoustic::AcousticLikelihoods scores;
    std::vector<wfst::WordId> refWords;        //!< uncapped decode
    wfst::LogProb refScore;
    std::vector<wfst::WordId> refWordsCapped;  //!< maxActive = 800
    wfst::LogProb refScoreCapped;

    static const SharedWorkload &
    instance()
    {
        static const SharedWorkload w = [] {
            SharedWorkload s;
            wfst::GeneratorConfig gcfg;
            gcfg.numStates = 20000;
            gcfg.numPhonemes = 128;
            gcfg.seed = 404;
            s.net = wfst::generateWfst(gcfg);
            s.sorted = wfst::sortWfstByDegree(s.net, 16);
            acoustic::SyntheticScorerConfig scfg;
            scfg.numPhonemes = 128;
            scfg.seed = 77;
            s.scores = acoustic::SyntheticScorer(scfg).generate(25);

            decoder::DecoderConfig dcfg;
            dcfg.beam = 6.0f;
            {
                decoder::ViterbiDecoder dec(s.net, dcfg);
                const auto r = dec.decode(s.scores);
                s.refWords = r.words;
                s.refScore = r.score;
            }
            dcfg.maxActive = 800;
            {
                decoder::ViterbiDecoder dec(s.net, dcfg);
                const auto r = dec.decode(s.scores);
                s.refWordsCapped = r.words;
                s.refScoreCapped = r.score;
            }
            return s;
        }();
        return w;
    }
};

} // namespace

class AccelConfigMatrix : public ::testing::TestWithParam<MatrixCase>
{
};

TEST_P(AccelConfigMatrix, DecodesLikeReferenceWithSaneTiming)
{
    const MatrixCase &p = GetParam();
    const SharedWorkload &w = SharedWorkload::instance();

    AcceleratorConfig cfg;
    cfg.beam = 6.0f;
    cfg.maxActive = p.max_active;
    cfg.prefetchEnabled = p.prefetch;
    cfg.bandwidthOptEnabled = p.bandwidth;
    cfg.idealHash = p.ideal_hash;
    cfg.prefetchFifoDepth = p.fifo_depth;
    cfg.stateCache.size = 512_KiB / p.cache_div;
    cfg.arcCache.size = 1_MiB / p.cache_div;
    cfg.tokenCache.size = 512_KiB / p.cache_div;
    cfg.hashEntries = 8192;
    cfg.hashBackupEntries = 8192;

    decoder::DecodeResult result;
    AccelStats stats;
    if (p.bandwidth) {
        Accelerator acc(w.sorted, cfg);
        result = acc.decode(w.scores);
        stats = acc.stats();
    } else {
        Accelerator acc(w.net, cfg);
        result = acc.decode(w.scores);
        stats = acc.stats();
    }

    // (a) functional equivalence with the software reference run
    //     under the same pruning configuration.
    if (p.max_active == 0) {
        EXPECT_EQ(result.words, w.refWords);
        EXPECT_NEAR(result.score, w.refScore, 1e-3f);
    } else {
        EXPECT_EQ(result.words, w.refWordsCapped);
        EXPECT_NEAR(result.score, w.refScoreCapped, 1e-3f);
    }

    // (b) timing self-consistency.
    EXPECT_GT(stats.cycles, 0u);
    EXPECT_EQ(stats.frames, w.scores.numFrames());
    EXPECT_GE(stats.arcsFetched, stats.arcsEvaluated);
    EXPECT_LE(stats.tokensPruned, stats.tokensRead);
    if (p.ideal_hash)
        EXPECT_DOUBLE_EQ(stats.hash.avgCyclesPerRequest(), 1.0);
    else
        EXPECT_GE(stats.hash.avgCyclesPerRequest(), 1.0);
    if (p.bandwidth)
        EXPECT_GT(stats.directStates, 0u);
    else
        EXPECT_EQ(stats.directStates, 0u);
    // Traffic accounting sanity: every miss moved a line.
    EXPECT_GE(stats.dram.totalBytes(),
              64ull * (stats.arcCache.misses +
                       stats.stateCache.misses));
}

/**
 * gtest names each case after the printed bytes of its MatrixCase,
 * padding included.  A constant-initialized table has zero padding,
 * so the test names do not depend on stack garbage at start-up.
 */
constexpr MatrixCase kMatrixCases[] = {
    {false, false, false, 1, 64, 0},
    {false, false, false, 8, 64, 0},
    {true, false, false, 1, 64, 0},
    {true, false, false, 8, 16, 0},
    {false, true, false, 1, 64, 0},
    {false, true, false, 8, 64, 0},
    {true, true, false, 1, 64, 0},
    {true, true, false, 8, 64, 0},
    {false, false, true, 4, 64, 0},
    {true, true, true, 4, 64, 0},
    {true, true, false, 2, 128, 0},
    {false, false, false, 2, 64, 800},
    {true, false, false, 2, 64, 800},
    {false, true, false, 2, 64, 800},
    {true, true, true, 2, 64, 800},
};

INSTANTIATE_TEST_SUITE_P(Grid, AccelConfigMatrix,
                         ::testing::ValuesIn(kMatrixCases));

namespace {

/** Reference decode with the same maxActive for the capped rows. */
class CappedReference
{
  public:
    static const decoder::DecodeResult &
    get()
    {
        static const decoder::DecodeResult r = [] {
            const SharedWorkload &w = SharedWorkload::instance();
            decoder::DecoderConfig dcfg;
            dcfg.beam = 6.0f;
            dcfg.maxActive = 800;
            decoder::ViterbiDecoder dec(w.net, dcfg);
            return dec.decode(w.scores);
        }();
        return r;
    }
};

} // namespace

TEST(AccelConfigMatrixExtra, CappedRowsMatchCappedReference)
{
    // The maxActive rows above compare against the *capped*
    // reference; spot-check that the capped reference itself is what
    // the accelerator reproduces bit for bit.
    const SharedWorkload &w = SharedWorkload::instance();
    AcceleratorConfig cfg;
    cfg.beam = 6.0f;
    cfg.maxActive = 800;
    Accelerator acc(w.net, cfg);
    const auto r = acc.decode(w.scores, false);
    EXPECT_EQ(r.words, CappedReference::get().words);
    EXPECT_NEAR(r.score, CappedReference::get().score, 1e-3f);
}
