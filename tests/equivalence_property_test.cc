/**
 * @file
 * Property-style equivalence sweep: over a grid of RNG seeds, beam
 * widths and histogram-pruning caps, the software ViterbiDecoder and
 * the accelerator's functional model must produce identical word
 * sequences and (to float tolerance) identical scores -- the
 * structural invariant accel/accelerator.hh promises ("timing knobs
 * cannot change results", and the expander is decoding-equivalent to
 * the reference decoder).  The same invariant is re-checked through
 * the streaming APIs, frame by frame, and through the server session
 * layer in server_test.cc.
 *
 * The same grid also pins down the arc-layout seam: decoding over
 * wfst::CompactArcs must be bit-identical to the raw walk.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "accel/accelerator.hh"
#include "acoustic/scorer.hh"
#include "common/logging.hh"
#include "decoder/baseline.hh"
#include "decoder/viterbi.hh"
#include "search/backend.hh"
#include "wfst/compact.hh"
#include "wfst/generate.hh"

using namespace asr;

namespace {

class QuietEnv : public ::testing::Environment
{
  public:
    void SetUp() override { setQuiet(true); }
};

[[maybe_unused]] const auto *env =
    ::testing::AddGlobalTestEnvironment(new QuietEnv);

struct SweepCase
{
    std::uint64_t seed;
    float beam;
    std::uint32_t maxActive;  //!< histogram-pruning cap (0 = off)
};

void
PrintTo(const SweepCase &c, std::ostream *os)
{
    *os << "seed=" << c.seed << " beam=" << c.beam
        << " maxActive=" << c.maxActive;
}

class EquivalenceSweep : public ::testing::TestWithParam<SweepCase>
{
};

wfst::Wfst
netFor(std::uint64_t seed)
{
    wfst::GeneratorConfig gcfg;
    gcfg.numStates = 400;
    gcfg.numPhonemes = 32;
    gcfg.numWords = 60;
    // Alternate epsilon topologies so the closure discipline is
    // exercised on cyclic epsilon subgraphs too.
    gcfg.forwardEpsilonOnly = (seed % 2) == 0;
    gcfg.epsilonFraction = (seed % 3) == 0 ? 0.25 : 0.115;
    gcfg.seed = seed;
    return wfst::generateWfst(gcfg);
}

acoustic::AcousticLikelihoods
scoresFor(std::uint64_t seed, std::size_t frames = 18)
{
    acoustic::SyntheticScorerConfig scfg;
    scfg.numPhonemes = 32;
    scfg.seed = seed * 11 + 3;
    return acoustic::SyntheticScorer(scfg).generate(frames);
}

} // namespace

TEST_P(EquivalenceSweep, SoftwareAndAcceleratorAgree)
{
    const SweepCase &c = GetParam();
    const wfst::Wfst net = netFor(c.seed);
    const auto scores = scoresFor(c.seed);

    decoder::DecoderConfig dcfg;
    dcfg.beam = c.beam;
    dcfg.maxActive = c.maxActive;
    decoder::ViterbiDecoder sw(net, dcfg);
    const auto r_sw = sw.decode(scores);

    accel::AcceleratorConfig acfg;
    acfg.beam = c.beam;
    acfg.maxActive = c.maxActive;
    accel::Accelerator acc(net, acfg);
    // Functional pass only: timing cannot change results, and the
    // sweep stays fast enough to run densely.
    const auto r_hw = acc.decode(scores, /*run_timing=*/false);

    EXPECT_EQ(r_hw.words, r_sw.words);
    EXPECT_NEAR(r_hw.score, r_sw.score, 1e-3f);
    EXPECT_EQ(r_hw.bestState, r_sw.bestState);
}

TEST_P(EquivalenceSweep, StreamingApisAgreeFrameByFrame)
{
    // The streaming APIs of both engines, fed one frame at a time,
    // must land on the same result as their batch entry points.
    const SweepCase &c = GetParam();
    const wfst::Wfst net = netFor(c.seed);
    const auto scores = scoresFor(c.seed, 12);

    decoder::DecoderConfig dcfg;
    dcfg.beam = c.beam;
    dcfg.maxActive = c.maxActive;
    decoder::ViterbiDecoder sw(net, dcfg);
    const auto batch = sw.decode(scores);

    decoder::ViterbiDecoder sw_stream(net, dcfg);
    sw_stream.streamBegin();
    for (std::size_t f = 0; f < scores.numFrames(); ++f)
        sw_stream.streamFrame(scores.frame(f));
    const auto streamed = sw_stream.streamFinish();
    EXPECT_EQ(streamed.words, batch.words);
    EXPECT_FLOAT_EQ(streamed.score, batch.score);

    accel::AcceleratorConfig acfg;
    acfg.beam = c.beam;
    acfg.maxActive = c.maxActive;
    accel::Accelerator acc(net, acfg);
    acc.streamBegin();
    for (std::size_t f = 0; f < scores.numFrames(); ++f)
        acc.streamFrame(scores.frame(f), /*run_timing=*/false);
    const auto hw = acc.streamFinish(/*run_timing=*/false);
    EXPECT_EQ(hw.words, batch.words);
    EXPECT_NEAR(hw.score, batch.score, 1e-3f);
}

TEST_P(EquivalenceSweep, RegistryBackendsMatchTheirBareClasses)
{
    // Every registry entry must be *bit-identical* (same float
    // sequence, not merely tolerance-equal) to the pre-refactor
    // class it wraps, across the whole seeds x beams x maxActive
    // grid: the registry adapters add no arithmetic of their own.
    const SweepCase &c = GetParam();
    const wfst::Wfst net = netFor(c.seed);
    const auto scores = scoresFor(c.seed);

    decoder::DecoderConfig dcfg;
    dcfg.beam = c.beam;
    dcfg.maxActive = c.maxActive;
    search::BackendConfig bcfg;
    bcfg.decoder = dcfg;

    {
        decoder::ViterbiDecoder bare(net, dcfg);
        const auto want = bare.decode(scores);
        const auto got =
            search::createBackend("viterbi", net, bcfg)
                ->decode(scores);
        EXPECT_EQ(got.words, want.words);
        EXPECT_EQ(got.score, want.score);
        EXPECT_EQ(got.bestState, want.bestState);
    }
    {
        decoder::BaselineViterbiDecoder bare(net, dcfg);
        const auto want = bare.decode(scores);
        const auto got =
            search::createBackend("baseline", net, bcfg)
                ->decode(scores);
        EXPECT_EQ(got.words, want.words);
        EXPECT_EQ(got.score, want.score);
        EXPECT_EQ(got.bestState, want.bestState);
    }
    {
        // The bare accel under the exact construction recipe the
        // registry uses (withBothOpts minus the bandwidth technique;
        // functional pass only -- timing cannot change results).
        accel::AcceleratorConfig acfg =
            accel::AcceleratorConfig::withBothOpts();
        acfg.bandwidthOptEnabled = false;
        acfg.beam = c.beam;
        acfg.maxActive = c.maxActive;
        accel::Accelerator bare(net, acfg);
        const auto want = bare.decode(scores, /*run_timing=*/false);
        const auto got =
            search::createBackend("accel", net, bcfg)
                ->decode(scores);
        EXPECT_EQ(got.words, want.words);
        EXPECT_EQ(got.score, want.score);
        EXPECT_EQ(got.bestState, want.bestState);
    }
}

TEST_P(EquivalenceSweep, CompactLayoutMatchesRawLayout)
{
    // Arc-layout equivalence across the same grid: the compact
    // layout is *bit-identical* to the raw walk (same words, same
    // float score, same expansion counts).
    const SweepCase &c = GetParam();
    wfst::Wfst net = netFor(c.seed);
    const auto scores = scoresFor(c.seed);

    decoder::DecoderConfig dcfg;
    dcfg.beam = c.beam;
    dcfg.maxActive = c.maxActive;
    decoder::ViterbiDecoder raw(net, dcfg);
    const auto r_raw = raw.decode(scores);

    decoder::BaselineViterbiDecoder base(net, dcfg);
    const auto r_base = base.decode(scores);
    // Both raw-layout decoders charge the identical per-expansion
    // formula, so their graph-traffic counters must agree exactly.
    EXPECT_EQ(r_base.stats.graphBytesTouched,
              r_raw.stats.graphBytesTouched);
    EXPECT_GT(r_raw.stats.graphBytesTouched, 0u);

    decoder::DecoderConfig ccfg = dcfg;
    ccfg.useCompactArcs = true;

    const auto exact = std::make_shared<const wfst::CompactArcs>(
        wfst::CompactArcs::build(net, wfst::WeightMode::Exact));
    net.attachCompactArcs(exact);
    decoder::ViterbiDecoder cex(net, ccfg);
    const auto r_exact = cex.decode(scores);
    EXPECT_EQ(r_exact.words, r_raw.words);
    EXPECT_EQ(r_exact.score, r_raw.score);
    EXPECT_EQ(r_exact.bestState, r_raw.bestState);
    EXPECT_EQ(r_exact.stats.tokensExpanded,
              r_raw.stats.tokensExpanded);
    EXPECT_GT(r_exact.stats.graphBytesTouched, 0u);
}

TEST_P(EquivalenceSweep, CompactStreamingAgreesWithBatch)
{
    // The compact layout through the streaming API must equal its
    // own batch entry point frame for frame (exact mode: and the raw
    // batch result too).
    const SweepCase &c = GetParam();
    wfst::Wfst net = netFor(c.seed);
    const auto scores = scoresFor(c.seed, 12);

    net.attachCompactArcs(std::make_shared<const wfst::CompactArcs>(
        wfst::CompactArcs::build(net, wfst::WeightMode::Exact)));
    decoder::DecoderConfig ccfg;
    ccfg.beam = c.beam;
    ccfg.maxActive = c.maxActive;
    ccfg.useCompactArcs = true;

    decoder::ViterbiDecoder batch(net, ccfg);
    const auto want = batch.decode(scores);

    decoder::ViterbiDecoder stream(net, ccfg);
    stream.streamBegin();
    for (std::size_t f = 0; f < scores.numFrames(); ++f)
        stream.streamFrame(scores.frame(f));
    const auto got = stream.streamFinish();
    EXPECT_EQ(got.words, want.words);
    EXPECT_FLOAT_EQ(got.score, want.score);
    EXPECT_EQ(got.stats.graphBytesTouched,
              want.stats.graphBytesTouched);
}

TEST(CompactLayoutDeath, RequiresAttachedCompactArcs)
{
    // Opting into the compact walk without attaching one is a
    // configuration bug, caught at construction.
    wfst::Wfst net = netFor(1);
    decoder::DecoderConfig cfg;
    cfg.useCompactArcs = true;
    EXPECT_DEATH(decoder::ViterbiDecoder(net, cfg), "[Cc]ompact");

    // So is attaching another graph's encoding: the search would
    // walk foreign arcs, or index past its own state arrays.
    wfst::GeneratorConfig big;
    big.numStates = 4 * net.numStates();
    big.seed = 2;
    const auto foreign = std::make_shared<const wfst::CompactArcs>(
        wfst::CompactArcs::build(wfst::generateWfst(big),
                                 wfst::WeightMode::Exact));
    EXPECT_DEATH(net.attachCompactArcs(foreign), "CompactArcs encodes");
}

namespace {

std::vector<SweepCase>
sweepGrid()
{
    std::vector<SweepCase> cases;
    const float beams[] = {2.0f, 6.0f, 10.0f, 1e9f};
    const std::uint32_t caps[] = {0, 8, 64};
    for (std::uint64_t seed = 1; seed <= 6; ++seed)
        for (const float beam : beams)
            for (const std::uint32_t cap : caps)
                cases.push_back({seed, beam, cap});
    return cases;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(SeedsBeamsCaps, EquivalenceSweep,
                         ::testing::ValuesIn(sweepGrid()));
