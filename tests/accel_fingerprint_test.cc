/**
 * @file
 * Bit-exact fingerprint of the accelerator model.
 *
 * Each configuration decodes the same two utterances through one
 * Accelerator (so the second finds warm caches and the run totals
 * accumulate), and every AccelStats counter, a checksum of the
 * per-state visit counts, the words and the score must equal the
 * constants below.  The constants were captured from the simulator
 * before its host-side data structures were rebuilt for speed; a
 * change that only makes the simulator faster must keep all of them.
 * A difference means the simulated machine changed: explain it, do
 * not re-capture it away.
 *
 * The "saturating" point shrinks the DRAM window, the token write
 * window and the hash so that rejected DRAM issues, token-fill
 * stalls, fills waiting for a DRAM slot, off-chip overflow hops and
 * the end-of-utterance drain all take part.
 */

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "accel/accelerator.hh"
#include "acoustic/scorer.hh"
#include "wfst/generate.hh"
#include "wfst/sorted.hh"

using namespace asr;
using namespace asr::accel;

namespace {

constexpr std::uint32_t kPhonemes = 256;
constexpr float kBeam = 9.0f;
constexpr std::uint32_t kMaxActive = 2500;

struct Workload
{
    wfst::Wfst net;
    wfst::SortedWfst sorted;
    std::array<acoustic::AcousticLikelihoods, 2> utterances;

    static const Workload &
    instance()
    {
        static const Workload w = [] {
            Workload s;
            wfst::GeneratorConfig g = wfst::kaldiLikeConfig(40000, 2016);
            g.numPhonemes = kPhonemes;
            s.net = wfst::generateWfst(g);
            s.sorted = wfst::sortWfstByDegree(s.net, 16);
            acoustic::SyntheticScorerConfig scfg;
            scfg.numPhonemes = kPhonemes;
            const std::uint64_t seeds[] = {34, 37};
            for (std::size_t u = 0; u < s.utterances.size(); ++u) {
                scfg.seed = seeds[u];
                s.utterances[u] =
                    acoustic::SyntheticScorer(scfg).generate(36);
            }
            return s;
        }();
        return w;
    }
};

/** Names of the counters, in the order fingerprint() lists them. */
const char *const kFieldNames[] = {
    "cycles", "frames",
    "tokensRead", "tokensPruned", "tokensWritten", "arcsFetched",
    "arcsEvaluated", "stateFetches", "directStates",
    "stallStateFetch", "stallArcData", "stallHashBusy",
    "stallTokenFill",
    "stateCache.hits", "stateCache.misses", "stateCache.evictions",
    "stateCache.writebacks",
    "arcCache.hits", "arcCache.misses", "arcCache.evictions",
    "arcCache.writebacks",
    "tokenCache.hits", "tokenCache.misses", "tokenCache.evictions",
    "tokenCache.writebacks",
    "dram.readBytes.state", "dram.readBytes.arc",
    "dram.readBytes.token", "dram.readBytes.overflow",
    "dram.readBytes.acoustic",
    "dram.writeBytes.state", "dram.writeBytes.arc",
    "dram.writeBytes.token", "dram.writeBytes.overflow",
    "dram.writeBytes.acoustic",
    "dram.requests.state", "dram.requests.arc",
    "dram.requests.token", "dram.requests.overflow",
    "dram.requests.acoustic",
    "dram.rejectedIssues",
    "hash.requests", "hash.cycles", "hash.collisionWalks",
    "hash.overflowHops", "hash.maxChain",
    "visitChecksum",
};

constexpr std::size_t kNumFields = std::size(kFieldNames);
static_assert(sim::kNumDataClasses == 5,
              "the DRAM rows list five data classes");

using Counters = std::array<std::uint64_t, kNumFields>;

/** FNV-1a over the visit counts, index and value alike. */
std::uint64_t
visitChecksum(const std::vector<std::uint64_t> &visits)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < visits.size(); ++i) {
        if (visits[i] == 0)
            continue;
        for (std::uint64_t v : {std::uint64_t(i), visits[i]}) {
            h ^= v;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

Counters
fingerprint(const Accelerator &acc)
{
    const AccelStats s = acc.stats();
    std::vector<std::uint64_t> v = {
        s.cycles, s.frames,
        s.tokensRead, s.tokensPruned, s.tokensWritten, s.arcsFetched,
        s.arcsEvaluated, s.stateFetches, s.directStates,
        s.stallStateFetch, s.stallArcData, s.stallHashBusy,
        s.stallTokenFill,
    };
    for (const sim::CacheStats *c :
         {&s.stateCache, &s.arcCache, &s.tokenCache})
        v.insert(v.end(),
                 {c->hits, c->misses, c->evictions, c->writebacks});
    v.insert(v.end(), s.dram.readBytes.begin(), s.dram.readBytes.end());
    v.insert(v.end(), s.dram.writeBytes.begin(),
             s.dram.writeBytes.end());
    v.insert(v.end(), s.dram.requests.begin(), s.dram.requests.end());
    v.push_back(s.dram.rejectedIssues);
    v.insert(v.end(), {s.hash.requests, s.hash.cycles,
                       s.hash.collisionWalks, s.hash.overflowHops,
                       s.hash.maxChain});
    v.push_back(visitChecksum(acc.visitCounts()));

    Counters out{};
    EXPECT_EQ(v.size(), out.size());
    std::copy_n(v.begin(), std::min(v.size(), out.size()), out.begin());
    return out;
}

/** The words and score every configuration must decode. */
const std::vector<wfst::WordId> kWords[2] = {
    {7967, 118386},
    {47924, 110398},
};
const float kScores[2] = {-0x1.86ea12p+7f, -0x1.845c6p+7f};

struct Point
{
    const char *name;
    AcceleratorConfig (*config)();
    Counters expected;
};

AcceleratorConfig
tuned(AcceleratorConfig cfg)
{
    cfg.beam = kBeam;
    cfg.maxActive = kMaxActive;
    return cfg;
}

AcceleratorConfig
saturating()
{
    AcceleratorConfig cfg = tuned(AcceleratorConfig::withBothOpts());
    cfg.dram.maxInflight = 4;
    cfg.tokenIssuerInflight = 2;
    cfg.hashEntries = 8192;
    cfg.hashBackupEntries = 64;
    return cfg;
}

const Point kPoints[] = {
    {"baseline", [] { return tuned(AcceleratorConfig::baseline()); },
     {1571858, 72, 356209, 173757, 416025, 493815,
      493815, 294062, 0, 4045, 256469, 52387,
      0, 191403, 4854, 0, 0, 477355,
      16460, 2815, 0, 364019, 52004, 43812,
      43812, 310656, 1053440, 3328256, 0, 74016,
      0, 0, 2803968, 0, 0, 4854,
      16460, 95816, 0, 72, 2029, 493817,
      544563, 49013, 0, 2, 10470951520366452612u}},
    {"withStateOpt",
     [] { return tuned(AcceleratorConfig::withStateOpt()); },
     {1602845, 72, 356209, 173757, 416027, 506288,
      493815, 5004, 289058, 1, 278315, 49185,
      0, 3230, 85, 0, 0, 488690,
      17598, 3424, 0, 364020, 52005, 43813,
      43813, 5440, 1126272, 3328320, 0, 74016,
      0, 0, 2804032, 0, 0, 85,
      17598, 95818, 0, 72, 1644, 493817,
      541549, 46296, 0, 2, 11111313159277577953u}},
    {"withArcOpt", [] { return tuned(AcceleratorConfig::withArcOpt()); },
     {1327573, 72, 356209, 173757, 416025, 493815,
      493815, 294062, 0, 8169, 10848, 50213,
      0, 191403, 4854, 0, 0, 477355,
      16460, 2815, 0, 364019, 52004, 43812,
      43812, 310656, 1053440, 3328256, 0, 74016,
      0, 0, 2803968, 0, 0, 4854,
      16460, 95816, 0, 72, 2227, 493817,
      544563, 49013, 0, 2, 10470951520366452612u}},
    {"withBothOpts",
     [] { return tuned(AcceleratorConfig::withBothOpts()); },
     {1327803, 72, 356209, 173757, 416027, 506288,
      493815, 5004, 289058, 141, 2875, 47879,
      0, 3230, 85, 0, 0, 488690,
      17598, 3424, 0, 364020, 52005, 43813,
      43813, 5440, 1126272, 3328320, 0, 74016,
      0, 0, 2804032, 0, 0, 85,
      17598, 95818, 0, 72, 1662, 493817,
      541549, 46296, 0, 2, 11111313159277577953u}},
    {"perfectCaches",
     [] {
         AcceleratorConfig cfg = tuned(AcceleratorConfig::withBothOpts());
         cfg.makeCachesPerfect();
         return cfg;
     },
     {1326996, 72, 356209, 173757, 416027, 506288,
      493815, 5004, 289058, 0, 0, 47968,
      0, 3315, 0, 0, 0, 506288,
      0, 0, 0, 416025, 0, 0,
      0, 0, 0, 0, 0, 74016,
      0, 0, 0, 0, 0, 0,
      0, 0, 0, 72, 0, 493817,
      541549, 46296, 0, 2, 11111313159277577953u}},
    {"idealHash",
     [] {
         AcceleratorConfig cfg = tuned(AcceleratorConfig::withBothOpts());
         cfg.idealHash = true;
         return cfg;
     },
     {1326823, 72, 356209, 173757, 416027, 506288,
      493815, 5004, 289058, 142, 2057, 31258,
      0, 3230, 85, 0, 0, 488690,
      17598, 3424, 0, 364020, 52005, 43813,
      43813, 5440, 1126272, 3328320, 0, 74016,
      0, 0, 2804032, 0, 0, 85,
      17598, 95818, 0, 72, 1660, 493817,
      493817, 46296, 0, 2, 11111313159277577953u}},
    {"saturating", saturating,
     {6493457, 72, 356209, 173757, 416027, 506288,
      493815, 5004, 289058, 1688, 13567, 7178202,
      283951, 3230, 85, 0, 0, 488690,
      17598, 3424, 0, 364020, 52005, 43813,
      43813, 5440, 1126272, 3328320, 7969344, 74016,
      0, 0, 2804032, 0, 0, 85,
      17598, 95818, 108549, 72, 107455, 493817,
      626756, 114739, 124521, 4, 11111313159277577953u}},
};

std::string
formatRow(const Counters &c)
{
    std::string s = "{";
    for (std::size_t i = 0; i < c.size(); ++i) {
        s += (i ? ", " : "") + std::to_string(c[i]);
        if (i % 6 == 5)
            s += "\n";
    }
    return s + "}";
}

std::string
formatWords(const std::vector<wfst::WordId> &words)
{
    std::string s = "{";
    for (std::size_t i = 0; i < words.size(); ++i)
        s += (i ? ", " : "") + std::to_string(words[i]);
    return s + "}";
}

class AccelFingerprint : public ::testing::TestWithParam<std::size_t>
{
};

} // namespace

TEST_P(AccelFingerprint, EveryCounterMatchesTheCapturedMachine)
{
    const Point &p = kPoints[GetParam()];
    const Workload &w = Workload::instance();
    const AcceleratorConfig cfg = p.config();
    Accelerator acc = cfg.bandwidthOptEnabled ? Accelerator(w.sorted, cfg)
                                              : Accelerator(w.net, cfg);

    for (std::size_t u = 0; u < w.utterances.size(); ++u) {
        const decoder::DecodeResult r = acc.decode(w.utterances[u], true);
        EXPECT_EQ(r.words, kWords[u])
            << p.name << " utterance " << u << " words "
            << formatWords(r.words);
        char score[32];
        std::snprintf(score, sizeof score, "%a", double(r.score));
        EXPECT_EQ(r.score, kScores[u])
            << p.name << " utterance " << u << " score " << score;
    }

    const Counters got = fingerprint(acc);
    for (std::size_t i = 0; i < kNumFields; ++i)
        EXPECT_EQ(got[i], p.expected[i]) << p.name << " " << kFieldNames[i];
    if (HasFailure())
        ADD_FAILURE() << p.name << " measured " << formatRow(got);
}

INSTANTIATE_TEST_SUITE_P(
    DesignPoints, AccelFingerprint,
    ::testing::Range<std::size_t>(0, std::size(kPoints)),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        return std::string(kPoints[info.param].name);
    });
