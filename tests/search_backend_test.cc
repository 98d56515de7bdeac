/**
 * @file
 * Tests for the search::Backend name table: the three backends
 * resolve by name and decode exactly like the bare classes they
 * wrap, and unknown names are rejected with a diagnostic that lists
 * the valid backends.  (The dense bit-identity sweep against the
 * pre-refactor classes lives in equivalence_property_test.cc.)
 */

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "acoustic/scorer.hh"
#include "common/logging.hh"
#include "search/backend.hh"
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

wfst::Wfst
testNet()
{
    wfst::GeneratorConfig gcfg;
    gcfg.numStates = 200;
    gcfg.numPhonemes = 16;
    gcfg.numWords = 30;
    gcfg.seed = 99;
    return wfst::generateWfst(gcfg);
}

acoustic::AcousticLikelihoods
testScores(std::size_t frames = 14)
{
    acoustic::SyntheticScorerConfig scfg;
    scfg.numPhonemes = 16;
    scfg.seed = 5;
    return acoustic::SyntheticScorer(scfg).generate(frames);
}

} // namespace

TEST(SearchRegistry, BuiltinsAreRegistered)
{
    for (const char *name : {"viterbi", "baseline", "accel"})
        EXPECT_TRUE(search::isBackendRegistered(name)) << name;
    const auto names = search::registeredBackendNames();
    EXPECT_GE(names.size(), 3u);
    // Sorted and duplicate-free: the diagnostics depend on it.
    for (std::size_t i = 1; i < names.size(); ++i)
        EXPECT_LT(names[i - 1], names[i]);
}

TEST(SearchRegistry, UnknownNameIsRejectedListingRegistered)
{
    const wfst::Wfst net = testNet();
    search::BackendConfig cfg;
    EXPECT_EQ(search::tryCreateBackend("gpu-warp", net, cfg),
              nullptr);
    EXPECT_FALSE(search::isBackendRegistered("gpu-warp"));

    const std::string msg = search::unknownBackendMessage("gpu-warp");
    EXPECT_NE(msg.find("gpu-warp"), std::string::npos);
    // Every registered backend must be listed so a typo shows the
    // valid choices.
    for (const std::string &name : search::registeredBackendNames())
        EXPECT_NE(msg.find(name), std::string::npos) << name;
}

TEST(SearchRegistry, CreateByNameReportsThatName)
{
    const wfst::Wfst net = testNet();
    search::BackendConfig cfg;
    cfg.decoder.beam = 8.0f;
    for (const char *name : {"viterbi", "baseline", "accel"}) {
        const auto backend = search::createBackend(name, net, cfg);
        ASSERT_NE(backend, nullptr) << name;
        EXPECT_EQ(backend->name(), name);
    }
}

TEST(SearchRegistry, StreamingShapeDecodesLikeBatchHelper)
{
    // Backend::decode is definitionally the streaming sequence; a
    // hand-rolled streaming drive must land on the same result.
    const wfst::Wfst net = testNet();
    const auto scores = testScores();
    search::BackendConfig cfg;
    cfg.decoder.beam = 8.0f;

    for (const char *name : {"viterbi", "baseline", "accel"}) {
        const auto batch = search::createBackend(name, net, cfg);
        const auto r_batch = batch->decode(scores);

        const auto streamed = search::createBackend(name, net, cfg);
        streamed->streamBegin();
        for (std::size_t f = 0; f < scores.numFrames(); ++f) {
            streamed->streamFrame(scores.frame(f));
            // Partial hypotheses must be available mid-stream.
            (void)streamed->streamPartial();
        }
        const auto r_stream = streamed->streamFinish();

        EXPECT_EQ(r_stream.words, r_batch.words) << name;
        EXPECT_EQ(r_stream.score, r_batch.score) << name;
    }
}

TEST(SearchRegistry, AccelStatsOnlyFromTheAccel)
{
    const wfst::Wfst net = testNet();
    const auto scores = testScores(6);
    search::BackendConfig cfg;
    cfg.decoder.beam = 8.0f;
    cfg.runTiming = true;

    accel::AccelStats stats;
    const auto sw = search::createBackend("viterbi", net, cfg);
    (void)sw->decode(scores);
    EXPECT_FALSE(sw->accelStats(stats));

    const auto hw = search::createBackend("accel", net, cfg);
    (void)hw->decode(scores);
    ASSERT_TRUE(hw->accelStats(stats));
    EXPECT_GT(stats.frames, 0u);
    EXPECT_GT(stats.cycles, 0u);
}

TEST(SearchRegistry, RunTimingCannotChangeResults)
{
    const wfst::Wfst net = testNet();
    const auto scores = testScores();
    search::BackendConfig timed;
    timed.decoder.beam = 8.0f;
    timed.runTiming = true;
    search::BackendConfig functional = timed;
    functional.runTiming = false;

    const auto r_timed =
        search::createBackend("accel", net, timed)->decode(scores);
    const auto r_func =
        search::createBackend("accel", net, functional)
            ->decode(scores);
    EXPECT_EQ(r_timed.words, r_func.words);
    EXPECT_EQ(r_timed.score, r_func.score);
}
