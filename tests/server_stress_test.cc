/**
 * @file
 * Concurrency stress for the decode engine, designed to give TSan /
 * ASan / UBSan something to chew on: many short utterances racing
 * through more workers than cores, overlapping submit/drain/stats
 * calls from the driver thread, and both search backends.  The
 * assertions are deliberately light -- the point is to execute the
 * synchronized paths (queue, condvars, EngineStats, shared model
 * reads) under maximum interleaving, with correctness itself pinned
 * by server_test's bit-identity checks.
 */

#include <future>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "pipeline/model.hh"
#include "wfst/generate.hh"

using namespace asr;
using api::Engine;
using api::EngineOptions;

namespace {

class QuietEnv : public ::testing::Environment
{
  public:
    void SetUp() override { setQuiet(true); }
};

[[maybe_unused]] const auto *env =
    ::testing::AddGlobalTestEnvironment(new QuietEnv);

constexpr unsigned kPhonemes = 6;

struct SmallWorld
{
    wfst::Wfst net;
    pipeline::AsrModel model;

    SmallWorld()
        : net(makeNet()), model(net, modelConfig())
    {
    }

    static wfst::Wfst
    makeNet()
    {
        wfst::GeneratorConfig gcfg;
        gcfg.numStates = 120;
        gcfg.numPhonemes = kPhonemes;
        gcfg.numWords = 20;
        gcfg.seed = 4711;
        return wfst::generateWfst(gcfg);
    }

    static pipeline::AsrSystemConfig
    modelConfig()
    {
        pipeline::AsrSystemConfig cfg;
        cfg.numPhonemes = kPhonemes;
        cfg.hiddenLayers = {24};
        cfg.trainUtterPerPhoneme = 6;
        cfg.trainEpochs = 6;
        cfg.beam = 12.0f;
        cfg.seed = 77;
        return cfg;
    }
};

SmallWorld &
world()
{
    static SmallWorld w;
    return w;
}

frontend::AudioSignal
audioFor(std::uint64_t seed)
{
    Rng rng(deriveSeed(1234, seed));
    std::vector<std::uint32_t> seq;
    const unsigned phones = 2 + unsigned(rng.below(3));
    for (unsigned i = 0; i < phones; ++i)
        seq.push_back(1 + std::uint32_t(rng.below(kPhonemes)));
    return world().model.synthesizer().synthesize(seq, 2);
}

} // namespace

TEST(ServerStress, ManySessionsManyWorkers)
{
    EngineOptions cfg;
    cfg.numThreads = 8;  // deliberately more than the core count
    cfg.baseSeed = 5;
    cfg.ditherAmplitude = 1e-4f;
    Engine engine(world().model, cfg);

    constexpr unsigned kJobs = 48;
    std::vector<std::future<pipeline::RecognitionResult>> futures;
    futures.reserve(kJobs);
    for (unsigned u = 0; u < kJobs; ++u) {
        futures.push_back(engine.submit(audioFor(u)));
        // Interleave stats polling with submissions to race the
        // EngineStats mutex against the workers.
        if (u % 7 == 0)
            (void)engine.stats();
    }

    for (auto &f : futures) {
        const auto r = f.get();
        EXPECT_GE(r.audioSeconds, 0.0);
    }
    engine.drain();
    EXPECT_EQ(engine.stats().utterances, kJobs);
}

TEST(ServerStress, RepeatedDrainCycles)
{
    EngineOptions cfg;
    cfg.numThreads = 4;
    Engine engine(world().model, cfg);

    unsigned total = 0;
    for (unsigned round = 0; round < 5; ++round) {
        const unsigned batch = 1 + round;
        for (unsigned u = 0; u < batch; ++u)
            (void)engine.submit(audioFor(100 + round * 10 + u));
        total += batch;
        engine.drain();
        EXPECT_EQ(engine.stats().utterances, total);
    }
}

TEST(ServerStress, AcceleratorBackendUnderConcurrency)
{
    // Each session owns a full cycle-level accelerator model; run a
    // few concurrently to stress its (session-private) state under
    // parallel construction/teardown.
    EngineOptions cfg;
    cfg.numThreads = 4;
    cfg.searchBackend = "accel";
    cfg.runTiming = true;
    Engine engine(world().model, cfg);

    std::vector<std::future<pipeline::RecognitionResult>> futures;
    for (unsigned u = 0; u < 8; ++u)
        futures.push_back(engine.submit(audioFor(300 + u)));
    for (auto &f : futures) {
        const auto r = f.get();
        EXPECT_GT(r.accelStats.frames, 0u);
    }
}

TEST(ServerStress, DestructorDrainsOutstandingWork)
{
    std::vector<std::future<pipeline::RecognitionResult>> futures;
    {
        EngineOptions cfg;
        cfg.numThreads = 3;
        Engine engine(world().model, cfg);
        for (unsigned u = 0; u < 6; ++u)
            futures.push_back(engine.submit(audioFor(500 + u)));
        // Destructor must finish the queue before joining.
    }
    for (auto &f : futures)
        EXPECT_GE(f.get().audioSeconds, 0.0);
}
