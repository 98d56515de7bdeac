/**
 * @file
 * Chaos suite for the robustness layer:
 *
 *  - asr::fault registry semantics: deterministic replay per seed,
 *    the retryable-only restriction, fire budgets, point filters,
 *    and the pre-registered canonical seam set.
 *  - OverloadMonitor state machine: degrade/shed entry, hysteresis
 *    relaxation, the reject-only policy, and the degradation knobs.
 *  - Loopback chaos: a serving run under a retryable-only fault
 *    schedule (EINTR/EAGAIN, short I/O, stalls at every syscall
 *    seam) is bit-identical to the fault-free run; destructive
 *    schedules (connection resets) never crash, leak, or wedge the
 *    server; every registered in-process fault point fires at least
 *    once across the workload (coverage assertion).
 *  - Deadline propagation over the wire: an OPEN-declared budget
 *    forecloses an abandoned stream with DEADLINE_EXCEEDED.
 *  - Graceful degradation over the wire: a Degraded server admits
 *    streams with shrunk knobs and marks their results; a Shedding
 *    server answers RETRY_AFTER with its computed backoff hint.
 *
 * The fault seed honours ASR_FAULT_SEED so CI can sweep schedules.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.hh"
#include "common/fault.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "net/client.hh"
#include "net/overload.hh"
#include "net/server.hh"
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

/** CI sweeps schedules by exporting ASR_FAULT_SEED. */
std::uint64_t
envSeed()
{
    const char *s = std::getenv("ASR_FAULT_SEED");
    return (s && *s) ? std::strtoull(s, nullptr, 10) : 1;
}

constexpr unsigned kPhonemes = 8;

class NetChaos : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        wfst::GeneratorConfig gcfg;
        gcfg.numStates = 200;
        gcfg.numPhonemes = kPhonemes;
        gcfg.numWords = 40;
        gcfg.seed = 2027;
        net = new wfst::Wfst(wfst::generateWfst(gcfg));

        pipeline::AsrSystemConfig mcfg;
        mcfg.numPhonemes = kPhonemes;
        mcfg.hiddenLayers = {32};
        mcfg.trainUtterPerPhoneme = 8;
        mcfg.trainEpochs = 8;
        mcfg.beam = 14.0f;
        mcfg.seed = 53;
        model = new pipeline::AsrModel(*net, mcfg);
    }

    static void
    TearDownTestSuite()
    {
        delete model;
        delete net;
        model = nullptr;
        net = nullptr;
    }

    void TearDown() override { fault::disarm(); }

    static frontend::AudioSignal
    testAudio(std::uint64_t seed, unsigned phones = 6)
    {
        Rng rng(seed);
        std::vector<std::uint32_t> seq;
        for (unsigned i = 0; i < phones; ++i)
            seq.push_back(1 + std::uint32_t(rng.below(kPhonemes)));
        return model->synthesizer().synthesize(seq, 3);
    }

    struct WireResult
    {
        std::vector<wfst::WordId> words;
        float score = 0.0f;
        bool ok = false;
    };

    /** One utterance over the wire: open, chunked push, finish. */
    static WireResult
    runUtterance(net::Client &client, std::uint32_t stream,
                 const frontend::AudioSignal &audio)
    {
        WireResult r;
        if (!client.openStreamRetrying(stream, 200))
            return r;
        const std::vector<float> &s = audio.samples;
        constexpr std::size_t kChunk = 1600;
        for (std::size_t base = 0; base < s.size(); base += kChunk) {
            const std::size_t len = std::min(kChunk, s.size() - base);
            if (!client.pushChunk(
                    stream,
                    std::span<const float>(s.data() + base, len)))
                return r;
        }
        net::FinalResult fin;
        if (!client.finishStream(stream, fin))
            return r;
        r.words = fin.words;
        r.score = fin.score;
        r.ok = true;
        return r;
    }

    static bool
    eventually(const std::function<bool()> &pred)
    {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(10);
        while (std::chrono::steady_clock::now() < deadline) {
            if (pred())
                return true;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(2));
        }
        return pred();
    }

    static wfst::Wfst *net;
    static pipeline::AsrModel *model;
};

wfst::Wfst *NetChaos::net = nullptr;
pipeline::AsrModel *NetChaos::model = nullptr;

} // namespace

// ---------------------------------------------------------------------------
// Fault registry semantics.
// ---------------------------------------------------------------------------

TEST(FaultRegistry, DisarmedSeamsAreTransparent)
{
    fault::disarm();
    EXPECT_FALSE(fault::armed());
    EXPECT_EQ(fault::failErrno("net.server.recv", {EINTR, EAGAIN}), 0);
    EXPECT_EQ(fault::shortenIo("net.server.recv.short", 4096), 4096u);
    fault::stall("api.engine.tick.stall");  // must not sleep
}

TEST(FaultRegistry, SameSeedReplaysTheSameSchedule)
{
    const auto draw = [](std::uint64_t seed) {
        fault::Config cfg;
        cfg.seed = seed;
        cfg.rate = 0.5;
        fault::ScopedArm armed(cfg);
        std::vector<int> seq;
        for (unsigned i = 0; i < 256; ++i)
            seq.push_back(fault::failErrno("net.server.recv",
                                           {EINTR, EAGAIN, ECONNRESET}));
        return seq;
    };
    const std::vector<int> a = draw(7);
    const std::vector<int> b = draw(7);
    const std::vector<int> c = draw(8);
    EXPECT_EQ(a, b);  // replay: arming resets the schedule position
    EXPECT_NE(a, c);  // a different seed is a different schedule
    // The schedule actually fires and actually passes.
    EXPECT_NE(*std::max_element(a.begin(), a.end()), 0);
    EXPECT_EQ(*std::min_element(a.begin(), a.end()), 0);
}

TEST(FaultRegistry, RetryableOnlyNeverPicksDestructiveErrnos)
{
    fault::Config cfg;
    cfg.seed = envSeed();
    cfg.rate = 1.0;
    cfg.retryableOnly = true;
    fault::ScopedArm armed(cfg);
    for (unsigned i = 0; i < 200; ++i) {
        const int e = fault::failErrno(
            "net.server.recv", {EINTR, EAGAIN, ECONNRESET});
        EXPECT_TRUE(e == 0 || e == EINTR || e == EAGAIN ||
                    e == EWOULDBLOCK)
            << e;
        // A seam whose only candidates are destructive never fires.
        EXPECT_EQ(fault::failErrno("net.client.send", {EPIPE}), 0);
    }
}

TEST(FaultRegistry, ShortenedIoStaysWithinBounds)
{
    fault::Config cfg;
    cfg.seed = 11;
    cfg.rate = 1.0;
    fault::ScopedArm armed(cfg);
    bool shortened = false;
    for (unsigned i = 0; i < 64; ++i) {
        const std::size_t got =
            fault::shortenIo("net.server.recv.short", 4096);
        EXPECT_GE(got, 1u);
        EXPECT_LE(got, 4096u);
        shortened = shortened || got < 4096;
    }
    EXPECT_TRUE(shortened);
    // A 1-byte request cannot be shortened (0 would look like EOF).
    EXPECT_EQ(fault::shortenIo("net.server.recv.short", 1), 1u);
}

TEST(FaultRegistry, MaxFiresBoundsTheTotalInjected)
{
    fault::resetStats();
    fault::Config cfg;
    cfg.seed = 3;
    cfg.rate = 1.0;
    cfg.maxFires = 5;
    fault::ScopedArm armed(cfg);
    for (unsigned i = 0; i < 100; ++i)
        fault::failErrno("net.server.recv", {EINTR});
    std::uint64_t fires = 0;
    for (const auto &p : fault::points())
        fires += p.fires;
    EXPECT_EQ(fires, 5u);
}

TEST(FaultRegistry, OnlyFilterRestrictsFiringPoints)
{
    fault::resetStats();
    fault::Config cfg;
    cfg.seed = 5;
    cfg.rate = 1.0;
    cfg.only = {"net.server.recv"};
    fault::ScopedArm armed(cfg);
    for (unsigned i = 0; i < 32; ++i) {
        EXPECT_NE(fault::failErrno("net.server.recv", {EINTR}), 0);
        EXPECT_EQ(fault::failErrno("net.server.send", {EINTR}), 0);
    }
    for (const auto &p : fault::points()) {
        if (p.name == "net.server.recv")
            EXPECT_EQ(p.fires, 32u);
        else
            EXPECT_EQ(p.fires, 0u) << p.name;
    }
}

TEST(FaultRegistry, CanonicalSeamsArePreRegistered)
{
    std::set<std::string> names;
    for (const auto &p : fault::points())
        names.insert(p.name);
    for (const char *want :
         {"net.server.accept", "net.server.recv",
          "net.server.recv.short", "net.server.send",
          "net.server.send.short", "net.server.wake",
          "net.client.connect", "net.client.recv",
          "net.client.recv.short", "net.client.send",
          "net.client.send.short", "api.engine.tick.stall"})
        EXPECT_TRUE(names.count(want)) << want;
}

// ---------------------------------------------------------------------------
// Overload state machine.
// ---------------------------------------------------------------------------

TEST(OverloadMonitorTest, DegradesShedsAndRelaxesWithHysteresis)
{
    net::OverloadOptions opts;
    opts.smoothing = 1.0;  // unsmoothed: thresholds act immediately
    net::OverloadMonitor m(opts);
    using State = net::OverloadMonitor::State;

    EXPECT_EQ(m.observe(1.0, 0), State::Healthy);
    EXPECT_EQ(m.observe(opts.degradeTickLagMs, 0), State::Degraded);
    // Above the degrade exit but below entry: hysteresis holds.
    EXPECT_EQ(m.observe(opts.degradeTickLagMs * 0.7, 0),
              State::Degraded);
    EXPECT_EQ(m.observe(opts.shedTickLagMs, 0), State::Shedding);
    EXPECT_EQ(m.observe(opts.shedTickLagMs * 1.5, 0),
              State::Shedding);
    // Easing below the shed entry relaxes *through* Degraded, never
    // straight to Healthy.
    EXPECT_EQ(m.observe(opts.shedTickLagMs * 0.7, 0),
              State::Degraded);
    // Above the degrade exit: Degraded's own hysteresis holds.
    EXPECT_EQ(m.observe(opts.degradeTickLagMs * 0.7, 0),
              State::Degraded);
    EXPECT_EQ(m.observe(0.0, 0), State::Healthy);
    EXPECT_EQ(m.degradedEntries(), 2u);
    EXPECT_EQ(m.sheddingEntries(), 1u);

    // Queue depth alone also drives the same transitions.
    net::OverloadMonitor q(opts);
    EXPECT_EQ(q.observe(0.0, opts.degradeQueueDepth),
              State::Degraded);
    EXPECT_EQ(q.observe(0.0, opts.shedQueueDepth), State::Shedding);
}

TEST(OverloadMonitorTest, RejectOnlyPolicyNeverDegrades)
{
    net::OverloadOptions opts;
    opts.smoothing = 1.0;
    opts.enableDegraded = false;
    net::OverloadMonitor m(opts);
    using State = net::OverloadMonitor::State;

    EXPECT_EQ(m.observe(opts.degradeTickLagMs * 2, 0),
              State::Healthy);  // the Degraded band collapses
    EXPECT_EQ(m.observe(opts.shedTickLagMs, 0), State::Shedding);
    // And relaxes straight back to Healthy once below the shed exit.
    EXPECT_EQ(m.observe(0.0, 0), State::Healthy);
    EXPECT_EQ(m.degradedEntries(), 0u);
}

TEST(OverloadMonitorTest, DegradedKnobsRespectFloorsAndBase)
{
    net::OverloadOptions opts;  // beamScale .6, beamFloor 6, floor 500
    net::OverloadMonitor m(opts);
    EXPECT_FLOAT_EQ(m.degradedBeam(14.0f), 14.0f * 0.6f);
    EXPECT_FLOAT_EQ(m.degradedBeam(1.0f), opts.beamFloor);
    EXPECT_FLOAT_EQ(m.degradedBeam(0.0f), opts.beamFloor);

    EXPECT_EQ(m.degradedMaxActive(0), opts.degradedMaxActive);
    EXPECT_EQ(m.degradedMaxActive(4000), opts.degradedMaxActive);
    EXPECT_EQ(m.degradedMaxActive(800), 800u);
    // A base already below the floor is never *grown* by degrading.
    EXPECT_EQ(m.degradedMaxActive(100), 100u);
}

TEST(OverloadMonitorTest, BackoffHintScalesWithSeverityAndCaps)
{
    net::OverloadOptions opts;
    opts.smoothing = 1.0;
    net::OverloadMonitor m(opts);
    m.observe(opts.shedTickLagMs, 0);
    const std::uint32_t at_threshold = m.backoffHintMs();
    EXPECT_EQ(at_threshold, opts.backoffBaseMs);
    m.observe(opts.shedTickLagMs * 3, 0);
    EXPECT_GT(m.backoffHintMs(), at_threshold);
    m.observe(opts.shedTickLagMs * 1e6, 0);
    EXPECT_EQ(m.backoffHintMs(), opts.backoffCapMs);
}

// ---------------------------------------------------------------------------
// Loopback chaos.
// ---------------------------------------------------------------------------

TEST_F(NetChaos, RetryableFaultScheduleIsBitIdenticalToFaultFree)
{
    const std::vector<frontend::AudioSignal> utts = {
        testAudio(21), testAudio(22), testAudio(23)};

    const auto serve = [&]() {
        std::vector<WireResult> out;
        EngineOptions eopts;
        eopts.numThreads = 2;
        Engine engine(*model, eopts);
        net::Server server(engine, net::ServerOptions{});
        net::Client client;
        // Sessions are numbered by arrival, so a fixed sequential
        // workload decodes with identical session ids every run.
        EXPECT_TRUE(client.connectRetrying("127.0.0.1",
                                           server.port(), 50, 1));
        for (std::size_t u = 0; u < utts.size(); ++u)
            out.push_back(runUtterance(
                client, std::uint32_t(u + 1), utts[u]));
        client.disconnect();
        server.stop();
        return out;
    };

    const std::vector<WireResult> baseline = serve();
    for (const WireResult &r : baseline)
        ASSERT_TRUE(r.ok);

    std::uint64_t fires = 0;
    for (std::uint64_t round = 0; round < 3; ++round) {
        fault::resetStats();
        fault::Config cfg;
        cfg.seed = envSeed() + round;
        cfg.rate = 0.2;
        cfg.retryableOnly = true;
        cfg.stallMaxMs = 2;
        fault::ScopedArm armed(cfg);
        const std::vector<WireResult> chaotic = serve();
        for (const auto &p : fault::points())
            fires += p.fires;
        ASSERT_EQ(chaotic.size(), baseline.size());
        for (std::size_t u = 0; u < baseline.size(); ++u) {
            ASSERT_TRUE(chaotic[u].ok)
                << "utterance " << u << " seed "
                << (envSeed() + round);
            // The whole point: retryable faults at every seam are
            // invisible in the decoded words and score.
            EXPECT_EQ(chaotic[u].words, baseline[u].words) << u;
            EXPECT_EQ(chaotic[u].score, baseline[u].score) << u;
        }
    }
    // The schedules were not vacuous.
    EXPECT_GT(fires, 0u);
}

TEST_F(NetChaos, DestructiveServerFaultsNeverWedgeOrCrash)
{
    EngineOptions eopts;
    eopts.numThreads = 2;
    Engine engine(*model, eopts);
    net::Server server(engine, net::ServerOptions{});
    const frontend::AudioSignal audio = testAudio(31);

    {
        fault::Config cfg;
        cfg.seed = envSeed();
        cfg.rate = 0.15;
        cfg.only = {"net.server.accept", "net.server.recv",
                    "net.server.recv.short", "net.server.send",
                    "net.server.send.short"};
        fault::ScopedArm armed(cfg);
        // Clients under connection-killing faults: failures are
        // expected and tolerated; crashes, leaks, and wedges are not.
        for (unsigned attempt = 0; attempt < 8; ++attempt) {
            net::Client client;
            if (!client.connectRetrying("127.0.0.1", server.port(),
                                        20, 1))
                continue;
            (void)runUtterance(client, 1, audio);
        }
    }

    // Disarmed, the same server must serve a clean client end to
    // end: nothing wedged, no slot leaked.
    net::Client clean;
    ASSERT_TRUE(clean.connect("127.0.0.1", server.port()));
    const WireResult r = runUtterance(clean, 9, audio);
    EXPECT_TRUE(r.ok) << clean.lastError();
    clean.disconnect();
    server.stop();

    const net::ServerCounters c = server.counters();
    EXPECT_EQ(c.connectionsClosed, c.connectionsAccepted);
    EXPECT_GE(c.streamsFinished, 1u);
}

TEST_F(NetChaos, EveryInProcessFaultPointFiresUnderTargetedChaos)
{
    // Deterministic coverage: arm one point at a time at rate 1.0
    // with a small fire budget (the budget guarantees forward
    // progress past seams whose injected errno would otherwise loop,
    // like EINTR on accept) and drive a workload through it.  Every
    // canonical seam must both be reached and actually inject.
    EngineOptions eopts;
    eopts.numThreads = 2;
    Engine engine(*model, eopts);
    net::Server server(engine, net::ServerOptions{});
    const frontend::AudioSignal audio = testAudio(41, 4);

    std::set<std::string> covered;
    const auto firesOf = [](const char *name) {
        for (const auto &p : fault::points())
            if (p.name == name)
                return p.fires;
        return std::uint64_t(0);
    };

    for (const char *point :
         {"net.server.accept", "net.server.recv",
          "net.server.recv.short", "net.server.send",
          "net.server.send.short", "net.client.connect",
          "net.client.recv", "net.client.recv.short",
          "net.client.send", "net.client.send.short",
          "api.engine.tick.stall"}) {
        fault::resetStats();
        fault::Config cfg;
        cfg.seed = envSeed();
        cfg.rate = 1.0;
        cfg.maxFires = 4;
        cfg.stallMaxMs = 1;
        cfg.only = {point};
        fault::ScopedArm armed(cfg);
        // Destructive injections (ECONNRESET, EPIPE) legitimately
        // fail the utterance; the assertion is that the seam fired
        // and nothing crashed or wedged.
        net::Client client;
        if (client.connectRetrying("127.0.0.1", server.port(), 40,
                                   1))
            (void)runUtterance(client, 1, audio);
        EXPECT_GT(firesOf(point), 0u) << point << " never fired";
        covered.insert(point);
    }

    // net.server.wake guards the stop-path self-wake write.
    {
        fault::resetStats();
        fault::Config cfg;
        cfg.rate = 1.0;
        cfg.maxFires = 4;
        cfg.only = {"net.server.wake"};
        fault::ScopedArm armed(cfg);
        server.stop();
        EXPECT_GT(firesOf("net.server.wake"), 0u);
        covered.insert("net.server.wake");
    }

    // Completeness: a newly registered seam must be added to this test.
    for (const auto &p : fault::points())
        EXPECT_TRUE(covered.count(p.name))
            << p.name << " is not covered by the chaos suite";
}

// ---------------------------------------------------------------------------
// Deadlines over the wire.
// ---------------------------------------------------------------------------

TEST_F(NetChaos, DeadlineForeclosesAnAbandonedStreamOverTheWire)
{
    EngineOptions eopts;
    eopts.numThreads = 2;
    Engine engine(*model, eopts);
    net::Server server(engine, net::ServerOptions{});

    net::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    ASSERT_EQ(client.openStream(1, /*deadline_ms=*/120),
              net::Client::OpenOutcome::Ok);
    const frontend::AudioSignal audio = testAudio(51, 3);
    ASSERT_TRUE(client.pushChunk(
        1, std::span<const float>(audio.samples.data(),
                                  std::min<std::size_t>(
                                      1600, audio.samples.size()))));

    // Abandon the stream past its budget: the watchdog cancels the
    // engine side, the server answers DEADLINE_EXCEEDED.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    net::FinalResult fin;
    EXPECT_FALSE(client.finishStream(1, fin));
    EXPECT_TRUE(client.deadlineExceeded()) << client.lastError();

    EXPECT_TRUE(eventually(
        [&] { return server.counters().deadlinesSent >= 1; }));
    EXPECT_TRUE(eventually(
        [&] { return engine.stats().deadlinesExpired >= 1; }));

    // A fresh deadline-free stream still works: the foreclosure
    // consumed only its own slot.
    client.disconnect();
    net::Client fresh;
    ASSERT_TRUE(fresh.connect("127.0.0.1", server.port()));
    const WireResult ok = runUtterance(fresh, 2, testAudio(52));
    EXPECT_TRUE(ok.ok) << fresh.lastError();
    server.stop();
}

TEST_F(NetChaos, GenerousDeadlineDoesNotDisturbTheResult)
{
    EngineOptions eopts;
    eopts.numThreads = 2;
    Engine engine(*model, eopts);
    net::Server server(engine, net::ServerOptions{});
    const frontend::AudioSignal audio = testAudio(61);

    // Reference without a deadline, then the same audio under a
    // budget it cannot plausibly exceed: identical result.
    net::Client a;
    ASSERT_TRUE(a.connect("127.0.0.1", server.port()));
    const WireResult ref = runUtterance(a, 1, audio);
    ASSERT_TRUE(ref.ok);
    a.disconnect();

    net::Client b;
    ASSERT_TRUE(b.connect("127.0.0.1", server.port()));
    ASSERT_EQ(b.openStream(1, /*deadline_ms=*/60'000),
              net::Client::OpenOutcome::Ok);
    const std::vector<float> &s = audio.samples;
    for (std::size_t base = 0; base < s.size(); base += 1600) {
        const std::size_t len = std::min<std::size_t>(
            1600, s.size() - base);
        ASSERT_TRUE(b.pushChunk(
            1, std::span<const float>(s.data() + base, len)));
    }
    net::FinalResult fin;
    ASSERT_TRUE(b.finishStream(1, fin)) << b.lastError();
    EXPECT_FALSE(b.deadlineExceeded());
    EXPECT_EQ(fin.words, ref.words);
    EXPECT_EQ(server.counters().deadlinesSent, 0u);
    server.stop();
}

// ---------------------------------------------------------------------------
// Graceful degradation over the wire.
// ---------------------------------------------------------------------------

namespace {

/** Overload thresholds a loopback test trips instantly. */
net::ServerOptions
instantOverload(bool degraded_band, bool shedding)
{
    net::ServerOptions sopts;
    sopts.overload.smoothing = 1.0;
    // Any pass takes > 1e-9 ms of work, so these entry thresholds
    // are crossed on the server's first event-loop pass.
    sopts.overload.degradeTickLagMs = 1e-9;
    sopts.overload.shedTickLagMs = shedding ? 1e-9 : 1e9;
    sopts.overload.enableDegraded = degraded_band;
    sopts.overload.backoffBaseMs = 77;
    return sopts;
}

} // namespace

TEST_F(NetChaos, DegradedAdmissionShrinksKnobsAndMarksResults)
{
    EngineOptions eopts;
    eopts.numThreads = 2;
    Engine engine(*model, eopts);
    net::Server server(engine, instantOverload(true, false));

    net::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    // The connect itself completes a loop pass, entering Degraded
    // before this OPEN is processed.
    ASSERT_TRUE(eventually([&] {
        return server.overloadState() ==
               net::OverloadMonitor::State::Degraded;
    }));
    ASSERT_TRUE(client.openStreamRetrying(1, 50));

    net::PartialResult partial;
    ASSERT_TRUE(client.requestPartial(1, partial));
    EXPECT_TRUE(partial.degraded);

    const frontend::AudioSignal audio = testAudio(71);
    const std::vector<float> &s = audio.samples;
    for (std::size_t base = 0; base < s.size(); base += 1600) {
        const std::size_t len = std::min<std::size_t>(
            1600, s.size() - base);
        ASSERT_TRUE(client.pushChunk(
            1, std::span<const float>(s.data() + base, len)));
    }
    net::FinalResult fin;
    ASSERT_TRUE(client.finishStream(1, fin)) << client.lastError();
    EXPECT_TRUE(fin.degraded);

    EXPECT_GE(server.counters().degradedOpens, 1u);
    EXPECT_TRUE(eventually(
        [&] { return engine.stats().degradedStreams >= 1; }));
    server.stop();
}

TEST_F(NetChaos, SheddingServerAnswersRetryAfterWithBackoffHint)
{
    EngineOptions eopts;
    eopts.numThreads = 2;
    Engine engine(*model, eopts);
    const net::ServerOptions sopts = instantOverload(true, true);
    net::Server server(engine, sopts);

    net::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(eventually([&] {
        return server.overloadState() ==
               net::OverloadMonitor::State::Shedding;
    }));
    EXPECT_EQ(client.openStream(1),
              net::Client::OpenOutcome::RetryAfter);
    // The hint is the monitor's computed backoff, not the static
    // retryAfterMs -- and at least the configured base.
    EXPECT_GE(client.retryAfterMs(), sopts.overload.backoffBaseMs);
    EXPECT_GE(server.counters().overloadSheds, 1u);
    server.stop();
}

TEST_F(NetChaos, RejectOnlyPolicyNeverMarksResultsDegraded)
{
    EngineOptions eopts;
    eopts.numThreads = 2;
    Engine engine(*model, eopts);
    // Reject-only: the degrade band is disabled, its (instantly
    // crossed) threshold must have no effect.
    net::Server server(engine, instantOverload(false, false));

    net::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    const WireResult r = runUtterance(client, 1, testAudio(81));
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(server.counters().degradedOpens, 0u);
    EXPECT_EQ(server.overloadState(),
              net::OverloadMonitor::State::Healthy);
    server.stop();
}
