/**
 * @file
 * Tests for the fleet layer (fleet::ShardRouter + fleet::LoadGen):
 *
 *  - Rendezvous placement: deterministic under a seed, disagreeing
 *    across seeds, and shard-count stable (growing N to N+1 only
 *    ever moves keys to the new shard).
 *  - Bit-identity: the router serves every stream bit-identically to
 *    a single Engine fed the same per-stream inputs in the same
 *    per-shard open order -- in both model modes (shared AsrModel,
 *    per-shard copies).
 *  - Rebalancing: a shard forced out of Healthy stops receiving new
 *    opens (they divert to the least-loaded shard) while its already
 *    open streams stay pinned, keep accepting audio, and still
 *    produce the right result; capacity rejections likewise fall
 *    over to other shards.
 *  - Handle hygiene: invalid, foreign-shard and un-tagged handles
 *    degrade per the documented invalid-handle contract.
 *  - Arrivals: Poisson inter-arrival times have the right mean and
 *    variance (seeded, so the bounds are deterministic); diurnal
 *    arrivals are strictly increasing and reproducible.
 *  - LoadGen: an in-process run accounts every arrival exactly once
 *    and records latency histograms; findCapacity brackets and
 *    bisects a synthetic SLO knee and reports ceiling saturation.
 *  - Serving: net::Server fronting a ShardRouter serves loopback
 *    clients end to end, and the STATS frame round-trips the
 *    fleet-aggregate telemetry.
 */

#include <chrono>
#include <cmath>
#include <future>
#include <span>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "fleet/loadgen.hh"
#include "fleet/shard_router.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "wfst/generate.hh"

using namespace asr;
using api::OpenStatus;
using api::StreamHandle;
using api::StreamState;
using fleet::RouterOptions;
using fleet::ShardRouter;

namespace {

class QuietEnv : public ::testing::Environment
{
  public:
    void SetUp() override { setQuiet(true); }
};

[[maybe_unused]] const auto *env =
    ::testing::AddGlobalTestEnvironment(new QuietEnv);

constexpr unsigned kPhonemes = 8;

/** Shared net + trained model for the whole suite. */
class FleetTest : public ::testing::Test
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
        model = new pipeline::AsrModel(*net, modelConfig());
    }

    static void
    TearDownTestSuite()
    {
        delete model;
        delete net;
        model = nullptr;
        net = nullptr;
    }

    static pipeline::AsrSystemConfig
    modelConfig()
    {
        pipeline::AsrSystemConfig mcfg;
        mcfg.numPhonemes = kPhonemes;
        mcfg.hiddenLayers = {32};
        mcfg.trainUtterPerPhoneme = 8;
        mcfg.trainEpochs = 8;
        mcfg.beam = 14.0f;
        mcfg.seed = 53;
        return mcfg;
    }

    static frontend::AudioSignal
    testAudio(std::uint64_t seed, unsigned phones = 6)
    {
        Rng rng(seed);
        std::vector<std::uint32_t> seq;
        for (unsigned i = 0; i < phones; ++i)
            seq.push_back(1 + std::uint32_t(rng.below(kPhonemes)));
        return model->synthesizer().synthesize(seq, 3);
    }

    static RouterOptions
    routerOptions(unsigned shards)
    {
        RouterOptions ropts;
        ropts.shards = shards;
        ropts.engine.numThreads = 2;
        return ropts;
    }

    static void
    pushAll(api::StreamEndpoint &ep, StreamHandle h,
            const frontend::AudioSignal &audio,
            std::size_t chunk = 512)
    {
        const std::vector<float> &s = audio.samples;
        for (std::size_t base = 0; base < s.size(); base += chunk) {
            const std::size_t len = std::min(chunk, s.size() - base);
            ASSERT_TRUE(ep.push(
                h, std::span<const float>(s.data() + base, len)));
        }
    }

    static wfst::Wfst *net;
    static pipeline::AsrModel *model;
};

wfst::Wfst *FleetTest::net = nullptr;
pipeline::AsrModel *FleetTest::model = nullptr;

} // namespace

// ---------------------------------------------------------------------------
// Placement.
// ---------------------------------------------------------------------------

TEST_F(FleetTest, RendezvousPlacementIsDeterministicAndSeedSensitive)
{
    ShardRouter a(*model, routerOptions(4));
    ShardRouter b(*model, routerOptions(4));
    RouterOptions other = routerOptions(4);
    other.placementSeed = 0xfeedface;
    ShardRouter c(*model, other);

    unsigned seed_disagreements = 0;
    std::vector<unsigned> used(4, 0);
    for (std::uint64_t key = 0; key < 512; ++key) {
        const unsigned pa = a.placeKey(key);
        ASSERT_LT(pa, 4u);
        EXPECT_EQ(pa, b.placeKey(key)) << key;
        seed_disagreements += pa != c.placeKey(key);
        ++used[pa];
    }
    // A different seed is a different placement function...
    EXPECT_GT(seed_disagreements, 100u);
    // ...and a sane hash spreads 512 keys over 4 shards roughly
    // evenly (each expected 128; a lopsided mix() would crater one).
    for (unsigned s = 0; s < 4; ++s)
        EXPECT_GT(used[s], 64u) << "shard " << s;
}

TEST_F(FleetTest, RendezvousPlacementIsShardCountStable)
{
    ShardRouter small(*model, routerOptions(3));
    ShardRouter grown(*model, routerOptions(4));

    unsigned moved = 0;
    for (std::uint64_t key = 0; key < 512; ++key) {
        const unsigned before = small.placeKey(key);
        const unsigned after = grown.placeKey(key);
        // The rendezvous property: adding shard 3 leaves shards
        // 0..2's scores untouched, so a key either stays put or
        // moves to the NEW shard -- never between old shards.
        if (after != before) {
            EXPECT_EQ(after, 3u) << key;
            ++moved;
        }
    }
    // Roughly 1/4 of the keyspace should move (512/4 = 128).
    EXPECT_GT(moved, 64u);
    EXPECT_LT(moved, 256u);
}

// ---------------------------------------------------------------------------
// Bit-identity with a single engine, both model modes.
// ---------------------------------------------------------------------------

TEST_F(FleetTest, RouterMatchesSingleEngineBitIdenticalSharedModel)
{
    RouterOptions ropts = routerOptions(2);
    ropts.rebalance = false;  // pure rendezvous placement
    ShardRouter router(*model, ropts);

    constexpr unsigned kStreams = 6;
    struct Tracked
    {
        StreamHandle handle;
        unsigned shard = 0;
        frontend::AudioSignal audio;
        pipeline::RecognitionResult viaRouter;
    };
    std::vector<Tracked> streams(kStreams);
    // Per-shard open order: stream k opened as shard s's j-th stream
    // gets session id j on that shard's engine, which is what the
    // replay below reproduces on the reference engine.
    std::vector<std::vector<unsigned>> shardOrder(2);
    for (unsigned k = 0; k < kStreams; ++k) {
        Tracked &t = streams[k];
        t.audio = testAudio(1000 + k);
        OpenStatus status = OpenStatus::Capacity;
        t.handle = router.openKeyed(k, {}, status);
        ASSERT_EQ(status, OpenStatus::Ok);
        t.shard = router.shardOf(t.handle);
        EXPECT_EQ(t.shard, router.placeKey(k));
        shardOrder[t.shard].push_back(k);
    }
    ASSERT_FALSE(shardOrder[0].empty());
    ASSERT_FALSE(shardOrder[1].empty());

    for (Tracked &t : streams)
        pushAll(router, t.handle, t.audio);
    std::vector<std::future<pipeline::RecognitionResult>> futures;
    for (Tracked &t : streams)
        futures.push_back(router.finish(t.handle));
    for (unsigned k = 0; k < kStreams; ++k)
        streams[k].viaRouter = futures[k].get();

    // Replay each shard's streams, in that shard's open order, on a
    // fresh reference engine with the same options: session ids --
    // and so deriveSeed -- line up, and every word/score must match
    // bit for bit.
    for (unsigned s = 0; s < 2; ++s) {
        api::Engine reference(*model, ropts.engine);
        for (const unsigned k : shardOrder[s]) {
            const StreamHandle h = reference.open();
            ASSERT_NE(h.value, 0u);
            pushAll(reference, h, streams[k].audio);
            const pipeline::RecognitionResult expected =
                reference.finish(h).get();
            EXPECT_EQ(streams[k].viaRouter.words, expected.words)
                << "stream " << k << " shard " << s;
            EXPECT_EQ(streams[k].viaRouter.score, expected.score)
                << "stream " << k << " shard " << s;
        }
    }
}

TEST_F(FleetTest, RouterMatchesSingleEngineBitIdenticalPerShardModels)
{
    RouterOptions ropts = routerOptions(2);
    ropts.rebalance = false;
    // Per-shard mode: every shard trains its own model copy over the
    // same net + config -- deterministic, so each copy decodes
    // identically to a reference engine built the same way.
    ShardRouter router(*net, modelConfig(), ropts);

    constexpr unsigned kStreams = 4;
    std::vector<std::vector<unsigned>> shardOrder(2);
    std::vector<frontend::AudioSignal> audio(kStreams);
    std::vector<StreamHandle> handles(kStreams);
    for (unsigned k = 0; k < kStreams; ++k) {
        audio[k] = testAudio(2000 + k);
        OpenStatus status = OpenStatus::Capacity;
        handles[k] = router.openKeyed(k, {}, status);
        ASSERT_EQ(status, OpenStatus::Ok);
        shardOrder[router.shardOf(handles[k])].push_back(k);
    }
    std::vector<pipeline::RecognitionResult> via(kStreams);
    for (unsigned k = 0; k < kStreams; ++k)
        pushAll(router, handles[k], audio[k]);
    for (unsigned k = 0; k < kStreams; ++k)
        via[k] = router.finish(handles[k]).get();

    for (unsigned s = 0; s < 2; ++s) {
        api::Engine fresh(*net, modelConfig(), ropts.engine);
        for (const unsigned k : shardOrder[s]) {
            const StreamHandle h = fresh.open();
            ASSERT_NE(h.value, 0u);
            pushAll(fresh, h, audio[k]);
            const pipeline::RecognitionResult expected =
                fresh.finish(h).get();
            EXPECT_EQ(via[k].words, expected.words) << k;
            EXPECT_EQ(via[k].score, expected.score) << k;
        }
    }
}

// ---------------------------------------------------------------------------
// Rebalancing.
// ---------------------------------------------------------------------------

TEST_F(FleetTest, PinnedStreamsSurviveRebalance)
{
    ShardRouter router(*model, routerOptions(2));

    // A key that rendezvouses onto shard 0 (search; placement is
    // deterministic so this terminates at the same key every run).
    std::uint64_t key0 = 0;
    while (router.placeKey(key0) != 0)
        ++key0;

    const frontend::AudioSignal audio = testAudio(31);
    OpenStatus status = OpenStatus::Capacity;
    const StreamHandle pinned = router.openKeyed(key0, {}, status);
    ASSERT_EQ(status, OpenStatus::Ok);
    ASSERT_EQ(router.shardOf(pinned), 0u);

    // Half the audio now, the rest after the rebalance: the pinned
    // stream must keep decoding across it.
    const std::vector<float> &s = audio.samples;
    const std::size_t half = s.size() / 2;
    ASSERT_TRUE(
        router.push(pinned, std::span<const float>(s.data(), half)));

    // Force shard 0 out of Healthy through the external-signal hook
    // (sustained saturation: several over-threshold observations so
    // the EWMA crosses entry).
    for (int i = 0; i < 8; ++i)
        router.observeShard(0, 500.0, 1024);
    ASSERT_NE(router.shardState(0),
              net::OverloadMonitor::State::Healthy);

    // New opens for shard-0 keys divert to shard 1...
    for (unsigned extra = 0; extra < 3; ++extra) {
        OpenStatus st = OpenStatus::Capacity;
        const StreamHandle h = router.openKeyed(key0, {}, st);
        ASSERT_EQ(st, OpenStatus::Ok);
        EXPECT_EQ(router.shardOf(h), 1u) << extra;
        EXPECT_TRUE(router.cancel(h));
    }
    EXPECT_GE(router.counters().opensDiverted, 3u);

    // ...while the pinned stream stays on shard 0, still accepts
    // audio, and produces exactly the single-engine result.
    EXPECT_EQ(router.shardOf(pinned), 0u);
    EXPECT_EQ(router.state(pinned), StreamState::Open);
    ASSERT_TRUE(router.push(
        pinned,
        std::span<const float>(s.data() + half, s.size() - half)));
    const pipeline::RecognitionResult got =
        router.finish(pinned).get();

    api::Engine reference(*model, routerOptions(2).engine);
    const StreamHandle h = reference.open();
    pushAll(reference, h, audio);
    // Chunking differs (half/half vs 512) -- irrelevant by the
    // engine's chunk-boundary-invariance guarantee.
    const pipeline::RecognitionResult expected =
        reference.finish(h).get();
    EXPECT_EQ(got.words, expected.words);
    EXPECT_EQ(got.score, expected.score);
}

TEST_F(FleetTest, CapacityRejectionFallsOverToOtherShards)
{
    RouterOptions ropts;
    ropts.shards = 2;
    ropts.engine.numThreads = 1;
    ropts.engine.maxBatchSessions = 1;  // one live stream per shard
    ShardRouter router(*model, ropts);

    std::uint64_t key0 = 0;
    while (router.placeKey(key0) != 0)
        ++key0;

    // One-shot jobs in flight on shard 0 do not take its slot.
    const frontend::AudioSignal audio = testAudio(5);
    std::future<pipeline::RecognitionResult> job =
        router.shard(0).submit(audio);

    // First open lands on its rendezvous shard 0 and fills it.
    OpenStatus status = OpenStatus::Capacity;
    const StreamHandle first = router.openKeyed(key0, {}, status);
    ASSERT_EQ(status, OpenStatus::Ok);
    ASSERT_EQ(router.shardOf(first), 0u);

    // Same key again: shard 0 is full (Capacity), so the open falls
    // over to shard 1 instead of surfacing the rejection.
    const StreamHandle second = router.openKeyed(key0, {}, status);
    ASSERT_EQ(status, OpenStatus::Ok);
    EXPECT_EQ(router.shardOf(second), 1u);
    EXPECT_EQ(router.counters().opensDiverted, 1u);

    // Both shards full: now the rejection is real.
    const StreamHandle third = router.openKeyed(key0, {}, status);
    EXPECT_EQ(status, OpenStatus::Capacity);
    EXPECT_EQ(third.value, 0u);
    EXPECT_EQ(router.counters().opensRejected, 1u);

    // Cancelling the stream on shard 0 frees its slot: the key opens
    // again (on shard 0, or wherever the rebalancer prefers).
    EXPECT_TRUE(router.cancel(first));
    const StreamHandle fourth = router.openKeyed(key0, {}, status);
    ASSERT_EQ(status, OpenStatus::Ok);
    EXPECT_NE(fourth.value, 0u);

    // Finishing a stream frees its slot too.
    pushAll(router, second, audio);
    EXPECT_GT(router.finish(second).get().audioSeconds, 0.0);
    const StreamHandle fifth = router.openKeyed(key0, {}, status);
    ASSERT_EQ(status, OpenStatus::Ok);
    EXPECT_TRUE(router.cancel(fourth));
    EXPECT_TRUE(router.cancel(fifth));
    EXPECT_GT(job.get().audioSeconds, 0.0);
}

// ---------------------------------------------------------------------------
// Handle hygiene and aggregate stats.
// ---------------------------------------------------------------------------

TEST_F(FleetTest, InvalidAndForeignHandlesDegradeCleanly)
{
    ShardRouter router(*model, routerOptions(2));
    const float sample = 0.0f;
    const auto chunk = std::span<const float>(&sample, 1);

    // Default (invalid), foreign-shard tag, and un-tagged (a raw
    // engine handle leaked into composite space) all follow the
    // invalid-handle contract.
    for (const StreamHandle h :
         {StreamHandle{}, StreamHandle{(9ull << 48) | 5ull},
          StreamHandle{5}}) {
        EXPECT_FALSE(router.push(h, chunk)) << h.value;
        EXPECT_TRUE(router.partial(h).empty()) << h.value;
        EXPECT_FALSE(router.finish(h).valid()) << h.value;
        EXPECT_FALSE(router.cancel(h)) << h.value;
        EXPECT_EQ(router.state(h), StreamState::Done) << h.value;
        EXPECT_FALSE(router.deadlineExpired(h)) << h.value;
        EXPECT_EQ(router.shardOf(h), router.shardCount()) << h.value;
    }
}

TEST_F(FleetTest, AggregateStatsSumShards)
{
    RouterOptions ropts = routerOptions(2);
    ropts.rebalance = false;
    ShardRouter router(*model, ropts);

    // Place one utterance on each shard (keys found by placement).
    std::uint64_t k0 = 0, k1 = 0;
    while (router.placeKey(k0) != 0)
        ++k0;
    while (router.placeKey(k1) != 1)
        ++k1;
    for (const std::uint64_t key : {k0, k1}) {
        OpenStatus status = OpenStatus::Capacity;
        const StreamHandle h = router.openKeyed(key, {}, status);
        ASSERT_EQ(status, OpenStatus::Ok);
        pushAll(router, h, testAudio(40 + key));
        router.finish(h).get();
    }
    router.drain();

    const server::EngineSnapshot agg = router.stats();
    const server::EngineSnapshot s0 = router.shardStats(0);
    const server::EngineSnapshot s1 = router.shardStats(1);
    EXPECT_EQ(s0.utterances, 1u);
    EXPECT_EQ(s1.utterances, 1u);
    EXPECT_EQ(agg.utterances, 2u);
    EXPECT_DOUBLE_EQ(agg.audioSeconds,
                     s0.audioSeconds + s1.audioSeconds);
    EXPECT_EQ(agg.framesDecoded,
              s0.framesDecoded + s1.framesDecoded);
    EXPECT_GE(agg.latencyP99Ms,
              std::max(s0.latencyP99Ms, s1.latencyP99Ms));
}

TEST_F(FleetTest, OneShardRouterStatsEqualItsEngine)
{
    // The fleet aggregate of one shard is that shard's snapshot, on
    // every listed field.  Utterances of different lengths decode at
    // different RTFs, so the mean of per-utterance RTFs (what the
    // engine reports) differs from total decode over total audio.
    ShardRouter router(*model, routerOptions(1));
    std::vector<double> rtfs;
    for (const unsigned phones : {3u, 12u}) {
        const StreamHandle h = router.open();
        pushAll(router, h, testAudio(60 + phones, phones));
        rtfs.push_back(router.finish(h).get().realTimeFactor());
    }
    router.drain();
    ASSERT_NE(rtfs[0], rtfs[1]);

    const server::EngineSnapshot fleet = router.stats();
    const server::EngineSnapshot engine = router.shardStats(0);
    EXPECT_EQ(engine.utterances, 2u);
    server::forEachSnapshotField([&](const auto &field) {
        // Wall-clock is sampled at each call, so the two differ.
        if (std::string_view(field.name) != "wallSeconds") {
            EXPECT_EQ(fleet.*field.member, engine.*field.member)
                << field.name;
        }
    });
}

// ---------------------------------------------------------------------------
// Arrival processes.
// ---------------------------------------------------------------------------

TEST(FleetArrivals, PoissonInterArrivalStatistics)
{
    fleet::ArrivalConfig cfg;
    cfg.ratePerSec = 50.0;
    cfg.seed = 12345;
    fleet::ArrivalProcess process(cfg);

    constexpr unsigned kN = 20000;
    std::vector<double> gaps;
    gaps.reserve(kN);
    double prev = 0.0;
    for (unsigned i = 0; i < kN; ++i) {
        const double t = process.next();
        ASSERT_GT(t, prev);
        gaps.push_back(t - prev);
        prev = t;
    }
    double mean = 0.0;
    for (const double g : gaps)
        mean += g;
    mean /= kN;
    double var = 0.0;
    for (const double g : gaps)
        var += (g - mean) * (g - mean);
    var /= kN - 1;

    // Exponential(rate): mean 1/rate, variance 1/rate^2.  The seed is
    // fixed, so these bounds are deterministic, but they are set where
    // ANY healthy seed lands (~1/sqrt(N) ~ 0.7% sampling error).
    EXPECT_NEAR(mean, 1.0 / 50.0, 0.05 / 50.0);
    EXPECT_NEAR(var, 1.0 / 2500.0, 0.15 / 2500.0);

    // Same seed, same schedule, exactly.
    fleet::ArrivalProcess replay(cfg);
    double expected = 0.0;
    for (unsigned i = 0; i < 100; ++i) {
        expected += gaps[i];
        EXPECT_DOUBLE_EQ(replay.next(), expected) << i;
    }
}

TEST(FleetArrivals, DiurnalArrivalsIncreaseAndReproduce)
{
    fleet::ArrivalConfig cfg;
    cfg.kind = fleet::ArrivalConfig::Kind::Diurnal;
    cfg.ratePerSec = 20.0;
    cfg.diurnalPeriodSec = 5.0;
    cfg.diurnalDepth = 0.8;
    cfg.seed = 7;
    fleet::ArrivalProcess a(cfg), b(cfg);
    double prev = 0.0;
    for (unsigned i = 0; i < 2000; ++i) {
        const double t = a.next();
        EXPECT_GT(t, prev);
        EXPECT_DOUBLE_EQ(t, b.next());
        prev = t;
    }
    // Thinning preserves the mean rate: ~20/s over the run.
    const double observed_rate = 2000.0 / prev;
    EXPECT_NEAR(observed_rate, 20.0, 2.0);
}

// ---------------------------------------------------------------------------
// LoadGen + capacity search.
// ---------------------------------------------------------------------------

TEST_F(FleetTest, LoadGenAccountsEveryArrival)
{
    ShardRouter router(*model, routerOptions(2));

    fleet::LoadConfig lcfg;
    lcfg.arrivals.ratePerSec = 200.0;  // virtual: pace off
    lcfg.arrivals.seed = 5;
    lcfg.durationSec = 0.2;
    lcfg.pace = false;  // blast: functional coverage, not latency
    lcfg.maxConcurrent = 16;
    lcfg.seed = 9;
    fleet::LoadGen gen(lcfg);

    std::vector<frontend::AudioSignal> corpus;
    for (unsigned u = 0; u < 3; ++u)
        corpus.push_back(testAudio(600 + u, 3));
    const fleet::LoadMetrics m = gen.run(router, corpus);

    EXPECT_GT(m.offered, 0u);
    EXPECT_GT(m.completed, 0u);
    EXPECT_EQ(m.errors, 0u);
    // Every offered arrival is accounted exactly once.
    EXPECT_EQ(m.offered,
              m.admitted + m.shedServer + m.shedClient);
    EXPECT_EQ(m.admitted,
              m.completed + m.deadlineExpired + m.errors);
    EXPECT_EQ(m.finalMs.count(), m.completed);
    EXPECT_GT(m.audioSecondsPushed, 0.0);
    // Batch-mode shards admit everything the cap lets through.
    EXPECT_EQ(m.shedServer, 0u);
}

TEST(FleetCapacity, FindCapacityBracketsAndBisects)
{
    // Synthetic target: the SLO holds up to exactly 10 streams/s.
    // (Enough samples that quantile(0.999) lands on the population,
    // and values inside the histogram's 4096 ms range.)
    const auto run_at_rate = [](double rate) {
        fleet::LoadMetrics m;
        m.offered = 100;
        m.admitted = 100;
        m.completed = 100;
        m.elapsedSec = 1.0;
        for (unsigned i = 0; i < 100; ++i)
            m.finalMs.sample(rate <= 10.0 ? 50.0 : 1500.0);
        return m;
    };
    fleet::SloConfig slo;
    slo.finalP999Ms = 1000.0;

    const fleet::CapacityResult cap =
        fleet::findCapacity(run_at_rate, slo, 2.0, 64.0, 6, 1.5);
    EXPECT_FALSE(cap.ceilingReached);
    EXPECT_GE(cap.sustainedRatePerSec, 8.0);
    EXPECT_LE(cap.sustainedRatePerSec, 10.0);
    EXPECT_DOUBLE_EQ(cap.sustainedStreams,
                     cap.sustainedRatePerSec * 1.5);
    // Doubling 2 -> 4 -> 8 -> 16 (fail) + 6 bisections.
    EXPECT_EQ(cap.probes.size(), 10u);

    // Always-meets: the ceiling is the answer and is flagged as such.
    const fleet::CapacityResult ceiling = fleet::findCapacity(
        [](double) {
            fleet::LoadMetrics m;
            m.offered = m.admitted = m.completed = 10;
            for (unsigned i = 0; i < 10; ++i)
                m.finalMs.sample(10.0);
            return m;
        },
        slo, 4.0, 32.0, 4, 2.0);
    EXPECT_TRUE(ceiling.ceilingReached);
    EXPECT_DOUBLE_EQ(ceiling.sustainedRatePerSec, 32.0);

    // Never-meets: capacity zero, no bisection to nowhere.
    const fleet::CapacityResult none = fleet::findCapacity(
        [](double) { return fleet::LoadMetrics{}; }, slo, 4.0, 32.0,
        4, 2.0);
    EXPECT_DOUBLE_EQ(none.sustainedRatePerSec, 0.0);
    EXPECT_EQ(none.probes.size(), 1u);
}

// ---------------------------------------------------------------------------
// net::Server fronting a ShardRouter.
// ---------------------------------------------------------------------------

TEST_F(FleetTest, ServerFrontsRouterAndStatsRoundTrips)
{
    ShardRouter router(*model, routerOptions(2));
    net::Server server(router);

    const frontend::AudioSignal audio = testAudio(77);
    net::Client client;
    ASSERT_TRUE(client.connectRetrying("127.0.0.1", server.port()));

    // Two streams on one connection, served through the router.
    for (const std::uint32_t id : {1u, 2u}) {
        ASSERT_EQ(client.openStream(id),
                  net::Client::OpenOutcome::Ok);
    }
    const std::vector<float> &s = audio.samples;
    for (const std::uint32_t id : {1u, 2u}) {
        for (std::size_t off = 0; off < s.size(); off += 1024) {
            const std::size_t len = std::min<std::size_t>(
                1024, s.size() - off);
            ASSERT_TRUE(client.pushChunk(
                id, std::span<const float>(s.data() + off, len)));
        }
    }
    net::FinalResult first, second;
    ASSERT_TRUE(client.finishStream(1, first));
    ASSERT_TRUE(client.finishStream(2, second));
    // Same audio, same model: the two streams (whichever shards they
    // landed on) agree.
    EXPECT_EQ(first.words, second.words);
    EXPECT_EQ(first.score, second.score);

    // And bit-identical to a direct single-engine decode.
    api::Engine reference(*model, routerOptions(2).engine);
    const StreamHandle h = reference.open();
    pushAll(reference, h, audio);
    const pipeline::RecognitionResult expected =
        reference.finish(h).get();
    EXPECT_EQ(first.words, expected.words);
    EXPECT_EQ(first.score, expected.score);

    // STATS round-trip carries the fleet-aggregate telemetry.
    net::StatsReply stats;
    ASSERT_TRUE(client.requestStats(stats));
    EXPECT_EQ(stats.engine.utterances, 2u);
    EXPECT_EQ(stats.streamsOpened, 2u);
    EXPECT_EQ(stats.streamsActive, 0u);
    EXPECT_LE(stats.overloadState, 2u);
    EXPECT_GT(stats.engine.latencyP99Ms, 0.0);
    EXPECT_EQ(server.counters().statsRequests, 1u);

    client.disconnect();
    server.stop();
}
