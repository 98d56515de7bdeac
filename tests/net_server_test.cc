/**
 * @file
 * Loopback tests for the network front door (asr::net::Server +
 * Client over real TCP sockets):
 *
 *  - Bit-identity: audio streamed through the protocol produces
 *    exactly the words and score of an inline-scoring
 *    StreamingSession (the reference decoder) and of an in-process
 *    Engine over the same audio, with matching session ids.
 *  - Multiplexing: several interleaved streams on one connection all
 *    come back bit-identical.
 *  - The RETRY_AFTER contract, from both sources: the engine's
 *    admission limit (OpenStatus::Capacity once maxBatchSessions
 *    live streams are open; one-shot jobs do not count) and the
 *    server-level maxStreams admission bound.  In both cases the
 *    same OPEN succeeds after a slot frees -- the rejection is
 *    recoverable.
 *  - Robustness: a mid-utterance disconnect cancels the abandoned
 *    engine stream; malformed bytes poison only their own
 *    connection; requests against unknown/duplicate streams answer
 *    machine-readable ERRORs; the server keeps serving fresh
 *    connections after each failure mode.
 */

#include <chrono>
#include <cstring>
#include <functional>
#include <future>
#include <span>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "server/session.hh"
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

constexpr unsigned kPhonemes = 8;

/** Shared net + trained model for the whole suite. */
class NetServerTest : public ::testing::Test
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

    static frontend::AudioSignal
    testAudio(std::uint64_t seed, unsigned phones = 6)
    {
        Rng rng(seed);
        std::vector<std::uint32_t> seq;
        for (unsigned i = 0; i < phones; ++i)
            seq.push_back(1 + std::uint32_t(rng.below(kPhonemes)));
        return model->synthesizer().synthesize(seq, 3);
    }

    /** The reference decoder: @p audio through an inline-scoring
     *  StreamingSession as session @p id. */
    static pipeline::RecognitionResult
    referenceDecode(const frontend::AudioSignal &audio,
                    std::uint64_t id = 0)
    {
        server::SessionConfig cfg;
        cfg.id = id;
        server::StreamingSession session(*model, cfg);
        session.pushAudio(audio.samples);
        return session.finish();
    }

    /** Push @p audio over the wire in @p chunk-sample pieces. */
    static void
    pushAll(net::Client &client, std::uint32_t stream,
            const frontend::AudioSignal &audio, std::size_t chunk)
    {
        const std::vector<float> &s = audio.samples;
        for (std::size_t base = 0; base < s.size(); base += chunk) {
            const std::size_t len = std::min(chunk, s.size() - base);
            ASSERT_TRUE(client.pushChunk(
                stream,
                std::span<const float>(s.data() + base, len)))
                << client.lastError();
        }
    }

    /** Spin until @p pred holds (counters are updated by the loop
     *  thread asynchronously to client-visible responses). */
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

wfst::Wfst *NetServerTest::net = nullptr;
pipeline::AsrModel *NetServerTest::model = nullptr;

} // namespace

// ---------------------------------------------------------------------------
// Bit-identity across the wire.
// ---------------------------------------------------------------------------

TEST_F(NetServerTest, LoopbackMatchesInProcessEngineBitForBit)
{
    // The wire stream decodes as session id 0 on a fresh engine, like
    // the references (the determinism contract keys results on the
    // session id).
    const frontend::AudioSignal audio = testAudio(11);
    const pipeline::RecognitionResult want = referenceDecode(audio);
    EngineOptions opts;
    opts.numThreads = 2;
    {
        Engine inProcess(*model, opts);
        const pipeline::RecognitionResult local =
            inProcess.recognize(audio);
        EXPECT_EQ(local.words, want.words);
        EXPECT_EQ(local.score, want.score);
    }

    Engine engine(*model, opts);
    net::Server server(engine);
    net::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()))
        << client.lastError();
    ASSERT_EQ(client.openStream(1), net::Client::OpenOutcome::Ok)
        << client.lastError();
    pushAll(client, 1, audio, 512);

    net::FinalResult got;
    ASSERT_TRUE(client.finishStream(1, got)) << client.lastError();
    EXPECT_EQ(got.words, want.words);
    EXPECT_EQ(got.score, want.score);
    EXPECT_DOUBLE_EQ(got.audioSeconds, want.audioSeconds);
}

TEST_F(NetServerTest, InterleavedStreamsOnOneConnectionStayIdentical)
{
    constexpr unsigned kStreams = 3;
    std::vector<frontend::AudioSignal> audio;
    for (unsigned u = 0; u < kStreams; ++u)
        audio.push_back(testAudio(100 + u, 5 + u));

    // Stream k opens k-th on a fresh engine: session id k.
    std::vector<pipeline::RecognitionResult> want;
    for (unsigned u = 0; u < kStreams; ++u)
        want.push_back(referenceDecode(audio[u], u));

    EngineOptions opts;
    opts.numThreads = 2;
    Engine engine(*model, opts);
    net::Server server(engine);
    net::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    for (unsigned u = 0; u < kStreams; ++u)
        ASSERT_EQ(client.openStream(1 + u),
                  net::Client::OpenOutcome::Ok)
            << client.lastError();

    // Interleave: one chunk of each stream per round.
    std::vector<std::size_t> off(kStreams, 0);
    bool more = true;
    while (more) {
        more = false;
        for (unsigned u = 0; u < kStreams; ++u) {
            const std::vector<float> &s = audio[u].samples;
            if (off[u] >= s.size())
                continue;
            const std::size_t len =
                std::min<std::size_t>(512, s.size() - off[u]);
            ASSERT_TRUE(client.pushChunk(
                1 + u, std::span<const float>(s.data() + off[u],
                                              len)));
            off[u] += len;
            more = true;
        }
    }

    for (unsigned u = 0; u < kStreams; ++u) {
        net::FinalResult got;
        ASSERT_TRUE(client.finishStream(1 + u, got))
            << client.lastError();
        EXPECT_EQ(got.words, want[u].words) << "stream " << u;
        EXPECT_EQ(got.score, want[u].score) << "stream " << u;
    }
    EXPECT_EQ(server.counters().streamsFinished, kStreams);
}

TEST_F(NetServerTest, PartialsArriveWhileStreaming)
{
    EngineOptions opts;
    opts.numThreads = 2;
    Engine engine(*model, opts);
    net::Server server(engine);
    net::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    ASSERT_EQ(client.openStream(1), net::Client::OpenOutcome::Ok);

    const frontend::AudioSignal audio = testAudio(12, 8);
    const std::vector<float> &s = audio.samples;
    bool sawWords = false;
    for (std::size_t base = 0; base < s.size(); base += 256) {
        const std::size_t len = std::min<std::size_t>(
            256, s.size() - base);
        ASSERT_TRUE(client.pushChunk(
            1, std::span<const float>(s.data() + base, len)));
        std::vector<wfst::WordId> words;
        ASSERT_TRUE(client.requestPartial(1, words))
            << client.lastError();
        sawWords = sawWords || !words.empty();
    }
    // The partial *channel* must work end to end; whether words have
    // stabilized mid-utterance is decoder timing, so allow a final
    // blocking poll to be the one that sees them.
    net::FinalResult got;
    ASSERT_TRUE(client.finishStream(1, got));
    EXPECT_TRUE(sawWords || !got.words.empty());
}

// ---------------------------------------------------------------------------
// The RETRY_AFTER contract (both overload sources).
// ---------------------------------------------------------------------------

TEST_F(NetServerTest, EngineCapacityAnswersRetryAfterAndRecovers)
{
    // One coordinator slot: the second OPEN hits
    // OpenStatus::Capacity inside the engine.
    EngineOptions opts;
    opts.numThreads = 1;
    opts.maxBatchSessions = 1;
    Engine engine(*model, opts);
    net::ServerOptions sopts;
    sopts.retryAfterMs = 5;
    net::Server server(engine, sopts);

    // One-shot jobs in flight do not take the slot.
    const frontend::AudioSignal audio = testAudio(21);
    std::future<pipeline::RecognitionResult> job = engine.submit(audio);

    net::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    ASSERT_EQ(client.openStream(1), net::Client::OpenOutcome::Ok);
    ASSERT_EQ(client.openStream(2),
              net::Client::OpenOutcome::RetryAfter);
    EXPECT_EQ(client.retryAfterMs(), 5u);

    // Free the slot; the *same* OPEN must now succeed -- the
    // rejection was recoverable, not a poisoned stream id.
    pushAll(client, 1, audio, 1024);
    net::FinalResult first;
    ASSERT_TRUE(client.finishStream(1, first));

    ASSERT_TRUE(client.openStreamRetrying(2))
        << client.lastError();
    pushAll(client, 2, audio, 1024);
    net::FinalResult second;
    ASSERT_TRUE(client.finishStream(2, second));
    EXPECT_GE(server.counters().retryAfterSent, 1u);
    EXPECT_EQ(server.counters().streamsFinished, 2u);
    EXPECT_EQ(job.get().words, first.words);
}

TEST_F(NetServerTest, ServerMaxStreamsBoundsAdmissionAcrossConnections)
{
    // The engine admits maxBatchSessions (32) live streams, so here
    // the server's own tighter bound is what sheds.
    EngineOptions opts;
    opts.numThreads = 2;
    Engine engine(*model, opts);
    net::ServerOptions sopts;
    sopts.maxStreams = 1;
    sopts.retryAfterMs = 5;
    net::Server server(engine, sopts);

    net::Client a, b;
    ASSERT_TRUE(a.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(b.connect("127.0.0.1", server.port()));
    ASSERT_EQ(a.openStream(1), net::Client::OpenOutcome::Ok);
    ASSERT_EQ(b.openStream(1),
              net::Client::OpenOutcome::RetryAfter);

    const frontend::AudioSignal audio = testAudio(31);
    pushAll(a, 1, audio, 1024);
    net::FinalResult fin;
    ASSERT_TRUE(a.finishStream(1, fin));

    ASSERT_TRUE(b.openStreamRetrying(1)) << b.lastError();
    pushAll(b, 1, audio, 1024);
    ASSERT_TRUE(b.finishStream(1, fin));
}

// ---------------------------------------------------------------------------
// Failure modes: the server outlives its worst clients.
// ---------------------------------------------------------------------------

TEST_F(NetServerTest, MidUtteranceDisconnectCancelsTheEngineStream)
{
    EngineOptions opts;
    opts.numThreads = 1;
    opts.maxBatchSessions = 1;
    Engine engine(*model, opts);
    net::Server server(engine);

    {
        net::Client client;
        ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
        ASSERT_EQ(client.openStream(1),
                  net::Client::OpenOutcome::Ok);
        pushAll(client, 1, testAudio(41), 512);
        client.disconnect();  // mid-utterance hangup
    }
    ASSERT_TRUE(eventually([&] {
        return server.counters().disconnectCancels == 1;
    }));

    // The abandoned stream released the engine's only slot: a new
    // client opens immediately, no RETRY_AFTER.
    net::Client next;
    ASSERT_TRUE(next.connect("127.0.0.1", server.port()));
    EXPECT_EQ(next.openStream(1), net::Client::OpenOutcome::Ok);
}

TEST_F(NetServerTest, MalformedBytesPoisonOnlyTheirOwnConnection)
{
    EngineOptions opts;
    opts.numThreads = 2;
    Engine engine(*model, opts);
    net::Server server(engine);

    // A healthy stream on connection A...
    net::Client healthy;
    ASSERT_TRUE(healthy.connect("127.0.0.1", server.port()));
    ASSERT_EQ(healthy.openStream(1), net::Client::OpenOutcome::Ok);

    // ...while connection B talks garbage: a length prefix smaller
    // than the fixed fields.
    std::string err;
    net::Socket raw =
        net::connectTcp("127.0.0.1", server.port(), err);
    ASSERT_TRUE(raw.valid()) << err;
    const std::uint8_t junk[] = {2, 0, 0, 0, 0xFF, 0xFF};
    ASSERT_TRUE(net::sendAll(raw.fd(), junk, sizeof(junk)));

    // The server answers one ERROR frame, then closes B.
    net::FrameReader reader;
    net::Frame frame;
    bool gotError = false, closed = false;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline && !closed) {
        std::uint8_t buf[4096];
        const ssize_t n = ::recv(raw.fd(), buf, sizeof(buf), 0);
        if (n == 0) {
            closed = true;
            break;
        }
        if (n < 0)
            continue;
        reader.feed(std::span<const std::uint8_t>(
            buf, std::size_t(n)));
        while (reader.next(frame)) {
            if (frame.type == net::FrameType::RespError) {
                net::ErrorInfo info;
                ASSERT_TRUE(
                    net::decodeError(frame.payload, info));
                EXPECT_EQ(info.code, net::ErrorCode::BadFrame);
                gotError = true;
            }
        }
    }
    EXPECT_TRUE(gotError);
    EXPECT_TRUE(closed);
    EXPECT_GE(server.counters().malformedFrames, 1u);

    // Connection A never noticed.
    const frontend::AudioSignal audio = testAudio(51);
    pushAll(healthy, 1, audio, 1024);
    net::FinalResult fin;
    EXPECT_TRUE(healthy.finishStream(1, fin))
        << healthy.lastError();
}

TEST_F(NetServerTest, UnknownAndDuplicateStreamsAnswerErrors)
{
    EngineOptions opts;
    opts.numThreads = 2;
    Engine engine(*model, opts);
    net::Server server(engine);
    net::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

    // FINISH on a stream that was never opened.
    net::FinalResult fin;
    EXPECT_FALSE(client.finishStream(9, fin));
    EXPECT_FALSE(client.lastError().empty());

    // The connection survived the ERROR: open and double-open.
    ASSERT_EQ(client.openStream(1), net::Client::OpenOutcome::Ok);
    EXPECT_EQ(client.openStream(1),
              net::Client::OpenOutcome::Error);

    // And the original stream still works end to end.
    pushAll(client, 1, testAudio(61), 1024);
    EXPECT_TRUE(client.finishStream(1, fin))
        << client.lastError();
    EXPECT_GE(server.counters().errorsSent, 2u);
}

TEST_F(NetServerTest, StopWithLiveConnectionsShutsDownCleanly)
{
    EngineOptions opts;
    opts.numThreads = 2;
    Engine engine(*model, opts);
    net::Server server(engine);

    net::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    ASSERT_EQ(client.openStream(1), net::Client::OpenOutcome::Ok);
    pushAll(client, 1, testAudio(71), 512);

    server.stop();  // joins the loop; cancels the live stream
    EXPECT_EQ(server.counters().connectionsClosed,
              server.counters().connectionsAccepted);
}
