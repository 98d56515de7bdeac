/**
 * @file
 * The hub: stand up a demo model behind the network front door.
 *
 * Builds the same deterministic demo WFST + acoustic model the
 * examples use (a few seconds of training at startup), wraps it in an
 * api::Engine, and serves the asr::net streaming protocol until
 * SIGINT/SIGTERM.
 *
 *   $ ./tools/asr_server [port] [threads]
 *       port 0 (default) picks an ephemeral port; it is printed
 *       either way.
 *   $ ./tools/asr_server --max-streams N [port] [threads]
 *       server-level admission bound (RETRY_AFTER beyond N); a
 *       small N makes the overload answer easy to demo.
 *   $ ./tools/asr_server --emit-demo-audio out.f32 [seed]
 *       write one synthesized demo utterance (raw float32
 *       little-endian, 16 kHz) for the satellite to stream, and
 *       exit.  The audio matches this server's model, so streaming
 *       it back produces a meaningful decode.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "net/server.hh"
#include "pipeline/model.hh"
#include "wfst/generate.hh"

using namespace asr;

namespace {

constexpr unsigned kPhonemes = 10;

wfst::Wfst
buildNet()
{
    wfst::GeneratorConfig gcfg;
    gcfg.numStates = 1500;
    gcfg.numPhonemes = kPhonemes;
    gcfg.numWords = 80;
    gcfg.seed = 7;
    return wfst::generateWfst(gcfg);
}

pipeline::AsrSystemConfig
modelConfig()
{
    pipeline::AsrSystemConfig mcfg;
    mcfg.numPhonemes = kPhonemes;
    mcfg.hiddenLayers = {48};
    mcfg.trainUtterPerPhoneme = 10;
    mcfg.trainEpochs = 10;
    mcfg.beam = 14.0f;
    mcfg.seed = 4242;
    return mcfg;
}

frontend::AudioSignal
demoUtterance(const pipeline::AsrModel &model, std::uint64_t seed)
{
    Rng rng(deriveSeed(31337, seed));
    std::vector<std::uint32_t> seq;
    const unsigned phones = 5 + unsigned(rng.below(4));
    for (unsigned i = 0; i < phones; ++i)
        seq.push_back(1 + std::uint32_t(rng.below(kPhonemes)));
    return model.synthesizer().synthesize(seq, 3);
}

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

int
emitDemoAudio(const char *path, std::uint64_t seed)
{
    std::printf("building demo model (deterministic)...\n");
    const wfst::Wfst net = buildNet();
    const pipeline::AsrModel model(net, modelConfig());
    const frontend::AudioSignal audio = demoUtterance(model, seed);
    std::FILE *f = std::fopen(path, "wb");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return EXIT_FAILURE;
    }
    const std::size_t n = std::fwrite(
        audio.samples.data(), sizeof(float), audio.samples.size(), f);
    std::fclose(f);
    if (n != audio.samples.size()) {
        std::fprintf(stderr, "short write to %s\n", path);
        return EXIT_FAILURE;
    }
    std::printf("wrote %zu samples (%.2f s at %u Hz) to %s\n",
                audio.samples.size(),
                double(audio.samples.size()) / audio.sampleRate,
                audio.sampleRate, path);
    return EXIT_SUCCESS;
}

} // namespace

int
main(int argc, char **argv)
{
    // Line-buffer stdout even when redirected, so wrappers (and the
    // loopback CI smoke) can poll the log for the bound port.
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    // A satellite hanging up between our send() calls must surface
    // as EPIPE on that one connection, not kill the whole hub.
    std::signal(SIGPIPE, SIG_IGN);
    std::size_t max_streams = 0;
    std::vector<const char *> positional;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--max-streams") == 0 &&
                   i + 1 < argc) {
            max_streams = parseCountArg(argv[++i], "stream cap",
                                        1u << 20);
        } else if (std::strcmp(argv[i], "--emit-demo-audio") == 0 &&
                   i + 1 < argc) {
            const char *path = argv[++i];
            const std::uint64_t seed =
                i + 1 < argc
                    ? parseCountArg(argv[++i], "seed", 1u << 30)
                    : 1;
            return emitDemoAudio(path, seed);
        } else {
            positional.push_back(argv[i]);
        }
    }
    const std::uint16_t port =
        positional.size() > 0
            ? parsePortArg(positional[0], /*allow_zero=*/true)
            : 0;
    const unsigned threads =
        positional.size() > 1
            ? parseCountArg(positional[1], "thread count", 256)
            : std::max(2u, std::thread::hardware_concurrency() / 2);

    std::printf("building demo model (deterministic, a few "
                "seconds)...\n");
    const wfst::Wfst net = buildNet();
    const pipeline::AsrModel model(net, modelConfig());

    api::EngineOptions eopts;
    eopts.numThreads = threads;
    api::Engine engine(model, eopts);

    net::ServerOptions sopts;
    sopts.port = port;
    sopts.maxStreams = max_streams;
    net::Server server(engine, sopts);

    std::printf("asr_server: %u threads, listening on %s:%u\n",
                threads, sopts.bindAddress.c_str(),
                unsigned(server.port()));
    std::printf("stream audio with: ./tools/satellite %s %u "
                "demo.f32\n",
                sopts.bindAddress.c_str(), unsigned(server.port()));

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    while (!g_stop)
        std::this_thread::sleep_for(std::chrono::milliseconds(100));

    server.stop();
    const net::ServerCounters c = server.counters();
    std::printf("shut down: %llu connections, %llu streams opened, "
                "%llu finished, %llu retry-after, %llu errors\n",
                (unsigned long long)c.connectionsAccepted,
                (unsigned long long)c.streamsOpened,
                (unsigned long long)c.streamsFinished,
                (unsigned long long)c.retryAfterSent,
                (unsigned long long)c.errorsSent);
    return EXIT_SUCCESS;
}
