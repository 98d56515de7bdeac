/**
 * @file
 * Open-loop load generator against a running asr_server.
 *
 *   $ ./tools/asr_loadgen [options] <host> <port> [audio.f32 ...]
 *
 * Arrivals are drawn from a seeded Poisson process (or a diurnally
 * modulated one with --diurnal); each arrival connects, opens one
 * stream, ships its utterance in realtime-paced chunks, and records
 * first-partial and final latency.  Being open-loop, arrivals keep
 * coming on schedule no matter how the server is doing -- a refused
 * OPEN (RETRY_AFTER) is counted as a shed and dropped, never
 * retried, so the measured shed rate and latency tail are the
 * server's, not the generator's politeness.
 *
 * The corpus is the given raw-float32 files (16 kHz mono, what
 * `asr_server --emit-demo-audio` writes), or seeded noise utterances
 * of --utt-sec seconds when none are given (real decode load, if
 * meaningless words).
 *
 * Ends by polling the server's own STATS frame, so the client-side
 * percentiles can be read against the server-side ones.
 *
 * options:
 *   --rate R           mean arrivals/second (default 4)
 *   --duration S       arrival window, seconds (default 10)
 *   --diurnal          sinusoidal rate profile around --rate
 *   --period S         diurnal period (default 30)
 *   --depth F          diurnal swing in [0,1] (default 0.5)
 *   --max-concurrent N client-side cap; beyond it arrivals are
 *                      counted shed (default 64)
 *   --deadline-ms D    per-stream budget on the wire (default none)
 *   --utt-sec S        synthetic utterance length (default 1.0)
 *   --seed N           generator seed (default 1)
 *   --quiet            suppress the per-run header
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "fleet/loadgen.hh"
#include "net/client.hh"

using namespace asr;

namespace {

bool
readAudio(const char *path, std::vector<float> &samples)
{
    std::FILE *f = std::fopen(path, "rb");
    if (!f) {
        std::fprintf(stderr, "cannot open %s\n", path);
        return false;
    }
    float buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, sizeof(float), 4096, f)) > 0)
        samples.insert(samples.end(), buf, buf + n);
    std::fclose(f);
    return !samples.empty();
}

double
parseDoubleArg(const char *text, const char *what)
{
    char *end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || value < 0.0)
        fatal("invalid %s '%s'", what, text);
    return value;
}

} // namespace

int
main(int argc, char **argv)
{
    std::signal(SIGPIPE, SIG_IGN);

    fleet::LoadConfig cfg;
    cfg.arrivals.ratePerSec = 4.0;
    cfg.durationSec = 10.0;
    double utt_sec = 1.0;
    bool quiet = false;
    std::vector<const char *> positional;
    for (int i = 1; i < argc; ++i) {
        const auto is = [&](const char *flag) {
            return std::strcmp(argv[i], flag) == 0;
        };
        if (is("--rate") && i + 1 < argc) {
            cfg.arrivals.ratePerSec =
                parseDoubleArg(argv[++i], "rate");
        } else if (is("--duration") && i + 1 < argc) {
            cfg.durationSec = parseDoubleArg(argv[++i], "duration");
        } else if (is("--diurnal")) {
            cfg.arrivals.kind = fleet::ArrivalConfig::Kind::Diurnal;
        } else if (is("--period") && i + 1 < argc) {
            cfg.arrivals.diurnalPeriodSec =
                parseDoubleArg(argv[++i], "period");
        } else if (is("--depth") && i + 1 < argc) {
            cfg.arrivals.diurnalDepth =
                parseDoubleArg(argv[++i], "depth");
        } else if (is("--max-concurrent") && i + 1 < argc) {
            cfg.maxConcurrent =
                parseCountArg(argv[++i], "max-concurrent", 1u << 16);
        } else if (is("--deadline-ms") && i + 1 < argc) {
            cfg.deadlineMs = std::uint32_t(
                parseCountArg(argv[++i], "deadline", 1u << 30));
        } else if (is("--utt-sec") && i + 1 < argc) {
            utt_sec = parseDoubleArg(argv[++i], "utt-sec");
        } else if (is("--seed") && i + 1 < argc) {
            cfg.seed = parseCountArg(argv[++i], "seed", ~0u);
            cfg.arrivals.seed = cfg.seed;
        } else if (is("--quiet")) {
            quiet = true;
        } else {
            positional.push_back(argv[i]);
        }
    }
    if (positional.size() < 2) {
        std::fprintf(
            stderr,
            "usage: %s [--rate R] [--duration S] [--diurnal] "
            "[--period S] [--depth F] [--max-concurrent N] "
            "[--deadline-ms D] [--utt-sec S] [--seed N] [--quiet] "
            "<host> <port> [audio.f32 ...]\n",
            argv[0]);
        return EXIT_FAILURE;
    }
    const std::string host = positional[0];
    const std::uint16_t port =
        parsePortArg(positional[1], /*allow_zero=*/false);

    std::vector<frontend::AudioSignal> corpus;
    for (std::size_t i = 2; i < positional.size(); ++i) {
        frontend::AudioSignal audio;
        if (!readAudio(positional[i], audio.samples))
            return EXIT_FAILURE;
        corpus.push_back(std::move(audio));
    }
    if (corpus.empty()) {
        // Seeded noise: meaningless hypotheses, real decode load.
        Rng rng(cfg.seed);
        for (unsigned u = 0; u < 4; ++u) {
            frontend::AudioSignal audio;
            const std::size_t n =
                std::size_t(utt_sec * cfg.sampleRate);
            audio.samples.reserve(n);
            for (std::size_t i = 0; i < n; ++i)
                audio.samples.push_back(
                    float(rng.uniform(-0.3, 0.3)));
            corpus.push_back(std::move(audio));
        }
    }

    if (!quiet)
        std::printf(
            "offering %.2f streams/s (%s) for %.1f s against "
            "%s:%u, %zu-utterance corpus\n",
            cfg.arrivals.ratePerSec,
            cfg.arrivals.kind == fleet::ArrivalConfig::Kind::Diurnal
                ? "diurnal"
                : "poisson",
            cfg.durationSec, host.c_str(), unsigned(port),
            corpus.size());

    fleet::LoadGen gen(cfg);
    const fleet::LoadMetrics m =
        gen.runNet(host, port, corpus);

    std::printf(
        "offered %llu  admitted %llu  completed %llu  "
        "shed server/client %llu/%llu  degraded %llu  "
        "deadline %llu  errors %llu\n",
        (unsigned long long)m.offered, (unsigned long long)m.admitted,
        (unsigned long long)m.completed,
        (unsigned long long)m.shedServer,
        (unsigned long long)m.shedClient,
        (unsigned long long)m.degraded,
        (unsigned long long)m.deadlineExpired,
        (unsigned long long)m.errors);
    std::printf(
        "first-partial ms: p50 %.1f  p99 %.1f  p99.9 %.1f  "
        "(%llu samples)\n",
        m.firstPartialMs.quantile(0.50),
        m.firstPartialMs.quantile(0.99),
        m.firstPartialMs.quantile(0.999),
        (unsigned long long)m.firstPartialMs.count());
    std::printf(
        "final ms:         p50 %.1f  p99 %.1f  p99.9 %.1f  "
        "shed rate %.3f  %.2f s audio in %.2f s wall\n",
        m.finalMs.quantile(0.50), m.finalMs.quantile(0.99),
        m.finalMs.quantile(0.999), m.shedRate(),
        m.audioSecondsPushed, m.elapsedSec);

    // The server's own view, over the same wire.
    net::Client client;
    net::StatsReply stats;
    if (client.connect(host, port) &&
        client.requestStats(stats)) {
        std::printf(
            "server: %llu utterances  latency p99 %.1f ms "
            "(p99.9 %.1f)  first-partial p99 %.1f ms  "
            "retry-after %llu  degraded %llu  overload state %u\n",
            (unsigned long long)stats.engine.utterances,
            stats.engine.latencyP99Ms, stats.engine.latencyP999Ms,
            stats.engine.firstPartialP99Ms,
            (unsigned long long)stats.retryAfterSent,
            (unsigned long long)stats.engine.degradedStreams,
            unsigned(stats.overloadState));
    } else if (!quiet) {
        std::printf("server STATS unavailable: %s\n",
                    client.lastError().c_str());
    }
    return m.errors == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
