/**
 * @file
 * Graceful degradation vs reject-only shedding under overload: the
 * A/B behind the server's Degraded admission band.
 *
 * An open-loop fleet of N concurrent client threads pushes utterances
 * through a loopback asr::net::Server as fast as the wire accepts
 * them (no realtime pacing), against an engine deliberately starved
 * to two worker threads.  Both modes run the same overload monitor
 * thresholds; the only difference is OverloadOptions::enableDegraded:
 *
 *   degraded     Degraded band admits new streams with shrunk
 *                beam/maxActive (marked on the wire); Shedding still
 *                refuses with RETRY_AFTER.
 *   reject-only  the Degraded band collapses: full quality or
 *                RETRY_AFTER, nothing in between.
 *
 * Per-utterance latency is first OPEN attempt -> FINAL received, so
 * RETRY_AFTER waits land in the number a satellite user would feel.
 * A configuration "sustains" N streams when its p99 meets the SLO
 * (derived from a single-stream baseline).  The verdict row reports
 * the largest sustained N per mode; the degradation lever exists to
 * push that number strictly higher than reject-only's.
 *
 * Emits machine-readable results to BENCH_overload.json.
 * usage:
 *   overload_degradation [--quick] [--out <path>]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hh"
#include "bench_common.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "net/client.hh"
#include "net/overload.hh"
#include "net/server.hh"
#include "pipeline/model.hh"
#include "wfst/generate.hh"

using namespace asr;

namespace {

constexpr unsigned kPhonemes = 8;
constexpr std::size_t kChunkSamples = 640;  // 40 ms at 16 kHz

/**
 * Chunk pacing: each stream ships audio at this multiple of
 * realtime.  Closed-loop pacing (instead of an open-loop burst) is
 * what gives the sweep a capacity knee: below saturation latency
 * hugs the baseline, past it the backlog -- and p99 -- explodes.
 */
constexpr double kSpeedup = 6.0;

/**
 * Deliberately heavy relative to the other benches: overload is only
 * interesting when decode cost is within shouting distance of the
 * wire, so the graph is larger and the beam wider than the
 * functional-test models.
 */
pipeline::AsrModel *
buildModel()
{
    wfst::GeneratorConfig gcfg;
    gcfg.numStates = 6000;
    gcfg.numPhonemes = kPhonemes;
    gcfg.numWords = 200;
    gcfg.seed = 2016;
    static wfst::Wfst net = wfst::generateWfst(gcfg);

    pipeline::AsrSystemConfig mcfg;
    mcfg.numPhonemes = kPhonemes;
    // Cheap DNN, wide beam on a big graph: search dominates, so the
    // Degraded band's beam/maxActive squeeze actually buys capacity.
    mcfg.hiddenLayers = {32};
    mcfg.trainUtterPerPhoneme = 6;
    mcfg.trainEpochs = 6;
    mcfg.beam = 20.0f;
    mcfg.seed = 97;
    static pipeline::AsrModel model(net, mcfg);
    return &model;
}

std::vector<frontend::AudioSignal>
buildCorpus(const pipeline::AsrModel &model, unsigned count)
{
    std::vector<frontend::AudioSignal> corpus;
    corpus.reserve(count);
    for (unsigned u = 0; u < count; ++u) {
        Rng rng(deriveSeed(777, u));
        std::vector<std::uint32_t> seq;
        const unsigned phones = 20 + unsigned(rng.below(8));
        for (unsigned i = 0; i < phones; ++i)
            seq.push_back(1 + std::uint32_t(rng.below(kPhonemes)));
        corpus.push_back(model.synthesizer().synthesize(seq, 8));
    }
    return corpus;
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = p * double(values.size() - 1);
    const std::size_t lo = std::size_t(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - double(lo);
    return values[lo] * (1.0 - frac) + values[hi] * frac;
}

/** Overload thresholds scaled so a starved loopback engine trips. */
net::ServerOptions
overloadedServer(bool enable_degraded)
{
    net::ServerOptions sopts;
    sopts.overload.degradeTickLagMs = 2.0;
    sopts.overload.shedTickLagMs = 12.0;
    sopts.overload.degradeQueueDepth = 8;
    sopts.overload.shedQueueDepth = 64;
    sopts.overload.smoothing = 0.5;
    sopts.overload.backoffBaseMs = 25;
    sopts.overload.beamScale = 0.5f;
    sopts.overload.degradedMaxActive = 600;
    sopts.overload.enableDegraded = enable_degraded;
    return sopts;
}

struct ModeResult
{
    unsigned streams = 0;
    unsigned completed = 0;
    unsigned failed = 0;
    std::uint64_t openRetries = 0;
    std::uint64_t degradedFinals = 0;
    std::vector<double> finalMs;  //!< first OPEN attempt -> FINAL
    double wallSeconds = 0.0;
};

/** One utterance over an open connection: OPEN (with shed-retry),
 *  paced PUSH at kSpeedup x realtime, FINISH. */
struct UtteranceOutcome
{
    bool completed = false;
    bool degraded = false;
    double latencyMs = 0.0;  //!< first OPEN attempt -> FINAL
    std::uint64_t openRetries = 0;
};

UtteranceOutcome
streamUtterance(net::Client &client, std::uint32_t id,
                const frontend::AudioSignal &audio)
{
    using clock = std::chrono::steady_clock;
    UtteranceOutcome out;
    const auto t0 = clock::now();

    bool open = false;
    for (unsigned attempt = 0; attempt < 400; ++attempt) {
        const net::Client::OpenOutcome oc = client.openStream(id);
        if (oc == net::Client::OpenOutcome::Ok) {
            open = true;
            break;
        }
        if (oc != net::Client::OpenOutcome::RetryAfter)
            break;
        ++out.openRetries;
        const std::uint32_t hint =
            std::clamp<std::uint32_t>(client.retryAfterMs(), 1, 200);
        std::this_thread::sleep_for(std::chrono::milliseconds(hint));
    }
    if (!open)
        return out;

    bool ok = true;
    const std::vector<float> &s = audio.samples;
    const auto chunk_gap = std::chrono::duration_cast<
        clock::duration>(std::chrono::duration<double>(
        double(kChunkSamples) / 16000.0 / kSpeedup));
    auto next_push = clock::now();
    for (std::size_t off = 0; ok && off < s.size();
         off += kChunkSamples) {
        const std::size_t len = std::min(kChunkSamples, s.size() - off);
        ok = client.pushChunk(
            id, std::span<const float>(s.data() + off, len));
        next_push += chunk_gap;
        std::this_thread::sleep_until(next_push);
    }
    net::FinalResult fin;
    if (!ok || !client.finishStream(id, fin))
        return out;
    out.completed = true;
    out.degraded = fin.degraded;
    out.latencyMs = std::chrono::duration<double, std::milli>(
                        clock::now() - t0)
                        .count();
    return out;
}

/**
 * One client thread: an untimed warmup utterance (so measurements
 * reflect the steady state the monitor has already reacted to, not
 * the cold-start ramp), then `utter` timed utterances back to back.
 * Latency is charged from the *first* OPEN attempt, so shed-and-retry
 * waits count against the mode that caused them.
 */
void
runClient(std::uint16_t port,
          const std::vector<frontend::AudioSignal> &corpus,
          unsigned thread_index, unsigned utter, ModeResult &result,
          std::mutex &mu)
{
    // Staggered arrivals: give the overload monitor a few loop passes
    // to see the building backlog before the whole fleet has opened.
    std::this_thread::sleep_for(
        std::chrono::milliseconds(5 * thread_index));
    net::Client client;
    if (!client.connectRetrying("127.0.0.1", port, 20, 2)) {
        std::lock_guard<std::mutex> lock(mu);
        result.failed += utter;
        return;
    }
    streamUtterance(client, 9999,
                    corpus[thread_index % corpus.size()]);

    std::vector<double> finals;
    unsigned completed = 0, failed = 0;
    std::uint64_t retries = 0, degraded = 0;
    for (unsigned u = 0; u < utter; ++u) {
        const frontend::AudioSignal &audio =
            corpus[(thread_index * utter + u) % corpus.size()];
        const UtteranceOutcome out =
            streamUtterance(client, u + 1, audio);
        retries += out.openRetries;
        if (!out.completed) {
            ++failed;
            continue;
        }
        ++completed;
        finals.push_back(out.latencyMs);
        if (out.degraded)
            ++degraded;
    }
    std::lock_guard<std::mutex> lock(mu);
    result.completed += completed;
    result.failed += failed;
    result.openRetries += retries;
    result.degradedFinals += degraded;
    result.finalMs.insert(result.finalMs.end(), finals.begin(),
                          finals.end());
}

ModeResult
runConfig(const pipeline::AsrModel &model,
          const std::vector<frontend::AudioSignal> &corpus,
          bool enable_degraded, unsigned streams, unsigned utter)
{
    api::EngineOptions eopts;
    eopts.numThreads = 2;  // deliberately starved: overload is the point
    // Shallow engine queue so saturation surfaces as WouldBlock and
    // parks chunks at the server -- the queue-depth overload signal.
    // Deeper queues just hide the backlog from the monitor.
    eopts.maxQueuedChunks = 2;
    api::Engine engine(model, eopts);
    net::Server server(engine, overloadedServer(enable_degraded));

    ModeResult result;
    result.streams = streams;
    std::mutex mu;
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < streams; ++c)
        clients.emplace_back([&, c] {
            runClient(server.port(), corpus, c, utter, result, mu);
        });
    for (std::thread &t : clients)
        t.join();
    result.wallSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    const bench::BenchArgs args = bench::parseBenchArgs(argc, argv);
    const unsigned utter = args.quick ? 2 : 3;
    std::vector<unsigned> sweep;
    if (args.quick)
        sweep = {2, 8, 16, 24};
    else
        sweep = {2, 4, 8, 16, 24, 32};

    bench::banner("overload_degradation",
                  "graceful degradation vs reject-only shedding");
    std::printf("building the bench model (deterministic)...\n");
    const pipeline::AsrModel &model = *buildModel();
    const std::vector<frontend::AudioSignal> corpus =
        buildCorpus(model, 8);

    // SLO from an uncontended single-stream baseline: generous
    // headroom so "sustained" means "users would not notice", not
    // "identical to idle".
    const ModeResult baseline =
        runConfig(model, corpus, true, 1, utter);
    const double base_p99 = percentile(baseline.finalMs, 0.99);
    const double slo_ms = std::max(150.0, 5.0 * base_p99);
    std::printf("baseline p99 %.2f ms -> SLO %.2f ms\n", base_p99,
                slo_ms);

    struct Row
    {
        std::string mode;
        ModeResult r;
        double p50 = 0.0, p99 = 0.0, degradedShare = 0.0;
        bool meetsSlo = false;
    };
    std::vector<Row> rows;
    unsigned sustained[2] = {0, 0};  // [degraded, reject-only]

    for (const bool degraded_mode : {true, false}) {
        for (const unsigned n : sweep) {
            Row row;
            row.mode = degraded_mode ? "degraded" : "reject-only";
            row.r = runConfig(model, corpus, degraded_mode, n, utter);
            row.p50 = percentile(row.r.finalMs, 0.50);
            row.p99 = percentile(row.r.finalMs, 0.99);
            row.degradedShare =
                row.r.completed > 0
                    ? double(row.r.degradedFinals) /
                          double(row.r.completed)
                    : 0.0;
            // Failures break the SLO outright: a refused utterance
            // is worse than a slow one.
            row.meetsSlo =
                row.r.failed == 0 && row.p99 <= slo_ms;
            if (row.meetsSlo)
                sustained[degraded_mode ? 0 : 1] = std::max(
                    sustained[degraded_mode ? 0 : 1], n);
            rows.push_back(std::move(row));
        }
    }

    Table table({"mode", "streams", "done", "fail", "retries",
                 "degraded %", "final p50 (ms)", "final p99 (ms)",
                 "SLO ok"});
    bench::JsonReport report("overload");
    for (const Row &row : rows) {
        table.row()
            .add(row.mode)
            .add(int(row.r.streams))
            .add(std::uint64_t(row.r.completed))
            .add(std::uint64_t(row.r.failed))
            .add(row.r.openRetries)
            .add(100.0 * row.degradedShare, 1)
            .add(row.p50, 2)
            .add(row.p99, 2)
            .add(row.meetsSlo ? "yes" : "no");

        report.beginRow();
        report.add("mode", row.mode);
        report.add("streams", int(row.r.streams));
        report.add("utterances",
                   std::uint64_t(row.r.completed + row.r.failed));
        report.add("completed", std::uint64_t(row.r.completed));
        report.add("failed", std::uint64_t(row.r.failed));
        report.add("open_retries", row.r.openRetries);
        report.add("degraded_share", row.degradedShare);
        report.add("final_p50_ms", row.p50);
        report.add("final_p99_ms", row.p99);
        report.add("slo_ms", slo_ms);
        report.add("meets_slo", row.meetsSlo);
        report.add("max_sustained_degraded",
                   std::uint64_t(sustained[0]));
        report.add("max_sustained_reject_only",
                   std::uint64_t(sustained[1]));
        report.add("wall_seconds", row.r.wallSeconds);
    }
    table.print();
    std::printf(
        "verdict: degraded sustains %u streams at the %.0f ms p99 "
        "SLO; reject-only sustains %u\n",
        sustained[0], slo_ms, sustained[1]);
    report.write(args.outPath);
    return EXIT_SUCCESS;
}
