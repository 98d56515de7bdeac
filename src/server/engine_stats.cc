#include "server/engine_stats.hh"

#include <algorithm>
#include <cstdio>
#include <type_traits>

namespace asr::server {

namespace {

/** True when list entries @p a and @p b name the same member. */
template <typename A, typename B>
constexpr bool
sameMember(const SnapshotField<A> &a, const SnapshotField<B> &b)
{
    if constexpr (std::is_same_v<A, B>)
        return a.member == b.member;
    else
        return false;
}

} // namespace

// The list cannot drift from the struct: a member added without a
// list line breaks the size sum, and a member listed twice breaks
// the second check.
static_assert(std::apply(
                  [](const auto &...field) {
                      return (sizeof(EngineSnapshot{}.*field.member) +
                              ...);
                  },
                  kSnapshotFields) == sizeof(EngineSnapshot),
              "every EngineSnapshot member needs a kSnapshotFields line");
static_assert(std::apply(
                  [](const auto &...field) {
                      const auto timesListed = [&](const auto &one) {
                          return (int(sameMember(one, field)) + ...);
                      };
                      return ((timesListed(field) == 1) && ...);
                  },
                  kSnapshotFields),
              "an EngineSnapshot member is listed twice");

EngineStats::EngineStats()
    // RTF rarely exceeds a few x realtime here; 0.01 buckets keep the
    // p50/p99 estimates tight.  Latency spans queue waits, so wider
    // 1 ms buckets with a deep tail.
    : rtf(0.01, 400), latencyMs(1.0, 2048),
      firstPartialMs(1.0, 2048)
{
}

void
merge(EngineSnapshot &into, const EngineSnapshot &from)
{
    forEachSnapshotField([&](const auto &field) {
        auto &to = into.*field.member;
        const auto value = from.*field.member;
        to = field.merge == Merge::Sum ? to + value : std::max(to, value);
    });
}

void
EngineStats::recordUtterance(const pipeline::RecognitionResult &result,
                             double latency_seconds)
{
    // The utterance as a one-utterance snapshot, folded in by the
    // list's merge rules (so the arena peak is a max, not a sum).
    EngineSnapshot one;
    one.utterances = 1;
    one.audioSeconds = result.audioSeconds;
    one.decodeSeconds = result.frontendSeconds + result.acousticSeconds +
                        result.searchSeconds;
    one.searchSeconds = result.searchSeconds;
    one.dnnSeconds = result.acousticSeconds;
    one.arenaPeakEntries = result.searchStats.arenaPeakEntries;
    one.arenaGcRuns = result.searchStats.arenaGcRuns;
    one.bpAppendsSkipped = result.searchStats.bpAppendsSkipped;
    one.framesDecoded = result.searchStats.framesDecoded;
    one.graphBytesTouched = result.searchStats.graphBytesTouched;

    std::lock_guard<std::mutex> lock(mu);
    merge(totals, one);
    if (one.audioSeconds > 0.0)
        rtf.sample(one.decodeSeconds / one.audioSeconds);
    latencyMs.sample(latency_seconds * 1e3);
}

void
EngineStats::recordFirstPartial(double seconds)
{
    std::lock_guard<std::mutex> lock(mu);
    firstPartialMs.sample(seconds * 1e3);
}

void
EngineStats::recordSegment()
{
    std::lock_guard<std::mutex> lock(mu);
    ++totals.segments;
}

void
EngineStats::recordGateOpen()
{
    std::lock_guard<std::mutex> lock(mu);
    ++totals.gateOpens;
}

void
EngineStats::recordDegradedStream()
{
    std::lock_guard<std::mutex> lock(mu);
    ++totals.degradedStreams;
}

void
EngineStats::recordDeadlineExpired()
{
    std::lock_guard<std::mutex> lock(mu);
    ++totals.deadlinesExpired;
}

void
EngineStats::beginFrameClockWait()
{
    std::lock_guard<std::mutex> lock(mu);
    ++totals.frameClockWaits;
}

void
EngineStats::endFrameClockWait(double seconds)
{
    std::lock_guard<std::mutex> lock(mu);
    totals.frameClockWaitSeconds += seconds;
}

void
EngineStats::recordDnnBatch(std::size_t rows, double seconds)
{
    EngineSnapshot pass;
    pass.dnnBatches = 1;
    pass.dnnBatchedFrames = rows;
    pass.dnnBatchSeconds = seconds;
    pass.dnnMaxBatchRows = double(rows);
    std::lock_guard<std::mutex> lock(mu);
    merge(totals, pass);
}

EngineSnapshot
EngineStats::snapshot(double wall_seconds) const
{
    std::lock_guard<std::mutex> lock(mu);
    EngineSnapshot s = totals;
    s.wallSeconds = wall_seconds;
    s.rtfMean = rtf.mean();
    s.rtfP50 = rtf.quantile(0.50);
    s.rtfP99 = rtf.quantile(0.99);
    s.rtfP999 = rtf.quantile(0.999);
    s.latencyP50Ms = latencyMs.quantile(0.50);
    s.latencyP99Ms = latencyMs.quantile(0.99);
    s.latencyP999Ms = latencyMs.quantile(0.999);
    s.latencyMaxMs = latencyMs.max();
    s.firstPartials = firstPartialMs.count();
    s.firstPartialP50Ms = firstPartialMs.quantile(0.50);
    s.firstPartialP99Ms = firstPartialMs.quantile(0.99);
    s.firstPartialP999Ms = firstPartialMs.quantile(0.999);
    s.firstPartialMaxMs = firstPartialMs.max();
    return s;
}

void
EngineStats::clear()
{
    std::lock_guard<std::mutex> lock(mu);
    totals = EngineSnapshot{};
    rtf.clear();
    latencyMs.clear();
    firstPartialMs.clear();
}

std::string
EngineSnapshot::render() const
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "utterances      %llu\n"
        "audio seconds   %.3f\n"
        "decode seconds  %.3f\n"
        "throughput      %.2f utt/s\n"
        "RTF             mean %.3f  p50 %.3f  p99 %.3f\n"
        "latency ms      p50 %.1f  p99 %.1f  p99.9 %.1f  max %.1f\n",
        static_cast<unsigned long long>(utterances), audioSeconds,
        decodeSeconds, utterancesPerSecond(), rtfMean, rtfP50, rtfP99,
        latencyP50Ms, latencyP99Ms, latencyP999Ms, latencyMaxMs);
    std::string out = buf;
    if (firstPartials > 0) {
        std::snprintf(
            buf, sizeof(buf),
            "first partial   p50 %.1f  p99 %.1f  p99.9 %.1f  "
            "max %.1f ms (%llu streams)\n",
            firstPartialP50Ms, firstPartialP99Ms, firstPartialP999Ms,
            firstPartialMaxMs,
            static_cast<unsigned long long>(firstPartials));
        out += buf;
    }
    if (searchSeconds + dnnSeconds > 0.0) {
        std::snprintf(
            buf, sizeof(buf),
            "decode split    search %.3fs (%.0f%%)  dnn %.3fs\n"
            "search arena    peak %llu entries, %llu GC runs, "
            "%llu appends skipped\n",
            searchSeconds, searchShare() * 100.0, dnnSeconds,
            static_cast<unsigned long long>(arenaPeakEntries),
            static_cast<unsigned long long>(arenaGcRuns),
            static_cast<unsigned long long>(bpAppendsSkipped));
        out += buf;
    }
    if (graphBytesTouched > 0) {
        std::snprintf(
            buf, sizeof(buf),
            "graph traffic   %.1f MB touched, %.0f bytes/frame\n",
            double(graphBytesTouched) / 1e6, graphBytesPerFrame());
        out += buf;
    }
    if (segments + gateOpens > 0) {
        std::snprintf(
            buf, sizeof(buf),
            "always-on       %llu segments, %llu gate opens\n",
            static_cast<unsigned long long>(segments),
            static_cast<unsigned long long>(gateOpens));
        out += buf;
    }
    if (degradedStreams + deadlinesExpired > 0) {
        std::snprintf(
            buf, sizeof(buf),
            "failure model   %llu degraded streams, %llu deadlines "
            "expired\n",
            static_cast<unsigned long long>(degradedStreams),
            static_cast<unsigned long long>(deadlinesExpired));
        out += buf;
    }
    if (dnnBatches > 0) {
        std::snprintf(
            buf, sizeof(buf),
            "dnn batching    %llu passes, %llu frames "
            "(mean %.1f, max %.0f rows), %.3fs in GEMM\n",
            static_cast<unsigned long long>(dnnBatches),
            static_cast<unsigned long long>(dnnBatchedFrames),
            dnnMeanBatchRows(), dnnMaxBatchRows, dnnBatchSeconds);
        out += buf;
    }
    if (frameClockWaits > 0) {
        std::snprintf(buf, sizeof(buf),
                      "frame clock     %llu ticks held, %.3fs waiting\n",
                      static_cast<unsigned long long>(frameClockWaits),
                      frameClockWaitSeconds);
        out += buf;
    }
    return out;
}

} // namespace asr::server
