/**
 * @file
 * Aggregate statistics of a decode engine serving many utterances:
 * throughput (utterances/sec), real-time-factor distribution, and
 * session latency percentiles.  Built on sim::Histogram so the server
 * layer reports through the same machinery as the cycle-level
 * simulator.
 *
 * EngineSnapshot's members are listed once, in kSnapshotFields, with
 * each one's merge rule.  The accumulator, the fleet router's
 * aggregate and the STATS wire frame all walk that list, so adding a
 * metric takes one member plus one list line.
 *
 * Thread-safe: recordUtterance may be called concurrently from any
 * number of worker threads; snapshot() returns a consistent copy.
 */

#ifndef ASR_SERVER_ENGINE_STATS_HH
#define ASR_SERVER_ENGINE_STATS_HH

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <tuple>

#include "pipeline/recognition.hh"
#include "sim/stats.hh"

namespace asr::server {

/** Consistent point-in-time copy of the engine counters. */
struct EngineSnapshot
{
    std::uint64_t utterances = 0;
    double audioSeconds = 0.0;    //!< total speech decoded
    double decodeSeconds = 0.0;   //!< summed per-utterance decode time
    double wallSeconds = 0.0;     //!< engine wall-clock (set by caller)

    double rtfMean = 0.0;         //!< decode seconds per speech second
    double rtfP50 = 0.0;
    double rtfP99 = 0.0;
    double rtfP999 = 0.0;

    // The p99.9 tail exists because open-loop load measurement is
    // about exactly that tail: a closed-loop bench's slow requests
    // self-throttle the offered load and hide it, an open-loop
    // harness keeps arriving on schedule and exposes it.
    double latencyP50Ms = 0.0;    //!< submit-to-result latency
    double latencyP99Ms = 0.0;
    double latencyP999Ms = 0.0;
    double latencyMaxMs = 0.0;

    // Live-stream serving metric: wall-clock from a stream being
    // opened to its first non-empty partial hypothesis (what an
    // interactive client perceives as responsiveness).  Only streams
    // that produced a partial are counted; all zero for engines that
    // served no live streams.
    std::uint64_t firstPartials = 0;   //!< streams that showed one
    double firstPartialP50Ms = 0.0;
    double firstPartialP99Ms = 0.0;
    double firstPartialP999Ms = 0.0;
    double firstPartialMaxMs = 0.0;

    // Decode-time split: where the serving CPU actually goes
    // (search vs DNN), plus the search arena's memory telemetry.
    double searchSeconds = 0.0;   //!< wall-clock in Viterbi search
    double dnnSeconds = 0.0;      //!< wall-clock in acoustic scoring
    std::uint64_t arenaPeakEntries = 0;  //!< worst session high-water
    std::uint64_t arenaGcRuns = 0;       //!< arena collections
    std::uint64_t bpAppendsSkipped = 0;  //!< doomed appends avoided

    // Graph memory traffic of the search (DecodeStats::
    // graphBytesTouched summed over utterances): the DRAM stream the
    // paper's accelerator caches, and the quantity the compact arc
    // layout shrinks.
    std::uint64_t framesDecoded = 0;
    std::uint64_t graphBytesTouched = 0;

    /** Mean graph bytes the search touched per decoded frame. */
    double
    graphBytesPerFrame() const
    {
        return framesDecoded > 0
                   ? double(graphBytesTouched) / double(framesDecoded)
                   : 0.0;
    }

    /** Fraction of (search + DNN) time spent in search. */
    double
    searchShare() const
    {
        const double total = searchSeconds + dnnSeconds;
        return total > 0.0 ? searchSeconds / total : 0.0;
    }

    // Always-on serving (auto-endpointed streams only; all zero
    // otherwise).  Segments also count as utterances above -- these
    // track how many utterances came out of stream segmentation and
    // how many wake gates fired.
    std::uint64_t segments = 0;   //!< auto-endpointed segments emitted
    std::uint64_t gateOpens = 0;  //!< wake-word gates that opened

    // Failure-handling telemetry: streams the overload layer opened
    // with degraded search knobs, and streams whose deadline expired
    // before their result was delivered.
    std::uint64_t degradedStreams = 0;
    std::uint64_t deadlinesExpired = 0;

    // Cross-session batched DNN scoring: one forward pass per tick
    // that gathered rows.  dnnBatchSeconds sums each pass's
    // wall-clock time, whether it ran as one GEMM or as row slabs
    // across the stage workers, so it is not their summed CPU time.
    std::uint64_t dnnBatches = 0;      //!< batched forward passes
    std::uint64_t dnnBatchedFrames = 0;//!< frames scored in them
    double dnnBatchSeconds = 0.0;      //!< wall-clock of the passes
    double dnnMaxBatchRows = 0.0;      //!< largest single batch

    // The live frame clock (api::Engine): ticks held back so paced
    // streams' chunks share one forward pass, and how long they
    // waited in total.  A hold counts from the moment it begins; its
    // seconds are added when it ends.
    std::uint64_t frameClockWaits = 0;  //!< ticks that waited
    double frameClockWaitSeconds = 0.0; //!< their summed wait

    /** Mean frames coalesced per batched forward pass. */
    double
    dnnMeanBatchRows() const
    {
        return dnnBatches > 0
                   ? double(dnnBatchedFrames) / double(dnnBatches)
                   : 0.0;
    }

    /** Throughput over the engine wall-clock. */
    double
    utterancesPerSecond() const
    {
        return wallSeconds > 0.0 ? double(utterances) / wallSeconds
                                 : 0.0;
    }

    /** Aggregate RTF: total decode time per total speech time. */
    double
    aggregateRtf() const
    {
        return audioSeconds > 0.0 ? decodeSeconds / audioSeconds : 0.0;
    }

    /** Human-readable multi-line summary. */
    std::string render() const;
};

/** How one EngineSnapshot member combines two disjoint sets of work. */
enum class Merge
{
    Sum,  //!< counts and seconds add up
    Max,  //!< peaks, wall-clock and distribution summaries
};

/** One list entry: a member's name, where it lives, how it merges. */
template <typename T>
struct SnapshotField
{
    const char *name;
    T EngineSnapshot::*member;
    Merge merge;
};

/**
 * Every EngineSnapshot member, once, in wire order: the STATS frame
 * carries them in this order.  engine_stats.cc checks at compile
 * time that each member is listed exactly once.
 *
 * Merge rules: counts and seconds add up.  Wall-clock, the arena and
 * batch peaks and every distribution summary (the RTF mean, the
 * percentiles, the maxima) keep the larger value.  Across a fleet
 * that is the worst shard's, a conservative headline rather than a
 * merge of histograms; each shard's own snapshot stays exact.
 */
inline constexpr std::tuple kSnapshotFields{
    SnapshotField{"utterances", &EngineSnapshot::utterances, Merge::Sum},
    SnapshotField{"audioSeconds", &EngineSnapshot::audioSeconds, Merge::Sum},
    SnapshotField{"decodeSeconds", &EngineSnapshot::decodeSeconds, Merge::Sum},
    SnapshotField{"wallSeconds", &EngineSnapshot::wallSeconds, Merge::Max},
    SnapshotField{"rtfMean", &EngineSnapshot::rtfMean, Merge::Max},
    SnapshotField{"rtfP50", &EngineSnapshot::rtfP50, Merge::Max},
    SnapshotField{"rtfP99", &EngineSnapshot::rtfP99, Merge::Max},
    SnapshotField{"rtfP999", &EngineSnapshot::rtfP999, Merge::Max},
    SnapshotField{"latencyP50Ms", &EngineSnapshot::latencyP50Ms, Merge::Max},
    SnapshotField{"latencyP99Ms", &EngineSnapshot::latencyP99Ms, Merge::Max},
    SnapshotField{"latencyP999Ms", &EngineSnapshot::latencyP999Ms, Merge::Max},
    SnapshotField{"latencyMaxMs", &EngineSnapshot::latencyMaxMs, Merge::Max},
    SnapshotField{"firstPartials", &EngineSnapshot::firstPartials, Merge::Sum},
    SnapshotField{"firstPartialP50Ms", &EngineSnapshot::firstPartialP50Ms,
                  Merge::Max},
    SnapshotField{"firstPartialP99Ms", &EngineSnapshot::firstPartialP99Ms,
                  Merge::Max},
    SnapshotField{"firstPartialP999Ms", &EngineSnapshot::firstPartialP999Ms,
                  Merge::Max},
    SnapshotField{"firstPartialMaxMs", &EngineSnapshot::firstPartialMaxMs,
                  Merge::Max},
    SnapshotField{"searchSeconds", &EngineSnapshot::searchSeconds, Merge::Sum},
    SnapshotField{"dnnSeconds", &EngineSnapshot::dnnSeconds, Merge::Sum},
    SnapshotField{"arenaPeakEntries", &EngineSnapshot::arenaPeakEntries,
                  Merge::Max},
    SnapshotField{"arenaGcRuns", &EngineSnapshot::arenaGcRuns, Merge::Sum},
    SnapshotField{"bpAppendsSkipped", &EngineSnapshot::bpAppendsSkipped,
                  Merge::Sum},
    SnapshotField{"framesDecoded", &EngineSnapshot::framesDecoded, Merge::Sum},
    SnapshotField{"graphBytesTouched", &EngineSnapshot::graphBytesTouched,
                  Merge::Sum},
    SnapshotField{"segments", &EngineSnapshot::segments, Merge::Sum},
    SnapshotField{"gateOpens", &EngineSnapshot::gateOpens, Merge::Sum},
    SnapshotField{"degradedStreams", &EngineSnapshot::degradedStreams,
                  Merge::Sum},
    SnapshotField{"deadlinesExpired", &EngineSnapshot::deadlinesExpired,
                  Merge::Sum},
    SnapshotField{"dnnBatches", &EngineSnapshot::dnnBatches, Merge::Sum},
    SnapshotField{"dnnBatchedFrames", &EngineSnapshot::dnnBatchedFrames,
                  Merge::Sum},
    SnapshotField{"dnnBatchSeconds", &EngineSnapshot::dnnBatchSeconds,
                  Merge::Sum},
    SnapshotField{"dnnMaxBatchRows", &EngineSnapshot::dnnMaxBatchRows,
                  Merge::Max},
    SnapshotField{"frameClockWaits", &EngineSnapshot::frameClockWaits,
                  Merge::Sum},
    SnapshotField{"frameClockWaitSeconds",
                  &EngineSnapshot::frameClockWaitSeconds, Merge::Sum},
};

/** Call @p f(field) for every kSnapshotFields entry, in order. */
template <typename F>
constexpr void
forEachSnapshotField(F &&f)
{
    std::apply([&](const auto &...field) { (f(field), ...); },
               kSnapshotFields);
}

/** Fold @p from into @p into by each field's merge rule. */
void merge(EngineSnapshot &into, const EngineSnapshot &from);

/** Thread-safe accumulator behind EngineSnapshot. */
class EngineStats
{
  public:
    EngineStats();

    /**
     * Fold one finished utterance into the aggregates.
     * @param result          the utterance's recognition result
     * @param latency_seconds submit-to-result latency (queue + decode)
     */
    void recordUtterance(const pipeline::RecognitionResult &result,
                         double latency_seconds);

    /**
     * Fold one cross-session batched forward pass into the
     * aggregates.
     * @param rows    frames coalesced into the pass
     * @param seconds wall-clock of the forward pass
     */
    void recordDnnBatch(std::size_t rows, double seconds);

    /**
     * Record a live stream's time-to-first-partial: wall-clock from
     * open() to the first non-empty partial hypothesis.
     */
    void recordFirstPartial(double seconds);

    /** Record one auto-endpointed segment result emitted. */
    void recordSegment();

    /** Record one wake-word gate opening. */
    void recordGateOpen();

    /** Record one stream opened with degraded search knobs. */
    void recordDegradedStream();

    /** Record one stream cancelled/foreclosed by its deadline. */
    void recordDeadlineExpired();

    /** Count one tick the frame clock began to hold back. */
    void beginFrameClockWait();

    /** Add the length of a hold that just ended. */
    void endFrameClockWait(double seconds);

    /** @param wall_seconds engine wall-clock for throughput */
    EngineSnapshot snapshot(double wall_seconds = 0.0) const;

    /** Reset all aggregates. */
    void clear();

  private:
    mutable std::mutex mu;
    /** The additive members and peaks; the distribution summaries
     *  stay zero here and come from the histograms in snapshot(). */
    EngineSnapshot totals;
    sim::Histogram rtf;        //!< RTF samples
    sim::Histogram latencyMs;  //!< latency samples in milliseconds
    sim::Histogram firstPartialMs;  //!< time-to-first-partial, ms
};

} // namespace asr::server

#endif // ASR_SERVER_ENGINE_STATS_HH
