/**
 * @file
 * One options struct for the whole engine.
 *
 * EngineOptions embeds the shared per-session knobs
 * (server::SessionKnobs, by inheritance so the field names stay
 * flat) exactly once and adds only engine-level concerns;
 * SessionConfig receives the knobs by slice assignment, so a new
 * knob cannot be silently dropped by a per-field copy-through.
 */

#ifndef ASR_API_OPTIONS_HH
#define ASR_API_OPTIONS_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "server/session.hh"

namespace asr::api {

/** Engine-wide configuration (validated at engine construction). */
struct EngineOptions : server::SessionKnobs
{
    /**
     * Threads running the coordinator's per-session stages (>= 1):
     * the coordinator itself plus numThreads - 1 stage workers.
     */
    unsigned numThreads = 1;

    /** Base seed; session i uses deriveSeed(baseSeed, i). */
    std::uint64_t baseSeed = 1;

    /**
     * Audio chunk size the coordinator feeds a one-shot job's session
     * per push, in samples; 160 = one 10 ms frame at 16 kHz,
     * exercising the streaming path the way a live client would.
     * (Live streams arrive pre-chunked by the caller's push() calls.)
     */
    std::size_t chunkSamples = 160;

    /**
     * Ignored.  Cross-session batched scoring is the engine's only
     * execution mode; the field remains only so existing callers
     * that still set it keep compiling.
     */
    bool batchScoring = false;

    /**
     * Concurrent sessions the coordinator keeps in flight, and the
     * live-stream admission limit: open() answers
     * OpenStatus::Capacity while this many live streams are open.
     * Every tick pulls audio into each active session (a one-shot
     * job's next chunks, or whatever a live stream's inbound queue
     * holds), coalesces all pending spliced frames into one batched
     * forward pass (server::BatchScorer), then feeds the scores to
     * each session's frame-synchronous search.  The GEMM batch grows
     * with the number of active sessions, not the thread count.
     */
    std::size_t maxBatchSessions = 32;

    /**
     * Audio chunks each session advances per tick.  Larger values
     * coalesce more frames per forward pass (batch ~= sessions x
     * chunksPerTick) and amortize the per-tick stage barriers, at
     * the cost of coarser partial-result latency.  Results stay
     * bit-identical to inline per-frame scoring regardless.
     */
    std::size_t chunksPerTick = 8;

    /**
     * Backpressure bound for live streams: push() blocks once this
     * many chunks are queued and un-consumed on one stream, until
     * the engine drains some (or the stream is cancelled).  Keeps a
     * client that produces audio faster than the engine decodes it
     * from growing the inbound queue without bound.
     */
    std::size_t maxQueuedChunks = 64;

    /**
     * Terminal live-stream handles stay queryable (state/partial)
     * until this many have accumulated; then the oldest half are
     * evicted in one sweep.  Handle values are never recycled, so an
     * evicted handle degrades per the invalid-handle contract (reads
     * Done / empty) and can never alias a younger stream.  Tests
     * shrink this to exercise eviction cheaply.
     */
    std::size_t retiredHandleCap = 1024;

    /**
     * Acoustic scoring backend name ("reference", "blocked", "int8");
     * empty keeps the model's configured backend.  Only consulted by
     * the model-building constructor -- an engine over an existing
     * AsrModel scores through whatever backend that model owns.
     */
    std::string acousticBackend;

    /**
     * Validate the options: the search backend name must be in the
     * search::Backend registry and the acoustic backend name (when
     * set) must be a known acoustic::BackendKind.
     * @return empty string when valid, else a diagnostic listing the
     *         registered backend names
     */
    std::string validate() const;
};

} // namespace asr::api

#endif // ASR_API_OPTIONS_HH
