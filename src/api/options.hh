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
     * the coordinator itself plus numThreads - 1 stage workers.  The
     * same threads score a tick's forward pass as row slabs when it
     * holds more than one acoustic::kRowBlock of rows.
     */
    unsigned numThreads = 1;

    /** Base seed; session i uses deriveSeed(baseSeed, i). */
    std::uint64_t baseSeed = 1;

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
     * Validate the options: the search backend name must be one of
     * the built-in search::Backend names.
     * @return empty string when valid, else a diagnostic listing the
     *         built-in search backend names
     */
    std::string validate() const;
};

} // namespace asr::api

#endif // ASR_API_OPTIONS_HH
