/**
 * @file
 * A small blocking client for the streaming protocol: the satellite
 * side of the hub-and-satellite split.  One connection, any number
 * of concurrently open streams (responses are matched to streams by
 * id, so interleaving pushes across streams is fine); all calls run
 * on the caller's thread and block until their response arrives.
 *
 * The RETRY_AFTER contract surfaces as OpenOutcome::RetryAfter with
 * the server's suggested delay, so a caller can shed its own load or
 * sleep and retry (openStreamRetrying does the latter).
 */

#ifndef ASR_NET_CLIENT_HH
#define ASR_NET_CLIENT_HH

#include <cstdint>
#include <deque>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/protocol.hh"
#include "net/socket.hh"

namespace asr::net {

class Client
{
  public:
    Client() = default;

    /** Blocking TCP connect.  False (with lastError set) on failure. */
    bool connect(const std::string &host, std::uint16_t port);

    /**
     * connect with jittered exponential backoff over *transient*
     * failures (ECONNREFUSED, ETIMEDOUT, unreachable nets -- the
     * server restarting or not yet up); permanent failures (bad
     * address) fail immediately.  Sleeps start at @p base_backoff_ms
     * and double per attempt up to @p max_backoff_ms, each jittered
     * to [1/2, 1]x so a satellite fleet reconnecting after a hub
     * restart spreads out instead of thundering back in lockstep.
     */
    bool connectRetrying(const std::string &host, std::uint16_t port,
                         unsigned max_attempts = 10,
                         std::uint32_t base_backoff_ms = 10,
                         std::uint32_t max_backoff_ms = 2000);

    void disconnect();
    bool connected() const { return sock.valid(); }

    /** What the server said to an OPEN. */
    enum class OpenOutcome
    {
        Ok,         //!< stream open; ack partial consumed
        RetryAfter, //!< saturated: retry after retryAfterMs()
        Error,      //!< permanent (or connection) failure
    };

    /**
     * Open stream @p stream_id (caller-chosen, unique per
     * connection).  Blocks for the server's answer.
     * @param deadline_ms whole-stream budget carried in the OPEN
     *        (0 = none): past it the server answers
     *        DEADLINE_EXCEEDED instead of a FINAL
     */
    OpenOutcome openStream(std::uint32_t stream_id,
                           std::uint32_t deadline_ms = 0);

    /**
     * open with the documented retry loop: on RETRY_AFTER, sleep the
     * server's hint -- jittered to [1/2, 1]x and capped at
     * @p max_backoff_ms, so a shedding server is not hammered back
     * in lockstep -- and try again, up to @p max_attempts.
     * @return true once open; false on permanent error or attempts
     *         exhausted
     */
    bool openStreamRetrying(std::uint32_t stream_id,
                            unsigned max_attempts = 100,
                            std::uint32_t deadline_ms = 0,
                            std::uint32_t max_backoff_ms = 5000);

    /**
     * Send one audio chunk (fire-and-forget; server-side errors
     * arrive asynchronously and surface on the next blocking call).
     */
    bool pushChunk(std::uint32_t stream_id,
                   std::span<const float> samples);

    /** Poll the stream's current partial hypothesis (blocking). */
    bool requestPartial(std::uint32_t stream_id,
                        std::vector<wfst::WordId> &words);

    /** As above, with the wire flags (degraded marker) too. */
    bool requestPartial(std::uint32_t stream_id, PartialResult &result);

    /**
     * Close the stream and block until its FINAL result -- or its
     * DEADLINE_EXCEEDED, which returns false with deadlineExceeded()
     * set (distinguishing the budget running out from an error).
     */
    bool finishStream(std::uint32_t stream_id, FinalResult &result);

    /** Abandon the stream (no response expected). */
    bool cancelStream(std::uint32_t stream_id);

    /**
     * Poll the server's serving telemetry (blocking): the engine's
     * latency/first-partial aggregates with p50/p99/p99.9 tails, the
     * stream counters, and the overload state.  Server-wide, not
     * per-stream -- this is what a load generator steers by.
     */
    bool requestStats(StatsReply &reply);

    /** RETRY_AFTER hint from the last openStream (milliseconds). */
    std::uint32_t retryAfterMs() const { return retryAfterMs_; }

    /** True when the last finishStream ended in DEADLINE_EXCEEDED. */
    bool deadlineExceeded() const { return deadlineExceeded_; }

    /** Diagnostic for the last failure (ERROR payloads included). */
    const std::string &lastError() const { return lastError_; }

    /**
     * The code of the ERROR frame behind the last failure, so a
     * caller can tell, say, Timeout from NotOpen without matching
     * message text.  Empty when that failure carried no ERROR frame:
     * connection loss, an undecodable payload, a deadline, retries
     * exhausted.
     */
    std::optional<ErrorCode> lastErrorCode() const
    {
        return lastErrorCode_;
    }

  private:
    /** Record a failure: its diagnostic and its ERROR code, if any. */
    void setError(std::string message,
                  std::optional<ErrorCode> code = std::nullopt);

    /** Record the failure an ERROR frame for this client reports. */
    void setErrorFrom(const Frame &error_frame);

    bool sendRequest(FrameType type, std::uint32_t stream_id,
                     std::span<const std::uint8_t> payload);

    /**
     * Block until a response for @p stream_id whose type is in
     * @p accepted (or an ERROR for it) arrives; responses belonging
     * to other streams are stashed for their own waiters.  False on
     * connection loss or ERROR (lastError set; @p out holds the
     * ERROR frame when @p out_error is true).
     */
    bool waitFor(std::uint32_t stream_id,
                 std::initializer_list<FrameType> accepted,
                 Frame &out, bool *out_error = nullptr);

    bool readFrame(Frame &frame);

    /** Backoff jitter: uniform in [ceil(ms/2), ms] (0 for ms == 0). */
    std::uint32_t jittered(std::uint32_t ms);

    Socket sock;
    FrameReader reader;
    std::deque<Frame> stash;  //!< responses awaiting other waiters
    std::uint32_t retryAfterMs_ = 0;
    bool deadlineExceeded_ = false;
    std::string lastError_;
    std::optional<ErrorCode> lastErrorCode_;
    std::uint64_t rngState = 0;  //!< lazily seeded backoff jitter
};

} // namespace asr::net

#endif // ASR_NET_CLIENT_HH
