/**
 * @file
 * The streaming ASR server: an epoll event loop multiplexing many
 * TCP connections onto one api::Engine.
 *
 * One thread runs the whole front door.  Each connection carries any
 * number of concurrently open streams (client-chosen streamIds); each
 * stream maps 1:1 onto an Engine live-stream handle.  The loop never
 * blocks on the engine:
 *
 *  - OPEN goes through Engine::open(options, OpenStatus): Capacity
 *    (and the server-level ServerOptions::maxStreams bound) answers
 *    RETRY_AFTER -- the overload contract; a saturated server sheds
 *    load instead of stalling or queueing clients -- while
 *    InvalidOptions answers a hard ERROR.  A successful OPEN is
 *    acknowledged with the stream's (empty) first PARTIAL.
 *  - PUSH goes through Engine::pushFor(h, chunk, 0): a WouldBlock
 *    (engine backpressure) parks the chunk in a per-stream backlog
 *    the loop retries each pass, and once the backlog reaches
 *    kMaxParkedChunks the connection's EPOLLIN is dropped --
 *    per-connection backpressure propagated to TCP flow control,
 *    instead of one stalled stream wedging the loop thread the way
 *    a blocking push() would.
 *  - FINISH captures the result future; the loop polls it (0-wait)
 *    and sends FINAL when decoding completes.
 *
 * Connection state machine (per stream):
 *
 *   OPEN ──► Streaming ──FINISH──► Draining ──► Finishing ──FINAL──► gone
 *              │                     (backlog       (future
 *           CANCEL / disconnect       empties)       resolves)
 *              └──► gone (engine stream cancelled)
 *
 * A disconnect -- mid-utterance or otherwise -- cancels every stream
 * the connection still owns, so abandoned clients release engine
 * capacity immediately.
 */

#ifndef ASR_NET_SERVER_HH
#define ASR_NET_SERVER_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/stream_endpoint.hh"
#include "net/overload.hh"
#include "net/protocol.hh"
#include "net/socket.hh"

namespace asr::net {

/**
 * Chunks parked per connection (across its streams) under engine
 * backpressure before the connection's reads are paused; reads resume
 * once the backlog halves.
 */
constexpr std::size_t kMaxParkedChunks = 64;

/** Front-door configuration. */
struct ServerOptions
{
    /** Interface to bind (IPv4 dotted quad or "localhost"). */
    std::string bindAddress = "127.0.0.1";

    /** TCP port; 0 picks an ephemeral one (read it via port()). */
    std::uint16_t port = 0;

    /**
     * Server-level admission bound across all connections: OPENs
     * beyond this many concurrently open/finishing streams answer
     * RETRY_AFTER.  0 defers entirely to the engine, which answers
     * OpenStatus::Capacity (also RETRY_AFTER) once
     * EngineOptions::maxBatchSessions live streams are open.
     */
    std::size_t maxStreams = 0;

    /** Hint carried in RETRY_AFTER responses. */
    std::uint32_t retryAfterMs = 50;

    /**
     * Bounded wait on FINISH futures: a finishing stream whose
     * result is still unresolved this many milliseconds after the
     * finish entered the engine is abandoned with an ERROR(Timeout)
     * instead of wedging its connection slot forever.  0 disables
     * the bound.
     */
    std::uint32_t finishTimeoutMs = 30000;

    /**
     * Overload thresholds and degradation knobs (see
     * net/overload.hh).  Degraded admits streams with shrunk
     * beam/maxActive; Shedding answers RETRY_AFTER with
     * OverloadMonitor::backoffHintMs() instead of retryAfterMs.
     */
    OverloadOptions overload;
};

/** Monotonic counters, readable from any thread (tests, ops). */
struct ServerCounters
{
    std::uint64_t connectionsAccepted = 0;
    std::uint64_t connectionsClosed = 0;
    std::uint64_t framesReceived = 0;
    std::uint64_t malformedFrames = 0;  //!< poisoned reader -> close
    std::uint64_t streamsOpened = 0;
    std::uint64_t streamsFinished = 0;  //!< FINAL sent
    std::uint64_t streamsCancelled = 0; //!< client CANCEL frames
    std::uint64_t disconnectCancels = 0;//!< streams killed by hangup
    std::uint64_t retryAfterSent = 0;
    std::uint64_t errorsSent = 0;
    std::uint64_t degradedOpens = 0;    //!< admitted with shrunk knobs
    std::uint64_t overloadSheds = 0;    //!< RETRY_AFTER from Shedding
    std::uint64_t deadlinesSent = 0;    //!< DEADLINE_EXCEEDED frames
    std::uint64_t finishTimeouts = 0;   //!< bounded-wait abandons
    std::uint64_t statsRequests = 0;    //!< STATS frames answered
};

/**
 * The server.  Construction binds and starts the loop thread;
 * destruction (or stop()) closes every connection -- cancelling
 * their engine streams -- and joins.  The endpoint must outlive the
 * server.
 *
 * The endpoint is any api::StreamEndpoint: a bare api::Engine, or a
 * fleet::ShardRouter fronting N engines -- the fleet-serving mode.
 * The server cannot tell the difference; admission control, parking,
 * deadlines and the overload monitor all operate on the abstract
 * surface.
 */
class Server
{
  public:
    Server(api::StreamEndpoint &engine,
           const ServerOptions &options = {});
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** The bound TCP port (resolved even when options.port was 0). */
    std::uint16_t port() const { return port_; }

    /** Idempotent shutdown: close connections, join the loop. */
    void stop();

    /** Snapshot of the monotonic counters. */
    ServerCounters counters() const;

    /** Current overload state (atomic mirror of the loop's monitor). */
    OverloadMonitor::State overloadState() const
    {
        return OverloadMonitor::State(
            overloadState_.load(std::memory_order_relaxed));
    }

  private:
    /** One client stream riding a connection. */
    struct StreamEntry
    {
        api::StreamHandle handle;
        /** Chunks the engine would not take yet (pushFor ->
         *  WouldBlock), drained in arrival order each loop pass. */
        std::deque<std::vector<float>> parked;
        bool finishRequested = false;  //!< FINISH seen, backlog drains
        bool finishing = false;        //!< Engine::finish() captured
        std::future<pipeline::RecognitionResult> result;
        bool degraded = false;         //!< admitted with shrunk knobs
        std::uint32_t deadlineMs = 0;  //!< OPEN-declared budget
        std::chrono::steady_clock::time_point deadlineAt{};
        std::chrono::steady_clock::time_point finishStartedAt{};
    };

    /** One accepted connection. */
    struct Connection
    {
        Socket sock;
        FrameReader reader;
        std::vector<std::uint8_t> out;  //!< unsent response bytes
        std::size_t outOff = 0;
        std::unordered_map<std::uint32_t, StreamEntry> streams;
        std::size_t parkedTotal = 0;  //!< across all streams
        bool readPaused = false;      //!< EPOLLIN dropped (backlog)
        bool wantWrite = false;       //!< EPOLLOUT armed
        bool dead = false;            //!< close after the current pass
    };

    void loop();
    void acceptReady();
    void handleReadable(Connection &conn);
    void handleWritable(Connection &conn);
    void dispatch(Connection &conn, const Frame &frame);
    void handleOpen(Connection &conn, const Frame &frame);
    void handleStats(Connection &conn, const Frame &frame);
    void handlePush(Connection &conn, const Frame &frame);

    /** Retry parked chunks / deferred finishes / resolved futures. */
    void serviceStreams(Connection &conn);
    /** True when any connection has parked/finishing work to poll. */
    bool pendingEngineWork() const;
    /** epoll timeout for this pass: 1 ms while engine work pends,
     *  else until the nearest stream deadline, else block. */
    int loopTimeoutMs() const;

    void sendFrame(Connection &conn, FrameType type,
                   std::uint32_t stream_id,
                   std::span<const std::uint8_t> payload);
    void sendError(Connection &conn, std::uint32_t stream_id,
                   ErrorCode code, const std::string &message);
    void sendRetryAfter(Connection &conn, std::uint32_t stream_id,
                        std::uint32_t millis);
    void sendPartial(Connection &conn, std::uint32_t stream_id,
                     const std::vector<wfst::WordId> &words,
                     bool degraded);
    /** DEADLINE_EXCEEDED: terminal answer for a foreclosed stream. */
    void sendDeadline(Connection &conn, std::uint32_t stream_id,
                      std::uint32_t deadline_ms);
    void flushOut(Connection &conn);
    void updateInterest(Connection &conn);

    /** Move a FINISH whose backlog drained into the engine. */
    void beginFinish(Connection &conn, std::uint32_t stream_id,
                     StreamEntry &entry);

    void closeConnection(int fd, bool by_peer);

    /** Streams currently open or finishing, server-wide. */
    std::size_t activeStreams() const;

    api::StreamEndpoint &engine;
    ServerOptions opts;
    /** Overload state machine; owned and observed by the loop
     *  thread, mirrored into overloadState_ for readers. */
    OverloadMonitor monitor;
    std::atomic<int> overloadState_{0};
    /** Engine-wide base search knobs the Degraded state shrinks. */
    float baseBeam = 0.0f;
    std::uint32_t baseMaxActive = 0;
    Socket listener;
    Socket wakeRead;   //!< stop-pipe read end, in the epoll set
    Socket wakeWrite;  //!< written by stop()
    int epollFd = -1;
    std::uint16_t port_ = 0;
    std::unordered_map<int, std::unique_ptr<Connection>> connections;
    std::atomic<bool> stopping{false};
    std::thread thread;

    struct
    {
        std::atomic<std::uint64_t> connectionsAccepted{0};
        std::atomic<std::uint64_t> connectionsClosed{0};
        std::atomic<std::uint64_t> framesReceived{0};
        std::atomic<std::uint64_t> malformedFrames{0};
        std::atomic<std::uint64_t> streamsOpened{0};
        std::atomic<std::uint64_t> streamsFinished{0};
        std::atomic<std::uint64_t> streamsCancelled{0};
        std::atomic<std::uint64_t> disconnectCancels{0};
        std::atomic<std::uint64_t> retryAfterSent{0};
        std::atomic<std::uint64_t> errorsSent{0};
        std::atomic<std::uint64_t> degradedOpens{0};
        std::atomic<std::uint64_t> overloadSheds{0};
        std::atomic<std::uint64_t> deadlinesSent{0};
        std::atomic<std::uint64_t> finishTimeouts{0};
        std::atomic<std::uint64_t> statsRequests{0};
    } count;
};

} // namespace asr::net

#endif // ASR_NET_SERVER_HH
