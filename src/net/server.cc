#include "net/server.hh"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "common/fault.hh"
#include "common/logging.hh"

namespace asr::net {

// ---------------------------------------------------------------------------
// Lifecycle.
// ---------------------------------------------------------------------------

Server::Server(api::StreamEndpoint &engine_ref,
               const ServerOptions &options)
    : engine(engine_ref), opts(options), monitor(options.overload)
{
    // The base knobs Degraded admission shrinks: the endpoint's own
    // configured beam; maxActive has no engine-wide base (0 =
    // unbounded), so degradation introduces the cap.
    baseBeam = engine.baseBeam();
    baseMaxActive = 0;

    std::string err;
    listener = listenTcp(opts.bindAddress, opts.port, err);
    if (!listener.valid())
        fatal("net::Server cannot listen on %s:%u: %s",
              opts.bindAddress.c_str(), unsigned(opts.port),
              err.c_str());
    port_ = localPort(listener.fd());

    int pipe_fds[2];
    if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0)
        fatal("net::Server pipe2: %s", std::strerror(errno));
    wakeRead = Socket(pipe_fds[0]);
    wakeWrite = Socket(pipe_fds[1]);

    epollFd = ::epoll_create1(EPOLL_CLOEXEC);
    if (epollFd < 0)
        fatal("net::Server epoll_create1: %s", std::strerror(errno));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listener.fd();
    ::epoll_ctl(epollFd, EPOLL_CTL_ADD, listener.fd(), &ev);
    ev.data.fd = wakeRead.fd();
    ::epoll_ctl(epollFd, EPOLL_CTL_ADD, wakeRead.fd(), &ev);

    thread = std::thread([this] { loop(); });
}

Server::~Server()
{
    stop();
    if (epollFd >= 0)
        ::close(epollFd);
}

void
Server::stop()
{
    bool expected = false;
    if (!stopping.compare_exchange_strong(expected, true)) {
        if (thread.joinable())
            thread.join();
        return;
    }
    // The wake byte MUST land: an unchecked EINTR here would leave
    // the loop blocked in epoll_wait forever.  EAGAIN means the pipe
    // already holds an unread wake, which serves the same purpose --
    // which is also why only EINTR may be *injected* here: a
    // simulated EAGAIN would claim a pending wake that was never
    // written.
    const std::uint8_t byte = 1;
    for (;;) {
        ssize_t n;
        if (const int e = fault::failErrno("net.server.wake",
                                           {EINTR})) {
            n = -1;
            errno = e;
        } else {
            n = ::write(wakeWrite.fd(), &byte, 1);
        }
        if (n >= 0 || errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        warn("net::Server stop wake write: %s", std::strerror(errno));
        break;
    }
    if (thread.joinable())
        thread.join();
}

ServerCounters
Server::counters() const
{
    ServerCounters c;
    c.connectionsAccepted = count.connectionsAccepted.load();
    c.connectionsClosed = count.connectionsClosed.load();
    c.framesReceived = count.framesReceived.load();
    c.malformedFrames = count.malformedFrames.load();
    c.streamsOpened = count.streamsOpened.load();
    c.streamsFinished = count.streamsFinished.load();
    c.streamsCancelled = count.streamsCancelled.load();
    c.disconnectCancels = count.disconnectCancels.load();
    c.retryAfterSent = count.retryAfterSent.load();
    c.errorsSent = count.errorsSent.load();
    c.degradedOpens = count.degradedOpens.load();
    c.overloadSheds = count.overloadSheds.load();
    c.deadlinesSent = count.deadlinesSent.load();
    c.finishTimeouts = count.finishTimeouts.load();
    c.statsRequests = count.statsRequests.load();
    return c;
}

// ---------------------------------------------------------------------------
// Event loop.
// ---------------------------------------------------------------------------

bool
Server::pendingEngineWork() const
{
    for (const auto &[fd, conn] : connections) {
        if (conn->parkedTotal > 0)
            return true;
        for (const auto &[id, entry] : conn->streams)
            if (entry.finishing || entry.finishRequested)
                return true;
    }
    return false;
}

int
Server::loopTimeoutMs() const
{
    // Engine-side progress (parked chunks draining, finish futures
    // resolving) is not epoll-visible, so poll it on a short tick
    // while any is pending.
    if (pendingEngineWork())
        return 1;
    // Otherwise sleep until the nearest stream deadline, if any.
    bool have_deadline = false;
    std::chrono::steady_clock::time_point next{};
    for (const auto &[fd, conn] : connections)
        for (const auto &[id, entry] : conn->streams)
            if (entry.deadlineMs > 0 &&
                (!have_deadline || entry.deadlineAt < next)) {
                have_deadline = true;
                next = entry.deadlineAt;
            }
    if (!have_deadline)
        return -1;  // block until a socket (or stop()) wakes us
    const auto until = next - std::chrono::steady_clock::now();
    const auto ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(until)
            .count();
    return int(std::clamp<long long>(ms + 1, 1, 60'000));
}

std::size_t
Server::activeStreams() const
{
    std::size_t n = 0;
    for (const auto &[fd, conn] : connections)
        n += conn->streams.size();
    return n;
}

void
Server::loop()
{
    constexpr int kMaxEvents = 64;
    epoll_event events[kMaxEvents];
    bool stop_seen = false;
    while (!stop_seen) {
        const int timeout_ms = loopTimeoutMs();
        const int n =
            ::epoll_wait(epollFd, events, kMaxEvents, timeout_ms);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            warn("net::Server epoll_wait: %s", std::strerror(errno));
            break;
        }
        const auto pass_start = std::chrono::steady_clock::now();
        for (int i = 0; i < n; ++i) {
            const int fd = events[i].data.fd;
            if (fd == wakeRead.fd()) {
                stop_seen = true;
                continue;
            }
            if (fd == listener.fd()) {
                acceptReady();
                continue;
            }
            const auto it = connections.find(fd);
            if (it == connections.end())
                continue;
            Connection &conn = *it->second;
            if (events[i].events & (EPOLLHUP | EPOLLERR))
                conn.dead = true;
            if (!conn.dead && (events[i].events & EPOLLOUT))
                handleWritable(conn);
            if (!conn.dead && (events[i].events & EPOLLIN))
                handleReadable(conn);
        }

        // Retry engine work and reap finished futures on every pass.
        for (auto &[fd, conn] : connections)
            if (!conn->dead)
                serviceStreams(*conn);

        // Fold this pass into the overload monitor: how long the
        // loop was unavailable to its sockets (tick lag) and how
        // much audio sits parked for engine backpressure (queue
        // depth).  The mirror lets tests and ops read the state
        // without touching loop-owned data.
        std::size_t parked = 0;
        for (const auto &[fd, conn] : connections)
            parked += conn->parkedTotal;
        const double lag_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - pass_start)
                .count();
        overloadState_.store(int(monitor.observe(lag_ms, parked)),
                             std::memory_order_relaxed);

        // Close connections that died this pass (peer hangup, fatal
        // protocol error, send failure).
        std::vector<int> dead;
        for (const auto &[fd, conn] : connections)
            if (conn->dead)
                dead.push_back(fd);
        for (const int fd : dead)
            closeConnection(fd, /*by_peer=*/true);
    }

    // Shutdown: every surviving stream is abandoned exactly as if its
    // client had disconnected (the engine stream is cancelled), so an
    // engine outliving the server never waits on input that cannot
    // arrive.
    std::vector<int> open_fds;
    open_fds.reserve(connections.size());
    for (const auto &[fd, conn] : connections)
        open_fds.push_back(fd);
    for (const int fd : open_fds)
        closeConnection(fd, /*by_peer=*/false);
}

void
Server::acceptReady()
{
    for (;;) {
        int fd;
        if (const int e = fault::failErrno(
                "net.server.accept", {EINTR, ECONNABORTED, EAGAIN})) {
            fd = -1;
            errno = e;
        } else {
            fd = ::accept4(listener.fd(), nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
        }
        if (fd < 0) {
            // ECONNABORTED is one connection resetting inside the
            // accept queue, not a listener problem: the next entry
            // may be fine, so keep accepting.
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            return;  // EAGAIN (or transient error): try next wakeup
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        auto conn = std::make_unique<Connection>();
        conn->sock = Socket(fd);
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLRDHUP;
        ev.data.fd = fd;
        if (::epoll_ctl(epollFd, EPOLL_CTL_ADD, fd, &ev) != 0) {
            warn("net::Server epoll_ctl(add): %s",
                 std::strerror(errno));
            continue;  // conn closes fd on scope exit
        }
        connections.emplace(fd, std::move(conn));
        ++count.connectionsAccepted;
    }
}

void
Server::handleReadable(Connection &conn)
{
    std::uint8_t buf[64 * 1024];
    for (;;) {
        ssize_t n;
        std::size_t want = sizeof(buf);
        if (const int e = fault::failErrno(
                "net.server.recv", {EINTR, EAGAIN, ECONNRESET})) {
            n = -1;
            errno = e;
        } else {
            want = fault::shortenIo("net.server.recv.short", want);
            n = ::recv(conn.sock.fd(), buf, want, 0);
        }
        if (n > 0) {
            conn.reader.feed(
                std::span<const std::uint8_t>(buf, std::size_t(n)));
            if (std::size_t(n) < want)
                break;  // drained (level-triggered: more wakes us)
            continue;
        }
        if (n == 0) {
            conn.dead = true;  // orderly peer close
            break;
        }
        if (errno == EINTR)
            continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK)
            conn.dead = true;
        break;
    }

    Frame frame;
    while (!conn.dead && conn.reader.next(frame)) {
        ++count.framesReceived;
        dispatch(conn, frame);
    }
    if (conn.reader.malformed() && !conn.dead) {
        // Resynchronizing inside a corrupt byte stream is impossible;
        // diagnose on stream 0 and drop the connection.
        ++count.malformedFrames;
        sendError(conn, 0, ErrorCode::BadFrame,
                  conn.reader.error());
        conn.dead = true;
    }
}

void
Server::handleWritable(Connection &conn)
{
    flushOut(conn);
}

// ---------------------------------------------------------------------------
// Frame dispatch.
// ---------------------------------------------------------------------------

void
Server::dispatch(Connection &conn, const Frame &frame)
{
    if (!isRequestType(std::uint8_t(frame.type))) {
        ++count.malformedFrames;
        sendError(conn, frame.streamId, ErrorCode::BadFrame,
                  "not a request frame");
        conn.dead = true;
        return;
    }
    switch (frame.type) {
    case FrameType::Open:
        handleOpen(conn, frame);
        return;
    case FrameType::Push:
        handlePush(conn, frame);
        return;
    case FrameType::Partial: {
        const auto it = conn.streams.find(frame.streamId);
        if (it == conn.streams.end()) {
            sendError(conn, frame.streamId, ErrorCode::UnknownStream,
                      "partial for a stream that is not open");
            return;
        }
        sendPartial(conn, frame.streamId,
                    engine.partial(it->second.handle),
                    it->second.degraded);
        return;
    }
    case FrameType::Finish: {
        const auto it = conn.streams.find(frame.streamId);
        if (it == conn.streams.end()) {
            sendError(conn, frame.streamId, ErrorCode::UnknownStream,
                      "finish for a stream that is not open");
            return;
        }
        StreamEntry &entry = it->second;
        if (entry.finishRequested) {
            sendError(conn, frame.streamId, ErrorCode::NotOpen,
                      "finish already requested");
            return;
        }
        entry.finishRequested = true;
        // Parked chunks are audio the client sent before FINISH;
        // they must reach the engine first (Draining state).  With
        // no backlog the finish enters the engine immediately.
        if (entry.parked.empty())
            beginFinish(conn, frame.streamId, entry);
        return;
    }
    case FrameType::Cancel: {
        const auto it = conn.streams.find(frame.streamId);
        if (it == conn.streams.end()) {
            sendError(conn, frame.streamId, ErrorCode::UnknownStream,
                      "cancel for a stream that is not open");
            return;
        }
        engine.cancel(it->second.handle);
        conn.parkedTotal -= it->second.parked.size();
        conn.streams.erase(it);
        ++count.streamsCancelled;
        return;
    }
    case FrameType::Stats:
        handleStats(conn, frame);
        return;
    default:
        return;  // unreachable: isRequestType covered the rest
    }
}

void
Server::handleOpen(Connection &conn, const Frame &frame)
{
    if (conn.streams.count(frame.streamId) != 0) {
        sendError(conn, frame.streamId, ErrorCode::DuplicateStream,
                  "streamId already open on this connection");
        return;
    }
    OpenRequest req;
    if (!decodeOpenRequest(frame.payload, req)) {
        ++count.malformedFrames;
        sendError(conn, frame.streamId, ErrorCode::BadFrame,
                  "open payload is neither empty nor u32 deadlineMs");
        conn.dead = true;
        return;
    }
    // Overload shedding first: a server past its shed thresholds
    // refuses work outright, with a backoff hint that grows with the
    // overload so the retrying fleet spreads out.
    if (monitor.state() == OverloadMonitor::State::Shedding) {
        ++count.overloadSheds;
        sendRetryAfter(conn, frame.streamId, monitor.backoffHintMs());
        return;
    }
    // Server-level admission bound next: the operator's valve
    // across all connections, checked before the engine's own
    // limit (one live stream per coordinator slot).
    if (opts.maxStreams != 0 && activeStreams() >= opts.maxStreams) {
        sendRetryAfter(conn, frame.streamId, opts.retryAfterMs);
        return;
    }
    api::StreamOptions stream_opts;
    stream_opts.deadlineMs = req.deadlineMs;
    const bool degraded =
        monitor.state() == OverloadMonitor::State::Degraded;
    if (degraded) {
        // Degraded admission: the paper's accuracy/latency knob as a
        // load-shedding lever -- shrink this stream's search effort
        // instead of refusing it.
        stream_opts.beam = monitor.degradedBeam(baseBeam);
        stream_opts.maxActive = monitor.degradedMaxActive(baseMaxActive);
        stream_opts.degraded = true;
    }
    api::OpenStatus status;
    const api::StreamHandle h = engine.open(stream_opts, status);
    switch (status) {
    case api::OpenStatus::Capacity:
        // The engine's recoverable rejection becomes the protocol's
        // load-shedding answer: try again shortly.
        sendRetryAfter(conn, frame.streamId, opts.retryAfterMs);
        return;
    case api::OpenStatus::InvalidOptions:
        sendError(conn, frame.streamId, ErrorCode::InvalidOptions,
                  "engine rejected the stream options");
        return;
    case api::OpenStatus::Ok:
        break;
    }
    StreamEntry entry;
    entry.handle = h;
    entry.degraded = degraded;
    entry.deadlineMs = req.deadlineMs;
    if (req.deadlineMs > 0)
        entry.deadlineAt = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(req.deadlineMs);
    conn.streams.emplace(frame.streamId, std::move(entry));
    ++count.streamsOpened;
    if (degraded)
        ++count.degradedOpens;
    // Ack: the stream's current -- necessarily empty -- partial.
    sendPartial(conn, frame.streamId, {}, degraded);
}

void
Server::handleStats(Connection &conn, const Frame &frame)
{
    if (!frame.payload.empty()) {
        ++count.malformedFrames;
        sendError(conn, frame.streamId, ErrorCode::BadFrame,
                  "stats request carries a payload");
        conn.dead = true;
        return;
    }
    // The loop thread owns the monitor, so this reads it directly;
    // activeStreams() counts this server's own connections, which is
    // the load the *endpoint behind it* may not know about (parked
    // backlogs included).
    StatsReply reply;
    reply.engine = engine.stats();
    reply.streamsOpened = count.streamsOpened.load();
    reply.streamsActive = activeStreams();
    reply.retryAfterSent = count.retryAfterSent.load();
    reply.overloadState = std::uint8_t(monitor.state());
    std::vector<std::uint8_t> payload;
    encodeStatsReply(payload, reply);
    ++count.statsRequests;
    sendFrame(conn, FrameType::RespStats, frame.streamId, payload);
}

void
Server::handlePush(Connection &conn, const Frame &frame)
{
    const auto it = conn.streams.find(frame.streamId);
    if (it == conn.streams.end()) {
        sendError(conn, frame.streamId, ErrorCode::UnknownStream,
                  "push to a stream that is not open");
        return;
    }
    StreamEntry &entry = it->second;
    if (entry.finishRequested) {
        sendError(conn, frame.streamId, ErrorCode::NotOpen,
                  "push after finish");
        return;
    }
    std::vector<float> samples;
    if (!decodeSamples(frame.payload, samples)) {
        ++count.malformedFrames;
        sendError(conn, frame.streamId, ErrorCode::BadFrame,
                  "push payload is not a finite float32 array");
        conn.dead = true;
        return;
    }
    // In-order delivery: once anything is parked, later chunks must
    // park behind it.
    if (entry.parked.empty()) {
        switch (engine.pushFor(entry.handle, samples,
                               std::chrono::nanoseconds(0))) {
        case api::PushResult::Ok:
            return;
        case api::PushResult::WouldBlock:
            break;  // park below
        case api::PushResult::Rejected:
            if (engine.deadlineExpired(entry.handle))
                sendDeadline(conn, frame.streamId, entry.deadlineMs);
            else
                sendError(conn, frame.streamId, ErrorCode::NotOpen,
                          "stream no longer open in the engine");
            conn.parkedTotal -= entry.parked.size();
            conn.streams.erase(it);
            return;
        }
    }
    entry.parked.push_back(std::move(samples));
    ++conn.parkedTotal;
    // Per-connection backpressure: stop reading this socket until
    // the engine drains the backlog; TCP flow control pushes the
    // stall back to the producing client without costing a thread.
    if (!conn.readPaused &&
        conn.parkedTotal >= kMaxParkedChunks) {
        conn.readPaused = true;
        updateInterest(conn);
    }
}

// ---------------------------------------------------------------------------
// Engine-side servicing (runs every loop pass).
// ---------------------------------------------------------------------------

void
Server::beginFinish(Connection &conn, std::uint32_t stream_id,
                    StreamEntry &entry)
{
    entry.result = engine.finish(entry.handle);
    entry.finishStartedAt = std::chrono::steady_clock::now();
    if (!entry.result.valid()) {
        if (engine.deadlineExpired(entry.handle)) {
            // The watchdog foreclosed the stream before the finish
            // reached the engine: answer the deadline, not an error.
            sendDeadline(conn, stream_id, entry.deadlineMs);
            conn.parkedTotal -= entry.parked.size();
            conn.streams.erase(stream_id);
            return;
        }
        // The engine no longer recognizes the stream (cancelled or
        // evicted under us); degrade exactly like a push race.
        sendError(conn, stream_id, ErrorCode::NotOpen,
                  "stream no longer open in the engine");
        conn.parkedTotal -= entry.parked.size();
        conn.streams.erase(stream_id);
        return;
    }
    entry.finishing = true;
}

void
Server::serviceStreams(Connection &conn)
{
    // Walk a snapshot of the ids: every branch below may erase the
    // entry it is working on, and an unordered_map iterator does not
    // survive that gracefully across the helper calls.
    std::vector<std::uint32_t> ids;
    ids.reserve(conn.streams.size());
    for (const auto &[id, entry] : conn.streams)
        ids.push_back(id);

    for (const std::uint32_t id : ids) {
        auto it = conn.streams.find(id);
        if (it == conn.streams.end())
            continue;
        StreamEntry &entry = it->second;

        // Drain the parked backlog while the engine takes chunks.
        bool erased = false;
        while (!entry.parked.empty()) {
            const api::PushResult r = engine.pushFor(
                entry.handle, entry.parked.front(),
                std::chrono::nanoseconds(0));
            if (r == api::PushResult::Ok) {
                entry.parked.pop_front();
                --conn.parkedTotal;
                continue;
            }
            if (r == api::PushResult::WouldBlock)
                break;
            // Rejected: the stream died under its backlog -- by
            // watchdog foreclosure (answer the deadline) or any
            // other cancellation (answer an error).
            if (engine.deadlineExpired(entry.handle))
                sendDeadline(conn, id, entry.deadlineMs);
            else
                sendError(conn, id, ErrorCode::NotOpen,
                          "stream no longer open in the engine");
            conn.parkedTotal -= entry.parked.size();
            conn.streams.erase(it);
            erased = true;
            break;
        }
        if (erased)
            continue;

        if (entry.finishRequested && !entry.finishing &&
            entry.parked.empty()) {
            beginFinish(conn, id, entry);  // may erase the entry
            it = conn.streams.find(id);
            if (it == conn.streams.end())
                continue;
        }

        StreamEntry &e = it->second;
        const auto now = std::chrono::steady_clock::now();
        if (e.finishing && e.result.valid() &&
            e.result.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready) {
            const pipeline::RecognitionResult res = e.result.get();
            if (engine.deadlineExpired(e.handle)) {
                // The watchdog foreclosed the finish: its future
                // resolves empty and the wire answer is the
                // deadline, not a FINAL.
                sendDeadline(conn, id, e.deadlineMs);
                conn.streams.erase(it);
                continue;
            }
            FinalResult wire;
            wire.words = res.words;
            wire.score = res.score;
            wire.audioSeconds = res.audioSeconds;
            wire.degraded = e.degraded;
            std::vector<std::uint8_t> payload;
            encodeFinal(payload, wire);
            // Count before sending: a client that has received the
            // FINAL must observe the counter already bumped.
            ++count.streamsFinished;
            sendFrame(conn, FrameType::RespFinal, id, payload);
            conn.streams.erase(it);
            continue;
        }

        // Bounded finish wait: a finishing stream whose future never
        // resolves must not wedge its slot forever.  (With a
        // deadline the engine watchdog resolves the future at the
        // deadline, so this bound only bites deadline-less streams
        // against a wedged engine.)
        if (e.finishing && opts.finishTimeoutMs > 0 &&
            now >= e.finishStartedAt + std::chrono::milliseconds(
                                           opts.finishTimeoutMs)) {
            ++count.finishTimeouts;
            sendError(conn, id, ErrorCode::Timeout,
                      "finish result overdue; stream abandoned");
            engine.cancel(e.handle);  // no-op once finishing took hold
            conn.streams.erase(it);
            continue;
        }

        // Deadline foreclosure for streams that are not finishing.
        // The engine watchdog is the single authority on expiry --
        // it cancels the engine side and stamps deadlineExpired --
        // and the server answers the wire side and frees the slot
        // without waiting for the client's next request.  Until the
        // watchdog's verdict lands, keep polling: loopTimeoutMs()
        // stays at its 1 ms floor for a stream past deadlineAt.
        if (!e.finishing && e.deadlineMs > 0 &&
            now >= e.deadlineAt) {
            const bool expired = engine.deadlineExpired(e.handle);
            // Backstop: a watchdog verdict a full second overdue
            // (stalled engine, evicted handle) must not pin the
            // slot forever -- foreclose from this side instead.
            if (expired ||
                now >= e.deadlineAt + std::chrono::seconds(1)) {
                if (!expired)
                    engine.cancel(e.handle);
                sendDeadline(conn, id, e.deadlineMs);
                conn.parkedTotal -= e.parked.size();
                conn.streams.erase(it);
            }
            continue;
        }
    }

    // Resume reads once the backlog halves: hysteresis, so a
    // connection hovering at the bound does not thrash epoll_ctl.
    if (conn.readPaused &&
        conn.parkedTotal <= kMaxParkedChunks / 2) {
        conn.readPaused = false;
        updateInterest(conn);
    }
}

// ---------------------------------------------------------------------------
// Responses / socket writes.
// ---------------------------------------------------------------------------

void
Server::sendFrame(Connection &conn, FrameType type,
                  std::uint32_t stream_id,
                  std::span<const std::uint8_t> payload)
{
    if (conn.dead)
        return;
    appendFrame(conn.out, type, stream_id, payload);
    flushOut(conn);
}

void
Server::sendError(Connection &conn, std::uint32_t stream_id,
                  ErrorCode code, const std::string &message)
{
    ErrorInfo info;
    info.code = code;
    info.message = message;
    std::vector<std::uint8_t> payload;
    encodeError(payload, info);
    ++count.errorsSent;
    sendFrame(conn, FrameType::RespError, stream_id, payload);
}

void
Server::sendRetryAfter(Connection &conn, std::uint32_t stream_id,
                       std::uint32_t millis)
{
    std::vector<std::uint8_t> payload;
    encodeRetryAfter(payload, millis);
    ++count.retryAfterSent;
    sendFrame(conn, FrameType::RespRetryAfter, stream_id, payload);
}

void
Server::sendPartial(Connection &conn, std::uint32_t stream_id,
                    const std::vector<wfst::WordId> &words,
                    bool degraded)
{
    PartialResult r;
    r.words = words;
    r.degraded = degraded;
    std::vector<std::uint8_t> payload;
    encodePartial(payload, r);
    sendFrame(conn, FrameType::RespPartial, stream_id, payload);
}

void
Server::sendDeadline(Connection &conn, std::uint32_t stream_id,
                     std::uint32_t deadline_ms)
{
    std::vector<std::uint8_t> payload;
    encodeDeadlineExceeded(payload, deadline_ms);
    ++count.deadlinesSent;
    sendFrame(conn, FrameType::RespDeadline, stream_id, payload);
}

void
Server::flushOut(Connection &conn)
{
    while (conn.outOff < conn.out.size()) {
        ssize_t n;
        if (const int e = fault::failErrno(
                "net.server.send", {EINTR, EAGAIN, EPIPE})) {
            n = -1;
            errno = e;
        } else {
            const std::size_t len = fault::shortenIo(
                "net.server.send.short",
                conn.out.size() - conn.outOff);
            n = ::send(conn.sock.fd(), conn.out.data() + conn.outOff,
                       len, MSG_NOSIGNAL);
        }
        if (n >= 0) {
            conn.outOff += std::size_t(n);
            continue;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            if (!conn.wantWrite) {
                conn.wantWrite = true;
                updateInterest(conn);
            }
            return;
        }
        conn.dead = true;
        return;
    }
    conn.out.clear();
    conn.outOff = 0;
    if (conn.wantWrite) {
        conn.wantWrite = false;
        updateInterest(conn);
    }
}

void
Server::updateInterest(Connection &conn)
{
    epoll_event ev{};
    ev.events = EPOLLRDHUP;
    if (!conn.readPaused)
        ev.events |= EPOLLIN;
    if (conn.wantWrite)
        ev.events |= EPOLLOUT;
    ev.data.fd = conn.sock.fd();
    ::epoll_ctl(epollFd, EPOLL_CTL_MOD, conn.sock.fd(), &ev);
}

void
Server::closeConnection(int fd, bool by_peer)
{
    const auto it = connections.find(fd);
    if (it == connections.end())
        return;
    Connection &conn = *it->second;
    // A hangup abandons every stream the connection owned: cancel
    // them so a mid-utterance disconnect releases engine capacity
    // (finishing streams are already out of push()'s reach; their
    // futures are simply dropped).
    for (auto &[id, entry] : conn.streams) {
        if (engine.cancel(entry.handle) && by_peer)
            ++count.disconnectCancels;
    }
    ::epoll_ctl(epollFd, EPOLL_CTL_DEL, fd, nullptr);
    connections.erase(it);  // Socket closes the fd
    ++count.connectionsClosed;
}

} // namespace asr::net
