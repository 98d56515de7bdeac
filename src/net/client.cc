#include "net/client.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "common/fault.hh"

namespace asr::net {

bool
Client::connect(const std::string &host, std::uint16_t port)
{
    disconnect();
    std::string err;
    sock = connectTcp(host, port, err);
    if (!sock.valid()) {
        setError(err);
        return false;
    }
    return true;
}

std::uint32_t
Client::jittered(std::uint32_t ms)
{
    if (ms == 0)
        return 0;
    if (rngState == 0)
        rngState = std::uint64_t(
                       std::chrono::steady_clock::now()
                           .time_since_epoch()
                           .count()) ^
                   std::uint64_t(reinterpret_cast<std::uintptr_t>(this));
    // splitmix64: cheap, stateless-quality jitter is all this needs.
    rngState += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = rngState;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    const std::uint32_t half = ms / 2;
    return (ms - half) + std::uint32_t(z % (half + 1));
}

bool
Client::connectRetrying(const std::string &host, std::uint16_t port,
                        unsigned max_attempts,
                        std::uint32_t base_backoff_ms,
                        std::uint32_t max_backoff_ms)
{
    std::uint32_t backoff = std::max<std::uint32_t>(1, base_backoff_ms);
    for (unsigned attempt = 0; attempt < max_attempts; ++attempt) {
        disconnect();
        std::string err;
        int connect_errno = 0;
        sock = connectTcp(host, port, err, &connect_errno);
        if (sock.valid())
            return true;
        setError(err);
        switch (connect_errno) {
        case ECONNREFUSED:
        case ETIMEDOUT:
        case EHOSTUNREACH:
        case ENETUNREACH:
        case EAGAIN:
            break;  // transient: the server may come (back) up
        default:
            return false;  // bad address, EACCES, fd exhaustion, ...
        }
        if (attempt + 1 == max_attempts)
            break;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(jittered(backoff)));
        backoff = std::min(max_backoff_ms,
                           std::max<std::uint32_t>(1, backoff * 2));
    }
    lastError_ += " (connect retries exhausted)";
    return false;
}

void
Client::disconnect()
{
    sock.close();
    reader = FrameReader();
    stash.clear();
}

// ---------------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------------

bool
Client::sendRequest(FrameType type, std::uint32_t stream_id,
                    std::span<const std::uint8_t> payload)
{
    if (!sock.valid()) {
        setError("not connected");
        return false;
    }
    std::vector<std::uint8_t> wire;
    appendFrame(wire, type, stream_id, payload);
    if (!sendAll(sock.fd(), wire.data(), wire.size())) {
        setError(std::string("send: ") + std::strerror(errno));
        disconnect();
        return false;
    }
    return true;
}

Client::OpenOutcome
Client::openStream(std::uint32_t stream_id, std::uint32_t deadline_ms)
{
    OpenRequest req;
    req.deadlineMs = deadline_ms;
    std::vector<std::uint8_t> payload;
    encodeOpenRequest(payload, req);
    if (!sendRequest(FrameType::Open, stream_id, payload))
        return OpenOutcome::Error;
    Frame frame;
    bool is_error = false;
    if (!waitFor(stream_id,
                 {FrameType::RespPartial, FrameType::RespRetryAfter},
                 frame, &is_error))
        return OpenOutcome::Error;
    if (frame.type == FrameType::RespRetryAfter) {
        std::uint32_t millis = 0;
        decodeRetryAfter(frame.payload, millis);
        retryAfterMs_ = millis;
        return OpenOutcome::RetryAfter;
    }
    return OpenOutcome::Ok;  // the (empty) ack partial
}

bool
Client::openStreamRetrying(std::uint32_t stream_id,
                           unsigned max_attempts,
                           std::uint32_t deadline_ms,
                           std::uint32_t max_backoff_ms)
{
    for (unsigned attempt = 0; attempt < max_attempts; ++attempt) {
        switch (openStream(stream_id, deadline_ms)) {
        case OpenOutcome::Ok:
            return true;
        case OpenOutcome::Error:
            return false;
        case OpenOutcome::RetryAfter: {
            // The server's hint, capped (a deeply shedding server
            // asks for seconds; don't oversleep a recovery) and
            // jittered (a refused fleet must not retry in lockstep).
            const std::uint32_t hint = std::min(
                max_backoff_ms,
                std::max<std::uint32_t>(1, retryAfterMs_));
            std::this_thread::sleep_for(
                std::chrono::milliseconds(jittered(hint)));
            break;
        }
        }
    }
    setError("open retries exhausted");
    return false;
}

bool
Client::pushChunk(std::uint32_t stream_id,
                  std::span<const float> samples)
{
    std::vector<std::uint8_t> payload;
    encodeSamples(payload, samples);
    return sendRequest(FrameType::Push, stream_id, payload);
}

bool
Client::requestPartial(std::uint32_t stream_id,
                       std::vector<wfst::WordId> &words)
{
    PartialResult result;
    if (!requestPartial(stream_id, result))
        return false;
    words = std::move(result.words);
    return true;
}

bool
Client::requestPartial(std::uint32_t stream_id, PartialResult &result)
{
    if (!sendRequest(FrameType::Partial, stream_id, {}))
        return false;
    Frame frame;
    if (!waitFor(stream_id, {FrameType::RespPartial}, frame))
        return false;
    if (!decodePartial(frame.payload, result)) {
        setError("undecodable PARTIAL payload");
        return false;
    }
    return true;
}

bool
Client::finishStream(std::uint32_t stream_id, FinalResult &result)
{
    deadlineExceeded_ = false;
    if (!sendRequest(FrameType::Finish, stream_id, {}))
        return false;
    Frame frame;
    if (!waitFor(stream_id,
                 {FrameType::RespFinal, FrameType::RespDeadline},
                 frame))
        return false;
    if (frame.type == FrameType::RespDeadline) {
        std::uint32_t budget_ms = 0;
        decodeDeadlineExceeded(frame.payload, budget_ms);
        deadlineExceeded_ = true;
        setError("deadline of " + std::to_string(budget_ms) +
                 " ms exceeded");
        return false;
    }
    if (!decodeFinal(frame.payload, result)) {
        setError("undecodable FINAL payload");
        return false;
    }
    return true;
}

bool
Client::cancelStream(std::uint32_t stream_id)
{
    return sendRequest(FrameType::Cancel, stream_id, {});
}

bool
Client::requestStats(StatsReply &reply)
{
    // Stats are server-wide; stream id 0 (never a client stream id
    // in this codebase's conventions, and echoed back verbatim) keeps
    // the reply from colliding with a real stream's waiters.
    if (!sendRequest(FrameType::Stats, 0, {}))
        return false;
    Frame frame;
    if (!waitFor(0, {FrameType::RespStats}, frame))
        return false;
    if (!decodeStatsReply(frame.payload, reply)) {
        setError("undecodable STATS payload");
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------------
// Response plumbing.
// ---------------------------------------------------------------------------

void
Client::setError(std::string message, std::optional<ErrorCode> code)
{
    lastError_ = std::move(message);
    lastErrorCode_ = code;
}

void
Client::setErrorFrom(const Frame &error_frame)
{
    ErrorInfo info;
    if (decodeError(error_frame.payload, info))
        setError(std::move(info.message), info.code);
    else
        setError("undecodable ERROR payload");
}

bool
Client::readFrame(Frame &frame)
{
    for (;;) {
        if (reader.next(frame))
            return true;
        if (reader.malformed()) {
            setError("malformed response: " + reader.error());
            disconnect();
            return false;
        }
        std::uint8_t buf[64 * 1024];
        ssize_t n;
        if (const int e = fault::failErrno("net.client.recv",
                                           {EINTR, ECONNRESET})) {
            n = -1;
            errno = e;
        } else {
            const std::size_t want =
                fault::shortenIo("net.client.recv.short", sizeof(buf));
            n = ::recv(sock.fd(), buf, want, 0);
        }
        if (n > 0) {
            reader.feed(std::span<const std::uint8_t>(
                buf, std::size_t(n)));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        setError(n == 0 ? "server closed the connection"
                        : std::string("recv: ") + std::strerror(errno));
        disconnect();
        return false;
    }
}

bool
Client::waitFor(std::uint32_t stream_id,
                std::initializer_list<FrameType> accepted, Frame &out,
                bool *out_error)
{
    if (out_error)
        *out_error = false;
    // A response already stashed by an earlier waiter?
    for (auto it = stash.begin(); it != stash.end(); ++it) {
        if (it->streamId != stream_id)
            continue;
        const bool match =
            std::find(accepted.begin(), accepted.end(), it->type) !=
                accepted.end() ||
            it->type == FrameType::RespError;
        if (!match)
            continue;
        out = std::move(*it);
        stash.erase(it);
        if (out.type == FrameType::RespError) {
            setErrorFrom(out);
            if (out_error)
                *out_error = true;
            return false;
        }
        return true;
    }
    for (;;) {
        Frame frame;
        if (!readFrame(frame))
            return false;
        const bool ours = frame.streamId == stream_id;
        if (ours && frame.type == FrameType::RespError) {
            setErrorFrom(frame);
            if (out_error) {
                *out_error = true;
                out = std::move(frame);
            }
            return false;
        }
        if (ours && std::find(accepted.begin(), accepted.end(),
                              frame.type) != accepted.end()) {
            out = std::move(frame);
            return true;
        }
        // Someone else's response (another stream's FINAL, say):
        // keep it for that stream's waiter.
        stash.push_back(std::move(frame));
    }
}

} // namespace asr::net
