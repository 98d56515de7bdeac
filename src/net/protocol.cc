#include "net/protocol.hh"

#include <bit>
#include <cmath>
#include <cstring>

namespace asr::net {

bool
isRequestType(std::uint8_t type)
{
    switch (FrameType(type)) {
    case FrameType::Open:
    case FrameType::Push:
    case FrameType::Partial:
    case FrameType::Finish:
    case FrameType::Cancel:
    case FrameType::Stats:
        return true;
    default:
        return false;
    }
}

bool
isKnownType(std::uint8_t type)
{
    switch (FrameType(type)) {
    case FrameType::RespPartial:
    case FrameType::RespFinal:
    case FrameType::RespError:
    case FrameType::RespRetryAfter:
    case FrameType::RespDeadline:
    case FrameType::RespStats:
        return true;
    default:
        return isRequestType(type);
    }
}

// ---------------------------------------------------------------------------
// Little-endian scalars.  Byte shifts, not memcpy of host objects, so
// the wire format is identical on any host endianness.
// ---------------------------------------------------------------------------

void
putU16(std::vector<std::uint8_t> &out, std::uint16_t v)
{
    out.push_back(std::uint8_t(v));
    out.push_back(std::uint8_t(v >> 8));
}

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    out.push_back(std::uint8_t(v));
    out.push_back(std::uint8_t(v >> 8));
    out.push_back(std::uint8_t(v >> 16));
    out.push_back(std::uint8_t(v >> 24));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    putU32(out, std::uint32_t(v));
    putU32(out, std::uint32_t(v >> 32));
}

bool
getU64(std::span<const std::uint8_t> in, std::size_t &off,
       std::uint64_t &v)
{
    std::uint32_t lo, hi;
    if (!getU32(in, off, lo) || !getU32(in, off, hi))
        return false;
    v = std::uint64_t(lo) | (std::uint64_t(hi) << 32);
    return true;
}

void
putF32(std::vector<std::uint8_t> &out, float v)
{
    putU32(out, std::bit_cast<std::uint32_t>(v));
}

void
putF64(std::vector<std::uint8_t> &out, double v)
{
    putU64(out, std::bit_cast<std::uint64_t>(v));
}

bool
getU16(std::span<const std::uint8_t> in, std::size_t &off,
       std::uint16_t &v)
{
    if (in.size() - off < 2 || off > in.size())
        return false;
    v = std::uint16_t(in[off]) | std::uint16_t(in[off + 1]) << 8;
    off += 2;
    return true;
}

bool
getU32(std::span<const std::uint8_t> in, std::size_t &off,
       std::uint32_t &v)
{
    if (off > in.size() || in.size() - off < 4)
        return false;
    v = std::uint32_t(in[off]) | std::uint32_t(in[off + 1]) << 8 |
        std::uint32_t(in[off + 2]) << 16 |
        std::uint32_t(in[off + 3]) << 24;
    off += 4;
    return true;
}

bool
getF32(std::span<const std::uint8_t> in, std::size_t &off, float &v)
{
    std::uint32_t bits;
    if (!getU32(in, off, bits))
        return false;
    v = std::bit_cast<float>(bits);
    return true;
}

bool
getF64(std::span<const std::uint8_t> in, std::size_t &off, double &v)
{
    std::uint64_t bits;
    if (!getU64(in, off, bits))
        return false;
    v = std::bit_cast<double>(bits);
    return true;
}

// ---------------------------------------------------------------------------
// Frames.
// ---------------------------------------------------------------------------

void
appendFrame(std::vector<std::uint8_t> &out, FrameType type,
            std::uint32_t stream_id,
            std::span<const std::uint8_t> payload)
{
    putU32(out, std::uint32_t(kFixedBytes + payload.size()));
    out.push_back(std::uint8_t(type));
    putU32(out, stream_id);
    out.insert(out.end(), payload.begin(), payload.end());
}

// ---------------------------------------------------------------------------
// Payload codecs.
// ---------------------------------------------------------------------------

void
encodeSamples(std::vector<std::uint8_t> &out,
              std::span<const float> samples)
{
    out.reserve(out.size() + samples.size() * 4);
    for (const float s : samples)
        putF32(out, s);
}

bool
decodeSamples(std::span<const std::uint8_t> payload,
              std::vector<float> &samples)
{
    if (payload.size() % 4 != 0)
        return false;
    samples.clear();
    samples.reserve(payload.size() / 4);
    std::size_t off = 0;
    float v;
    while (off < payload.size()) {
        // NaN or +-Inf audio would flow through MFCC, the DNN and
        // search and come out as a silent empty FINAL: reject it.
        if (!getF32(payload, off, v) || !std::isfinite(v))
            return false;
        samples.push_back(v);
    }
    return true;
}

void
encodeWords(std::vector<std::uint8_t> &out,
            std::span<const wfst::WordId> words)
{
    putU32(out, std::uint32_t(words.size()));
    for (const wfst::WordId w : words)
        putU32(out, w);
}

bool
decodeWords(std::span<const std::uint8_t> payload,
            std::vector<wfst::WordId> &words)
{
    std::size_t off = 0;
    std::uint32_t count;
    if (!getU32(payload, off, count))
        return false;
    // Bound the claimed count by the bytes actually present before
    // reserving anything: a corrupt count must not allocate.
    if ((payload.size() - off) / 4 < count)
        return false;
    words.clear();
    words.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        std::uint32_t w;
        if (!getU32(payload, off, w))
            return false;
        words.push_back(w);
    }
    return off == payload.size();
}

namespace {

/** The u8 flags byte leading PARTIAL and FINAL payloads. */
bool
getFlags(std::span<const std::uint8_t> payload, std::size_t &off,
         bool &degraded)
{
    if (off >= payload.size())
        return false;
    const std::uint8_t flags = payload[off++];
    // Unknown flag bits are a malformed frame, not ignorable: a
    // newer peer's semantics must not be silently dropped.
    if ((flags & ~kResultFlagDegraded) != 0)
        return false;
    degraded = (flags & kResultFlagDegraded) != 0;
    return true;
}

/** The word-id list inside a larger payload, advancing @p off. */
bool
getWords(std::span<const std::uint8_t> payload, std::size_t &off,
         std::vector<wfst::WordId> &words)
{
    std::uint32_t count;
    if (!getU32(payload, off, count))
        return false;
    if ((payload.size() - off) / 4 < count)
        return false;
    words.clear();
    words.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        std::uint32_t w;
        if (!getU32(payload, off, w))
            return false;
        words.push_back(w);
    }
    return true;
}

} // namespace

void
encodeOpenRequest(std::vector<std::uint8_t> &out, const OpenRequest &r)
{
    // All-defaults encodes as the legacy empty payload, so a client
    // that asks for nothing speaks the pre-deadline wire format.
    if (r.deadlineMs == 0)
        return;
    putU32(out, r.deadlineMs);
}

bool
decodeOpenRequest(std::span<const std::uint8_t> payload, OpenRequest &r)
{
    r = OpenRequest{};
    if (payload.empty())
        return true;
    std::size_t off = 0;
    return getU32(payload, off, r.deadlineMs) &&
           off == payload.size();
}

void
encodePartial(std::vector<std::uint8_t> &out, const PartialResult &r)
{
    out.push_back(r.degraded ? kResultFlagDegraded : 0);
    encodeWords(out, r.words);
}

bool
decodePartial(std::span<const std::uint8_t> payload, PartialResult &r)
{
    std::size_t off = 0;
    if (!getFlags(payload, off, r.degraded))
        return false;
    return getWords(payload, off, r.words) && off == payload.size();
}

void
encodeFinal(std::vector<std::uint8_t> &out, const FinalResult &r)
{
    out.push_back(r.degraded ? kResultFlagDegraded : 0);
    encodeWords(out, r.words);
    putF32(out, r.score);
    putF64(out, r.audioSeconds);
}

bool
decodeFinal(std::span<const std::uint8_t> payload, FinalResult &r)
{
    std::size_t off = 0;
    if (!getFlags(payload, off, r.degraded))
        return false;
    if (!getWords(payload, off, r.words))
        return false;
    return getF32(payload, off, r.score) &&
           getF64(payload, off, r.audioSeconds) &&
           off == payload.size();
}

void
encodeError(std::vector<std::uint8_t> &out, const ErrorInfo &e)
{
    putU16(out, std::uint16_t(e.code));
    out.insert(out.end(), e.message.begin(), e.message.end());
}

bool
decodeError(std::span<const std::uint8_t> payload, ErrorInfo &e)
{
    std::size_t off = 0;
    std::uint16_t code;
    if (!getU16(payload, off, code))
        return false;
    e.code = ErrorCode(code);
    e.message.assign(payload.begin() + std::ptrdiff_t(off),
                     payload.end());
    return true;
}

void
encodeRetryAfter(std::vector<std::uint8_t> &out, std::uint32_t millis)
{
    putU32(out, millis);
}

bool
decodeRetryAfter(std::span<const std::uint8_t> payload,
                 std::uint32_t &millis)
{
    std::size_t off = 0;
    return getU32(payload, off, millis) && off == payload.size();
}

void
encodeDeadlineExceeded(std::vector<std::uint8_t> &out,
                       std::uint32_t deadline_ms)
{
    putU32(out, deadline_ms);
}

bool
decodeDeadlineExceeded(std::span<const std::uint8_t> payload,
                       std::uint32_t &deadline_ms)
{
    std::size_t off = 0;
    return getU32(payload, off, deadline_ms) && off == payload.size();
}

namespace {

// Every EngineSnapshot member is a u64 or an f64; a member of any
// other type has no overload here and fails to compile.
void
putStat(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    putU64(out, v);
}

void
putStat(std::vector<std::uint8_t> &out, double v)
{
    putF64(out, v);
}

bool
getStat(std::span<const std::uint8_t> in, std::size_t &off,
        std::uint64_t &v)
{
    return getU64(in, off, v);
}

bool
getStat(std::span<const std::uint8_t> in, std::size_t &off, double &v)
{
    return getF64(in, off, v);
}

} // namespace

void
encodeStatsReply(std::vector<std::uint8_t> &out, const StatsReply &r)
{
    server::forEachSnapshotField([&](const auto &field) {
        putStat(out, r.engine.*field.member);
    });
    putU64(out, r.streamsOpened);
    putU64(out, r.streamsActive);
    putU64(out, r.retryAfterSent);
    out.push_back(r.overloadState);
}

bool
decodeStatsReply(std::span<const std::uint8_t> payload, StatsReply &r)
{
    std::size_t off = 0;
    bool ok = true;
    server::forEachSnapshotField([&](const auto &field) {
        ok = ok && getStat(payload, off, r.engine.*field.member);
    });
    if (!ok || !getU64(payload, off, r.streamsOpened) ||
        !getU64(payload, off, r.streamsActive) ||
        !getU64(payload, off, r.retryAfterSent))
        return false;
    if (off >= payload.size())
        return false;
    const std::uint8_t state = payload[off++];
    // Three states exist; anything else is a malformed frame, not a
    // future enum to be guessed at.
    if (state > 2)
        return false;
    r.overloadState = state;
    return off == payload.size();
}

// ---------------------------------------------------------------------------
// FrameReader.
// ---------------------------------------------------------------------------

void
FrameReader::feed(std::span<const std::uint8_t> bytes)
{
    if (bad)
        return;
    // Compact once the consumed prefix dominates, so a long-lived
    // connection does not grow its buffer with every frame.
    if (off > 0 && off >= buf.size() / 2) {
        buf.erase(buf.begin(), buf.begin() + std::ptrdiff_t(off));
        off = 0;
    }
    buf.insert(buf.end(), bytes.begin(), bytes.end());
}

bool
FrameReader::next(Frame &frame)
{
    if (bad)
        return false;
    const std::span<const std::uint8_t> in(buf.data() + off,
                                           buf.size() - off);
    std::size_t pos = 0;
    std::uint32_t length;
    if (!getU32(in, pos, length))
        return false;  // length prefix not complete yet
    if (length < kFixedBytes) {
        bad = true;
        err = "frame length " + std::to_string(length) +
              " shorter than the fixed fields";
        return false;
    }
    if (length - kFixedBytes > maxPayload) {
        bad = true;
        err = "frame payload " +
              std::to_string(length - kFixedBytes) +
              " exceeds the bound " + std::to_string(maxPayload);
        return false;
    }
    if (in.size() - pos < length)
        return false;  // body not complete yet
    const std::uint8_t type = in[pos++];
    std::uint32_t stream_id = 0;
    getU32(in, pos, stream_id);  // cannot fail: body is complete
    frame.type = FrameType(type);
    frame.streamId = stream_id;
    const std::size_t payload_len = length - kFixedBytes;
    frame.payload.assign(in.begin() + std::ptrdiff_t(pos),
                         in.begin() + std::ptrdiff_t(pos + payload_len));
    off += kLengthBytes + length;
    return true;
}

} // namespace asr::net
