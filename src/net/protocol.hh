/**
 * @file
 * The wire protocol of the network front door: length-prefixed
 * binary frames mapping 1:1 onto the api::Engine handle API.
 *
 * Frame layout (all integers and floats little-endian):
 *
 *   offset  size  field
 *   0       4     length    -- byte count of everything after this
 *                              field (type + streamId + payload)
 *   4       1     type      -- FrameType
 *   5       4     streamId  -- client-chosen id, unique per connection
 *   9       len-5 payload   -- type-specific (see below)
 *
 * Requests (client -> server) mirror the Engine surface:
 *
 *   OPEN     open a stream under `streamId`.  Payload: empty (no
 *            options -- the pre-deadline wire format, still accepted)
 *            or u32 deadlineMs (0 = none): a whole-stream budget the
 *            engine watchdog enforces.  Success is answered with the
 *            stream's current -- necessarily empty -- PARTIAL;
 *            rejection with RETRY_AFTER (capacity; recoverable) or
 *            ERROR (permanent).
 *   PUSH     raw float32 samples at the model's sample rate
 *            (payload length must be a multiple of 4, every sample
 *            finite).  No response; errors (unknown stream, stream
 *            not open) arrive as ERROR frames.  A NaN or +-Inf
 *            sample makes the frame malformed: ERROR BAD_FRAME, then
 *            the connection closes.
 *   PARTIAL  poll the current partial hypothesis -> one PARTIAL.
 *   FINISH   no more audio -> one FINAL once the tail is decoded.
 *   CANCEL   abandon the stream; no response.
 *   STATS    poll the server's serving telemetry -> one RESP_STATS.
 *            Payload empty; streamId is echoed but carries no
 *            meaning (stats are server-wide, not per-stream).  This
 *            is how a load generator or ops poller reads the whole
 *            EngineStats snapshot over the wire instead of scraping
 *            logs.
 *
 * Responses (server -> client):
 *
 *   PARTIAL      u8 flags + u32 count + count x u32 word ids.
 *   FINAL        u8 flags + u32 count + words + f32 score +
 *                f64 audioSeconds.
 *   ERROR        u16 ErrorCode + UTF-8 message (diagnostic only).
 *   RETRY_AFTER  u32 suggested retry delay in milliseconds.  The
 *                overload contract: an OPEN on a saturated server is
 *                answered with RETRY_AFTER instead of being queued or
 *                stalling the connection; the same OPEN succeeds once
 *                a stream slot frees.  Under sustained overload the
 *                delay is the server-computed backoff hint from its
 *                OverloadMonitor, not a constant.
 *   DEADLINE_EXCEEDED  u32 deadlineMs (the budget that ran out).
 *                Terminal for the stream: sent instead of FINAL (or
 *                as the answer to any request on the foreclosed
 *                stream) once the OPEN-declared deadline expired.
 *   RESP_STATS   fixed-size serving snapshot (see StatsReply): every
 *                EngineSnapshot member in server::kSnapshotFields
 *                order (u64 or f64 each), then u64 streamsOpened,
 *                streamsActive and retryAfterSent, then the u8
 *                overload state -- 297 bytes.
 *
 * The flags byte on PARTIAL/FINAL carries kResultFlagDegraded when
 * the stream was admitted with overload-degraded search knobs: the
 * client knows its hypothesis traded accuracy for admission.
 *
 * FrameReader accumulates bytes from arbitrary reads (short reads
 * across frame boundaries are the normal case on a socket) and
 * yields complete frames; structurally invalid input (length shorter
 * than the fixed fields or beyond the payload bound) poisons the
 * reader, and the connection is expected to be dropped.
 */

#ifndef ASR_NET_PROTOCOL_HH
#define ASR_NET_PROTOCOL_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "server/engine_stats.hh"
#include "wfst/types.hh"

namespace asr::net {

/** Frame discriminator; requests < 0x80 <= responses. */
enum class FrameType : std::uint8_t
{
    // Requests.
    Open = 0x01,
    Push = 0x02,
    Partial = 0x03,
    Finish = 0x04,
    Cancel = 0x05,
    Stats = 0x06,
    // Responses.
    RespPartial = 0x81,
    RespFinal = 0x82,
    RespError = 0x83,
    RespRetryAfter = 0x84,
    RespDeadline = 0x85,
    RespStats = 0x86,
};

/** Machine-readable ERROR payload code. */
enum class ErrorCode : std::uint16_t
{
    BadFrame = 1,       //!< structurally valid but senseless frame
    UnknownStream = 2,  //!< streamId never opened (or already gone)
    DuplicateStream = 3,//!< OPEN on a streamId already open
    InvalidOptions = 4, //!< open rejected permanently (bad options)
    NotOpen = 5,        //!< push/finish on a closed/finishing stream
    Timeout = 6,        //!< server-side bounded wait ran out
};

/** PARTIAL/FINAL flags bit: overload-degraded search knobs. */
constexpr std::uint8_t kResultFlagDegraded = 0x01;

/** Bytes of the length prefix. */
constexpr std::size_t kLengthBytes = 4;
/** Bytes covered by the length field before the payload. */
constexpr std::size_t kFixedBytes = 5;  // type + streamId
/**
 * Payload bound: a PUSH of one full second of 16 kHz float audio is
 * 64 KB, so 1 MB leaves two orders of headroom while rejecting
 * hostile or corrupt length prefixes before any allocation.
 */
constexpr std::size_t kMaxPayload = 1u << 20;

/** @return true for a request discriminator the server dispatches. */
bool isRequestType(std::uint8_t type);
/** @return true for any discriminator defined above. */
bool isKnownType(std::uint8_t type);

/** One decoded frame. */
struct Frame
{
    FrameType type = FrameType::Open;
    std::uint32_t streamId = 0;
    std::vector<std::uint8_t> payload;
};

// -- Little-endian scalar helpers (shared by the codecs below) -------

void putU16(std::vector<std::uint8_t> &out, std::uint16_t v);
void putU32(std::vector<std::uint8_t> &out, std::uint32_t v);
void putU64(std::vector<std::uint8_t> &out, std::uint64_t v);
void putF32(std::vector<std::uint8_t> &out, float v);
void putF64(std::vector<std::uint8_t> &out, double v);

/** Each getter reads at @p off, advancing it; false = truncated. */
bool getU16(std::span<const std::uint8_t> in, std::size_t &off,
            std::uint16_t &v);
bool getU32(std::span<const std::uint8_t> in, std::size_t &off,
            std::uint32_t &v);
bool getU64(std::span<const std::uint8_t> in, std::size_t &off,
            std::uint64_t &v);
bool getF32(std::span<const std::uint8_t> in, std::size_t &off,
            float &v);
bool getF64(std::span<const std::uint8_t> in, std::size_t &off,
            double &v);

// -- Frame encoding ---------------------------------------------------

/** Append one complete frame (length prefix included) to @p out. */
void appendFrame(std::vector<std::uint8_t> &out, FrameType type,
                 std::uint32_t stream_id,
                 std::span<const std::uint8_t> payload);

// -- Payload codecs ---------------------------------------------------
// Every decoder consumes the *exact* payload: trailing bytes are a
// malformed frame, not ignorable padding, so a corrupt length field
// cannot silently truncate or extend a result.

/**
 * PUSH payload: raw little-endian float32 samples.  decodeSamples
 * rejects any NaN or +-Inf sample (denormals, +-0 and +-FLT_MAX are
 * ordinary audio values).
 */
void encodeSamples(std::vector<std::uint8_t> &out,
                   std::span<const float> samples);
bool decodeSamples(std::span<const std::uint8_t> payload,
                   std::vector<float> &samples);

/** Bare word-id list (the common tail of PARTIAL and FINAL). */
void encodeWords(std::vector<std::uint8_t> &out,
                 std::span<const wfst::WordId> words);
bool decodeWords(std::span<const std::uint8_t> payload,
                 std::vector<wfst::WordId> &words);

/** OPEN payload: per-stream options carried on the wire. */
struct OpenRequest
{
    std::uint32_t deadlineMs = 0;  //!< whole-stream budget, 0 = none
};

/** Emits the empty legacy payload when all options are defaults. */
void encodeOpenRequest(std::vector<std::uint8_t> &out,
                       const OpenRequest &r);
/** Accepts the empty legacy payload (all defaults) or u32 deadline. */
bool decodeOpenRequest(std::span<const std::uint8_t> payload,
                       OpenRequest &r);

/** PARTIAL payload: flags + word-id list. */
struct PartialResult
{
    std::vector<wfst::WordId> words;
    bool degraded = false;  //!< kResultFlagDegraded
};

void encodePartial(std::vector<std::uint8_t> &out,
                   const PartialResult &r);
bool decodePartial(std::span<const std::uint8_t> payload,
                   PartialResult &r);

/** FINAL payload: the over-the-wire slice of a RecognitionResult. */
struct FinalResult
{
    std::vector<wfst::WordId> words;
    wfst::LogProb score = wfst::kLogZero;
    double audioSeconds = 0.0;
    bool degraded = false;  //!< kResultFlagDegraded
};

void encodeFinal(std::vector<std::uint8_t> &out, const FinalResult &r);
bool decodeFinal(std::span<const std::uint8_t> payload, FinalResult &r);

/** ERROR payload. */
struct ErrorInfo
{
    ErrorCode code = ErrorCode::BadFrame;
    std::string message;
};

void encodeError(std::vector<std::uint8_t> &out, const ErrorInfo &e);
bool decodeError(std::span<const std::uint8_t> payload, ErrorInfo &e);

/** RETRY_AFTER payload. */
void encodeRetryAfter(std::vector<std::uint8_t> &out,
                      std::uint32_t millis);
bool decodeRetryAfter(std::span<const std::uint8_t> payload,
                      std::uint32_t &millis);

/** DEADLINE_EXCEEDED payload: the budget (ms) that ran out. */
void encodeDeadlineExceeded(std::vector<std::uint8_t> &out,
                            std::uint32_t deadline_ms);
bool decodeDeadlineExceeded(std::span<const std::uint8_t> payload,
                            std::uint32_t &deadline_ms);

/**
 * RESP_STATS payload: the endpoint's whole EngineSnapshot plus the
 * server-side stream counters.  The codec walks
 * server::kSnapshotFields, so both ends encode every engine metric
 * in one fixed order.  Fixed-size -- every field always present --
 * so the decoder's exact-consumption check doubles as a version
 * check: a peer built with a different field list produces a
 * malformed frame, not silently shifted fields.  No field names
 * travel, so the decoder never parses names out of untrusted bytes.
 */
struct StatsReply
{
    server::EngineSnapshot engine;

    // Server counters (ServerCounters) + live load.
    std::uint64_t streamsOpened = 0;
    std::uint64_t streamsActive = 0;   //!< open or finishing now
    std::uint64_t retryAfterSent = 0;

    /** OverloadMonitor::State as its enumerator value (0/1/2). */
    std::uint8_t overloadState = 0;
};

void encodeStatsReply(std::vector<std::uint8_t> &out,
                      const StatsReply &r);
bool decodeStatsReply(std::span<const std::uint8_t> payload,
                      StatsReply &r);

// -- Incremental frame extraction ------------------------------------

/**
 * Reassembles frames from arbitrary byte chunks.  feed() any number
 * of bytes as they arrive; next() pops complete frames in order.  A
 * structurally invalid length (shorter than the fixed fields, or
 * payload beyond the bound) poisons the reader permanently --
 * resynchronizing inside a corrupt byte stream is impossible, the
 * connection must be dropped.
 */
class FrameReader
{
  public:
    explicit FrameReader(std::size_t max_payload = kMaxPayload)
        : maxPayload(max_payload)
    {
    }

    /** Absorb the next received bytes (no-op once malformed). */
    void feed(std::span<const std::uint8_t> bytes);

    /** Pop the next complete frame; false = need more bytes (or
     *  malformed -- check malformed()). */
    bool next(Frame &frame);

    /** True once structurally invalid input was seen. */
    bool malformed() const { return bad; }

    /** Diagnostic for the malformed() case. */
    const std::string &error() const { return err; }

    /** Bytes buffered but not yet consumed as frames. */
    std::size_t buffered() const { return buf.size() - off; }

  private:
    std::size_t maxPayload;
    std::vector<std::uint8_t> buf;
    std::size_t off = 0;  //!< consumed prefix of buf
    bool bad = false;
    std::string err;
};

} // namespace asr::net

#endif // ASR_NET_PROTOCOL_HH
