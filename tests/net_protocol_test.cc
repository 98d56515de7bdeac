/**
 * @file
 * Conformance tests for the wire protocol (asr::net):
 *
 *  - Codec round-trips: samples, word lists, FINAL, ERROR and
 *    RETRY_AFTER payloads survive encode -> decode bit-exactly.
 *  - Exact-consumption discipline: every decoder rejects both
 *    truncated and over-long payloads instead of guessing.
 *  - FrameReader reassembly: frames arrive whole no matter how the
 *    byte stream is sliced (byte-at-a-time, every split offset,
 *    many frames in one read).
 *  - Poisoning: structurally invalid lengths (shorter than the fixed
 *    fields, beyond the payload bound) permanently poison the
 *    reader; garbage after a valid prefix does not resurrect it.
 *  - A corrupt element count cannot cause a large allocation: counts
 *    are validated against the bytes actually present first.
 */

#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "net/protocol.hh"

using namespace asr;
using namespace asr::net;

namespace {

std::vector<std::uint8_t>
frameBytes(FrameType type, std::uint32_t stream_id,
           std::span<const std::uint8_t> payload)
{
    std::vector<std::uint8_t> wire;
    appendFrame(wire, type, stream_id, payload);
    return wire;
}

} // namespace

// ---------------------------------------------------------------------------
// Scalar and payload codecs.
// ---------------------------------------------------------------------------

TEST(NetProtocol, ScalarsRoundTripLittleEndian)
{
    std::vector<std::uint8_t> buf;
    putU16(buf, 0xBEEF);
    putU32(buf, 0xDEADBEEFu);
    putF32(buf, -1.5f);
    putF64(buf, 2.0e-3);
    // Byte layout is defined, not implementation-defined: LE.
    EXPECT_EQ(buf[0], 0xEF);
    EXPECT_EQ(buf[1], 0xBE);
    EXPECT_EQ(buf[2], 0xEF);
    EXPECT_EQ(buf[5], 0xDE);

    std::size_t off = 0;
    std::uint16_t u16 = 0;
    std::uint32_t u32 = 0;
    float f32 = 0;
    double f64 = 0;
    EXPECT_TRUE(getU16(buf, off, u16));
    EXPECT_TRUE(getU32(buf, off, u32));
    EXPECT_TRUE(getF32(buf, off, f32));
    EXPECT_TRUE(getF64(buf, off, f64));
    EXPECT_EQ(u16, 0xBEEF);
    EXPECT_EQ(u32, 0xDEADBEEFu);
    EXPECT_EQ(f32, -1.5f);
    EXPECT_EQ(f64, 2.0e-3);
    EXPECT_EQ(off, buf.size());
    // One byte past the end: every getter reports truncation.
    EXPECT_FALSE(getU16(buf, off, u16));
}

TEST(NetProtocol, SamplesRoundTrip)
{
    Rng rng(99);
    std::vector<float> in;
    for (unsigned i = 0; i < 317; ++i)
        in.push_back(float(rng.below(2000)) / 1000.0f - 1.0f);
    std::vector<std::uint8_t> payload;
    encodeSamples(payload, in);
    EXPECT_EQ(payload.size(), in.size() * 4);

    std::vector<float> out;
    ASSERT_TRUE(decodeSamples(payload, out));
    EXPECT_EQ(out, in);
}

TEST(NetProtocol, SamplesRejectNonMultipleOfFour)
{
    std::vector<std::uint8_t> payload(7, 0);
    std::vector<float> out;
    EXPECT_FALSE(decodeSamples(payload, out));
}

TEST(NetProtocol, SamplesRejectNonFinite)
{
    // A NaN or +-Inf sample would decode to a silent empty result,
    // so the codec refuses it wherever it sits in the payload.
    using Lim = std::numeric_limits<float>;
    for (const float bad :
         {Lim::quiet_NaN(), Lim::infinity(), -Lim::infinity()}) {
        for (const std::size_t at : {0u, 4u, 8u}) {
            std::vector<float> in(9, 0.25f);
            in[at] = bad;
            std::vector<std::uint8_t> payload;
            encodeSamples(payload, in);
            std::vector<float> out;
            EXPECT_FALSE(decodeSamples(payload, out))
                << bad << " at sample " << at;
        }
    }

    // Every finite value is audio, the edges included; compare bit
    // patterns so -0 is told apart from +0.
    const std::vector<float> edges = {
        Lim::denorm_min(), -Lim::denorm_min(), Lim::min(), 0.0f,
        -0.0f,             Lim::max(),         -Lim::max()};
    std::vector<std::uint8_t> payload;
    encodeSamples(payload, edges);
    std::vector<float> out;
    ASSERT_TRUE(decodeSamples(payload, out));
    ASSERT_EQ(out.size(), edges.size());
    for (std::size_t i = 0; i < edges.size(); ++i)
        EXPECT_EQ(std::memcmp(&out[i], &edges[i], sizeof(float)), 0)
            << "edge value " << i;
}

TEST(NetProtocol, WordsRoundTripIncludingEmpty)
{
    for (const std::size_t n : {std::size_t(0), std::size_t(1),
                                std::size_t(40)}) {
        std::vector<wfst::WordId> in;
        for (std::size_t i = 0; i < n; ++i)
            in.push_back(wfst::WordId(1000 + i));
        std::vector<std::uint8_t> payload;
        encodeWords(payload, in);
        std::vector<wfst::WordId> out;
        ASSERT_TRUE(decodeWords(payload, out)) << n;
        EXPECT_EQ(out, in);
    }
}

TEST(NetProtocol, WordsRejectTrailingBytes)
{
    std::vector<std::uint8_t> payload;
    encodeWords(payload, std::vector<wfst::WordId>{1, 2, 3});
    payload.push_back(0);  // one stray byte
    std::vector<wfst::WordId> out;
    EXPECT_FALSE(decodeWords(payload, out));
}

TEST(NetProtocol, CorruptWordCountCannotAllocate)
{
    // A 4-byte payload claiming 2^32-1 words: the decoder must
    // reject from the byte budget without reserving anything.
    std::vector<std::uint8_t> payload;
    putU32(payload, std::numeric_limits<std::uint32_t>::max());
    std::vector<wfst::WordId> out;
    EXPECT_FALSE(decodeWords(payload, out));
    EXPECT_TRUE(out.empty());
}

TEST(NetProtocol, FinalResultRoundTrip)
{
    FinalResult in;
    in.words = {4, 9, 17};
    in.score = -123.456f;
    in.audioSeconds = 1.875;
    std::vector<std::uint8_t> payload;
    encodeFinal(payload, in);

    FinalResult out;
    ASSERT_TRUE(decodeFinal(payload, out));
    EXPECT_EQ(out.words, in.words);
    EXPECT_EQ(out.score, in.score);
    EXPECT_EQ(out.audioSeconds, in.audioSeconds);

    // Truncating anywhere makes it undecodable.
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
        FinalResult r;
        EXPECT_FALSE(decodeFinal(
            std::span<const std::uint8_t>(payload.data(), cut), r))
            << "cut at " << cut;
    }
}

TEST(NetProtocol, FinalResultRejectsUnknownFlagBits)
{
    FinalResult in;
    in.words = {4};
    in.degraded = true;
    std::vector<std::uint8_t> payload;
    encodeFinal(payload, in);

    FinalResult out;
    ASSERT_TRUE(decodeFinal(payload, out));
    EXPECT_TRUE(out.degraded);

    // A flags byte with bits this peer does not understand is a
    // malformed frame: unknown semantics must not be dropped.
    payload[0] |= 0x02;
    EXPECT_FALSE(decodeFinal(payload, out));
}

TEST(NetProtocol, PartialResultRoundTripAndFlags)
{
    for (const bool degraded : {false, true}) {
        PartialResult in;
        in.words = {7, 11, 13};
        in.degraded = degraded;
        std::vector<std::uint8_t> payload;
        encodePartial(payload, in);

        PartialResult out;
        ASSERT_TRUE(decodePartial(payload, out)) << degraded;
        EXPECT_EQ(out.words, in.words);
        EXPECT_EQ(out.degraded, degraded);

        // Exact consumption: truncation anywhere, or a stray byte,
        // is undecodable.
        for (std::size_t cut = 0; cut < payload.size(); ++cut) {
            PartialResult r;
            EXPECT_FALSE(decodePartial(
                std::span<const std::uint8_t>(payload.data(), cut),
                r))
                << "cut at " << cut;
        }
        payload.push_back(0);
        EXPECT_FALSE(decodePartial(payload, out));
    }
}

TEST(NetProtocol, OpenRequestDefaultsEncodeAsLegacyEmptyPayload)
{
    OpenRequest in;
    std::vector<std::uint8_t> payload;
    encodeOpenRequest(payload, in);
    EXPECT_TRUE(payload.empty());

    // Both the legacy empty payload and an explicit deadline decode.
    OpenRequest out;
    out.deadlineMs = 123;  // must be reset by the decoder
    ASSERT_TRUE(decodeOpenRequest(payload, out));
    EXPECT_EQ(out.deadlineMs, 0u);

    in.deadlineMs = 1500;
    encodeOpenRequest(payload, in);
    EXPECT_EQ(payload.size(), 4u);
    ASSERT_TRUE(decodeOpenRequest(payload, out));
    EXPECT_EQ(out.deadlineMs, 1500u);

    // Anything that is neither empty nor exactly one u32 is rejected.
    payload.push_back(0);
    EXPECT_FALSE(decodeOpenRequest(payload, out));
    EXPECT_FALSE(decodeOpenRequest(
        std::span<const std::uint8_t>(payload.data(), 3), out));
}

TEST(NetProtocol, DeadlineExceededRoundTrip)
{
    std::vector<std::uint8_t> payload;
    encodeDeadlineExceeded(payload, 2500);
    std::uint32_t ms = 0;
    ASSERT_TRUE(decodeDeadlineExceeded(payload, ms));
    EXPECT_EQ(ms, 2500u);
    payload.push_back(0);
    EXPECT_FALSE(decodeDeadlineExceeded(payload, ms));
    EXPECT_TRUE(isKnownType(std::uint8_t(FrameType::RespDeadline)));
    EXPECT_FALSE(isRequestType(std::uint8_t(FrameType::RespDeadline)));
}

TEST(NetProtocol, ErrorAndRetryAfterRoundTrip)
{
    ErrorInfo in{ErrorCode::DuplicateStream, "stream 7 already open"};
    std::vector<std::uint8_t> payload;
    encodeError(payload, in);
    ErrorInfo out;
    ASSERT_TRUE(decodeError(payload, out));
    EXPECT_EQ(out.code, in.code);
    EXPECT_EQ(out.message, in.message);

    std::vector<std::uint8_t> ra;
    encodeRetryAfter(ra, 75);
    std::uint32_t millis = 0;
    ASSERT_TRUE(decodeRetryAfter(ra, millis));
    EXPECT_EQ(millis, 75u);
    ra.push_back(0);
    EXPECT_FALSE(decodeRetryAfter(ra, millis));
}

// ---------------------------------------------------------------------------
// FrameReader reassembly.
// ---------------------------------------------------------------------------

TEST(NetProtocol, ReaderYieldsFrameFedByteAtATime)
{
    const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
    const auto wire = frameBytes(FrameType::Push, 42, payload);

    FrameReader reader;
    Frame frame;
    for (std::size_t i = 0; i < wire.size(); ++i) {
        EXPECT_FALSE(reader.next(frame)) << "complete at byte " << i;
        reader.feed(std::span<const std::uint8_t>(&wire[i], 1));
    }
    ASSERT_TRUE(reader.next(frame));
    EXPECT_EQ(frame.type, FrameType::Push);
    EXPECT_EQ(frame.streamId, 42u);
    EXPECT_EQ(frame.payload, payload);
    EXPECT_EQ(reader.buffered(), 0u);
    EXPECT_FALSE(reader.malformed());
}

TEST(NetProtocol, ReaderHandlesEverySplitOffset)
{
    const std::vector<std::uint8_t> p1{9, 8, 7};
    const auto f1 = frameBytes(FrameType::Open, 1, {});
    const auto f2 = frameBytes(FrameType::Push, 2, p1);
    std::vector<std::uint8_t> wire = f1;
    wire.insert(wire.end(), f2.begin(), f2.end());

    for (std::size_t split = 0; split <= wire.size(); ++split) {
        FrameReader reader;
        reader.feed(std::span<const std::uint8_t>(wire.data(), split));
        reader.feed(std::span<const std::uint8_t>(
            wire.data() + split, wire.size() - split));
        Frame a, b, extra;
        ASSERT_TRUE(reader.next(a)) << "split " << split;
        ASSERT_TRUE(reader.next(b)) << "split " << split;
        EXPECT_FALSE(reader.next(extra));
        EXPECT_EQ(a.type, FrameType::Open);
        EXPECT_EQ(a.streamId, 1u);
        EXPECT_TRUE(a.payload.empty());
        EXPECT_EQ(b.type, FrameType::Push);
        EXPECT_EQ(b.streamId, 2u);
        EXPECT_EQ(b.payload, p1);
    }
}

TEST(NetProtocol, ReaderPoisonedByUnderLength)
{
    // length = 2 < kFixedBytes: cannot even hold type + streamId.
    std::vector<std::uint8_t> wire;
    putU32(wire, 2);
    wire.push_back(0x01);
    wire.push_back(0x00);

    FrameReader reader;
    reader.feed(wire);
    Frame frame;
    EXPECT_FALSE(reader.next(frame));
    EXPECT_TRUE(reader.malformed());
    EXPECT_FALSE(reader.error().empty());

    // Poisoned for good: a subsequent valid frame is not parsed.
    const auto good = frameBytes(FrameType::Open, 1, {});
    reader.feed(good);
    EXPECT_FALSE(reader.next(frame));
    EXPECT_TRUE(reader.malformed());
}

TEST(NetProtocol, ReaderPoisonedByOversizeLength)
{
    std::vector<std::uint8_t> wire;
    putU32(wire, std::uint32_t(kFixedBytes + kMaxPayload + 1));

    FrameReader reader;
    reader.feed(wire);
    Frame frame;
    EXPECT_FALSE(reader.next(frame));
    EXPECT_TRUE(reader.malformed());
}

TEST(NetProtocol, ReaderHonoursCustomPayloadBound)
{
    const std::vector<std::uint8_t> payload(64, 0xAB);
    const auto wire = frameBytes(FrameType::Push, 3, payload);

    FrameReader tight(32);
    tight.feed(wire);
    Frame frame;
    EXPECT_FALSE(tight.next(frame));
    EXPECT_TRUE(tight.malformed());

    FrameReader roomy(64);
    roomy.feed(wire);
    ASSERT_TRUE(roomy.next(frame));
    EXPECT_EQ(frame.payload, payload);
}

TEST(NetProtocol, ReaderSurvivesRandomGarbageWithoutCrashing)
{
    // Fuzz-shaped safety net: random bytes either parse as frames or
    // poison the reader; they never crash or loop.
    Rng rng(2026);
    for (unsigned round = 0; round < 50; ++round) {
        FrameReader reader;
        std::vector<std::uint8_t> junk;
        const std::size_t n = 1 + rng.below(400);
        for (std::size_t i = 0; i < n; ++i)
            junk.push_back(std::uint8_t(rng.below(256)));
        reader.feed(junk);
        Frame frame;
        unsigned yielded = 0;
        while (reader.next(frame))
            ++yielded;
        // Parsed frames must at least satisfy the structural bound.
        EXPECT_LE(yielded, n / (kLengthBytes + kFixedBytes) + 1);
    }
}

TEST(NetProtocol, TypePredicatesMatchTheEnum)
{
    EXPECT_TRUE(isRequestType(std::uint8_t(FrameType::Open)));
    EXPECT_TRUE(isRequestType(std::uint8_t(FrameType::Cancel)));
    EXPECT_TRUE(isRequestType(std::uint8_t(FrameType::Stats)));
    EXPECT_FALSE(isRequestType(std::uint8_t(FrameType::RespFinal)));
    EXPECT_FALSE(isRequestType(0x00));
    EXPECT_TRUE(isKnownType(std::uint8_t(FrameType::RespRetryAfter)));
    EXPECT_TRUE(isKnownType(std::uint8_t(FrameType::RespStats)));
    EXPECT_FALSE(isKnownType(0x7F));
}

// ---------------------------------------------------------------------------
// STATS reply.
// ---------------------------------------------------------------------------

namespace {

/** The @p k-th listed field's test value: both u64 halves set. */
void
distinctValue(std::uint64_t &v, std::uint64_t k)
{
    v = (k << 32) | k;
}

/** The @p k-th listed field's test value: not a whole number. */
void
distinctValue(double &v, std::uint64_t k)
{
    v = double(k) + 0.25;
}

} // namespace

TEST(NetProtocol, StatsReplyRoundTrip)
{
    // Every field gets its own value, so a swapped, dropped or
    // repeated field in the codec cannot round-trip unnoticed.
    StatsReply in;
    std::uint64_t k = 0;
    server::forEachSnapshotField([&](const auto &field) {
        distinctValue(in.engine.*field.member, ++k);
    });
    in.streamsOpened = 777;
    in.streamsActive = 42;
    in.retryAfterSent = 13;
    in.overloadState = 2;
    std::vector<std::uint8_t> payload;
    encodeStatsReply(payload, in);
    // 34 engine fields and 3 server counters of 8 bytes, 1 state byte.
    EXPECT_EQ(payload.size(), 34u * 8 + 3 * 8 + 1);

    StatsReply out;
    ASSERT_TRUE(decodeStatsReply(payload, out));
    server::forEachSnapshotField([&](const auto &field) {
        EXPECT_EQ(out.engine.*field.member, in.engine.*field.member)
            << field.name;
    });
    EXPECT_EQ(out.streamsOpened, in.streamsOpened);
    EXPECT_EQ(out.streamsActive, in.streamsActive);
    EXPECT_EQ(out.retryAfterSent, in.retryAfterSent);
    EXPECT_EQ(out.overloadState, in.overloadState);
}

TEST(NetProtocol, StatsReplyRejectsTruncationAtEveryCut)
{
    StatsReply in;
    in.engine.utterances = 9;
    in.overloadState = 1;
    std::vector<std::uint8_t> payload;
    encodeStatsReply(payload, in);

    // Fixed-size payload in list order: the exact-consumption
    // check doubles as the layout/version check, so any cut -- and
    // any stray trailing byte -- must fail loudly.
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
        StatsReply r;
        EXPECT_FALSE(decodeStatsReply(
            std::span<const std::uint8_t>(payload.data(), cut), r))
            << "cut at " << cut;
    }
    std::vector<std::uint8_t> long_payload = payload;
    long_payload.push_back(0);
    StatsReply r;
    EXPECT_FALSE(decodeStatsReply(long_payload, r));
}

TEST(NetProtocol, StatsReplyRejectsHostileOverloadState)
{
    StatsReply in;
    std::vector<std::uint8_t> payload;
    encodeStatsReply(payload, in);
    // The overload-state byte is the last field; anything past the
    // enum's three values is a hostile or corrupt frame, not a state
    // a decoder should invent semantics for.
    for (const std::uint8_t hostile : {3, 7, 255}) {
        payload.back() = hostile;
        StatsReply r;
        EXPECT_FALSE(decodeStatsReply(payload, r))
            << unsigned(hostile);
    }
    payload.back() = 1;
    StatsReply r;
    EXPECT_TRUE(decodeStatsReply(payload, r));
    EXPECT_EQ(r.overloadState, 1);
}
