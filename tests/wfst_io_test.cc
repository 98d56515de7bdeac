/**
 * @file
 * Tests for WFST binary serialization: round trips, corruption
 * detection, CRC behaviour and hostile headers for the one container
 * version.  An attached CompactArcs is never written, so a reload
 * carries none.
 */

#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "wfst/compact.hh"
#include "wfst/generate.hh"
#include "wfst/io.hh"

using namespace asr;
using namespace asr::wfst;

namespace {

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "/" + name;
}

bool
sameWfst(const Wfst &a, const Wfst &b)
{
    if (a.numStates() != b.numStates() || a.numArcs() != b.numArcs() ||
        a.initialState() != b.initialState() ||
        a.hasFinalStates() != b.hasFinalStates())
        return false;
    for (StateId s = 0; s < a.numStates(); ++s) {
        const StateEntry &ea = a.state(s);
        const StateEntry &eb = b.state(s);
        if (ea.firstArc != eb.firstArc ||
            ea.numNonEpsArcs != eb.numNonEpsArcs ||
            ea.numEpsArcs != eb.numEpsArcs)
            return false;
        if (a.finalWeight(s) != b.finalWeight(s))
            return false;
    }
    for (ArcId i = 0; i < a.numArcs(); ++i) {
        const ArcEntry &x = a.arc(i);
        const ArcEntry &y = b.arc(i);
        if (x.dest != y.dest || x.weight != y.weight ||
            x.ilabel != y.ilabel || x.olabel != y.olabel)
            return false;
    }
    return true;
}

} // namespace

TEST(WfstIo, RoundTripSmall)
{
    GeneratorConfig cfg;
    cfg.numStates = 500;
    cfg.seed = 17;
    const Wfst original = generateWfst(cfg);

    const std::string path = tempPath("roundtrip_small.wfst");
    saveWfst(original, path);
    const Wfst loaded = loadWfst(path);
    EXPECT_TRUE(sameWfst(original, loaded));
    std::remove(path.c_str());
}

TEST(WfstIo, RoundTripWithFinals)
{
    GeneratorConfig cfg;
    cfg.numStates = 200;
    cfg.finalStateProb = 0.5;  // guarantee finals
    cfg.seed = 23;
    const Wfst original = generateWfst(cfg);
    ASSERT_TRUE(original.hasFinalStates());

    const std::string path = tempPath("roundtrip_finals.wfst");
    saveWfst(original, path);
    EXPECT_TRUE(sameWfst(original, loadWfst(path)));
    std::remove(path.c_str());
}

TEST(WfstIoDeath, DetectsCorruption)
{
    GeneratorConfig cfg;
    cfg.numStates = 100;
    cfg.seed = 31;
    const Wfst original = generateWfst(cfg);
    const std::string path = tempPath("corrupt.wfst");
    saveWfst(original, path);

    // Flip one byte in the middle of the payload.
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 200, SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, 200, SEEK_SET);
    std::fputc(c ^ 0xff, f);
    std::fclose(f);

    EXPECT_EXIT(loadWfst(path), ::testing::ExitedWithCode(1),
                "checksum mismatch");
    std::remove(path.c_str());
}

TEST(WfstIoDeath, DetectsBadMagic)
{
    const std::string path = tempPath("notawfst.bin");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    for (int i = 0; i < 64; ++i)
        std::fputc(i, f);
    std::fclose(f);
    EXPECT_EXIT(loadWfst(path), ::testing::ExitedWithCode(1),
                "bad magic");
    std::remove(path.c_str());
}

TEST(WfstIoDeath, DetectsTruncation)
{
    GeneratorConfig cfg;
    cfg.numStates = 100;
    cfg.seed = 37;
    const Wfst original = generateWfst(cfg);
    const std::string path = tempPath("truncated.wfst");
    saveWfst(original, path);

    // Truncate the file to half its size.  The loader cross-checks
    // the header against the actual file size before reading any
    // payload, so this is rejected up front.
    std::FILE *f = std::fopen(path.c_str(), "rb");
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(truncate(path.c_str(), size / 2), 0);

    EXPECT_EXIT(loadWfst(path), ::testing::ExitedWithCode(1),
                "truncated or corrupt");
    std::remove(path.c_str());
}

TEST(WfstIoDeath, MissingFileFails)
{
    EXPECT_EXIT(loadWfst(tempPath("does_not_exist.wfst")),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(WfstIoFuzz, RandomShapesRoundTrip)
{
    // Property sweep: random generator shapes (size, epsilon mix,
    // topology, finals) must survive a write/read cycle bit-exactly.
    Rng rng(0xf022);
    for (unsigned trial = 0; trial < 24; ++trial) {
        GeneratorConfig cfg;
        cfg.numStates = StateId(2 + rng.below(800));
        cfg.numPhonemes = std::uint32_t(1 + rng.below(64));
        cfg.numWords = std::uint32_t(1 + rng.below(500));
        cfg.epsilonFraction = rng.uniform(0.0, 0.4);
        cfg.selfLoopProb = rng.uniform(0.0, 1.0);
        cfg.finalStateProb = rng.uniform(0.0, 0.3);
        cfg.forwardEpsilonOnly = rng.bernoulli(0.5);
        cfg.wordLabelProb = rng.uniform(0.0, 0.5);
        cfg.seed = rng.next();
        const Wfst original = generateWfst(cfg);

        const std::string path =
            tempPath("fuzz_" + std::to_string(trial) + ".wfst");
        saveWfst(original, path);
        const Wfst loaded = loadWfst(path);
        EXPECT_TRUE(sameWfst(original, loaded)) << "trial " << trial;
        std::remove(path.c_str());
    }
}

namespace {

/**
 * Write a syntactically valid container whose header advertises the
 * given counts over an arbitrary payload, with a correct CRC, so
 * only the size/consistency checks can reject it.
 */
void
writeRawContainer(const std::string &path, std::uint32_t version,
                  std::uint32_t num_states, std::uint32_t num_arcs,
                  std::uint32_t initial, std::uint8_t has_finals,
                  const std::vector<std::uint8_t> &payload,
                  const std::array<std::uint8_t, 3> &reserved = {})
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const std::uint32_t magic = 0x57525341;  // "ASRW"
    std::fwrite(&magic, 4, 1, f);
    std::fwrite(&version, 4, 1, f);
    std::fwrite(&num_states, 4, 1, f);
    std::fwrite(&num_arcs, 4, 1, f);
    std::fwrite(&initial, 4, 1, f);
    std::fwrite(&has_finals, 1, 1, f);
    std::fwrite(reserved.data(), 1, reserved.size(), f);
    if (!payload.empty())
        std::fwrite(payload.data(), 1, payload.size(), f);
    const std::uint32_t crc =
        crc32(payload.data(), payload.size());
    std::fwrite(&crc, 4, 1, f);
    std::fclose(f);
}

} // namespace

TEST(WfstIoFuzz, RejectsHeaderLyingAboutCounts)
{
    // A header advertising 100 M states over a tiny payload must be
    // rejected before the loader allocates gigabytes for it.
    const std::string path = tempPath("liar_counts.wfst");
    writeRawContainer(path, 1, 100'000'000, 7, 0, 0,
                      std::vector<std::uint8_t>(64, 0));
    EXPECT_EXIT(loadWfst(path), ::testing::ExitedWithCode(1),
                "truncated or corrupt");
    std::remove(path.c_str());
}

TEST(WfstIoFuzz, RejectsUnsupportedVersion)
{
    const std::string path = tempPath("bad_version.wfst");
    writeRawContainer(path, 99, 1, 0, 0, 0, {});
    EXPECT_EXIT(loadWfst(path), ::testing::ExitedWithCode(1),
                "unsupported container version");
    // Version 1 is the only one: a version-2 header is rejected
    // before its sizes are even looked at.
    writeRawContainer(path, 2, 1, 0, 0, 0, {});
    EXPECT_EXIT(loadWfst(path), ::testing::ExitedWithCode(1),
                "unsupported container version");
    std::remove(path.c_str());
}

TEST(WfstIoFuzz, RejectsOutOfRangeInitialState)
{
    const std::string path = tempPath("bad_initial.wfst");
    // One state (8 payload bytes), initial state id 5.
    writeRawContainer(path, 1, 1, 0, 5, 0,
                      std::vector<std::uint8_t>(8, 0));
    EXPECT_EXIT(loadWfst(path), ::testing::ExitedWithCode(1),
                "corrupt header");
    std::remove(path.c_str());
}

TEST(WfstIoFuzz, RejectsNonBooleanFinalsFlag)
{
    const std::string path = tempPath("bad_finals_flag.wfst");
    writeRawContainer(path, 1, 1, 0, 0, 7,
                      std::vector<std::uint8_t>(8, 0));
    EXPECT_EXIT(loadWfst(path), ::testing::ExitedWithCode(1),
                "corrupt header");
    std::remove(path.c_str());
}

TEST(WfstIoFuzzDeath, RejectsStructurallyInvalidGraph)
{
    // A container can be bit-wise intact (sizes line up, CRC valid)
    // yet describe an invalid graph; loadWfstRaw's validate() must
    // catch it.  One state whose entry claims an arc, but with the
    // arc's destination out of range.
    const std::string path = tempPath("bad_graph.wfst");
    std::vector<std::uint8_t> payload(8 + 16, 0);
    // StateEntry{firstArc=0, numNonEps=1, numEps=0}.
    payload[4] = 1;
    // ArcEntry.dest = 9 (only 1 state exists).
    payload[8] = 9;
    // ArcEntry.ilabel = 1 (non-epsilon, matching the layout).
    payload[16] = 1;
    writeRawContainer(path, 1, 1, 1, 0, 0, payload);
    EXPECT_DEATH(loadWfst(path), "out of range");
    std::remove(path.c_str());
}

TEST(WfstIoFuzz, TrailingGarbageRejected)
{
    GeneratorConfig cfg;
    cfg.numStates = 50;
    cfg.seed = 91;
    const Wfst original = generateWfst(cfg);
    const std::string path = tempPath("trailing.wfst");
    saveWfst(original, path);

    std::FILE *f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char junk[16] = {0};
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);

    EXPECT_EXIT(loadWfst(path), ::testing::ExitedWithCode(1),
                "truncated or corrupt");
    std::remove(path.c_str());
}

TEST(WfstIoV2, PlainLoadDoesNotInventCompactArcs)
{
    GeneratorConfig cfg;
    cfg.numStates = 80;
    cfg.seed = 47;
    Wfst g = generateWfst(cfg);
    const std::string path = tempPath("plain_no_compact.wfst");
    saveWfst(g, path);
    const Wfst loaded = loadWfst(path);
    EXPECT_FALSE(loaded.hasCompactArcs());
    EXPECT_EQ(loaded.compactArcs(), nullptr);

    // An attached encoding is left out of the file: the reload is the
    // same graph, and it carries no compact arcs.
    g.attachCompactArcs(std::make_shared<const CompactArcs>(
        CompactArcs::build(g, WeightMode::Exact)));
    saveWfst(g, path);
    const Wfst reloaded = loadWfst(path);
    EXPECT_TRUE(sameWfst(g, reloaded));
    EXPECT_FALSE(reloaded.hasCompactArcs());
    EXPECT_EQ(reloaded.compactArcs(), nullptr);
    std::remove(path.c_str());
}

TEST(WfstIoV2Death, RejectsCorruptFlagBytes)
{
    // The three header bytes after hasFinals are reserved: each one
    // set nonzero is a corrupt header.
    const std::vector<std::uint8_t> body(8, 0);
    for (std::size_t i = 0; i < 3; ++i) {
        std::array<std::uint8_t, 3> reserved{};
        reserved[i] = std::uint8_t(1 + 4 * i);
        const std::string path =
            tempPath("nonzero_reserved_" + std::to_string(i) + ".wfst");
        writeRawContainer(path, 1, 1, 0, 0, 0, body, reserved);
        EXPECT_EXIT(loadWfst(path), ::testing::ExitedWithCode(1),
                    "corrupt header")
            << "reserved byte " << i;
        std::remove(path.c_str());
    }
}

TEST(Crc32, KnownVector)
{
    // The canonical CRC-32 of "123456789" is 0xCBF43926.
    const char *s = "123456789";
    EXPECT_EQ(crc32(s, 9), 0xCBF43926u);
}

TEST(Crc32, SeedChaining)
{
    // Chaining two halves equals the whole.
    const char *s = "hello world!";
    const auto whole = crc32(s, 12);
    auto part = crc32(s, 5);
    part = crc32(s + 5, 7, part);
    EXPECT_EQ(part, whole);
}

TEST(Crc32, EmptyIsZero)
{
    EXPECT_EQ(crc32(nullptr, 0), 0u);
}
