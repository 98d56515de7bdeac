#include "wfst/io.hh"

#include <cstdio>
#include <memory>

#include "common/logging.hh"

namespace asr::wfst {

namespace {

constexpr std::uint32_t kMagic = 0x57525341;  // "ASRW" little-endian
constexpr std::uint32_t kVersion = 1;

struct Header
{
    std::uint32_t magic;
    std::uint32_t version;
    std::uint32_t numStates;
    std::uint32_t numArcs;
    std::uint32_t initial;
    std::uint8_t hasFinals;
    std::uint8_t reserved[3];  //!< always written and read as zero
};

static_assert(sizeof(Header) == 24, "header layout must be stable");

struct FileCloser
{
    void operator()(std::FILE *f) const
    {
        if (f)
            std::fclose(f);
    }
};

using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

void
writeAll(std::FILE *f, const void *data, std::size_t len,
         const std::string &path)
{
    if (len && std::fwrite(data, 1, len, f) != len)
        fatal("short write to '%s'", path.c_str());
}

void
readAll(std::FILE *f, void *data, std::size_t len, const std::string &path)
{
    if (len && std::fread(data, 1, len, f) != len)
        fatal("short read from '%s' (truncated file?)", path.c_str());
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t len, std::uint32_t seed)
{
    // Standard reflected CRC-32 (polynomial 0xEDB88320), table-free
    // bitwise variant: serialization is not on the simulation fast
    // path, so clarity wins over speed.
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t crc = ~seed;
    for (std::size_t i = 0; i < len; ++i) {
        crc ^= p[i];
        for (int b = 0; b < 8; ++b)
            crc = (crc >> 1) ^ (0xEDB88320u & (~(crc & 1u) + 1u));
    }
    return ~crc;
}

void
saveWfst(const Wfst &w, const std::string &path)
{
    FilePtr f(std::fopen(path.c_str(), "wb"));
    if (!f)
        fatal("cannot open '%s' for writing", path.c_str());

    Header h{};
    h.magic = kMagic;
    h.version = kVersion;
    h.numStates = w.numStates();
    h.numArcs = w.numArcs();
    h.initial = w.initialState();
    h.hasFinals = w.hasFinalStates() ? 1 : 0;

    const auto &states = w.stateArray();
    const auto &arcs = w.arcArray();
    const auto &finals = w.finalArray();

    std::uint32_t crc = 0;
    crc = crc32(states.data(), states.size() * sizeof(StateEntry), crc);
    crc = crc32(arcs.data(), arcs.size() * sizeof(ArcEntry), crc);
    if (h.hasFinals)
        crc = crc32(finals.data(), finals.size() * sizeof(LogProb), crc);

    writeAll(f.get(), &h, sizeof(h), path);
    writeAll(f.get(), states.data(), states.size() * sizeof(StateEntry),
             path);
    writeAll(f.get(), arcs.data(), arcs.size() * sizeof(ArcEntry), path);
    if (h.hasFinals)
        writeAll(f.get(), finals.data(), finals.size() * sizeof(LogProb),
                 path);
    writeAll(f.get(), &crc, sizeof(crc), path);
}

Wfst
loadWfst(const std::string &path)
{
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        fatal("cannot open '%s' for reading", path.c_str());

    Header h{};
    readAll(f.get(), &h, sizeof(h), path);
    if (h.magic != kMagic)
        fatal("'%s' is not a WFST container (bad magic)", path.c_str());
    if (h.version != kVersion)
        fatal("'%s': unsupported container version %u", path.c_str(),
              h.version);
    if (h.hasFinals > 1)
        fatal("'%s': corrupt header (hasFinals = %u)", path.c_str(),
              h.hasFinals);
    for (const std::uint8_t b : h.reserved)
        if (b != 0)
            fatal("'%s': corrupt header (nonzero reserved byte)",
                  path.c_str());
    if (h.numStates > 0 && h.initial >= h.numStates)
        fatal("'%s': corrupt header (initial state %u of %u)",
              path.c_str(), h.initial, h.numStates);

    // Check the payload the header promises against the actual file
    // size before allocating anything: a malformed or truncated
    // header must be rejected, not honoured with a multi-gigabyte
    // allocation followed by a short read.
    std::fseek(f.get(), 0, SEEK_END);
    const long file_size = std::ftell(f.get());
    std::fseek(f.get(), long(sizeof(Header)), SEEK_SET);
    const std::uint64_t expected =
        sizeof(Header) +
        std::uint64_t(h.numStates) * sizeof(StateEntry) +
        std::uint64_t(h.numArcs) * sizeof(ArcEntry) +
        (h.hasFinals ? std::uint64_t(h.numStates) * sizeof(LogProb)
                     : 0) +
        sizeof(std::uint32_t);
    if (file_size < 0 || std::uint64_t(file_size) != expected)
        fatal("'%s': header promises %llu bytes but the file has %ld "
              "(truncated or corrupt container)",
              path.c_str(),
              static_cast<unsigned long long>(expected), file_size);

    StateVec states(h.numStates);
    ArcVec arcs(h.numArcs);
    std::vector<LogProb> finals;

    readAll(f.get(), states.data(), states.size() * sizeof(StateEntry),
            path);
    readAll(f.get(), arcs.data(), arcs.size() * sizeof(ArcEntry), path);
    if (h.hasFinals) {
        finals.resize(h.numStates);
        readAll(f.get(), finals.data(), finals.size() * sizeof(LogProb),
                path);
    }

    std::uint32_t stored = 0;
    readAll(f.get(), &stored, sizeof(stored), path);
    std::uint32_t crc = 0;
    crc = crc32(states.data(), states.size() * sizeof(StateEntry), crc);
    crc = crc32(arcs.data(), arcs.size() * sizeof(ArcEntry), crc);
    if (h.hasFinals)
        crc = crc32(finals.data(), finals.size() * sizeof(LogProb), crc);
    if (crc != stored)
        fatal("'%s': checksum mismatch (corrupted file)", path.c_str());

    return loadWfstRaw(std::move(states), std::move(arcs),
                       std::move(finals), h.initial);
}

} // namespace asr::wfst
