#include "sim/cache.hh"

#include "common/bits.hh"
#include "common/logging.hh"

namespace asr::sim {

Cache::Cache(const CacheConfig &config)
    : cfg(config)
{
    ASR_ASSERT(cfg.lineBytes > 0 && isPowerOf2(cfg.lineBytes),
               "line size must be a power of two");
    ASR_ASSERT(cfg.assoc > 0, "associativity must be positive");
    ASR_ASSERT(cfg.size % (cfg.lineBytes * cfg.assoc) == 0,
               "capacity must be a multiple of way size");
    sets = static_cast<unsigned>(cfg.size / (cfg.lineBytes * cfg.assoc));
    ASR_ASSERT(isPowerOf2(sets), "number of sets must be a power of two");
    lineShift = floorLog2(cfg.lineBytes);
    lines.resize(static_cast<std::size_t>(sets) * cfg.assoc);
}

bool
Cache::probe(Addr addr) const
{
    if (cfg.perfect)
        return true;
    const Addr line = lineAddr(addr);
    const Line *set = &lines[setBase(line)];
    for (unsigned w = 0; w < cfg.assoc && set[w].valid; ++w)
        if (set[w].tag == line)
            return true;
    return false;
}

void
Cache::invalidateAll()
{
    for (auto &l : lines)
        l = Line();
}

} // namespace asr::sim
