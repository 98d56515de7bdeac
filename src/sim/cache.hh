/**
 * @file
 * Set-associative cache *tag* model with true-LRU replacement.
 *
 * The simulator is functionally/timing decoupled: data values are read
 * from the host-resident WFST/token structures, so caches only need to
 * model tags to produce hit/miss timing and off-chip traffic.  This is
 * the standard technique used by trace-driven simulators.
 *
 * The model supports the two usage patterns in the accelerator:
 *  - demand access (State/Token caches): lookup + fill on miss;
 *  - decoupled tag-ahead access (Arc cache with the prefetching
 *    architecture of Sec. IV-A): tags are updated at issue time via
 *    access(), while data arrival is tracked by the Arc Issuer's
 *    reorder buffer.
 */

#ifndef ASR_SIM_CACHE_HH
#define ASR_SIM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/aligned.hh"
#include "common/compiler.hh"
#include "common/units.hh"
#include "sim/types.hh"

namespace asr::sim {

/** Configuration of one cache instance. */
struct CacheConfig
{
    std::string name = "cache";  //!< for stats output
    Bytes size = 512_KiB;        //!< total data capacity
    unsigned assoc = 4;          //!< ways per set
    Bytes lineBytes = 64;        //!< cache line size
    bool perfect = false;        //!< every access hits (ablation knob)
};

/** Outcome of a cache access. */
struct CacheAccessResult
{
    bool hit = false;            //!< tag matched
    bool writeback = false;      //!< a dirty victim must go to DRAM
    Addr writebackAddr = 0;      //!< line address of the dirty victim
};

/** Aggregate cache statistics. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;

    std::uint64_t accesses() const { return hits + misses; }

    /** Miss ratio in [0,1]; 0 when no accesses were made. */
    double
    missRatio() const
    {
        auto a = accesses();
        return a ? static_cast<double>(misses) / static_cast<double>(a)
                 : 0.0;
    }
};

/**
 * The tag array.  Write-back, write-allocate.  All sizes must be
 * powers of two.
 *
 * Each set keeps its valid lines in recency order, most recent first,
 * with the invalid lines behind them.  A hit moves its line to the
 * front and a fill pushes every line back by one, dropping the last,
 * which is the LRU line (or an invalid one) -- true LRU with no use
 * stamps, so it cannot wrap however long a run is.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Perform an access, updating LRU state and allocating on miss.
     *
     * @param addr  byte address (any address within the line)
     * @param write true for stores (marks the line dirty)
     * @return hit/miss and any dirty writeback generated by the fill
     */
    CacheAccessResult access(Addr addr, bool write);

    /** Tag lookup without any state change. */
    bool probe(Addr addr) const;

    /**
     * Hint: pull the host memory of @p addr's set toward the core
     * ahead of an access.  Changes no simulated state.
     */
    void
    prefetch(Addr addr) const
    {
        ASR_PREFETCH(&lines[setBase(lineAddr(addr))]);
    }

    /** Invalidate the whole cache (keeps statistics). */
    void invalidateAll();

    /** Config this cache was built with. */
    const CacheConfig &config() const { return cfg; }

    /** Accumulated statistics. */
    const CacheStats &stats() const { return stats_; }

    /** Reset statistics only. */
    void clearStats() { stats_ = CacheStats(); }

    /** Number of sets. */
    unsigned numSets() const { return sets; }

  private:
    struct Line
    {
        Addr tag = 0;   //!< line address
        bool valid = false;
        bool dirty = false;
    };

    Addr lineAddr(Addr addr) const { return addr >> lineShift; }

    /** Index of the first line of the set holding @p line. */
    std::size_t
    setBase(Addr line) const
    {
        return static_cast<std::size_t>(line & (sets - 1)) * cfg.assoc;
    }

    CacheConfig cfg;
    unsigned sets;
    unsigned lineShift;        // log2(lineBytes)
    CacheAlignedVector<Line> lines;  // sets * assoc, set-major
    CacheStats stats_;
};

inline CacheAccessResult
Cache::access(Addr addr, bool write)
{
    CacheAccessResult result;
    if (cfg.perfect) {
        result.hit = true;
        ++stats_.hits;
        return result;
    }

    const Addr line = lineAddr(addr);
    Line *set = &lines[setBase(line)];

    for (unsigned w = 0; w < cfg.assoc && set[w].valid; ++w) {
        if (set[w].tag == line) {
            Line hit = set[w];
            hit.dirty = hit.dirty || write;
            for (; w > 0; --w)
                set[w] = set[w - 1];
            set[0] = hit;
            ++stats_.hits;
            result.hit = true;
            return result;
        }
    }

    // Miss: the last line is the LRU one (or invalid).
    ++stats_.misses;
    const Line &victim = set[cfg.assoc - 1];
    if (victim.valid) {
        ++stats_.evictions;
        if (victim.dirty) {
            ++stats_.writebacks;
            result.writeback = true;
            result.writebackAddr = victim.tag << lineShift;
        }
    }
    for (unsigned w = cfg.assoc - 1; w > 0; --w)
        set[w] = set[w - 1];
    set[0] = Line{line, true, write};
    return result;
}

} // namespace asr::sim

#endif // ASR_SIM_CACHE_HH
