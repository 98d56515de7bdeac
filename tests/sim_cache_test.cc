/**
 * @file
 * Tests for the set-associative cache tag model, including a
 * property-based comparison against a simple reference model over
 * randomized access streams.
 */

#include <list>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "sim/cache.hh"

using namespace asr;
using namespace asr::sim;

namespace {

/**
 * Reference model: per-set LRU lists implemented the obvious slow
 * way with std::list, used to validate the production tag array.
 */
class ReferenceCache
{
  public:
    ReferenceCache(Bytes size, unsigned assoc, Bytes line)
        : assoc_(assoc), line_(line),
          sets_(unsigned(size / (line * assoc)))
    {
        lru.resize(sets_);
    }

    bool
    access(Addr addr)
    {
        const Addr tag = addr / line_;
        auto &set = lru[unsigned(tag % sets_)];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (*it == tag) {
                set.erase(it);
                set.push_front(tag);
                return true;
            }
        }
        set.push_front(tag);
        if (set.size() > assoc_)
            set.pop_back();
        return false;
    }

  private:
    unsigned assoc_;
    Bytes line_;
    unsigned sets_;
    std::vector<std::list<Addr>> lru;
};

} // namespace

TEST(Cache, BasicHitMiss)
{
    Cache c(CacheConfig{"t", 1024, 2, 64, false});
    EXPECT_FALSE(c.access(0, false).hit);    // cold miss
    EXPECT_TRUE(c.access(0, false).hit);     // now resident
    EXPECT_TRUE(c.access(63, false).hit);    // same line
    EXPECT_FALSE(c.access(64, false).hit);   // next line
    EXPECT_EQ(c.stats().hits, 2u);
    EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, LruEvictionOrder)
{
    // 2 sets x 2 ways x 64 B = 256 B; lines 0,2,4 map to set 0.
    Cache c(CacheConfig{"t", 256, 2, 64, false});
    c.access(0 * 64, false);
    c.access(2 * 64, false);
    c.access(0 * 64, false);      // line 0 most recent
    c.access(4 * 64, false);      // evicts line 2 (LRU)
    EXPECT_TRUE(c.access(0 * 64, false).hit);
    EXPECT_FALSE(c.access(2 * 64, false).hit);
}

TEST(Cache, DirtyWriteback)
{
    Cache c(CacheConfig{"t", 128, 1, 64, false});  // 2 sets, direct
    c.access(0, true);                             // dirty line 0
    const auto res = c.access(128, false);         // same set, evict
    EXPECT_FALSE(res.hit);
    EXPECT_TRUE(res.writeback);
    EXPECT_EQ(res.writebackAddr, 0u);
    EXPECT_EQ(c.stats().writebacks, 1u);

    // Clean eviction produces no writeback.
    const auto res2 = c.access(0, false);
    EXPECT_FALSE(res2.hit);
    EXPECT_FALSE(res2.writeback);
}

TEST(Cache, PerfectModeAlwaysHits)
{
    Cache c(CacheConfig{"t", 256, 2, 64, true});
    Rng rng(1);
    for (int i = 0; i < 1000; ++i)
        EXPECT_TRUE(c.access(rng.next() & 0xffffff, false).hit);
    EXPECT_EQ(c.stats().misses, 0u);
    EXPECT_DOUBLE_EQ(c.stats().missRatio(), 0.0);
}

TEST(Cache, InvalidateAllDropsContents)
{
    Cache c(CacheConfig{"t", 1024, 2, 64, false});
    c.access(0, false);
    ASSERT_TRUE(c.access(0, false).hit);
    c.invalidateAll();
    EXPECT_FALSE(c.access(0, false).hit);
}

TEST(Cache, ProbeDoesNotDisturbLru)
{
    Cache c(CacheConfig{"t", 128, 2, 64, false});  // 1 set, 2 ways
    c.access(0, false);
    c.access(64, false);
    // Probing line 0 must NOT refresh it; line 0 stays LRU.
    EXPECT_TRUE(c.probe(0));
    c.access(128, false);  // evicts line 0
    EXPECT_FALSE(c.probe(0));
    EXPECT_TRUE(c.probe(64));
}

TEST(Cache, DirtyLineKeepsItsStateWhileReordered)
{
    // 1 set x 4 ways.  The sets keep lines in recency order, so a hit
    // moves a line; its dirty bit must move with it and surface as a
    // writeback of the right address once it becomes LRU.
    Cache c(CacheConfig{"t", 256, 4, 64, false});
    c.access(0 * 64, true);  // dirty
    c.access(1 * 64, false);
    c.access(2 * 64, false);
    c.access(3 * 64, false);
    EXPECT_TRUE(c.access(0 * 64, false).hit);  // line 0 to the front
    c.access(4 * 64, false);                   // evicts clean line 1
    c.access(5 * 64, false);                   // evicts clean line 2
    const auto r3 = c.access(6 * 64, false);   // evicts clean line 3
    EXPECT_FALSE(r3.writeback);
    const auto r0 = c.access(7 * 64, false);   // evicts dirty line 0
    EXPECT_TRUE(r0.writeback);
    EXPECT_EQ(r0.writebackAddr, 0u);
    EXPECT_EQ(c.stats().evictions, 4u);
    EXPECT_EQ(c.stats().writebacks, 1u);
}

/** Property: production model == reference model on random streams. */
struct CacheShape
{
    Bytes size;
    unsigned assoc;
    std::uint64_t seed;
};

class CacheVsReference : public ::testing::TestWithParam<CacheShape>
{
};

TEST_P(CacheVsReference, IdenticalHitMissSequence)
{
    const CacheShape &p = GetParam();
    Cache dut(CacheConfig{"t", p.size, p.assoc, 64, false});
    ReferenceCache ref(p.size, p.assoc, 64);
    Rng rng(p.seed);

    for (int i = 0; i < 20000; ++i) {
        // Mix of clustered and far addresses exercises all sets.
        Addr addr = rng.bernoulli(0.5)
                        ? rng.below(p.size * 2)
                        : rng.below(1_MiB * 64);
        const bool dut_hit = dut.access(addr, false).hit;
        const bool ref_hit = ref.access(addr);
        ASSERT_EQ(dut_hit, ref_hit) << "access " << i;
    }
}

/**
 * gtest names each case after the printed bytes of its CacheShape,
 * padding included.  A constant-initialized table has zero padding,
 * so the test names do not depend on stack garbage at start-up.
 */
constexpr CacheShape kCacheShapes[] = {
    {1024, 1, 1},    {1024, 2, 2},    {4096, 4, 3},
    {8192, 2, 4},    {64_KiB, 4, 5},  {64_KiB, 8, 6},
    {512_KiB, 4, 7}, {1_MiB, 4, 8},   {64_KiB, 16, 9},
};

INSTANTIATE_TEST_SUITE_P(Shapes, CacheVsReference,
                         ::testing::ValuesIn(kCacheShapes));

TEST(Cache, MissRatioDecreasesWithCapacity)
{
    // The Figure-4 property: bigger caches miss less on the same
    // stream (with everything else fixed).
    std::vector<double> ratios;
    for (Bytes size : {16_KiB, 64_KiB, 256_KiB}) {
        Cache c(CacheConfig{"t", size, 4, 64, false});
        Rng rng(99);
        for (int i = 0; i < 50000; ++i)
            c.access(rng.below(512_KiB), false);
        ratios.push_back(c.stats().missRatio());
    }
    EXPECT_GT(ratios[0], ratios[1]);
    EXPECT_GT(ratios[1], ratios[2]);
}
