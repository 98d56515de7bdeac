/**
 * @file
 * Tests for the statistics substrate: histograms and counter sets.
 */

#include <limits>

#include <gtest/gtest.h>

#include "sim/stats.hh"

using namespace asr::sim;

TEST(Histogram, BasicMoments)
{
    Histogram h(1.0, 16);
    for (double v : {1.0, 2.0, 3.0, 4.0})
        h.sample(v);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.mean(), 2.5);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 4.0);
    EXPECT_DOUBLE_EQ(h.sum(), 10.0);
}

TEST(Histogram, EmptyIsZero)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, QuantileOnUniformSamples)
{
    Histogram h(1.0, 128);
    for (int i = 0; i < 100; ++i)
        h.sample(double(i));
    // The 50% quantile of 0..99 with unit buckets is ~50.
    EXPECT_NEAR(h.quantile(0.5), 50.0, 2.0);
    EXPECT_NEAR(h.quantile(0.9), 90.0, 2.0);
    EXPECT_LE(h.quantile(1.0), 100.0);
}

TEST(Histogram, OverflowBucketStillTracksMax)
{
    Histogram h(1.0, 4);
    h.sample(1000.0);
    EXPECT_DOUBLE_EQ(h.max(), 1000.0);
    EXPECT_EQ(h.count(), 1u);
}

TEST(Histogram, OutOfRangeSamplesCountAsOverflow)
{
    // None of these has a bucket index; converting them to one would
    // be undefined behaviour (-fsanitize=float-cast-overflow traps).
    Histogram h(1.0, 4);
    for (double v : {-5.0, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(), 1e30})
        h.sample(v);
    EXPECT_EQ(h.count(), 4u);
    // No bucket holds a sample, so every quantile walks past them
    // all to the largest sample seen.
    EXPECT_EQ(h.quantile(0.5), std::numeric_limits<double>::infinity());

    // An in-range sample still lands in its bucket.
    h.sample(0.5);
    EXPECT_DOUBLE_EQ(h.quantile(0.2), 1.0);
}

TEST(Histogram, ClearResets)
{
    Histogram h(1.0, 8);
    h.sample(3.0);
    h.clear();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(StatSet, IncrementAndGet)
{
    StatSet s;
    s.inc("a");
    s.inc("a", 4);
    s.set("b", 7);
    EXPECT_EQ(s.get("a"), 5u);
    EXPECT_EQ(s.get("b"), 7u);
    EXPECT_EQ(s.get("missing"), 0u);
}

TEST(StatSet, RenderSortedByName)
{
    StatSet s;
    s.set("zeta", 1);
    s.set("alpha", 2);
    const std::string out = s.render();
    EXPECT_LT(out.find("alpha"), out.find("zeta"));
    EXPECT_NE(out.find("alpha = 2"), std::string::npos);
}

TEST(StatSet, ClearDropsAll)
{
    StatSet s;
    s.inc("x");
    s.clear();
    EXPECT_TRUE(s.all().empty());
}
