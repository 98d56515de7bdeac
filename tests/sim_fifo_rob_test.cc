/**
 * @file
 * Tests for the bounded FIFO and the in-order reorder buffer used by
 * the prefetching architecture.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "sim/fifo.hh"
#include "sim/reorder_buffer.hh"

using namespace asr::sim;

TEST(Fifo, OrderAndCapacity)
{
    Fifo<int> f(3);
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.freeSlots(), 3u);
    f.push(1);
    f.push(2);
    f.push(3);
    EXPECT_TRUE(f.full());
    EXPECT_EQ(f.size(), 3u);
    EXPECT_EQ(f.pop(), 1);
    EXPECT_EQ(f.front(), 2);
    f.push(4);
    EXPECT_EQ(f.pop(), 2);
    EXPECT_EQ(f.pop(), 3);
    EXPECT_EQ(f.pop(), 4);
    EXPECT_TRUE(f.empty());
}

TEST(Fifo, ClearEmpties)
{
    Fifo<int> f(2);
    f.push(1);
    f.clear();
    EXPECT_TRUE(f.empty());
    f.push(7);
    EXPECT_EQ(f.front(), 7);
}

TEST(Fifo, RingWrapsManyTimes)
{
    // The timing engine's 64-entry Arc FIFO runs for millions of
    // cycles: push and pop across the ring's end many times over,
    // at many fill levels.
    Fifo<int> f(64);
    int next_in = 0, next_out = 0;
    for (int round = 0; round < 200; ++round) {
        const int pushes = std::min<int>(1 + (round * 13) % 64,
                                         int(f.freeSlots()));
        for (int i = 0; i < pushes; ++i)
            f.push(next_in++);
        ASSERT_EQ(f.size(), std::size_t(next_in - next_out));
        EXPECT_EQ(f.full(), f.size() == 64);
        EXPECT_EQ(f.freeSlots(), 64 - f.size());
        const int pops = std::min<int>(1 + (round * 7) % 64,
                                       int(f.size()));
        for (int i = 0; i < pops; ++i) {
            ASSERT_EQ(f.front(), next_out);
            ASSERT_EQ(f.pop(), next_out++);
        }
    }
    EXPECT_GT(next_in, 64 * 50);
    while (!f.empty())
        ASSERT_EQ(f.pop(), next_out++);
    EXPECT_EQ(next_out, next_in);
}

TEST(Fifo, ClearMidWrapLeavesItEmptyAndReusable)
{
    Fifo<int> f(64);
    for (int i = 0; i < 50; ++i)
        f.push(i);
    for (int i = 0; i < 40; ++i)
        f.pop();
    for (int i = 50; i < 90; ++i)
        f.push(i);  // wraps past the ring's end
    ASSERT_EQ(f.size(), 50u);
    f.clear();
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.size(), 0u);
    EXPECT_EQ(f.freeSlots(), 64u);
    for (int i = 0; i < 64; ++i)
        f.push(1000 + i);
    EXPECT_TRUE(f.full());
    for (int i = 0; i < 64; ++i)
        ASSERT_EQ(f.pop(), 1000 + i);
    EXPECT_TRUE(f.empty());
}

TEST(FifoDeath, PushToFullPanics)
{
    Fifo<int> f(1);
    f.push(1);
    EXPECT_DEATH(f.push(2), "push to full FIFO");
}

TEST(FifoDeath, PopFromEmptyPanics)
{
    Fifo<int> f(1);
    EXPECT_DEATH(f.pop(), "pop of empty FIFO");
}

TEST(ReorderBuffer, InOrderRelease)
{
    ReorderBuffer<int> rob(4);
    const auto s0 = rob.allocate(10);
    const auto s1 = rob.allocate(11);
    const auto s2 = rob.allocate(12);

    // Completing out of order does not release out of order.
    rob.markReady(s2);
    EXPECT_FALSE(rob.headReady());
    rob.markReady(s0);
    EXPECT_TRUE(rob.headReady());
    EXPECT_EQ(rob.releaseHead(), 10);
    EXPECT_FALSE(rob.headReady());  // s1 not ready yet
    rob.markReady(s1);
    EXPECT_EQ(rob.releaseHead(), 11);
    EXPECT_EQ(rob.releaseHead(), 12);
    EXPECT_TRUE(rob.empty());
}

TEST(ReorderBuffer, WrapsAround)
{
    ReorderBuffer<int> rob(2);
    for (int round = 0; round < 5; ++round) {
        const auto a = rob.allocate(round * 2);
        const auto b = rob.allocate(round * 2 + 1);
        EXPECT_TRUE(rob.full());
        rob.markReady(a);
        rob.markReady(b);
        EXPECT_EQ(rob.releaseHead(), round * 2);
        EXPECT_EQ(rob.releaseHead(), round * 2 + 1);
    }
}

TEST(ReorderBuffer, ClearResets)
{
    ReorderBuffer<int> rob(2);
    rob.allocate(1);
    rob.clear();
    EXPECT_TRUE(rob.empty());
    const auto s = rob.allocate(5);
    rob.markReady(s);
    EXPECT_EQ(rob.releaseHead(), 5);
}

TEST(ReorderBufferDeath, AllocateOnFullPanics)
{
    ReorderBuffer<int> rob(1);
    rob.allocate(1);
    EXPECT_DEATH(rob.allocate(2), "allocate on full ROB");
}

TEST(ReorderBufferDeath, ReleaseNotReadyPanics)
{
    ReorderBuffer<int> rob(1);
    rob.allocate(1);
    EXPECT_DEATH(rob.releaseHead(), "release of non-ready ROB head");
}
