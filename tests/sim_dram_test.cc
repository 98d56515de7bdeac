/**
 * @file
 * Tests for the DRAM / memory-controller model: latency, in-flight
 * window, per-cycle issue limit, and per-class traffic accounting.
 */

#include <gtest/gtest.h>

#include "sim/dram.hh"

using namespace asr;
using namespace asr::sim;

TEST(Dram, FixedLatency)
{
    Dram d(DramConfig{50, 32, 1, 64});
    const RequestId id = d.issue(0x1000, DataClass::Arc, false, 100);
    ASSERT_NE(id, kNoRequest);
    EXPECT_FALSE(d.ready(id, 100));
    EXPECT_FALSE(d.ready(id, 149));
    EXPECT_TRUE(d.ready(id, 150));
    EXPECT_EQ(d.readyAt(id), 150u);
    d.retire(id);
    EXPECT_EQ(d.inflight(), 0u);
}

TEST(Dram, IssueWidthOnePerCycle)
{
    Dram d(DramConfig{50, 32, 1, 64});
    ASSERT_NE(d.issue(0, DataClass::Arc, false, 7), kNoRequest);
    // Second issue in the same cycle is rejected...
    EXPECT_EQ(d.issue(64, DataClass::Arc, false, 7), kNoRequest);
    // ...but succeeds one cycle later.
    EXPECT_NE(d.issue(64, DataClass::Arc, false, 8), kNoRequest);
    EXPECT_EQ(d.stats().rejectedIssues, 1u);
}

TEST(Dram, InflightWindowSaturates)
{
    Dram d(DramConfig{50, 4, 4, 64});
    std::vector<RequestId> ids;
    for (unsigned i = 0; i < 4; ++i) {
        const RequestId id =
            d.issue(i * 64, DataClass::State, false, 1);
        ASSERT_NE(id, kNoRequest);
        ids.push_back(id);
    }
    // Window full.
    EXPECT_EQ(d.issue(999, DataClass::State, false, 2), kNoRequest);
    d.retire(ids[0]);
    EXPECT_NE(d.issue(999, DataClass::State, false, 3), kNoRequest);
}

TEST(Dram, TrafficAccountingByClass)
{
    Dram d(DramConfig{50, 32, 4, 64});
    const RequestId a = d.issue(0, DataClass::Arc, false, 1);
    const RequestId b = d.issue(64, DataClass::State, false, 1);
    const RequestId c = d.issue(128, DataClass::Token, true, 1);
    d.retire(a);
    d.retire(b);
    d.retire(c);
    d.countWrite(DataClass::Token, 64);
    d.countRead(DataClass::Acoustic, 16384);

    const DramStats &s = d.stats();
    EXPECT_EQ(s.readBytes[unsigned(DataClass::Arc)], 64u);
    EXPECT_EQ(s.readBytes[unsigned(DataClass::State)], 64u);
    EXPECT_EQ(s.writeBytes[unsigned(DataClass::Token)], 128u);
    EXPECT_EQ(s.readBytes[unsigned(DataClass::Acoustic)], 16384u);
    EXPECT_EQ(s.totalBytes(), 64u + 64u + 128u + 16384u);
    EXPECT_EQ(s.bytesForClass(DataClass::Token), 128u);
    EXPECT_EQ(s.totalRequests(), 5u);
}

TEST(Dram, SlotReuseAfterRetire)
{
    Dram d(DramConfig{10, 2, 2, 64});
    const RequestId a = d.issue(0, DataClass::Arc, false, 1);
    const RequestId b = d.issue(64, DataClass::Arc, false, 1);
    d.retire(a);
    const RequestId c = d.issue(128, DataClass::Arc, false, 2);
    ASSERT_NE(c, kNoRequest);
    // The freed slot is reused; b is still tracked correctly.
    EXPECT_TRUE(d.ready(b, 11));
    EXPECT_TRUE(d.ready(c, 12));
    d.retire(b);
    d.retire(c);
    EXPECT_EQ(d.inflight(), 0u);
}

TEST(Dram, SlotIdsReusedUnderAFullWindow)
{
    // With every slot busy, the id a retire frees is the one the next
    // issue gets back, however many times the window turns over.
    Dram d(DramConfig{50, 8, 1, 64});
    std::vector<RequestId> ids;
    Cycles now = 1;
    for (unsigned i = 0; i < 8; ++i, ++now)
        ids.push_back(d.issue(i * 64, DataClass::Arc, false, now));
    for (const RequestId id : ids)
        ASSERT_LT(id, 8u);
    EXPECT_EQ(d.issue(999, DataClass::Arc, false, now++), kNoRequest);
    for (unsigned round = 0; round < 100; ++round, ++now) {
        const RequestId freed = ids[round % 8];
        d.retire(freed);
        const RequestId again =
            d.issue(round * 64, DataClass::Arc, false, now);
        ASSERT_EQ(again, freed) << "round " << round;
        EXPECT_EQ(d.inflight(), 8u);
    }
    for (const RequestId id : ids)
        d.retire(id);
    EXPECT_EQ(d.inflight(), 0u);
}

TEST(Dram, CompletionsComeBackInIssueOrder)
{
    // Fixed latency and non-decreasing issue cycles: readyAt() never
    // decreases along issue order, whatever the ids and even when
    // slots are recycled out of order, so an issue-order FIFO may
    // poll only its head.
    Dram d(DramConfig{50, 4, 2, 64});
    std::vector<RequestId> fifo;  // outstanding, in issue order
    Cycles now = 0, last_ready = 0;
    std::uint64_t issued = 0;
    for (; now < 1000; ++now) {
        // Retire from the head only; nothing behind a waiting head is
        // ready either.
        while (!fifo.empty() && d.ready(fifo.front(), now)) {
            d.retire(fifo.front());
            fifo.erase(fifo.begin());
        }
        for (std::size_t i = 0; i < fifo.size(); ++i)
            ASSERT_FALSE(d.ready(fifo[i], now)) << "cycle " << now;
        // Try two issues per cycle, as issuePerCycle allows.
        for (int k = 0; k < 2; ++k) {
            const RequestId id =
                d.issue(issued * 64, DataClass::Token, false, now);
            if (id == kNoRequest)
                break;
            ASSERT_GE(d.readyAt(id), last_ready);
            last_ready = d.readyAt(id);
            fifo.push_back(id);
            ++issued;
        }
    }
    EXPECT_GT(issued, 50u);
    EXPECT_GT(d.stats().rejectedIssues, 0u);
}

TEST(Dram, DataClassNames)
{
    EXPECT_STREQ(dataClassName(DataClass::State), "states");
    EXPECT_STREQ(dataClassName(DataClass::Arc), "arcs");
    EXPECT_STREQ(dataClassName(DataClass::Token), "tokens");
    EXPECT_STREQ(dataClassName(DataClass::Overflow), "overflow");
    EXPECT_STREQ(dataClassName(DataClass::Acoustic), "acoustic");
}
