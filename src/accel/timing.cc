#include "accel/timing.hh"

#include <algorithm>

#include "common/compiler.hh"
#include "common/logging.hh"

namespace asr::accel {

namespace {

/** Arc machinery depth: 64-entry FIFOs with prefetching, else 8. */
unsigned
arcDepth(const AcceleratorConfig &cfg)
{
    return cfg.prefetchEnabled ? cfg.prefetchFifoDepth
                               : cfg.arcIssuerInflight;
}

} // namespace

TimingEngine::TimingEngine(const AcceleratorConfig &config)
    : cfg(config),
      stateCache_(config.stateCache),
      arcCache_(config.arcCache),
      tokenCache_(config.tokenCache),
      dram_(config.dram),
      arcWorkQ(config.stateIssuerInflight),
      arcFifo(arcDepth(config)),
      requestQ(arcDepth(config)),
      rob(arcDepth(config)),
      arcOutstanding(arcDepth(config)),
      evalQ(8),
      tokenFills(config.tokenIssuerInflight),
      tokenFillsWaiting(config.tokenIssuerInflight)
{
    stateWindow.resize(config.stateIssuerInflight);
}

ASR_ALWAYS_INLINE void
TimingEngine::pollTokenFills()
{
    while (!tokenFills.empty() && tokenFills.front().readyAt <= now_)
        dram_.retire(tokenFills.pop().req);
    // Retry fills whose issue was rejected by the controller, oldest
    // first; a fill rejected again goes back in line behind the rest.
    for (std::size_t n = tokenFillsWaiting.size(); n > 0; --n) {
        const sim::Addr addr = tokenFillsWaiting.pop();
        const sim::RequestId req =
            dram_.issue(addr, sim::DataClass::Token, false, now_);
        if (req != sim::kNoRequest)
            tokenFills.push(Issued{req, dram_.readyAt(req)});
        else
            tokenFillsWaiting.push(addr);
    }
}

ASR_ALWAYS_INLINE void
TimingEngine::tickTokenIssuer(const FrameTrace &trace)
{
    pollTokenFills();

    unsigned budget = cfg.likelihoodArcsPerCycle;
    while (budget > 0 && !evalQ.empty()) {
        const ArcOp &op = trace.arcOps[evalQ.front()];
        if (!op.hashRequest) {
            // Filtered or below-threshold arc: retires silently.
            evalQ.pop();
            --budget;
            continue;
        }
        Cycles &port = op.epsilon ? hashCurFreeAt : hashNextFreeAt;
        if (now_ < port) {
            ++stalls_.hashBusy;
            break;
        }
        if (op.tokenWrite) {
            if (tokenFills.size() + tokenFillsWaiting.size() >=
                cfg.tokenIssuerInflight) {
                ++stalls_.tokenFill;
                break;
            }
            const auto res = tokenCache_.access(op.tokenAddr, true);
            if (res.writeback)
                dram_.countWrite(sim::DataClass::Token,
                                 cfg.tokenCache.lineBytes);
            if (!res.hit) {
                // Write-allocate: fetch the line, tracked in the
                // 32-entry token write window.
                const sim::RequestId req = dram_.issue(
                    op.tokenAddr, sim::DataClass::Token, false, now_);
                if (req != sim::kNoRequest)
                    tokenFills.push(Issued{req, dram_.readyAt(req)});
                else
                    tokenFillsWaiting.push(op.tokenAddr);
            }
        }
        // The hash is busy for the chain walk; off-chip overflow
        // hops pay a full DRAM round trip each.
        Cycles busy = op.hashCycles;
        if (op.overflowHops) {
            busy += Cycles(op.overflowHops) * cfg.dram.latency;
            dram_.countRead(sim::DataClass::Overflow,
                            Bytes(op.overflowHops) *
                                cfg.dram.lineBytes);
        }
        port = now_ + busy;
        evalQ.pop();
        --budget;
    }
}

ASR_ALWAYS_INLINE void
TimingEngine::tickArcRelease()
{
    if (arcFifo.empty() || evalQ.full())
        return;
    const ArcFlight &head = arcFifo.front();

    // The Acoustic-likelihood Issuer admits one arc at a time; an
    // emitting arc occupies it for the buffer-read latency.  Epsilon
    // and filtered arcs bypass the buffer.
    if (head.needsAcoustic && now_ < acousticFreeAt)
        return;

    // An arc that hit at issue finds its block present: blocks commit
    // in FIFO order (Sec. IV-A).  A missed one waits for the ROB head.
    if (head.missed) {
        if (!rob.headReady()) {
            ++stalls_.arcData;
            return;
        }
        ASR_ASSERT(rob.headPayload() == head.arcOpIdx,
                   "ROB/Arc FIFO order out of sync");
        rob.releaseHead();
    }
    if (head.needsAcoustic)
        acousticFreeAt = now_ + cfg.acousticReadCycles;
    evalQ.push(arcFifo.pop().arcOpIdx);
}

ASR_ALWAYS_INLINE void
TimingEngine::tickArcIssue(const FrameTrace &trace)
{
    // Returning blocks land in the Reorder Buffer.
    while (!arcOutstanding.empty() &&
           arcOutstanding.front().mem.readyAt <= now_) {
        const ArcRequest done = arcOutstanding.pop();
        dram_.retire(done.mem.req);
        rob.markReady(done.robSlot);
    }

    // One request per cycle leaves the Request FIFO.
    if (!requestQ.empty()) {
        const PendingArcRequest &pending = requestQ.front();
        const sim::RequestId req = dram_.issue(
            pending.addr, sim::DataClass::Arc, false, now_);
        if (req != sim::kNoRequest) {
            arcOutstanding.push(
                ArcRequest{Issued{req, dram_.readyAt(req)},
                           pending.robSlot});
            requestQ.pop();
        }
    }

    // Issue one arc per cycle: probe/update tags, allocate ROB on a
    // miss, enqueue into the Arc FIFO.
    if (arcWorkQ.empty() || arcFifo.full())
        return;
    const auto [begin, count] = arcWorkQ.front();
    const std::uint32_t idx = begin + arcCursor;
    const ArcOp &op = trace.arcOps[idx];
    // Arcs issue close to trace order, so the tag set of an arc a
    // little further on is a good guess at one needed soon.
    if (idx + kArcTagLookahead < trace.arcOps.size())
        arcCache_.prefetch(trace.arcOps[idx + kArcTagLookahead].addr);

    if ((rob.full() || requestQ.full()) && !arcCache_.probe(op.addr)) {
        // Structural stall: no room to track another miss.
        ++stalls_.arcData;
        return;
    }

    const auto res = arcCache_.access(op.addr, false);
    if (res.writeback)
        dram_.countWrite(sim::DataClass::Arc, cfg.arcCache.lineBytes);
    const bool needs_acoustic = op.evaluated && !op.epsilon;
    if (res.hit) {
        arcFifo.push(ArcFlight{idx, false, needs_acoustic});
    } else {
        const auto slot = std::uint32_t(rob.allocate(idx));
        requestQ.push(PendingArcRequest{op.addr, slot});
        arcFifo.push(ArcFlight{idx, true, needs_acoustic});
    }

    if (++arcCursor >= count) {
        arcWorkQ.pop();
        arcCursor = 0;
    }
}

ASR_ALWAYS_INLINE void
TimingEngine::tickStateIssuer(const FrameTrace &trace)
{
    const unsigned cap = cfg.stateIssuerInflight;

    // Completions and deferred issues for in-flight state fetches, in
    // window order: a retire can free the DRAM slot a later entry's
    // retry takes in the same cycle.  Nothing to do while no entry
    // waits for a DRAM slot and no fetch has come back.
    if (stateWaiting > 0 || now_ >= stateNextReady) {
        Cycles next = kNever;
        for (unsigned k = 0; k < stateCount; ++k) {
            StateFlight &flight = stateAt(k);
            if (flight.phase == StatePhase::Fetching) {
                if (dram_.ready(flight.req, now_)) {
                    dram_.retire(flight.req);
                    flight.phase = StatePhase::Ready;
                    ++stateReady;
                } else {
                    next = std::min(next, dram_.readyAt(flight.req));
                }
            } else if (flight.phase == StatePhase::Waiting) {
                const sim::RequestId req = dram_.issue(
                    trace.tokenOps[flight.tokenOpIdx].stateAddr,
                    sim::DataClass::State, false, now_);
                if (req != sim::kNoRequest) {
                    flight.phase = StatePhase::Fetching;
                    flight.req = req;
                    --stateWaiting;
                    next = std::min(next, dram_.readyAt(req));
                }
            }
        }
        stateNextReady = next;
    }

    // Release one resolved state per cycle into the Arc Issuer's
    // work queue.  Tokens are mutually independent, so the window
    // completes out of order: a hit behind a pending miss is not
    // blocked (the 8 in-flight states act as MSHRs, not a queue).
    if (stateCount > 0) {
        if (stateReady == 0) {
            ++stalls_.stateFetch;
        } else {
            unsigned k = 0;
            while (stateAt(k).phase != StatePhase::Ready)
                ++k;
            const StateFlight &flight = stateAt(k);
            bool released = flight.arcOpCount == 0;
            if (!released && !arcWorkQ.full()) {
                arcWorkQ.push({flight.arcOpBegin, flight.arcOpCount});
                released = true;
            }
            if (released) {
                // Close the gap from the old end; usually k is 0.
                for (; k > 0; --k)
                    stateAt(k) = stateAt(k - 1);
                if (++stateHead == cap)
                    stateHead = 0;
                --stateCount;
                --stateReady;
            }
        }
    }

    // Intake: one token read from the hash per cycle.
    if (tokenCursor >= numTokenOps || stateCount >= cap)
        return;
    const TokenOp &op = trace.tokenOps[tokenCursor];
    if (now_ < hashCurFreeAt) {
        // The State Issuer reads the same hash that epsilon-arc
        // token writes are updating; a collision chain blocks it.
        ++stalls_.hashBusy;
        return;
    }
    if (op.pruned) {
        // The read and the comparison against the threshold consume
        // this cycle; nothing flows downstream.
        ++tokenCursor;
        return;
    }

    StateFlight &flight = stateAt(stateCount++);
    flight = StateFlight{tokenCursor, op.arcOpBegin, op.arcOpCount, 0,
                         StatePhase::Ready};
    if (op.needsStateFetch) {
        const auto res = stateCache_.access(op.stateAddr, false);
        if (res.writeback)
            dram_.countWrite(sim::DataClass::State,
                             cfg.stateCache.lineBytes);
        if (!res.hit) {
            // Not Ready (comparator hit, seed token or cache hit):
            // the entry waits for DRAM.
            const sim::RequestId req = dram_.issue(
                op.stateAddr, sim::DataClass::State, false, now_);
            if (req != sim::kNoRequest) {
                flight.phase = StatePhase::Fetching;
                flight.req = req;
                stateNextReady =
                    std::min(stateNextReady, dram_.readyAt(req));
            } else {
                flight.phase = StatePhase::Waiting;
                ++stateWaiting;
            }
        }
    }
    if (flight.phase == StatePhase::Ready)
        ++stateReady;
    ++tokenCursor;
}

bool
TimingEngine::frameDone() const
{
    return tokenCursor >= numTokenOps && stateCount == 0 &&
           arcWorkQ.empty() &&
           arcFifo.empty() && requestQ.empty() &&
           arcOutstanding.empty() && evalQ.empty() &&
           now_ >= hashCurFreeAt && now_ >= hashNextFreeAt;
}

Cycles
TimingEngine::replayFrame(const FrameTrace &trace)
{
    // The double-buffered Acoustic Likelihood Buffer: this frame's
    // scores were DMA'd while the previous frame was decoding; only
    // if the previous frame finished faster than the transfer does
    // the pipeline wait.
    const Cycles frame_start = std::max(now_, dmaReadyAt);
    now_ = frame_start;
    if (trace.acousticBytes > 0) {
        dram_.countRead(sim::DataClass::Acoustic, trace.acousticBytes);
        dmaReadyAt = now_ + Cycles(double(trace.acousticBytes) /
                                   cfg.acousticDmaBytesPerCycle);
    }

    tokenCursor = 0;
    numTokenOps = std::uint32_t(trace.tokenOps.size());
    arcCursor = 0;
    stateHead = 0;
    stateCount = 0;
    stateWaiting = 0;
    stateReady = 0;
    stateNextReady = kNever;
    arcWorkQ.clear();
    arcFifo.clear();
    requestQ.clear();
    rob.clear();
    arcOutstanding.clear();
    evalQ.clear();

    // Generous deadlock bound: every op could serialize behind a
    // full DRAM round trip and a worst-case hash chain.
    const Cycles limit =
        now_ + 100000 +
        Cycles(trace.tokenOps.size() + trace.arcOps.size()) *
            (cfg.dram.latency + 64);

    while (!frameDone()) {
        ++now_;
        ASR_ASSERT(now_ < limit, "timing model deadlock at cycle %llu",
                   static_cast<unsigned long long>(now_));
        tickTokenIssuer(trace);
        tickArcRelease();
        tickArcIssue(trace);
        tickStateIssuer(trace);
    }
    return now_ - frame_start;
}

Cycles
TimingEngine::drain()
{
    const Cycles start = now_;
    while (!tokenFills.empty() || !tokenFillsWaiting.empty()) {
        ++now_;
        ASR_ASSERT(now_ - start < 1000000, "drain deadlock");
        pollTokenFills();
    }
    return now_ - start;
}

void
TimingEngine::clearStats()
{
    ASR_ASSERT(tokenFills.empty() && tokenFillsWaiting.empty() &&
                   arcOutstanding.empty(),
               "clearStats with requests in flight");
    stateCache_.clearStats();
    arcCache_.clearStats();
    tokenCache_.clearStats();
    dram_.clearStats();
    stalls_ = StallStats();
    now_ = 0;
    dmaReadyAt = 0;
    hashCurFreeAt = 0;
    hashNextFreeAt = 0;
    acousticFreeAt = 0;
}

void
TimingEngine::invalidateCaches()
{
    stateCache_.invalidateAll();
    arcCache_.invalidateAll();
    tokenCache_.invalidateAll();
}

} // namespace asr::accel
