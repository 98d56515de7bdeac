#include "accel/expand.hh"

#include <algorithm>
#include <functional>

#include "accel/address_map.hh"
#include "common/compiler.hh"
#include "common/logging.hh"

namespace asr::accel {

Expander::Expander(const wfst::Wfst &wfst_net,
                   const wfst::SortedWfst *sorted_net,
                   const AcceleratorConfig &config)
    : net(wfst_net), sorted(sorted_net), cfg(config),
      hashA(config.hashEntries, config.hashBackupEntries,
            config.idealHash),
      hashB(config.hashEntries, config.hashBackupEntries,
            config.idealHash),
      cur(&hashA), next(&hashB), visits(wfst_net.numStates(), 0)
{
    ASR_ASSERT(!cfg.bandwidthOptEnabled || sorted != nullptr,
               "bandwidth technique requires the sorted layout");
    ASR_ASSERT(sorted == nullptr || &sorted->wfst() == &net,
               "sorted layout must wrap the same WFST");
}

Expander::ArcRange
Expander::resolveState(wfst::StateId s, TokenOp &op)
{
    ArcRange range{};
    if (cfg.bandwidthOptEnabled) {
        const auto direct = sorted->lookup(s);
        if (direct.direct) {
            // Comparator network hit: the arc range is computed from
            // the state index alone; the epsilon split is recovered
            // downstream from the arcs' input labels.
            op.direct = true;
            ++directCount;
            range.direct = true;
            range.first = direct.firstArc;
            range.count = direct.numArcs;
            return range;
        }
    }

    // Fetch the packed state entry through the State cache.
    op.needsStateFetch = true;
    op.stateAddr = stateAddr(s);
    ++fetchCount;
    const wfst::StateEntry &e = net.state(s);
    range.direct = false;
    range.numNonEps = e.numNonEpsArcs;
    range.first = e.firstArc;
    range.count = e.numArcs();
    return range;
}

wfst::LogProb
Expander::frameThreshold()
{
    const wfst::LogProb beam_cut = cur->bestScore() - cfg.beam;
    if (cfg.maxActive == 0 || cur->size() <= cfg.maxActive)
        return beam_cut;

    // Histogram pruning over the tokens live at frame start,
    // identical to the software decoder's rule: the cutoff rises to
    // the maxActive-th best score.  Only scores inside the beam can
    // lift it; with fewer than maxActive of them, that score lies
    // below beam_cut and the beam alone decides.
    cutoffScratch.clear();
    for (std::size_t t = 0; t < cur->size(); ++t) {
        const wfst::LogProb score = cur->token(t).score;
        if (score >= beam_cut)
            cutoffScratch.push_back(score);
    }
    if (cutoffScratch.size() < cfg.maxActive)
        return beam_cut;
    auto kth = cutoffScratch.begin() + (cfg.maxActive - 1);
    std::nth_element(cutoffScratch.begin(), kth, cutoffScratch.end(),
                     std::greater<wfst::LogProb>());
    return *kth;
}

Expander::ArcSpan
Expander::arcSpan(wfst::StateId s) const
{
    if (cfg.bandwidthOptEnabled) {
        const auto direct = sorted->lookup(s);
        if (direct.direct)
            return ArcSpan{direct.firstArc, direct.numArcs};
    }
    const wfst::StateEntry &e = net.state(s);
    return ArcSpan{e.firstArc, e.numArcs()};
}

void
Expander::prefetchAhead(std::size_t t, wfst::LogProb threshold) const
{
    // Three stages, each a few live-list entries ahead of the read:
    // the token's hash entry, then its arc range (the entry has
    // arrived by then), then the hash buckets its arcs will upsert
    // (the arcs have arrived).  Tokens the beam will cut are skipped.
    // Hints only: results never change.
    const std::size_t live = cur->size();
    if (t + 8 < live)
        cur->prefetchToken(t + 8);
    if (t + 4 < live) {
        const TokenSlot ahead = cur->token(t + 4);
        if (ahead.score >= threshold) {
            const ArcSpan span = arcSpan(ahead.state);
            if (span.count > 0) {
                // First and last arc: a short range spans one or two
                // host cache lines.
                ASR_PREFETCH(&net.arc(span.first));
                ASR_PREFETCH(&net.arc(span.first + span.count - 1));
            }
        }
    }
    if (t + 2 < live) {
        const TokenSlot ahead = cur->token(t + 2);
        if (ahead.score >= threshold) {
            const ArcSpan span = arcSpan(ahead.state);
            for (std::uint32_t i = 0; i < span.count; ++i) {
                const wfst::ArcEntry &arc = net.arc(span.first + i);
                (arc.isEpsilon() ? cur : next)->prefetchBucket(arc.dest);
            }
        }
    }
}

void
Expander::emitToken(TokenHash &hash, wfst::StateId dest,
                    wfst::LogProb score, std::uint32_t prev_bp,
                    wfst::WordId word, ArcOp &aop)
{
    aop.hashRequest = true;
    const auto pending = std::uint32_t(arena.size());
    const TokenHash::UpsertResult res =
        hash.upsert(dest, score, pending);
    aop.hashCycles = std::uint16_t(res.cycles);
    aop.overflowHops = std::uint8_t(res.overflowHops);
    if (res.improved) {
        // New best path into dest: append the backpointer record
        // (the Token Issuer's write to main memory).
        arena.push_back(BackRecord{prev_bp, word});
        aop.tokenWrite = true;
        aop.tokenAddr = tokenRecordAddr(pending);
    }
}

void
Expander::beginUtterance()
{
    hashA.clear();
    hashB.clear();
    hashA.clearStats();
    hashB.clearStats();
    cur = &hashA;
    next = &hashB;
    arena.clear();
    stats = decoder::DecodeStats();

    // Seed the initial token; its epsilon closure happens naturally
    // during the first frame's pass.
    ArcOp seed;
    emitToken(*cur, net.initialState(), 0.0f, kNoRecord,
              wfst::kNoWord, seed);
}

void
Expander::expandFrame(std::span<const float> scores, FrameTrace &trace)
{
    trace.clear();
    const wfst::LogProb threshold = frameThreshold();

    // The live list grows while we walk it: epsilon arcs create or
    // improve tokens of the *current* frame, which the hash requeues.
    for (std::size_t t = 0; t < cur->size(); ++t) {
        prefetchAhead(t, threshold);
        const TokenSlot tok = cur->readForProcess(t);
        TokenOp op;
        if (tok.score < threshold) {
            op.pruned = true;
            ++stats.tokensPruned;
            trace.tokenOps.push_back(op);
            continue;
        }
        ++stats.tokensExpanded;
        expandedStates.push_back(tok.state);

        const ArcRange range = resolveState(tok.state, op);
        op.arcOpBegin = std::uint32_t(trace.arcOps.size());
        for (std::uint32_t i = 0; i < range.count; ++i) {
            const wfst::ArcId a = range.first + i;
            const wfst::ArcEntry &arc = net.arc(a);
            ArcOp aop;
            aop.addr = arcAddr(a);
            aop.epsilon = arc.isEpsilon();
            aop.evaluated = true;
            if (arc.isEpsilon()) {
                // No acoustic score: token lands in this frame.
                ++stats.epsArcsExpanded;
                const wfst::LogProb cand = tok.score + arc.weight;
                if (cand > wfst::kLogZero)
                    emitToken(*cur, arc.dest, cand, tok.backpointer,
                              arc.olabel, aop);
            } else {
                ++stats.arcsExpanded;
                const wfst::LogProb cand =
                    tok.score + arc.weight + scores[arc.ilabel];
                if (cand > wfst::kLogZero)
                    emitToken(*next, arc.dest, cand, tok.backpointer,
                              arc.olabel, aop);
            }
            trace.arcOps.push_back(aop);
        }
        op.arcOpCount =
            std::uint32_t(trace.arcOps.size()) - op.arcOpBegin;
        trace.tokenOps.push_back(op);
    }

    // Count the visits in one pass: the increments are independent,
    // so their cache misses overlap instead of stalling the walk.
    for (const wfst::StateId s : expandedStates)
        ++visits[s];
    expandedStates.clear();

    std::swap(cur, next);
    next->clear();
    ++stats.framesDecoded;
    stats.tokensCreated += cur->distinctTokens();
}

void
Expander::finalClosure(FrameTrace &trace)
{
    trace.clear();

    // Epsilon-close the last frame's tokens so the final maximum
    // matches a decoder that closes after every emitting step.  No
    // pruning: nothing is expanded further.
    for (std::size_t t = 0; t < cur->size(); ++t) {
        const TokenSlot tok = cur->readForProcess(t);
        TokenOp op;
        op.epsilonPhase = true;
        const ArcRange range = resolveState(tok.state, op);
        op.arcOpBegin = std::uint32_t(trace.arcOps.size());

        if (!range.direct) {
            // Epsilon arcs are the known suffix of the range.
            const std::uint32_t eps = range.count - range.numNonEps;
            for (std::uint32_t i = 0; i < eps; ++i) {
                const wfst::ArcId a =
                    range.first + range.numNonEps + i;
                const wfst::ArcEntry &arc = net.arc(a);
                ArcOp aop;
                aop.addr = arcAddr(a);
                aop.epsilon = true;
                aop.evaluated = true;
                ++stats.epsArcsExpanded;
                const wfst::LogProb cand = tok.score + arc.weight;
                if (cand > wfst::kLogZero)
                    emitToken(*cur, arc.dest, cand, tok.backpointer,
                              arc.olabel, aop);
                trace.arcOps.push_back(aop);
            }
        } else {
            // Only the total count is known: scan backward from the
            // last arc; epsilon arcs form a suffix, and the first
            // non-epsilon arc read terminates the scan.
            for (std::uint32_t back = 0; back < range.count; ++back) {
                const wfst::ArcId a =
                    range.first + (range.count - 1 - back);
                const wfst::ArcEntry &arc = net.arc(a);
                ArcOp aop;
                aop.addr = arcAddr(a);
                aop.epsilon = arc.isEpsilon();
                if (arc.isEpsilon()) {
                    aop.evaluated = true;
                    ++stats.epsArcsExpanded;
                    const wfst::LogProb cand = tok.score + arc.weight;
                    if (cand > wfst::kLogZero)
                        emitToken(*cur, arc.dest, cand,
                                  tok.backpointer, arc.olabel, aop);
                }
                trace.arcOps.push_back(aop);
                if (!arc.isEpsilon())
                    break;
            }
        }
        op.arcOpCount =
            std::uint32_t(trace.arcOps.size()) - op.arcOpBegin;
        trace.tokenOps.push_back(op);
    }
}

decoder::DecodeResult
Expander::finish()
{
    decoder::DecodeResult result;
    result.stats = stats;

    std::uint32_t best_bp = kNoRecord;
    for (std::size_t t = 0; t < cur->size(); ++t) {
        const TokenSlot &tok = cur->token(t);
        wfst::LogProb s = tok.score;
        if (cfg.useFinalWeights && net.hasFinalStates()) {
            const wfst::LogProb fw = net.finalWeight(tok.state);
            if (fw <= wfst::kLogZero)
                continue;
            s += fw;
        }
        if (s > result.score) {
            result.score = s;
            result.bestState = tok.state;
            best_bp = tok.backpointer;
        }
    }
    if (result.bestState == wfst::kNoState && cfg.useFinalWeights) {
        for (std::size_t t = 0; t < cur->size(); ++t) {
            const TokenSlot &tok = cur->token(t);
            if (tok.score > result.score) {
                result.score = tok.score;
                result.bestState = tok.state;
                best_bp = tok.backpointer;
            }
        }
    }

    // Backtracking runs on the host CPU in the paper's system; the
    // trace lives in main memory.
    for (std::uint32_t bp = best_bp; bp != kNoRecord;
         bp = arena[bp].prev)
        if (arena[bp].word != wfst::kNoWord)
            result.words.push_back(arena[bp].word);
    std::reverse(result.words.begin(), result.words.end());
    return result;
}

HashStats
Expander::hashStats() const
{
    HashStats combined = hashA.stats();
    const HashStats &b = hashB.stats();
    combined.requests += b.requests;
    combined.cycles += b.cycles;
    combined.collisionWalks += b.collisionWalks;
    combined.overflowHops += b.overflowHops;
    combined.maxChain = std::max(combined.maxChain, b.maxChain);
    return combined;
}

} // namespace asr::accel
