#include "decoder/viterbi.hh"

#include <algorithm>
#include <functional>

#include "common/logging.hh"
#include "wfst/compact.hh"

namespace asr::decoder {

namespace {

/**
 * Arc-layout views: the one seam between the token-passing loops and
 * how arcs are stored.  Each view hands the loops a state's arcs as
 * a span of ArcEntry in the canonical order (non-epsilon first,
 * insertion order), plus the graph bytes that access touched --
 * which is exactly what DecodeStats::graphBytesTouched accumulates.
 */

/** One expanded state's arcs plus its traffic cost. */
struct ArcGroup
{
    std::span<const wfst::ArcEntry> all;
    std::uint32_t numNonEps;
    std::uint32_t bytes;  //!< state record + arc records read

    std::span<const wfst::ArcEntry>
    eps() const
    {
        return all.subspan(numNonEps);
    }
};

/** The flat 8-byte-state / 16-byte-arc accelerator layout. */
struct RawArcView
{
    const wfst::Wfst &g;

    ArcGroup
    group(wfst::StateId s) const
    {
        const wfst::StateEntry &e = g.state(s);
        return {g.arcs(s), e.numNonEpsArcs,
                std::uint32_t(sizeof(wfst::StateEntry)) +
                    e.numArcs() *
                        std::uint32_t(sizeof(wfst::ArcEntry))};
    }

    /**
     * Epsilon arcs only (the closure pass): the raw layout can
     * address the epsilon tail directly, so only those records (and
     * the state record) count as touched.
     */
    ArcGroup
    epsGroup(wfst::StateId s) const
    {
        const wfst::StateEntry &e = g.state(s);
        return {g.epsArcs(s), 0,
                std::uint32_t(sizeof(wfst::StateEntry)) +
                    e.numEpsArcs *
                        std::uint32_t(sizeof(wfst::ArcEntry))};
    }

    void prefetchState(wfst::StateId s) const { g.prefetchState(s); }
    void prefetchArcs(wfst::StateId s) const { g.prefetchArcs(s); }
};

/**
 * The compressed layout: decodes a whole group into caller scratch
 * at expansion time.  Decode is strictly sequential, so the closure
 * pass pays for the full group even when it only wants the epsilon
 * tail -- the byte accounting reflects that honestly.
 */
struct CompactArcView
{
    const wfst::CompactArcs &c;
    std::vector<wfst::ArcEntry> &scratch;

    ArcGroup
    group(wfst::StateId s) const
    {
        const wfst::CompactArcs::GroupHeader &h = c.header(s);
        const std::uint32_t n =
            std::uint32_t(h.numNonEps) + h.numEps;
        if (scratch.size() < n)
            scratch.resize(n);
        c.decodeState(s, scratch.data());
        return {{scratch.data(), n}, h.numNonEps,
                std::uint32_t(
                    sizeof(wfst::CompactArcs::GroupHeader)) +
                    c.groupBytes(s)};
    }

    /**
     * Epsilon arcs only: varints have no random access, so a state
     * with any epsilon arcs costs its whole group; one with none
     * costs just the header (the counts say so without decoding).
     */
    ArcGroup
    epsGroup(wfst::StateId s) const
    {
        const wfst::CompactArcs::GroupHeader &h = c.header(s);
        if (h.numEps == 0)
            return {{}, 0,
                    std::uint32_t(
                        sizeof(wfst::CompactArcs::GroupHeader))};
        const ArcGroup g = group(s);
        return {g.eps(), 0, g.bytes};
    }

    void
    prefetchState(wfst::StateId s) const
    {
        c.prefetchHeader(s);
    }
    void prefetchArcs(wfst::StateId s) const { c.prefetchGroup(s); }
};

} // namespace

ViterbiDecoder::ViterbiDecoder(const wfst::Wfst &wfst,
                               const DecoderConfig &config)
    : net(wfst), cfg(config)
{
    ASR_ASSERT(cfg.beam > 0.0f, "beam must be positive");
    if (cfg.useCompactArcs)
        ASR_ASSERT(net.hasCompactArcs(),
                   "useCompactArcs without an attached CompactArcs");
}

bool
ViterbiDecoder::relax(TokenStore &store, wfst::StateId state,
                      wfst::LogProb score, std::int64_t prev_bp,
                      wfst::WordId word, wfst::LogProb skip_below)
{
    Token *tok = store.relax(state, score);
    if (tok == nullptr)
        return false;
    if (score < skip_below) {
        // The candidate is already below a lower bound of the
        // pruning threshold its frame will apply, so the token can
        // only be pruned (or improved again, which re-records): its
        // backpointer will never be read.  Skip the arena append.
        ++streamStats.bpAppendsSkipped;
        return true;
    }
    // New or strictly better path: record a fresh backpointer, the
    // same way the Token Issuer writes a new trace entry.
    arena.push_back(BackPtr{prev_bp, word});
    tok->backpointer = std::int64_t(arena.size()) - 1;
    return true;
}

wfst::LogProb
ViterbiDecoder::frameThreshold(const TokenStore &store) const
{
    // The running best is maintained by relax; no token scan.
    wfst::LogProb threshold = store.bestScore() - cfg.beam;

    // Histogram pruning: raise the cutoff to the maxActive-th best
    // score when the frame is over-populated (Kaldi's GetCutoff).
    if (cfg.maxActive > 0 && store.size() > cfg.maxActive) {
        cutoffScratch.clear();
        for (std::size_t t = 0; t < store.size(); ++t)
            cutoffScratch.push_back(store.entry(t).score);
        auto kth = cutoffScratch.begin() + (cfg.maxActive - 1);
        std::nth_element(cutoffScratch.begin(), kth,
                         cutoffScratch.end(),
                         std::greater<wfst::LogProb>());
        threshold = std::max(threshold, *kth);
    }
    return threshold;
}

DecodeResult
ViterbiDecoder::decode(const acoustic::AcousticLikelihoods &scores)
{
    streamBegin();
    for (std::size_t f = 0; f < scores.numFrames(); ++f)
        streamFrame(scores.frame(f));
    return streamFinish();
}

void
ViterbiDecoder::streamBegin()
{
    ASR_ASSERT(!streaming,
               "streamBegin during an open utterance");
    streaming = true;
    arena.clear();
    arenaPeak = 0;
    arenaLiveAfterGc = 0;
    activeHistory.clear();
    streamStats = DecodeStats();
    partialCacheBp = kPartialCacheInvalid;
    cur.clear();
    next.clear();
    relax(cur, net.initialState(), 0.0f, -1, wfst::kNoWord,
          wfst::kLogZero);
}

void
ViterbiDecoder::streamFrame(std::span<const float> frame)
{
    ASR_ASSERT(streaming, "streamFrame outside an utterance");
    if (cfg.useCompactArcs)
        streamFrameImpl(frame,
                        CompactArcView{*net.compactArcs(), arcScratch});
    else
        streamFrameImpl(frame, RawArcView{net});
}

template <class View>
void
ViterbiDecoder::streamFrameImpl(std::span<const float> frame,
                                const View &view)
{
    const wfst::LogProb threshold = frameThreshold(cur);

    // Final-weight decodes must record every backpointer: a token
    // below the next frame's beam can still win the last-frame pick
    // through its final weight.  Without final weights, a candidate
    // below (running next-frame best - beam) is provably below the
    // threshold the next frame will apply, so its append is skipped.
    const bool guard_next = !cfg.useFinalWeights;

    // The worklist grows while we walk it: epsilon arcs requeue
    // their (current-frame) destinations.
    for (std::size_t i = 0; i < cur.worklistSize(); ++i) {
        // Lookahead: pull upcoming survivors' state records and arc
        // ranges toward the core while this entry expands.
        if (i + 4 < cur.worklistSize())
            view.prefetchState(cur.worklistState(i + 4));
        if (i + 1 < cur.worklistSize())
            view.prefetchArcs(cur.worklistState(i + 1));

        const Token tok = cur.readForProcess(i);
        if (tok.score < threshold) {
            ++streamStats.tokensPruned;
            continue;
        }
        ++streamStats.tokensExpanded;

        const ArcGroup group = view.group(tok.state);
        streamStats.graphBytesTouched += group.bytes;
        for (const wfst::ArcEntry &arc : group.all) {
            if (arc.isEpsilon()) {
                // No frame consumed: lands in the current frame,
                // where this frame's threshold already applies.
                ++streamStats.epsArcsExpanded;
                const wfst::LogProb cand = tok.score + arc.weight;
                if (cand > wfst::kLogZero)
                    relax(cur, arc.dest, cand, tok.backpointer,
                          arc.olabel, threshold);
            } else {
                ++streamStats.arcsExpanded;
                const wfst::LogProb cand =
                    tok.score + arc.weight + frame[arc.ilabel];
                if (cand > wfst::kLogZero)
                    relax(next, arc.dest, cand, tok.backpointer,
                          arc.olabel,
                          guard_next ? next.bestScore() - cfg.beam
                                     : wfst::kLogZero);
            }
        }
    }

    std::swap(cur, next);
    next.clear();
    ++streamStats.framesDecoded;
    streamStats.tokensCreated += cur.size();
    activeHistory.push_back(std::uint32_t(cur.size()));
    arenaPeak = std::max(arenaPeak, arena.size());
    maybeCollectArena();
}

const std::vector<wfst::WordId> &
ViterbiDecoder::streamPartial() const
{
    ASR_ASSERT(streaming, "streamPartial outside an utterance");
    wfst::LogProb best = wfst::kLogZero;
    std::int64_t best_bp = -1;
    for (std::size_t t = 0; t < cur.size(); ++t) {
        const Token &tok = cur.entry(t);
        if (tok.score > best) {
            best = tok.score;
            best_bp = tok.backpointer;
        }
    }
    // The chain behind an arena record never changes (records are
    // append-only between collections, and collection invalidates
    // the cache), so an unchanged best backpointer means an
    // unchanged hypothesis: skip the re-walk.
    if (best_bp != partialCacheBp) {
        backtrackInto(best_bp, partialScratch);
        partialCacheBp = best_bp;
    }
    return partialScratch;
}

DecodeResult
ViterbiDecoder::streamFinish()
{
    ASR_ASSERT(streaming, "streamFinish outside an utterance");
    streaming = false;

    DecodeResult result;
    result.stats = streamStats;

    // Epsilon-close the final frame (no pruning) so the selected
    // maximum covers epsilon-reachable states too.
    if (cfg.useCompactArcs)
        finishClosure(CompactArcView{*net.compactArcs(), arcScratch},
                      result.stats);
    else
        finishClosure(RawArcView{net}, result.stats);

    // Pick the winning token of the last frame.  Insertion order
    // (first inserted wins exact ties) matches the accelerator's
    // live-list walk.
    std::int64_t best_bp = -1;
    for (std::size_t t = 0; t < cur.size(); ++t) {
        const Token &tok = cur.entry(t);
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
        // No active final state: fall back to the plain maximum so
        // the decoder always produces a hypothesis.
        for (std::size_t t = 0; t < cur.size(); ++t) {
            const Token &tok = cur.entry(t);
            if (tok.score > result.score) {
                result.score = tok.score;
                result.bestState = tok.state;
                best_bp = tok.backpointer;
            }
        }
    }

    backtrackInto(best_bp, result.words);
    arenaPeak = std::max(arenaPeak, arena.size());
    result.stats.arenaPeakEntries = arenaPeak;
    partialCacheBp = kPartialCacheInvalid;
    cur.clear();
    next.clear();
    return result;
}

template <class View>
void
ViterbiDecoder::finishClosure(const View &view, DecodeStats &stats)
{
    for (std::size_t i = 0; i < cur.worklistSize(); ++i) {
        const Token tok = cur.readForProcess(i);
        const ArcGroup group = view.epsGroup(tok.state);
        stats.graphBytesTouched += group.bytes;
        for (const wfst::ArcEntry &arc : group.all) {
            ++stats.epsArcsExpanded;
            const wfst::LogProb cand = tok.score + arc.weight;
            if (cand > wfst::kLogZero)
                relax(cur, arc.dest, cand, tok.backpointer,
                      arc.olabel, wfst::kLogZero);
        }
    }
}

void
ViterbiDecoder::backtrackInto(std::int64_t bp,
                              std::vector<wfst::WordId> &out) const
{
    out.clear();
    for (; bp >= 0; bp = arena[bp].prev)
        if (arena[bp].word != wfst::kNoWord)
            out.push_back(arena[bp].word);
    std::reverse(out.begin(), out.end());
}

void
ViterbiDecoder::maybeCollectArena()
{
    if (cfg.arenaGcWatermark == 0)
        return;
    // Trigger at 3/4 of the watermark so the next frame's appends
    // land under it, but never while the live set is still the bulk
    // of the arena (collection would reclaim little and re-trigger
    // every frame).
    const std::uint64_t trigger =
        std::max<std::uint64_t>(cfg.arenaGcWatermark -
                                    cfg.arenaGcWatermark / 4,
                                std::uint64_t(arenaLiveAfterGc) * 2);
    if (arena.size() < trigger)
        return;

    // Mark every record reachable from a live token's chain.  Chains
    // share their tails, so the walk stops at the first marked
    // record.
    gcMark.assign(arena.size(), 0);
    for (std::size_t t = 0; t < cur.size(); ++t) {
        std::int64_t bp = cur.entry(t).backpointer;
        while (bp >= 0 && !gcMark[std::size_t(bp)]) {
            gcMark[std::size_t(bp)] = 1;
            bp = arena[std::size_t(bp)].prev;
        }
    }

    // Compact in place.  prev links always point at older records,
    // so one forward pass remaps them as it goes.
    gcRemap.assign(arena.size(), -1);
    std::size_t out = 0;
    for (std::size_t i = 0; i < arena.size(); ++i) {
        if (!gcMark[i])
            continue;
        BackPtr rec = arena[i];
        if (rec.prev >= 0)
            rec.prev = gcRemap[std::size_t(rec.prev)];
        gcRemap[i] = std::int64_t(out);
        arena[out] = rec;
        ++out;
    }
    streamStats.arenaEntriesReclaimed += arena.size() - out;
    arena.resize(out);

    // Point the live tokens at the compacted records.
    for (std::size_t t = 0; t < cur.size(); ++t) {
        Token &tok = cur.entryMutable(t);
        if (tok.backpointer >= 0)
            tok.backpointer = gcRemap[std::size_t(tok.backpointer)];
    }

    arenaLiveAfterGc = out;
    partialCacheBp = kPartialCacheInvalid;  // indices moved
    ++streamStats.arenaGcRuns;
}

} // namespace asr::decoder
