/**
 * @file
 * The Weighted Finite State Transducer container and its builder.
 *
 * A Wfst owns two flat arrays (states, arcs) in exactly the packed
 * layout the accelerator reads from main memory, plus optional final
 * weights.  Instances are immutable after construction; use
 * WfstBuilder to create them.
 */

#ifndef ASR_WFST_WFST_HH
#define ASR_WFST_WFST_HH

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "common/compiler.hh"
#include "common/units.hh"
#include "wfst/types.hh"

namespace asr::wfst {

class CompactArcs;
class WfstBuilder;

/** Immutable WFST in accelerator memory layout. */
class Wfst
{
  public:
    Wfst() = default;

    /** Number of states. */
    StateId numStates() const { return StateId(states_.size()); }

    /** Number of arcs. */
    ArcId numArcs() const { return ArcId(arcs_.size()); }

    /** The start state of the search. */
    StateId initialState() const { return initial; }

    /** Packed record of state @p s. */
    const StateEntry &
    state(StateId s) const
    {
        return states_[s];
    }

    /** All outgoing arcs of @p s (non-epsilon first, then epsilon). */
    std::span<const ArcEntry>
    arcs(StateId s) const
    {
        const StateEntry &e = states_[s];
        return {arcs_.data() + e.firstArc, e.numArcs()};
    }

    /** Non-epsilon (emitting) arcs of @p s. */
    std::span<const ArcEntry>
    nonEpsArcs(StateId s) const
    {
        const StateEntry &e = states_[s];
        return {arcs_.data() + e.firstArc, e.numNonEpsArcs};
    }

    /** Epsilon arcs of @p s. */
    std::span<const ArcEntry>
    epsArcs(StateId s) const
    {
        const StateEntry &e = states_[s];
        return {arcs_.data() + e.firstArc + e.numNonEpsArcs,
                e.numEpsArcs};
    }

    /** Arc with flat index @p a. */
    const ArcEntry &
    arc(ArcId a) const
    {
        return arcs_[a];
    }

    /**
     * Final weight of state @p s; kLogZero when the state is not
     * final.  WFSTs without final information report every state as
     * non-final.
     */
    LogProb
    finalWeight(StateId s) const
    {
        return s < finals_.size() ? finals_[s] : kLogZero;
    }

    /** @return true when any state has a final weight. */
    bool hasFinalStates() const { return !finals_.empty(); }

    /**
     * Hint: prefetch the packed record of state @p s.  Issued by the
     * search a few worklist entries ahead of the actual read; purely
     * advisory, never affects results.
     */
    void
    prefetchState(StateId s) const
    {
        ASR_PREFETCH(states_.data() + s);
    }

    /**
     * Hint: prefetch the head of the arc range of state @p s (up to
     * @p max_lines cache lines).  Requires the state record to be
     * resident, so issue prefetchState() earlier.
     */
    void
    prefetchArcs(StateId s, unsigned max_lines = 2) const
    {
        const StateEntry &e = states_[s];
        const ArcEntry *first = arcs_.data() + e.firstArc;
        const std::uint32_t n = e.numArcs();
        // 4 arcs per 64-byte line (sizeof(ArcEntry) == 16).
        const unsigned lines =
            std::min(max_lines, unsigned(n + 3) / 4u);
        for (unsigned l = 0; l < lines; ++l)
            ASR_PREFETCH(first + 4u * l);
    }

    /** Whole state array (for serialization / address computation). */
    const StateVec &stateArray() const { return states_; }

    /** Whole arc array. */
    const ArcVec &arcArray() const { return arcs_; }

    /** Final-weight array (may be empty). */
    const std::vector<LogProb> &finalArray() const { return finals_; }

    /** Total main-memory footprint of states + arcs, in bytes. */
    Bytes
    sizeBytes() const
    {
        return states_.size() * sizeof(StateEntry) +
               arcs_.size() * sizeof(ArcEntry);
    }

    /** Largest out-degree over all states (the paper's WFST: 770). */
    std::uint32_t maxOutDegree() const;

    /** Mean out-degree. */
    double meanOutDegree() const;

    /**
     * Check structural invariants (arc ranges in bounds, destinations
     * valid, epsilon arcs after non-epsilon arcs).  Panics on
     * violation; intended for tests and post-load validation.
     */
    void validate() const;

    /**
     * Attach a compressed encoding of this graph's arc array (see
     * wfst/compact.hh).  Setup-time only: callers build the
     * CompactArcs once (CompactArcs::build) and attach it before
     * handing the Wfst to any decoder; DecoderConfig::useCompactArcs
     * then selects which layout the search walks.  Panics unless the
     * encoding's state and arc counts equal this graph's, so another
     * graph's encoding is never walked in place of this one's arcs.
     * Pass nullptr to detach.
     */
    void attachCompactArcs(std::shared_ptr<const CompactArcs> compact);

    /** @return true when a compact arc encoding is attached. */
    bool hasCompactArcs() const { return compact_ != nullptr; }

    /** The attached compact encoding, or nullptr. */
    const CompactArcs *compactArcs() const { return compact_.get(); }

  private:
    friend class WfstBuilder;
    friend Wfst loadWfstRaw(StateVec states, ArcVec arcs,
                            std::vector<LogProb> finals,
                            StateId initial);

    StateVec states_;
    ArcVec arcs_;
    std::vector<LogProb> finals_;  // empty, or one entry per state
    std::shared_ptr<const CompactArcs> compact_;  // optional
    StateId initial = 0;
};

/** Internal helper for deserialization; validates before returning. */
Wfst loadWfstRaw(StateVec states, ArcVec arcs,
                 std::vector<LogProb> finals, StateId initial);

/**
 * Incremental WFST constructor.  Arcs may be added in any order; the
 * builder sorts each state's arcs into the non-epsilon-first layout
 * when build() is called.
 */
class WfstBuilder
{
  public:
    /** Create a builder for @p num_states states. */
    explicit WfstBuilder(StateId num_states);

    /** Add one more (initially arc-less) state; @return its id. */
    StateId addState();

    /** Add an arc from @p src. */
    void addArc(StateId src, StateId dest, LogProb weight,
                PhonemeId ilabel, WordId olabel = kNoWord);

    /** Mark @p s final with the given log-weight. */
    void setFinal(StateId s, LogProb weight);

    /** Set the initial state (default: state 0). */
    void setInitial(StateId s);

    /** Number of states added so far. */
    StateId numStates() const { return StateId(arcsPerState.size()); }

    /**
     * Produce the immutable Wfst.  The builder is left empty.
     * Within a state, relative order of non-epsilon arcs (and of
     * epsilon arcs) follows insertion order, which makes decoding
     * deterministic.
     */
    Wfst build();

  private:
    std::vector<std::vector<ArcEntry>> arcsPerState;
    std::vector<LogProb> finals;
    bool anyFinal = false;
    StateId initial = 0;
};

} // namespace asr::wfst

#endif // ASR_WFST_WFST_HH
