#include "wfst/wfst.hh"

#include <algorithm>

#include "common/logging.hh"
#include "wfst/compact.hh"

namespace asr::wfst {

std::uint32_t
Wfst::maxOutDegree() const
{
    std::uint32_t m = 0;
    for (const auto &s : states_)
        m = std::max(m, s.numArcs());
    return m;
}

double
Wfst::meanOutDegree() const
{
    if (states_.empty())
        return 0.0;
    return static_cast<double>(arcs_.size()) /
           static_cast<double>(states_.size());
}

void
Wfst::validate() const
{
    ASR_ASSERT(!states_.empty(), "WFST has no states");
    ASR_ASSERT(initial < numStates(), "initial state out of range");
    ASR_ASSERT(finals_.empty() || finals_.size() == states_.size(),
               "final array size mismatch");

    std::uint64_t covered = 0;
    for (StateId s = 0; s < numStates(); ++s) {
        const StateEntry &e = states_[s];
        const std::uint64_t end =
            std::uint64_t(e.firstArc) + e.numArcs();
        ASR_ASSERT(end <= arcs_.size(),
                   "state %u arc range [%u, %llu) exceeds arc array",
                   s, e.firstArc, static_cast<unsigned long long>(end));
        covered += e.numArcs();

        for (std::uint32_t i = 0; i < e.numArcs(); ++i) {
            const ArcEntry &a = arcs_[e.firstArc + i];
            ASR_ASSERT(a.dest < numStates(),
                       "arc %u of state %u: dest %u out of range",
                       i, s, a.dest);
            const bool should_be_eps = i >= e.numNonEpsArcs;
            ASR_ASSERT(a.isEpsilon() == should_be_eps,
                       "arc %u of state %u violates the "
                       "non-epsilon-first layout", i, s);
        }
    }
    ASR_ASSERT(covered == arcs_.size(),
               "arc array has %zu entries but states cover %llu",
               arcs_.size(), static_cast<unsigned long long>(covered));
}

void
Wfst::attachCompactArcs(std::shared_ptr<const CompactArcs> compact)
{
    if (compact)
        ASR_ASSERT(compact->numStates() == numStates() &&
                       compact->numArcs() == numArcs(),
                   "CompactArcs encodes %u states and %llu arcs, the "
                   "graph has %u and %u",
                   compact->numStates(),
                   static_cast<unsigned long long>(compact->numArcs()),
                   numStates(), numArcs());
    compact_ = std::move(compact);
}

Wfst
loadWfstRaw(StateVec states, ArcVec arcs, std::vector<LogProb> finals,
            StateId initial)
{
    Wfst w;
    w.states_ = std::move(states);
    w.arcs_ = std::move(arcs);
    w.finals_ = std::move(finals);
    w.initial = initial;
    w.validate();
    return w;
}

WfstBuilder::WfstBuilder(StateId num_states)
    : arcsPerState(num_states), finals(num_states, kLogZero)
{
}

StateId
WfstBuilder::addState()
{
    arcsPerState.emplace_back();
    finals.push_back(kLogZero);
    return StateId(arcsPerState.size() - 1);
}

void
WfstBuilder::addArc(StateId src, StateId dest, LogProb weight,
                    PhonemeId ilabel, WordId olabel)
{
    ASR_ASSERT(src < arcsPerState.size(), "arc source %u out of range",
               src);
    ASR_ASSERT(dest < arcsPerState.size(),
               "arc destination %u out of range", dest);
    arcsPerState[src].push_back(ArcEntry{dest, weight, ilabel, olabel});
}

void
WfstBuilder::setFinal(StateId s, LogProb weight)
{
    ASR_ASSERT(s < finals.size(), "final state %u out of range", s);
    finals[s] = weight;
    anyFinal = true;
}

void
WfstBuilder::setInitial(StateId s)
{
    ASR_ASSERT(s < arcsPerState.size(), "initial state %u out of range",
               s);
    initial = s;
}

Wfst
WfstBuilder::build()
{
    Wfst w;
    w.states_.resize(arcsPerState.size());
    std::uint64_t total = 0;
    for (const auto &v : arcsPerState)
        total += v.size();
    ASR_ASSERT(total <= std::uint64_t(0xffffffff),
               "arc count exceeds 32-bit index space");
    w.arcs_.reserve(total);

    for (StateId s = 0; s < arcsPerState.size(); ++s) {
        auto &v = arcsPerState[s];
        // Stable partition keeps insertion order within each class.
        std::stable_partition(v.begin(), v.end(),
                              [](const ArcEntry &a) {
                                  return !a.isEpsilon();
                              });
        std::size_t non_eps =
            std::count_if(v.begin(), v.end(), [](const ArcEntry &a) {
                return !a.isEpsilon();
            });

        StateEntry &e = w.states_[s];
        e.firstArc = ArcId(w.arcs_.size());
        ASR_ASSERT(non_eps <= 0xffff && v.size() - non_eps <= 0xffff,
                   "state %u out-degree exceeds 16-bit field", s);
        e.numNonEpsArcs = std::uint16_t(non_eps);
        e.numEpsArcs = std::uint16_t(v.size() - non_eps);
        w.arcs_.insert(w.arcs_.end(), v.begin(), v.end());
    }

    if (anyFinal)
        w.finals_ = std::move(finals);
    w.initial = initial;

    arcsPerState.clear();
    finals.clear();
    anyFinal = false;
    initial = 0;

    w.validate();
    return w;
}

} // namespace asr::wfst
