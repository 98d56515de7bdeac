/**
 * @file
 * The per-frame operation trace connecting the functional expansion
 * pass to the cycle-accurate timing pass.
 *
 * The accelerator model is split in two phases that share one
 * functional core: the Expander performs the Viterbi expansion in
 * exactly the hardware's processing order and records every
 * micro-operation (token reads, prunes, state fetches, arc fetches,
 * hash requests, token-trace writes); the TimingEngine then replays
 * that trace through the five-stage pipeline, the caches and the
 * DRAM model.  This guarantees by construction that timing knobs
 * (prefetching, cache sizes, hash sizes) can never change decoding
 * results -- only cycles and traffic.
 */

#ifndef ASR_ACCEL_TRACE_HH
#define ASR_ACCEL_TRACE_HH

#include <cstdint>
#include <vector>

#include "accel/address_map.hh"
#include "common/units.hh"
#include "sim/types.hh"

namespace asr::accel {

/**
 * Width of the simulated addresses a trace record stores: enough for
 * any state, arc or token-record address a 32-bit index reaches, and
 * small enough that both records fit 16 bytes.
 */
constexpr unsigned kTraceAddrBits = 40;

static_assert(stateAddr(~wfst::StateId(0)) < (1ull << kTraceAddrBits) &&
                  arcAddr(~wfst::ArcId(0)) < (1ull << kTraceAddrBits) &&
                  tokenRecordAddr(~std::uint32_t(0)) <
                      (1ull << kTraceAddrBits),
              "the address map outgrew the trace address width");

/** One arc processed by the Arc Issuer (16 B). */
struct ArcOp
{
    sim::Addr addr : kTraceAddrBits = 0;  //!< address of the 16 B arc entry
    std::uint64_t hashCycles : 16 = 0;    //!< hash occupancy (chain walk)
    std::uint64_t overflowHops : 8 = 0;   //!< off-chip overflow accesses
    sim::Addr tokenAddr : kTraceAddrBits = 0;  //!< backpointer record
    bool epsilon : 1 = false;      //!< arc has no input label
    bool evaluated : 1 = false;    //!< reached Likelihood Evaluation
    bool hashRequest : 1 = false;  //!< Token Issuer accessed the hash
    bool tokenWrite : 1 = false;   //!< backpointer record written
};

/** One token processed by the State Issuer (16 B). */
struct TokenOp
{
    sim::Addr stateAddr : kTraceAddrBits = 0;  //!< the 8 B state entry
    bool epsilonPhase : 1 = false;     //!< belongs to the epsilon closure
    bool pruned : 1 = false;           //!< cut by the beam (no further work)
    bool direct : 1 = false;           //!< Sec. IV-B: no state fetch needed
    bool needsStateFetch : 1 = false;  //!< read the state entry
    std::uint32_t arcOpBegin = 0;      //!< range into FrameTrace::arcOps
    std::uint32_t arcOpCount = 0;
};

static_assert(sizeof(ArcOp) == 16 && sizeof(TokenOp) == 16,
              "trace records are sized for the replay's memory traffic");

/** All micro-operations of one frame of speech. */
struct FrameTrace
{
    std::vector<TokenOp> tokenOps;
    std::vector<ArcOp> arcOps;

    /** Acoustic scores DMA'd into the likelihood buffer (bytes). */
    Bytes acousticBytes = 0;

    void
    clear()
    {
        tokenOps.clear();
        arcOps.clear();
        acousticBytes = 0;
    }
};

} // namespace asr::accel

#endif // ASR_ACCEL_TRACE_HH
