/**
 * @file
 * Compressed WFST arc array (the paper's memory-bandwidth diet).
 *
 * The raw accelerator layout spends 16 bytes per arc (types.hh); on
 * the paper-scale graphs the arc stream is what saturates DRAM during
 * beam search (Sec. III-B: the accelerator's caches exist to absorb
 * exactly this traffic).  CompactArcs re-encodes the same arcs as
 * variable-width packed records so the search touches ~2.5x fewer
 * bytes per expanded state:
 *
 *   per state, an 8-byte group header
 *     { payload byte offset u32, numNonEps u16, numEps u16 }
 *   then, in the payload, one record per arc in the *exact* order of
 *   the raw layout (non-epsilon first, insertion order -- the
 *   determinism contract):
 *
 *     field        encoding                        present
 *     -----        --------                        -------
 *     dest         zigzag(dest - src) LEB128       always
 *     ilabel       LEB128                          non-eps arcs only
 *     olabel       LEB128                          always
 *     weight       raw f32 (little-endian)         always
 *
 * Epsilon arcs drop the ilabel byte entirely: the group header's
 * counts say which records are epsilon (they come last), so the
 * decoder reinstates kEpsilonLabel without reading anything.
 * Destination deltas exploit the locality the graph generator (and
 * real LVCSR compilations) exhibit: most arcs land within a small
 * window of their source, so the delta fits one LEB128 byte.
 *
 * Weights are stored exactly, so they round-trip bit-for-bit and
 * compact-graph decode is bitwise identical to raw-graph decode.
 *
 * build() is the only producer: a CompactArcs is built in memory from
 * a Wfst's raw arcs and is never serialized (saveWfst leaves it out;
 * rebuild it after loading).  It is immutable after build() and is
 * attached to a Wfst (Wfst::attachCompactArcs) so the decoders can
 * pick either layout per DecoderConfig.  Group decode is strictly
 * sequential (varints have no random access); the search decodes a
 * whole state's group into caller scratch at token-expansion time,
 * which it was about to walk in full anyway.
 */

#ifndef ASR_WFST_COMPACT_HH
#define ASR_WFST_COMPACT_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/compiler.hh"
#include "wfst/types.hh"

namespace asr::wfst {

class Wfst;

/** How CompactArcs stores arc weights: raw f32 is the only mode. */
enum class WeightMode : std::uint8_t
{
    Exact = 0,  //!< raw f32; bitwise round trip
};

/** Compressed, immutable arc array; see the file comment for format. */
class CompactArcs
{
  public:
    /** Per-state directory entry into the packed payload. */
    struct GroupHeader
    {
        std::uint32_t offset = 0;  //!< first payload byte of the group
        std::uint16_t numNonEps = 0;
        std::uint16_t numEps = 0;
    };
    static_assert(sizeof(GroupHeader) == 8,
                  "group headers are the 8-byte per-state records "
                  "the traffic accounting charges");

    CompactArcs() = default;

    /**
     * Encode @p graph's arc array.  Fatal if a group's payload would
     * overflow the u32 offsets (no realistic graph does).  The
     * WeightMode argument is unused: Exact is the only mode.
     */
    static CompactArcs build(const Wfst &graph, WeightMode mode);

    /** Number of states (groups). */
    StateId
    numStates() const
    {
        return headers_.empty() ? 0 : StateId(headers_.size() - 1);
    }

    /** Total number of encoded arcs. */
    std::uint64_t numArcs() const { return totalArcs; }

    /** Encoded payload bytes (records only, headers excluded). */
    std::size_t payloadBytes() const { return payload_.size(); }

    /** Headers + payload, in bytes. */
    std::size_t
    sizeBytes() const
    {
        return headers_.size() * sizeof(GroupHeader) + payload_.size();
    }

    /** Mean encoded bytes per arc (diagnostics, bench JSON). */
    double
    bytesPerArc() const
    {
        return totalArcs == 0
                   ? 0.0
                   : double(payload_.size()) / double(totalArcs);
    }

    /** Group header of state @p s. */
    const GroupHeader &header(StateId s) const { return headers_[s]; }

    /** Encoded payload bytes of state @p s's group. */
    std::uint32_t
    groupBytes(StateId s) const
    {
        return headers_[s + 1].offset - headers_[s].offset;
    }

    /**
     * Decode all arcs of state @p s, in layout order, into @p out
     * (which must hold at least numNonEps + numEps entries).
     * @return the number of arcs decoded.
     */
    std::uint32_t decodeState(StateId s, ArcEntry *out) const;

    /**
     * Hint: prefetch the group header of state @p s (the compact
     * twin of Wfst::prefetchState; purely advisory).
     */
    void
    prefetchHeader(StateId s) const
    {
        ASR_PREFETCH(headers_.data() + s);
    }

    /**
     * Hint: prefetch the head of state @p s's encoded group (up to
     * @p max_lines cache lines).  Requires the header to be
     * resident, so issue prefetchHeader() earlier.
     */
    void
    prefetchGroup(StateId s, unsigned max_lines = 2) const
    {
        const std::uint8_t *p = payload_.data() + headers_[s].offset;
        const std::uint32_t n = groupBytes(s);
        const unsigned lines =
            std::min(max_lines, unsigned((n + 63) / 64));
        for (unsigned l = 0; l < lines; ++l)
            ASR_PREFETCH(p + 64u * l);
    }

  private:
    // numStates + 1 entries; the sentinel's offset is payloadBytes()
    // so groupBytes(s) is one subtraction for every state.
    std::vector<GroupHeader> headers_;
    std::vector<std::uint8_t> payload_;
    std::uint64_t totalArcs = 0;
};

} // namespace asr::wfst

#endif // ASR_WFST_COMPACT_HH
