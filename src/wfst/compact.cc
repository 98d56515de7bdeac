#include "wfst/compact.hh"

#include <cstring>
#include <limits>

#include "common/logging.hh"
#include "wfst/wfst.hh"

namespace asr::wfst {

namespace {

/** zigzag map: signed deltas to small unsigned varints. */
std::uint64_t
zigzag(std::int64_t v)
{
    return (std::uint64_t(v) << 1) ^ std::uint64_t(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t v)
{
    return std::int64_t(v >> 1) ^ -std::int64_t(v & 1);
}

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(std::uint8_t(v) | 0x80);
        v >>= 7;
    }
    out.push_back(std::uint8_t(v));
}

/**
 * Unchecked LEB128 read for the decode hot path: build() is the only
 * producer, so every group holds exactly the records it encoded.
 */
std::uint64_t
readVarint(const std::uint8_t *&p)
{
    std::uint64_t v = *p & 0x7f;
    unsigned shift = 7;
    while (*p++ & 0x80) {
        v |= std::uint64_t(*p & 0x7f) << shift;
        shift += 7;
    }
    return v;
}

} // namespace

CompactArcs
CompactArcs::build(const Wfst &graph, WeightMode)
{
    CompactArcs c;
    c.totalArcs = graph.numArcs();

    const StateId n = graph.numStates();
    c.headers_.reserve(std::size_t(n) + 1);
    for (StateId s = 0; s < n; ++s) {
        const StateEntry &e = graph.state(s);
        ASR_ASSERT(c.payload_.size() <=
                       std::numeric_limits<std::uint32_t>::max(),
                   "compact arc payload overflows u32 offsets");
        c.headers_.push_back({std::uint32_t(c.payload_.size()),
                              e.numNonEpsArcs, e.numEpsArcs});
        const auto arcs = graph.arcs(s);
        for (std::size_t i = 0; i < arcs.size(); ++i) {
            const ArcEntry &a = arcs[i];
            putVarint(c.payload_,
                      zigzag(std::int64_t(a.dest) - std::int64_t(s)));
            if (i < e.numNonEpsArcs)
                putVarint(c.payload_, a.ilabel);
            putVarint(c.payload_, a.olabel);
            std::uint8_t raw[sizeof(float)];
            std::memcpy(raw, &a.weight, sizeof(float));
            c.payload_.insert(c.payload_.end(), raw,
                              raw + sizeof(float));
        }
    }
    ASR_ASSERT(c.payload_.size() <=
                   std::numeric_limits<std::uint32_t>::max(),
               "compact arc payload overflows u32 offsets");
    c.headers_.push_back({std::uint32_t(c.payload_.size()), 0, 0});
    return c;
}

std::uint32_t
CompactArcs::decodeState(StateId s, ArcEntry *out) const
{
    const GroupHeader &h = headers_[s];
    const std::uint8_t *p = payload_.data() + h.offset;
    const std::uint32_t nonEps = h.numNonEps;
    const std::uint32_t n = nonEps + h.numEps;
    for (std::uint32_t i = 0; i < n; ++i) {
        ArcEntry &a = out[i];
        a.dest = StateId(std::int64_t(s) + unzigzag(readVarint(p)));
        a.ilabel = i < nonEps ? PhonemeId(readVarint(p))
                              : kEpsilonLabel;
        a.olabel = WordId(readVarint(p));
        std::memcpy(&a.weight, p, sizeof(float));
        p += sizeof(float);
    }
    return n;
}

} // namespace asr::wfst
