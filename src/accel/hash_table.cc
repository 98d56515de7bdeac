#include "accel/hash_table.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/logging.hh"

namespace asr::accel {

TokenHash::TokenHash(unsigned entries, unsigned backup_entries,
                     bool ideal_mode)
    : slots(std::size_t(entries) + backup_entries), numPrimary(entries),
      onChip(entries + backup_entries), ideal(ideal_mode),
      mask(entries - 1)
{
    ASR_ASSERT(entries > 0 && isPowerOf2(entries),
               "hash entries must be a power of two");
    ASR_ASSERT(std::uint64_t(entries) + backup_entries < kLinkMask,
               "hash too large for its slot links");
}

void
TokenHash::clear()
{
    // Backup and overflow slots are rewritten whole when claimed;
    // only the primary buckets carry an emptiness mark.
    for (const std::uint32_t link : liveList)
        if (link <= numPrimary)
            slotAt(link).state = wfst::kNoState;
    slots.resize(onChip);
    backupUsed = 0;
    distinct = 0;
    liveList.clear();
    best = wfst::kLogZero;
}

} // namespace asr::accel
