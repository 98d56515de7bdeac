/**
 * @file
 * Binary serialization of WFSTs.
 *
 * Format (little-endian), container version 1:
 *   magic "ASRW" | u32 version | u32 numStates | u32 numArcs |
 *   u32 initial | u8 hasFinals | u8 reserved[3] (zero) |
 *   StateEntry[numStates] | ArcEntry[numArcs] |
 *   (LogProb[numStates] if hasFinals) | u32 crc32(payload)
 *
 * Version 1 is the only version: the loader rejects every other.  An
 * attached CompactArcs (wfst/compact.hh) is never written; rebuild it
 * from the loaded arcs with CompactArcs::build.
 */

#ifndef ASR_WFST_IO_HH
#define ASR_WFST_IO_HH

#include <string>

#include "wfst/wfst.hh"

namespace asr::wfst {

/**
 * Serialize @p w's arrays to @p path, leaving out any attached
 * CompactArcs.  fatal() on I/O errors.
 */
void saveWfst(const Wfst &w, const std::string &path);

/**
 * Load a WFST from @p path.  The returned Wfst carries no
 * CompactArcs.  fatal() on I/O errors, bad magic, an unsupported
 * version, a malformed header or checksum failure.
 */
Wfst loadWfst(const std::string &path);

/** CRC-32 (IEEE) used by the container format; exposed for tests. */
std::uint32_t crc32(const void *data, std::size_t len,
                    std::uint32_t seed = 0);

} // namespace asr::wfst

#endif // ASR_WFST_IO_HH
