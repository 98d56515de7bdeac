/**
 * @file
 * Runtime CPU-feature detection for the SIMD kernel dispatch.
 *
 * The explicitly vectorized acoustic kernels ("blocked" and "int8"
 * in acoustic/backend.hh) are compiled with per-function target
 * attributes, so the binary always contains both the SIMD and the
 * scalar code paths; which one runs is decided here, once, at backend
 * construction.  A build on a non-x86 host (or a run on an x86 core
 * without AVX2) silently degrades to the scalar kernels -- the same
 * results, just slower.
 *
 * Two override knobs exist so the fallback path stays testable on
 * hosts that *do* have AVX2:
 *
 *  - the environment variable ASR_FORCE_SCALAR (any value except
 *    "" or "0") disables SIMD for the whole process -- what the CI
 *    forced-scalar job sets to prove the dispatch degrades cleanly;
 *  - setForceScalarForTest() flips the same switch programmatically
 *    (tests that compare the SIMD and scalar paths in one process).
 *
 * Thread safety: all functions are safe to call concurrently; the
 * hardware probe is cached after the first call.
 */

#ifndef ASR_COMMON_CPUINFO_HH
#define ASR_COMMON_CPUINFO_HH

#include <string_view>

namespace asr::cpu {

/**
 * True when the running CPU supports AVX2 and SIMD has not been
 * forced off (env ASR_FORCE_SCALAR / setForceScalarForTest).
 * This is the one predicate every SIMD kernel dispatch consults.
 */
bool hasAvx2();

/** Hardware capability alone, ignoring the force-scalar overrides. */
bool cpuSupportsAvx2();

/** True when ASR_FORCE_SCALAR (or the test override) disables SIMD. */
bool simdForcedOff();

/**
 * Test hook: force (true) or restore (false) scalar dispatch for
 * this process, overriding the environment variable.  Affects only
 * backends constructed after the call.
 */
void setForceScalarForTest(bool force);

/** Clear the test override, falling back to the environment. */
void clearForceScalarForTest();

/**
 * "avx2" when hasAvx2(), else "scalar" -- the word
 * acoustic::Backend::isa() reports (diagnostics, bench JSON).
 */
std::string_view simdLevel();

} // namespace asr::cpu

#endif // ASR_COMMON_CPUINFO_HH
