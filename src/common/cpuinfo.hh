/**
 * @file
 * Runtime CPU-feature detection for the SIMD kernel dispatch.
 *
 * The blocked acoustic backend's kernels (acoustic/backend.hh) are
 * compiled with per-function target attributes, so the binary always
 * contains the SIMD and the scalar code paths; which one runs -- the
 * AVX-512F, the AVX2 or the scalar kernel -- is decided here, once,
 * at backend construction.  A build on a non-x86 host (or a run on
 * an x86 core without AVX2) silently degrades to the scalar kernel
 * -- the same results, just slower.
 *
 * Two override knobs exist so the narrower paths stay testable on
 * hosts that have the wider ones:
 *
 *  - the environment variable ASR_FORCE_SCALAR (any value except
 *    "" or "0") disables SIMD for the whole process -- what the CI
 *    forced-scalar job sets to prove the dispatch degrades cleanly;
 *  - setSimdCapForTest() caps dispatch programmatically at scalar,
 *    AVX2 or AVX-512 (tests that compare the kernels in one
 *    process).  It replaces the environment's answer while set.
 *
 * Thread safety: all functions are safe to call concurrently; the
 * hardware probes are cached after the first call.
 */

#ifndef ASR_COMMON_CPUINFO_HH
#define ASR_COMMON_CPUINFO_HH

#include <string_view>

namespace asr::cpu {

/** The kernel families dispatch can pick, narrowest first. */
enum class SimdCap
{
    Scalar,
    Avx2,
    Avx512,
};

/**
 * True when the running CPU supports AVX2 and SIMD has not been
 * forced off (env ASR_FORCE_SCALAR / a SimdCap::Scalar test cap).
 * Every AVX2 kernel dispatch consults this predicate.
 */
bool hasAvx2();

/**
 * True when the running CPU supports AVX-512F and neither
 * ASR_FORCE_SCALAR nor a test cap below SimdCap::Avx512 rules it
 * out.  The blocked GEMM's widest kernel dispatches on this.
 */
bool hasAvx512();

/** AVX2 hardware capability alone, ignoring the overrides. */
bool cpuSupportsAvx2();

/** AVX-512F hardware capability alone, ignoring the overrides. */
bool cpuSupportsAvx512();

/** True when ASR_FORCE_SCALAR (or a SimdCap::Scalar cap) disables SIMD. */
bool simdForcedOff();

/**
 * Test hook: let dispatch pick no kernel family wider than @p cap
 * for this process, overriding the environment variable either way
 * (SimdCap::Avx512 allows whatever the hardware has, even under
 * ASR_FORCE_SCALAR).  Affects only backends constructed after the
 * call.
 */
void setSimdCapForTest(SimdCap cap);

/** Clear the test cap, falling back to the environment. */
void clearSimdCapForTest();

/**
 * "avx512" when hasAvx512(), else "avx2" when hasAvx2(), else
 * "scalar" -- the word the blocked backend's isa() reports
 * (diagnostics, bench JSON).
 */
std::string_view simdLevel();

} // namespace asr::cpu

#endif // ASR_COMMON_CPUINFO_HH
