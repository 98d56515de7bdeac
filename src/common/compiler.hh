/**
 * @file
 * Small compiler-portability macros shared by the hot kernels.
 */

#ifndef ASR_COMMON_COMPILER_HH
#define ASR_COMMON_COMPILER_HH

/**
 * ASR_RESTRICT — C99 `restrict` for C++ pointers.
 *
 * The dense-matrix kernels in src/acoustic traverse disjoint arrays
 * through raw pointers; without an aliasing promise GCC/Clang must
 * assume the output row may overlap an input row and re-load
 * invariant values inside the inner loop, which blocks vectorization.
 * Apply only where the non-overlap guarantee genuinely holds.
 */
#if defined(__GNUC__) || defined(__clang__)
#define ASR_RESTRICT __restrict__
#elif defined(_MSC_VER)
#define ASR_RESTRICT __restrict
#else
#define ASR_RESTRICT
#endif

/**
 * ASR_PREFETCH(addr) — best-effort read prefetch into all cache
 * levels.
 *
 * The Viterbi search walks worklists whose next few state records
 * and arc ranges are known several iterations ahead of their use;
 * issuing the loads early hides the DRAM latency the paper's
 * hardware hides with its dedicated fetch pipeline (Sec. IV-A).
 * A hint only: never required for correctness.
 */
#if defined(__GNUC__) || defined(__clang__)
#define ASR_PREFETCH(addr) __builtin_prefetch((addr), 0, 3)
#else
#define ASR_PREFETCH(addr) ((void)0)
#endif

/**
 * ASR_ALWAYS_INLINE — inline a function into every caller, whatever
 * its size.  For the stages of a simulator's per-cycle loop: each
 * runs once per simulated cycle from a single call site, and a call
 * per stage would cost more than most cycles' work.
 */
#if defined(__GNUC__) || defined(__clang__)
#define ASR_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define ASR_ALWAYS_INLINE inline
#endif

#endif // ASR_COMMON_COMPILER_HH
