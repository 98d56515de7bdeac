/**
 * @file
 * Pluggable acoustic-scoring backends.
 *
 * The paper's system gets its DNN throughput from batching frames
 * into large GEMMs on a throughput device (Sec. II/III-A: the GPU
 * scores batch i while the accelerator searches batch i-1).  This
 * interface is the reproduction's seam for that: everything that
 * turns spliced MFCC rows into per-senone log-softmax scores goes
 * through an acoustic::Backend's one entry point, scoreBatch: the
 * GEMM the server's cross-session BatchScorer drives once per tick,
 * and the one an inline-scoring session drives over its own rows.
 *
 * Two implementations, each with one kernel dispatch decided at
 * construction (common/cpuinfo.hh; isa() reports the choice):
 *  - Reference: Dnn::forward, the naive matmulTransposed loops; the
 *    correctness oracle Blocked is measured against.
 *  - Blocked:   the same arithmetic over weights repacked at
 *    construction into SIMD-friendly column tiles, row-blocked for
 *    cache reuse.  On an AVX-512F host a register-blocked kernel
 *    loads each 32-lane tile row once per k as two 16-lane vectors
 *    and reuses it across eight input rows; on an AVX2-only host an
 *    AVX2 kernel reuses each 8-lane slice across three rows.  Both
 *    keep a separate multiply and add per step; elsewhere a
 *    compiler-vectorized scalar loop runs.  Bit-identical to
 *    Reference on all three kernels (see below) and the backend
 *    pipeline::AsrModel scores with.  Its panel kernel also trains
 *    the DNN (blockedGemm below).
 *
 * Bit-identity contract
 * ---------------------
 * Every backend must produce, for every output element, the
 * exact float sequence of the reference kernel: a single f32
 * accumulator over k in ascending order (acoustic::matmulTransposed),
 * bias added after the full dot product, ReLU between hidden layers,
 * and normalization through acoustic::logSoftmaxRow.  Because each
 * output row depends only on its input row, a row scores the same
 * bits alone, in any batch, and in any cross-session coalescing of
 * rows -- this is what lets the server batch frames from unrelated
 * sessions without touching the determinism contract.
 *
 * Thread safety: backends are immutable after construction;
 * scoreBatch is const and uses only local scratch, so one backend
 * instance serves any number of concurrent sessions.
 */

#ifndef ASR_ACOUSTIC_BACKEND_HH
#define ASR_ACOUSTIC_BACKEND_HH

#include <cstddef>
#include <memory>
#include <span>
#include <string_view>

#include "acoustic/dnn.hh"
#include "acoustic/matrix.hh"

namespace asr::acoustic {

/** The available scoring implementations. */
enum class BackendKind
{
    Reference,  //!< naive float GEMM (Dnn::forward)
    Blocked,    //!< packed-tile float GEMM, exact AVX-512/AVX2/scalar
};

/** Stable lower-case name ("reference", "blocked"). */
std::string_view backendName(BackendKind kind);

/**
 * Rows of a batch that the blocked GEMM runs through one pass over a
 * layer's packed weights: a batch of n rows costs ceil(n / kRowBlock)
 * passes over each layer's weights.  A batch cut into runs of whole
 * row blocks therefore reads the weights exactly as often as the
 * uncut batch (server::BatchScorer's row slabs rely on this).
 */
constexpr std::size_t kRowBlock = 32;

/** How blockedGemm reads its right-hand operand @p b. */
enum class GemmRhs
{
    AsStored,    //!< b is k x n: y = a * b
    Transposed,  //!< b is n x k, as a layer's weights: y = a * b^T
};

/**
 * y = a * op(b) + bias on the blocked backend's panel kernel, with
 * the bit-identity contract's arithmetic for every output element:
 * one f32 accumulator from +0 over k ascending, a rounded multiply
 * then a separate rounded add, and the bias (+0 when @p bias is
 * empty) added after the full sum.  Dnn's training runs every product
 * through this.
 *
 * Unlike Blocked's scoreBatch, it repacks op(b) on every call, one
 * 32-column panel at a time into a single reused k x 32 buffer, so it
 * never holds a copy of @p b.  The kernel is resolved per call
 * through the same predicates (common/cpuinfo.hh), so every kernel
 * gives the same bits.
 */
Matrix blockedGemm(const Matrix &a, const Matrix &b, GemmRhs rhs,
                   std::span<const float> bias = {});

/** Abstract scorer over a trained Dnn's parameters. */
class Backend
{
  public:
    virtual ~Backend() = default;

    virtual BackendKind kind() const = 0;
    std::string_view name() const { return backendName(kind()); }

    /**
     * Instruction set the hot kernel actually dispatches to, as
     * resolved at construction: "avx512" (blocked, when
     * cpu::hasAvx512()), "avx2" (blocked, when cpu::hasAvx2()), else
     * "scalar".  Diagnostics and bench JSON; never affects results.
     */
    virtual std::string_view isa() const { return "scalar"; }

    std::size_t inputDim() const { return inDim; }
    std::size_t outputDim() const { return outDim; }

    /**
     * The entry point: @p input is batch x inputDim spliced feature
     * rows; returns batch x outputDim log-softmax scores.  Row r of
     * the result depends only on row r of the input.
     */
    virtual Matrix scoreBatch(const Matrix &input) const = 0;

    /** Build a backend of @p kind over the trained @p dnn. */
    static std::unique_ptr<Backend> create(BackendKind kind,
                                           const Dnn &dnn);

  protected:
    Backend(std::size_t input_dim, std::size_t output_dim)
        : inDim(input_dim), outDim(output_dim)
    {
    }

  private:
    std::size_t inDim;
    std::size_t outDim;
};

} // namespace asr::acoustic

#endif // ASR_ACOUSTIC_BACKEND_HH
