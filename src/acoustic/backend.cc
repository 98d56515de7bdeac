#include "acoustic/backend.hh"

#include <algorithm>
#include <span>
#include <vector>

#include "common/compiler.hh"
#include "common/cpuinfo.hh"
#include "common/logging.hh"

// The AVX2 and AVX-512 kernels are compiled with per-function target
// attributes (no global -mavx2 or -mavx512f), so the same binary
// carries every code path and cpu::hasAvx512() / cpu::hasAvx2() pick
// one at backend construction.  Non-x86 builds compile only the
// scalar path; "blocked" simply always runs scalar there.
//
// The acoustic library is compiled with -ffp-contract=off (see its
// CMakeLists.txt): the "avx512f" target implies FMA, and GCC would
// otherwise fuse the AVX-512 kernel's separate multiply and add into
// vfmadd231ps, whose single rounding breaks the bit-identity
// contract.
#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(__i386__))
#define ASR_HAVE_X86_KERNELS 1
#include <immintrin.h>
#else
#define ASR_HAVE_X86_KERNELS 0
#endif

namespace asr::acoustic {

std::string_view
backendName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::Reference: return "reference";
      case BackendKind::Blocked:   return "blocked";
    }
    panic("unknown backend kind %d", int(kind));
}

namespace {

// ---------------------------------------------------------------------------
// Reference backend: Dnn::forward's naive matmulTransposed loops.
// ---------------------------------------------------------------------------

class ReferenceBackend final : public Backend
{
  public:
    explicit ReferenceBackend(const Dnn &dnn)
        : Backend(dnn.config().inputDim, dnn.config().outputDim),
          net(dnn)
    {
    }

    BackendKind kind() const override { return BackendKind::Reference; }

    Matrix
    scoreBatch(const Matrix &input) const override
    {
        return net.forward(input);
    }

  private:
    const Dnn &net;
};

// ---------------------------------------------------------------------------
// Blocked backend: packed-tile float GEMM, bit-identical to reference.
// ---------------------------------------------------------------------------

/**
 * Output-channel tile width of the packed layout.  Wide on purpose:
 * with 32 independent accumulator lanes GCC/Clang emit the clean
 * broadcast-multiply-accumulate vector form and enough parallel
 * add chains to hide FP-add latency (narrow tiles fall into a
 * shuffle-heavy code path an order of magnitude slower); the padding
 * waste on a tail tile is at most 31 output channels' worth of MACs.
 */
constexpr std::size_t kTile = 32;

/**
 * One layer repacked for the blocked kernel: output channels grouped
 * into tiles of kTile, each tile stored k-major so the inner loop
 * reads kTile consecutive weights per input value -- a contiguous
 * vector load with an independent accumulator per lane, which keeps
 * ascending-k order per output element (the bit-identity contract)
 * while letting the compiler vectorize across the tile.
 */
struct PackedLayer
{
    std::size_t in = 0;
    std::size_t out = 0;
    std::size_t tiles = 0;
    std::vector<float> packed;  //!< tiles x in x kTile, zero padded
    std::vector<float> bias;    //!< out
};

/**
 * Rows [j0, j0 + jn) of @p weights (out x in), transposed into the
 * in x kTile panel @p panel; lanes from jn on are left as they are.
 * It goes 16 k at a time so the panel rows being written stay in L1;
 * a whole lane at a time, every store misses it (3.5x slower on a
 * 1600 x 1600 layer).
 */
void
packPanelTransposed(const Matrix &weights, std::size_t j0,
                    std::size_t jn, float *panel)
{
    constexpr std::size_t kSlice = 16;
    const std::size_t in = weights.cols();
    for (std::size_t k0 = 0; k0 < in; k0 += kSlice) {
        const std::size_t k1 = std::min(in, k0 + kSlice);
        for (std::size_t t = 0; t < jn; ++t) {
            const auto wrow = weights.row(j0 + t);
            for (std::size_t k = k0; k < k1; ++k)
                panel[k * kTile + t] = wrow[k];
        }
    }
}

PackedLayer
packLayer(const Matrix &weights, std::span<const float> bias)
{
    PackedLayer layer;
    layer.in = weights.cols();
    layer.out = weights.rows();
    layer.tiles = (layer.out + kTile - 1) / kTile;
    layer.packed.assign(layer.tiles * layer.in * kTile, 0.0f);
    layer.bias.assign(bias.begin(), bias.end());
    for (std::size_t tile = 0; tile < layer.tiles; ++tile) {
        const std::size_t j0 = tile * kTile;
        packPanelTransposed(weights, j0, std::min(kTile, layer.out - j0),
                            layer.packed.data() + tile * layer.in * kTile);
    }
    return layer;
}

/**
 * y[r][j] = sum_k x[r][k] * W[j][k] + bias[j] for rows [r0, r1) and
 * the output channels of one packed panel.
 */
void
gemmPanel(const float *ASR_RESTRICT xd, std::size_t in,
          const float *ASR_RESTRICT panel,
          const float *ASR_RESTRICT bias, std::size_t j0,
          std::size_t jn, float *ASR_RESTRICT yd, std::size_t out,
          std::size_t r0, std::size_t r1)
{
    for (std::size_t r = r0; r < r1; ++r) {
        const float *ASR_RESTRICT xrow = xd + r * in;
        float acc[kTile] = {};
        for (std::size_t k = 0; k < in; ++k) {
            const float xv = xrow[k];
            const float *ASR_RESTRICT p = panel + k * kTile;
            for (std::size_t t = 0; t < kTile; ++t)
                acc[t] += xv * p[t];
        }
        float *ASR_RESTRICT yrow = yd + r * out;
        for (std::size_t t = 0; t < jn; ++t)
            yrow[j0 + t] = acc[t] + bias[j0 + t];
    }
}

/** Signature shared by gemmPanel and the row-blocked SIMD kernels. */
using PanelKernel = void (*)(const float *ASR_RESTRICT, std::size_t,
                             const float *ASR_RESTRICT,
                             const float *ASR_RESTRICT, std::size_t,
                             std::size_t, float *ASR_RESTRICT,
                             std::size_t, std::size_t, std::size_t);

/** A panel kernel and the word Backend::isa() reports for it. */
struct PanelDispatch
{
    PanelKernel run;
    std::string_view isa;
};

#if ASR_HAVE_X86_KERNELS

/**
 * Input rows one register-blocked AVX2 pass scores: 3 rows x 4
 * eight-lane accumulators, plus the broadcast x[k] and the loaded
 * weight slices, fill the 16 ymm registers without spilling (4 rows
 * spill accumulators to the stack and measured no faster).
 */
constexpr std::size_t kRegRows = 3;

/**
 * Input rows one register-blocked AVX-512 pass scores: 8 rows x 2
 * sixteen-lane accumulators take 16 of the 32 zmm registers, beside
 * the two weight vectors and the broadcasts (10- and 12-row passes
 * measured no faster).
 */
constexpr std::size_t kRegRows512 = 8;

/**
 * acc[r][t] = sum_k x[r][k] * panel[k][t] for Rows input rows spaced
 * @p in floats apart, over one packed kTile panel.  Each 8-lane slice
 * of panel row k is loaded once and reused for every row; every lane
 * keeps one f32 accumulator over ascending k with a rounded multiply
 * and a separate rounded add, which is exactly gemmPanel's (and the
 * reference's) arithmetic.
 *
 * Compiled for "avx2" alone, never "avx2,fma", so no FMA instruction
 * exists for the compiler to contract the multiply and add into.
 */
template <std::size_t Rows>
__attribute__((target("avx2"))) void
dotRowsAvx2(const float *ASR_RESTRICT x, std::size_t in,
            const float *ASR_RESTRICT panel, float *ASR_RESTRICT acc)
{
    static_assert(kTile == 32, "kernel hard-codes four 8-lane vectors");
    __m256 sum[Rows][4] = {};
    for (std::size_t k = 0; k < in; ++k) {
        const float *ASR_RESTRICT p = panel + k * kTile;
        const __m256 w[4] = {_mm256_loadu_ps(p), _mm256_loadu_ps(p + 8),
                             _mm256_loadu_ps(p + 16),
                             _mm256_loadu_ps(p + 24)};
        for (std::size_t r = 0; r < Rows; ++r) {
            const __m256 xv = _mm256_set1_ps(x[r * in + k]);
            for (std::size_t v = 0; v < 4; ++v)
                sum[r][v] =
                    _mm256_add_ps(sum[r][v], _mm256_mul_ps(xv, w[v]));
        }
    }
    for (std::size_t r = 0; r < Rows; ++r)
        for (std::size_t v = 0; v < 4; ++v)
            _mm256_storeu_ps(acc + r * kTile + 8 * v, sum[r][v]);
}

/**
 * dotRowsAvx2's contract on AVX-512F: each 32-lane panel row k is
 * loaded once as two 16-lane vectors and reused for every row, with
 * a rounded multiply and a separate rounded add per lane in
 * ascending-k order -- again exactly the reference's arithmetic.
 * The "avx512f" target implies FMA, so only the library's
 * -ffp-contract=off keeps the two instructions apart.
 */
template <std::size_t Rows>
__attribute__((target("avx512f"))) void
dotRowsAvx512(const float *ASR_RESTRICT x, std::size_t in,
              const float *ASR_RESTRICT panel, float *ASR_RESTRICT acc)
{
    static_assert(kTile == 32, "kernel hard-codes two 16-lane vectors");
    __m512 sum[Rows][2] = {};
    for (std::size_t k = 0; k < in; ++k) {
        const float *ASR_RESTRICT p = panel + k * kTile;
        const __m512 w[2] = {_mm512_loadu_ps(p), _mm512_loadu_ps(p + 16)};
        for (std::size_t r = 0; r < Rows; ++r) {
            const __m512 xv = _mm512_set1_ps(x[r * in + k]);
            for (std::size_t v = 0; v < 2; ++v)
                sum[r][v] =
                    _mm512_add_ps(sum[r][v], _mm512_mul_ps(xv, w[v]));
        }
    }
    for (std::size_t r = 0; r < Rows; ++r)
        for (std::size_t v = 0; v < 2; ++v)
            _mm512_storeu_ps(acc + r * kTile + 16 * v, sum[r][v]);
}

/** Sums @p n rows (at most one pass's worth) into acc[0 .. n). */
using DotRows = void (*)(std::size_t n, const float *ASR_RESTRICT x,
                         std::size_t in,
                         const float *ASR_RESTRICT panel,
                         float *ASR_RESTRICT acc);

/**
 * The AVX2 pass: three rows at once, or each of fewer rows alone.
 */
void
dotPassAvx2(std::size_t n, const float *ASR_RESTRICT x, std::size_t in,
            const float *ASR_RESTRICT panel, float *ASR_RESTRICT acc)
{
    if (n == kRegRows) {
        dotRowsAvx2<kRegRows>(x, in, panel, acc);
        return;
    }
    for (std::size_t i = 0; i < n; ++i)
        dotRowsAvx2<1>(x + i * in, in, panel, acc + i * kTile);
}

/**
 * The AVX-512 pass: all @p n <= Rows rows in one pass of
 * dotRowsAvx512<n>, so a leftover of up to seven rows still streams
 * the panel once.
 */
template <std::size_t Rows = kRegRows512>
void
dotPassAvx512(std::size_t n, const float *ASR_RESTRICT x,
              std::size_t in, const float *ASR_RESTRICT panel,
              float *ASR_RESTRICT acc)
{
    if constexpr (Rows > 1) {
        if (n < Rows) {
            dotPassAvx512<Rows - 1>(n, x, in, panel, acc);
            return;
        }
    }
    dotRowsAvx512<Rows>(x, in, panel, acc);
}

/**
 * gemmPanel's contract over a register-blocked kernel: rows [r0, r1)
 * go Block at a time, and the leftover rows as one shorter pass,
 * through Pass; the bias is added after each full sum.  Every row's
 * outputs depend only on that row, so a frame scores the same in any
 * batch.
 */
template <std::size_t Block, DotRows Pass>
void
panelRows(const float *ASR_RESTRICT xd, std::size_t in,
          const float *ASR_RESTRICT panel, const float *ASR_RESTRICT bias,
          std::size_t j0, std::size_t jn, float *ASR_RESTRICT yd,
          std::size_t out, std::size_t r0, std::size_t r1)
{
    float acc[Block * kTile] = {};
    for (std::size_t r = r0; r < r1;) {
        const std::size_t n = std::min(Block, r1 - r);
        Pass(n, xd + r * in, in, panel, acc);
        for (std::size_t i = 0; i < n; ++i) {
            float *ASR_RESTRICT yrow = yd + (r + i) * out;
            for (std::size_t t = 0; t < jn; ++t)
                yrow[j0 + t] = acc[i * kTile + t] + bias[j0 + t];
        }
        r += n;
    }
}

#endif // ASR_HAVE_X86_KERNELS

/**
 * The panel kernel the dispatch predicates resolve to right now: the
 * eight-row AVX-512 loop, else the three-row AVX2 loop, else the
 * scalar gemmPanel.
 */
PanelDispatch
pickPanelKernel()
{
#if ASR_HAVE_X86_KERNELS
    if (cpu::hasAvx512())
        return {&panelRows<kRegRows512, &dotPassAvx512<>>, "avx512"};
    if (cpu::hasAvx2())
        return {&panelRows<kRegRows, &dotPassAvx2>, "avx2"};
#endif
    return {&gemmPanel, "scalar"};
}

/** Full packed-layer GEMM with row blocking for cache reuse. */
void
gemmPacked(const Matrix &x, const PackedLayer &layer, Matrix &y,
           PanelKernel kernel)
{
    const std::size_t rows = x.rows();
    const float *xd = x.data().data();
    float *yd = y.data().data();
    for (std::size_t r0 = 0; r0 < rows; r0 += kRowBlock) {
        const std::size_t r1 = std::min(rows, r0 + kRowBlock);
        for (std::size_t tile = 0; tile < layer.tiles; ++tile) {
            const float *panel =
                layer.packed.data() + tile * layer.in * kTile;
            const std::size_t j0 = tile * kTile;
            const std::size_t jn = std::min(kTile, layer.out - j0);
            kernel(xd, layer.in, panel, layer.bias.data(), j0, jn, yd,
                   layer.out, r0, r1);
        }
    }
}

/**
 * The serving backend: the row-blocked AVX-512 kernel when
 * cpu::hasAvx512() at construction, else the AVX2 one when
 * cpu::hasAvx2(), else scalar gemmPanel.  Bit-identical to reference
 * on each.
 */
class BlockedBackend final : public Backend
{
  public:
    explicit BlockedBackend(const Dnn &dnn)
        : Backend(dnn.config().inputDim, dnn.config().outputDim),
          kernel(pickPanelKernel())
    {
        for (std::size_t l = 0; l < dnn.numLayers(); ++l)
            layers.push_back(packLayer(dnn.layerWeights(l),
                                       dnn.layerBias(l)));
    }

    BackendKind kind() const override { return BackendKind::Blocked; }

    std::string_view isa() const override { return kernel.isa; }

    Matrix
    scoreBatch(const Matrix &input) const override
    {
        ASR_ASSERT(input.cols() == inputDim(),
                   "backend input dim %zu != %zu", input.cols(),
                   inputDim());
        ASR_ASSERT(!layers.empty(), "backend has no layers");
        // Layer 0 reads the caller's matrix directly (no batch copy
        // -- this is the serving hot path, one call per tick).
        const Matrix *x = &input;
        Matrix cur;
        for (std::size_t l = 0; l < layers.size(); ++l) {
            Matrix y(x->rows(), layers[l].out);
            gemmPacked(*x, layers[l], y, kernel.run);
            if (l + 1 < layers.size())
                reluInPlace(y);
            cur = std::move(y);
            x = &cur;
        }
        logSoftmaxRows(cur);
        return cur;
    }

  private:
    std::vector<PackedLayer> layers;
    PanelDispatch kernel;
};

} // namespace

std::unique_ptr<Backend>
Backend::create(BackendKind kind, const Dnn &dnn)
{
    switch (kind) {
      case BackendKind::Reference:
        return std::make_unique<ReferenceBackend>(dnn);
      case BackendKind::Blocked:
        return std::make_unique<BlockedBackend>(dnn);
    }
    panic("unknown backend kind %d", int(kind));
}

Matrix
blockedGemm(const Matrix &a, const Matrix &b, GemmRhs rhs,
            std::span<const float> bias)
{
    const bool transposed = rhs == GemmRhs::Transposed;
    const std::size_t m = a.rows(), in = a.cols();
    const std::size_t n = transposed ? b.rows() : b.cols();
    ASR_ASSERT((transposed ? b.cols() : b.rows()) == in,
               "blockedGemm shape mismatch");
    ASR_ASSERT(bias.empty() || bias.size() == n,
               "blockedGemm bias size mismatch");
    // The kernels always add a bias.  Adding +0 changes no sum: an
    // accumulator that starts at +0 can never become -0.
    const std::vector<float> zeros(bias.empty() ? n : 0, 0.0f);
    const float *bd = bias.empty() ? zeros.data() : bias.data();
    const PanelKernel kernel = pickPanelKernel().run;

    Matrix y(m, n);
    std::vector<float> panel(in * kTile, 0.0f);
    for (std::size_t j0 = 0; j0 < n; j0 += kTile) {
        const std::size_t jn = std::min(kTile, n - j0);
        if (jn < kTile)  // the last panel: clear the previous one's lanes
            std::fill(panel.begin(), panel.end(), 0.0f);
        if (transposed) {
            packPanelTransposed(b, j0, jn, panel.data());
        } else {
            for (std::size_t k = 0; k < in; ++k)
                std::copy_n(b.row(k).data() + j0, jn,
                            panel.data() + k * kTile);
        }
        kernel(a.data().data(), in, panel.data(), bd, j0, jn,
               y.data().data(), n, 0, m);
    }
    return y;
}

} // namespace asr::acoustic
