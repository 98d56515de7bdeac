#include "acoustic/matrix.hh"

#include <algorithm>
#include <cmath>

#include "common/compiler.hh"
#include "common/logging.hh"

namespace asr::acoustic {

Matrix
matmulTransposed(const Matrix &a, const Matrix &bt)
{
    ASR_ASSERT(a.cols() == bt.cols(), "matmulT shape mismatch");
    Matrix out(a.rows(), bt.rows());
    const std::size_t m = a.rows(), kk = a.cols(), n = bt.rows();
    // Raw restrict-qualified pointers hoisted out of the loops: the
    // span construction the old code did per (i, j) pair defeated the
    // vectorizer, and without the aliasing promise the compiler must
    // assume `out` overlaps the inputs.
    const float *ASR_RESTRICT ad = a.data().data();
    const float *ASR_RESTRICT btd = bt.data().data();
    float *ASR_RESTRICT od = out.data().data();
    for (std::size_t i = 0; i < m; ++i) {
        const float *ASR_RESTRICT arow = ad + i * kk;
        float *ASR_RESTRICT orow = od + i * n;
        for (std::size_t j = 0; j < n; ++j) {
            const float *ASR_RESTRICT brow = btd + j * kk;
            // Single accumulator in ascending-k order: this exact
            // summation order is the reference every float backend
            // must reproduce bit-for-bit (see acoustic/backend.hh).
            float acc = 0.0f;
            for (std::size_t k = 0; k < kk; ++k)
                acc += arow[k] * brow[k];
            orow[j] = acc;
        }
    }
    return out;
}

void
addRowBias(Matrix &m, std::span<const float> bias)
{
    ASR_ASSERT(bias.size() == m.cols(), "bias size mismatch");
    const std::size_t rows = m.rows(), cols = m.cols();
    const float *ASR_RESTRICT bd = bias.data();
    float *ASR_RESTRICT md = m.data().data();
    for (std::size_t r = 0; r < rows; ++r) {
        float *ASR_RESTRICT row = md + r * cols;
        for (std::size_t c = 0; c < cols; ++c)
            row[c] += bd[c];
    }
}

void
reluInPlace(Matrix &m)
{
    for (float &v : m.data())
        v = std::max(v, 0.0f);
}

void
logSoftmaxRow(std::span<float> row)
{
    const float mx = *std::max_element(row.begin(), row.end());
    double sum = 0.0;
    for (float v : row)
        sum += std::exp(double(v) - mx);
    const float lse = mx + float(std::log(sum));
    for (float &v : row)
        v -= lse;
}

void
logSoftmaxRows(Matrix &m)
{
    for (std::size_t r = 0; r < m.rows(); ++r)
        logSoftmaxRow(m.row(r));
}

} // namespace asr::acoustic
