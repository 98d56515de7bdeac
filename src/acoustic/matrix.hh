/**
 * @file
 * Minimal dense float matrix used by the DNN acoustic model.  Row
 * major.  Only the operations the DNN needs; this is deliberately not
 * a general linear-algebra library.
 */

#ifndef ASR_ACOUSTIC_MATRIX_HH
#define ASR_ACOUSTIC_MATRIX_HH

#include <cstddef>
#include <span>
#include <vector>

namespace asr::acoustic {

/** Row-major dense matrix of float. */
class Matrix
{
  public:
    Matrix() = default;

    /** rows x cols matrix, zero initialized. */
    Matrix(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, 0.0f)
    {
    }

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    float &at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
    float at(std::size_t r, std::size_t c) const
    {
        return data_[r * cols_ + c];
    }

    /** Row @p r as a span. */
    std::span<float> row(std::size_t r)
    {
        return {data_.data() + r * cols_, cols_};
    }
    std::span<const float> row(std::size_t r) const
    {
        return {data_.data() + r * cols_, cols_};
    }

    std::vector<float> &data() { return data_; }
    const std::vector<float> &data() const { return data_; }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<float> data_;
};

/** out = a * b^T  (a: m x k, b: n x k); cache-friendly for layers. */
Matrix matmulTransposed(const Matrix &a, const Matrix &bt);

/** Add @p bias to every row of @p m in place. */
void addRowBias(Matrix &m, std::span<const float> bias);

/** In-place ReLU. */
void reluInPlace(Matrix &m);

/**
 * In-place log-softmax of one score row.  Every scoring path (batch
 * matrices, single streamed frames, all acoustic backends) must
 * normalize through this exact function: the float paths' bit-identity
 * contract includes the normalization, not just the GEMM.
 */
void logSoftmaxRow(std::span<float> row);

/** In-place row-wise log-softmax (logSoftmaxRow per row). */
void logSoftmaxRows(Matrix &m);

} // namespace asr::acoustic

#endif // ASR_ACOUSTIC_MATRIX_HH
