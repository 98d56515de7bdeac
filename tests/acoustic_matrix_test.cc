/**
 * @file
 * Tests for the dense matrix kernels behind the DNN.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "acoustic/matrix.hh"

using namespace asr::acoustic;

TEST(Matrix, ShapeAndAccess)
{
    Matrix m(2, 3);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    m.at(1, 2) = 5.0f;
    EXPECT_FLOAT_EQ(m.at(1, 2), 5.0f);
    EXPECT_FLOAT_EQ(m.at(0, 0), 0.0f);  // zero initialized
    EXPECT_EQ(m.row(1).size(), 3u);
    EXPECT_FLOAT_EQ(m.row(1)[2], 5.0f);
}

TEST(Matrix, MatmulTransposedAgreesWithMatmul)
{
    Matrix a(3, 4), bt(5, 4);
    for (std::size_t i = 0; i < a.data().size(); ++i)
        a.data()[i] = float(i) * 0.25f - 1.0f;
    for (std::size_t i = 0; i < bt.data().size(); ++i)
        bt.data()[i] = float(i % 7) - 3.0f;

    // a * bt^T worked by hand; every product and partial sum is a
    // multiple of 0.25 small enough to be exact in float.
    const float want[3][5] = {{5.0f, -3.25f, 2.5f, -2.25f, 0.0f},
                              {-1.0f, -0.25f, 0.5f, -2.25f, 2.0f},
                              {-7.0f, 2.75f, -1.5f, -2.25f, 4.0f}};
    const Matrix x = matmulTransposed(a, bt);
    ASSERT_EQ(x.rows(), 3u);
    ASSERT_EQ(x.cols(), 5u);
    for (std::size_t r = 0; r < x.rows(); ++r)
        for (std::size_t c = 0; c < x.cols(); ++c)
            ASSERT_EQ(x.at(r, c), want[r][c]) << r << ", " << c;
}

TEST(Matrix, AddRowBias)
{
    Matrix m(2, 2);
    std::vector<float> bias{1.0f, -2.0f};
    addRowBias(m, bias);
    EXPECT_FLOAT_EQ(m.at(0, 0), 1.0f);
    EXPECT_FLOAT_EQ(m.at(0, 1), -2.0f);
    EXPECT_FLOAT_EQ(m.at(1, 0), 1.0f);
    EXPECT_FLOAT_EQ(m.at(1, 1), -2.0f);
}

TEST(Matrix, ReluClampsNegatives)
{
    Matrix m(1, 4);
    float v[] = {-1.0f, 0.0f, 2.0f, -0.5f};
    std::copy(v, v + 4, m.data().begin());
    reluInPlace(m);
    EXPECT_FLOAT_EQ(m.at(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(m.at(0, 1), 0.0f);
    EXPECT_FLOAT_EQ(m.at(0, 2), 2.0f);
    EXPECT_FLOAT_EQ(m.at(0, 3), 0.0f);
}

TEST(Matrix, LogSoftmaxRowsNormalized)
{
    Matrix m(2, 5);
    for (std::size_t c = 0; c < 5; ++c) {
        m.at(0, c) = float(c);
        m.at(1, c) = 100.0f + float(c);  // large values: stability
    }
    logSoftmaxRows(m);
    for (std::size_t r = 0; r < 2; ++r) {
        double sum = 0.0;
        for (std::size_t c = 0; c < 5; ++c) {
            ASSERT_LE(m.at(r, c), 0.0f);
            sum += std::exp(double(m.at(r, c)));
        }
        ASSERT_NEAR(sum, 1.0, 1e-5);
    }
    // Order is preserved: higher logits stay higher.
    EXPECT_GT(m.at(0, 4), m.at(0, 0));
}

TEST(Matrix, LogSoftmaxUniformRow)
{
    Matrix m(1, 4);
    logSoftmaxRows(m);
    for (std::size_t c = 0; c < 4; ++c)
        ASSERT_NEAR(m.at(0, c), std::log(0.25), 1e-6);
}
