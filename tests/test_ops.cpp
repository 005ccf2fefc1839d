// Tests for tensor kernels: elementwise ops, GEMM variants, reductions,
// softmax (forward + backward), norms.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "tensor/ops.hpp"
#include "test_util.hpp"

namespace qcaps::tensor {
namespace {

using testutil::expect_tensor_near;
using testutil::gemm_naive;

TEST(Elementwise, AddSubMul) {
  Tensor a({3}, {1.0f, 2.0f, 3.0f});
  Tensor b({3}, {4.0f, 5.0f, 6.0f});
  expect_tensor_near(add(a, b), Tensor({3}, {5.0f, 7.0f, 9.0f}), 0.0f);
  expect_tensor_near(sub(a, b), Tensor({3}, {-3.0f, -3.0f, -3.0f}), 0.0f);
  expect_tensor_near(mul(a, b), Tensor({3}, {4.0f, 10.0f, 18.0f}), 0.0f);
}

TEST(Elementwise, ShapeMismatchThrows) {
  Tensor a({3}), b({4});
  EXPECT_THROW(add(a, b), qcaps::Error);
  EXPECT_THROW(sub(a, b), qcaps::Error);
  EXPECT_THROW(mul(a, b), qcaps::Error);
}

TEST(Elementwise, AxpyAndScale) {
  Tensor a({2}, {1.0f, 2.0f});
  Tensor b({2}, {10.0f, 20.0f});
  axpy(a, 0.5f, b);
  expect_tensor_near(a, Tensor({2}, {6.0f, 12.0f}), 1e-6f);
  scale(a, 2.0f);
  expect_tensor_near(a, Tensor({2}, {12.0f, 24.0f}), 1e-6f);
}

TEST(Elementwise, Clamp) {
  Tensor a({4}, {-2.0f, -0.5f, 0.5f, 2.0f});
  clamp(a, -1.0f, 1.0f);
  expect_tensor_near(a, Tensor({4}, {-1.0f, -0.5f, 0.5f, 1.0f}), 0.0f);
}

TEST(Gemm, MatchesNaiveReference) {
  common::Rng rng(1);
  const Tensor a = Tensor::randn({7, 13}, rng);
  const Tensor b = Tensor::randn({13, 9}, rng);
  expect_tensor_near(matmul(a, b), gemm_naive(a, b), 1e-4f, "matmul");
}

TEST(Gemm, LargeEnoughToTriggerParallelPath) {
  common::Rng rng(2);
  const Tensor a = Tensor::randn({64, 96}, rng);
  const Tensor b = Tensor::randn({96, 80}, rng);
  expect_tensor_near(matmul(a, b), gemm_naive(a, b), 5e-4f, "parallel matmul");
}

TEST(Gemm, InnerDimMismatchThrows) {
  Tensor a({2, 3}), b({4, 5});
  EXPECT_THROW(matmul(a, b), qcaps::Error);
}

TEST(Gemm, TransposedAVariant) {
  common::Rng rng(3);
  const Tensor a = Tensor::randn({11, 6}, rng);  // [K, M]
  const Tensor b = Tensor::randn({11, 8}, rng);  // [K, N]
  expect_tensor_near(matmul_tn(a, b), gemm_naive(transpose2d(a), b), 1e-4f,
                     "matmul_tn");
}

TEST(Gemm, TransposedBVariant) {
  common::Rng rng(4);
  const Tensor a = Tensor::randn({6, 11}, rng);  // [M, K]
  const Tensor b = Tensor::randn({8, 11}, rng);  // [N, K]
  expect_tensor_near(matmul_nt(a, b), gemm_naive(a, transpose2d(b)), 1e-4f,
                     "matmul_nt");
}

TEST(Gemm, RawAccumulateMode) {
  const Tensor a({1, 2}, {1.0f, 1.0f});
  const Tensor b({2, 1}, {2.0f, 3.0f});
  Tensor c({1, 1}, {10.0f});
  gemm(a.data(), b.data(), c.data(), 1, 2, 1, /*accumulate=*/true);
  EXPECT_FLOAT_EQ(c[0], 15.0f);
  gemm(a.data(), b.data(), c.data(), 1, 2, 1, /*accumulate=*/false);
  EXPECT_FLOAT_EQ(c[0], 5.0f);
}

TEST(Transpose, RoundTrip) {
  common::Rng rng(5);
  const Tensor a = Tensor::randn({5, 9}, rng);
  expect_tensor_near(transpose2d(transpose2d(a)), a, 0.0f);
}

TEST(Reduce, SumLastAxis) {
  Tensor a({2, 3}, {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f});
  const Tensor s = reduce_sum_last(a);
  ASSERT_EQ(s.ndim(), 1);
  EXPECT_FLOAT_EQ(s[0], 6.0f);
  EXPECT_FLOAT_EQ(s[1], 15.0f);
}

TEST(Reduce, ArgmaxRows) {
  Tensor a({2, 3}, {1.0f, 9.0f, 3.0f, 7.0f, 5.0f, 6.0f});
  const auto idx = argmax_rows(a);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(Softmax, RowsSumToOne) {
  common::Rng rng(6);
  const Tensor x = Tensor::randn({10, 7}, rng, 0.0f, 3.0f);
  const Tensor y = softmax_last(x);
  for (std::int64_t r = 0; r < 10; ++r) {
    float sum = 0.0f;
    for (std::int64_t j = 0; j < 7; ++j) sum += y.at({r, j});
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Softmax, InvariantToShift) {
  Tensor a({1, 3}, {1.0f, 2.0f, 3.0f});
  Tensor b({1, 3}, {101.0f, 102.0f, 103.0f});
  expect_tensor_near(softmax_last(a), softmax_last(b), 1e-6f);
}

TEST(Softmax, StableForLargeLogits) {
  Tensor a({1, 2}, {1000.0f, -1000.0f});
  const Tensor y = softmax_last(a);
  EXPECT_NEAR(y[0], 1.0f, 1e-6f);
  EXPECT_NEAR(y[1], 0.0f, 1e-6f);
}

TEST(Softmax, OrderPreserved) {
  Tensor a({1, 4}, {0.1f, 3.0f, -1.0f, 2.0f});
  const Tensor y = softmax_last(a);
  EXPECT_GT(y[1], y[3]);
  EXPECT_GT(y[3], y[0]);
  EXPECT_GT(y[0], y[2]);
}

TEST(Norm, L2LastAxis) {
  Tensor a({1, 2}, {3.0f, 4.0f});
  const Tensor n = l2_norm_last(a, 0.0f);
  EXPECT_NEAR(n[0], 5.0f, 1e-6f);
}

TEST(Norm, EpsGuardsZeroVector) {
  Tensor a({1, 3});
  const Tensor n = l2_norm_last(a);
  EXPECT_GT(n[0], 0.0f);
  EXPECT_LT(n[0], 1e-3f);
}

TEST(Bias, AddRowBias) {
  Tensor a({2, 3});
  const Tensor b({3}, {1.0f, 2.0f, 3.0f});
  add_row_bias(a, b);
  EXPECT_FLOAT_EQ((a.at({0, 0})), 1.0f);
  EXPECT_FLOAT_EQ((a.at({1, 2})), 3.0f);
}

TEST(Bias, SizeMismatchThrows) {
  Tensor a({2, 3});
  const Tensor b({4});
  EXPECT_THROW(add_row_bias(a, b), qcaps::Error);
}

}  // namespace
}  // namespace qcaps::tensor
