// Tests for im2col convolution: forward vs a naive reference, parameterized
// over stride/padding, and gradient checks for input/weight/bias.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/error.hpp"
#include "common/rng.hpp"
#include "tensor/conv.hpp"
#include "tensor/gemm.hpp"
#include "test_util.hpp"

namespace qcaps::tensor {
namespace {

using testutil::expect_tensor_near;

/// Direct (quadruple-loop) convolution reference.
Tensor naive_conv2d(const Tensor& input, const Tensor& weight,
                    const Tensor& bias, std::int64_t stride, std::int64_t pad) {
  const std::int64_t b = input.dim(0), c = input.dim(1), h = input.dim(2),
                     w = input.dim(3);
  const std::int64_t f = weight.dim(0), k = weight.dim(2);
  const std::int64_t oh = (h + 2 * pad - k) / stride + 1;
  const std::int64_t ow = (w + 2 * pad - k) / stride + 1;
  Tensor out({b, f, oh, ow});
  for (std::int64_t bi = 0; bi < b; ++bi)
    for (std::int64_t fi = 0; fi < f; ++fi)
      for (std::int64_t y = 0; y < oh; ++y)
        for (std::int64_t x = 0; x < ow; ++x) {
          double acc = bias.empty() ? 0.0 : bias[fi];
          for (std::int64_t ci = 0; ci < c; ++ci)
            for (std::int64_t ky = 0; ky < k; ++ky)
              for (std::int64_t kx = 0; kx < k; ++kx) {
                const std::int64_t iy = y * stride + ky - pad;
                const std::int64_t ix = x * stride + kx - pad;
                if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
                acc += static_cast<double>(input.at({bi, ci, iy, ix})) *
                       weight.at({fi, ci, ky, kx});
              }
          out.at({bi, fi, y, x}) = static_cast<float>(acc);
        }
  return out;
}

class ConvGeometry
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(ConvGeometry, ForwardMatchesNaive) {
  const auto [size, kernel, stride, pad] = GetParam();
  common::Rng rng(static_cast<std::uint64_t>(size * 100 + kernel * 10 + stride));
  const Tensor input = Tensor::randn({2, 3, size, size}, rng);
  const Tensor weight = Tensor::randn({4, 3, kernel, kernel}, rng);
  const Tensor bias = Tensor::randn({4}, rng);
  const Tensor got = conv2d_forward(input, weight, bias, stride, pad);
  const Tensor want = naive_conv2d(input, weight, bias, stride, pad);
  expect_tensor_near(got, want, 1e-4f, "conv forward");
}

INSTANTIATE_TEST_SUITE_P(
    StridePadSweep, ConvGeometry,
    ::testing::Values(std::make_tuple(8, 3, 1, 0), std::make_tuple(8, 3, 1, 1),
                      std::make_tuple(9, 3, 2, 1), std::make_tuple(12, 5, 2, 2),
                      std::make_tuple(10, 1, 1, 0), std::make_tuple(9, 9, 1, 0),
                      std::make_tuple(11, 3, 3, 0),
                      std::make_tuple(7, 5, 1, 2)));

TEST(Conv, OutputShape) {
  common::Rng rng(1);
  const Tensor input = Tensor::randn({1, 2, 28, 28}, rng);
  const Tensor weight = Tensor::randn({8, 2, 9, 9}, rng);
  const Tensor out = conv2d_forward(input, weight, Tensor(), 2, 0);
  EXPECT_EQ(out.shape(), (Shape{1, 8, 10, 10}));
}

TEST(Conv, NoBiasSupported) {
  common::Rng rng(2);
  const Tensor input = Tensor::randn({1, 1, 5, 5}, rng);
  const Tensor weight = Tensor::randn({1, 1, 3, 3}, rng);
  const Tensor got = conv2d_forward(input, weight, Tensor(), 1, 0);
  const Tensor want = naive_conv2d(input, weight, Tensor(), 1, 0);
  expect_tensor_near(got, want, 1e-5f);
}

TEST(Conv, RejectsChannelMismatch) {
  const Tensor input({1, 2, 5, 5});
  const Tensor weight({1, 3, 3, 3});
  EXPECT_THROW(conv2d_forward(input, weight, Tensor(), 1, 0), qcaps::Error);
}

TEST(Conv, RejectsEmptyOutput) {
  const Tensor input({1, 1, 3, 3});
  const Tensor weight({1, 1, 5, 5});
  EXPECT_THROW(conv2d_forward(input, weight, Tensor(), 1, 0), qcaps::Error);
}

TEST(Im2col, IdentityKernelReproducesImage) {
  common::Rng rng(3);
  const Tensor img = Tensor::randn({1, 1, 4, 4}, rng);
  Conv2dGeom g;
  g.in_c = 1;
  g.in_h = 4;
  g.in_w = 4;
  g.out_c = 1;
  g.kernel = 1;
  g.stride = 1;
  g.pad = 0;
  std::vector<float> cols(16);
  im2col(img.data(), g, cols.data());
  for (int i = 0; i < 16; ++i) EXPECT_FLOAT_EQ(cols[static_cast<std::size_t>(i)], img[i]);
}

TEST(Im2col, Col2imAccumulatesOverlaps) {
  // A 3x3 kernel at stride 1 over a 3x3 image with pad 1: center pixel is
  // touched 9 times; col2im of all-ones columns must count the touches.
  Conv2dGeom g;
  g.in_c = 1;
  g.in_h = 3;
  g.in_w = 3;
  g.out_c = 1;
  g.kernel = 3;
  g.stride = 1;
  g.pad = 1;
  const std::int64_t ncols = g.out_h() * g.out_w();
  std::vector<float> cols(static_cast<std::size_t>(9 * ncols), 1.0f);
  Tensor img({1, 1, 3, 3});
  col2im(cols.data(), g, img.data());
  EXPECT_FLOAT_EQ((img.at({0, 0, 1, 1})), 9.0f);
  EXPECT_FLOAT_EQ((img.at({0, 0, 0, 0})), 4.0f);  // corner
}

TEST(ConvBackward, GradInputMatchesFiniteDifference) {
  common::Rng rng(4);
  const Tensor input = Tensor::randn({1, 2, 6, 6}, rng);
  const Tensor weight = Tensor::randn({3, 2, 3, 3}, rng, 0.0f, 0.5f);
  const Tensor bias = Tensor::randn({3}, rng);
  const Tensor out = conv2d_forward(input, weight, bias, 1, 1);
  const testutil::WeightedSum head(out.shape());
  auto grads = conv2d_backward(input, weight, head.grad(), 1, 1, true);
  auto loss = [&](const Tensor& in) {
    return head(conv2d_forward(in, weight, bias, 1, 1));
  };
  testutil::check_gradient(input, loss, grads.grad_input);
}

TEST(ConvBackward, FusedCol2imScatterMatchesMaterializedReference) {
  // conv2d_backward scatters the W^T * gO product straight through the
  // col2im map (gemm_scatter_c) instead of materializing grad_cols. Against
  // the explicit gemm_ex + col2im composition only the order of the
  // overlap-sum additions may differ, so the gradients must agree to float
  // reassociation tolerance across stride/pad geometries.
  common::Rng rng(7);
  for (const auto& [stride, pad] :
       {std::pair{1, 0}, {1, 1}, {2, 0}, {2, 1}, {3, 2}}) {
    const Tensor input = Tensor::randn({2, 3, 9, 9}, rng);
    const Tensor weight = Tensor::randn({4, 3, 3, 3}, rng, 0.0f, 0.5f);
    const Tensor out = conv2d_forward(input, weight, Tensor(), stride, pad);
    const Tensor grad_out = Tensor::randn(out.shape(), rng);
    const auto grads =
        conv2d_backward(input, weight, grad_out, stride, pad, false);

    Conv2dGeom g;
    g.in_c = 3;
    g.in_h = 9;
    g.in_w = 9;
    g.out_c = 4;
    g.kernel = 3;
    g.stride = stride;
    g.pad = pad;
    const std::int64_t patch = g.in_c * g.kernel * g.kernel;
    const std::int64_t ncols = g.out_h() * g.out_w();
    Tensor want(input.shape());
    std::vector<float> gcols(static_cast<std::size_t>(patch * ncols));
    for (std::int64_t b = 0; b < 2; ++b) {
      gemm_ex(Trans::kT, Trans::kN, patch, ncols, g.out_c, weight.data(),
              patch, grad_out.data() + b * g.out_c * ncols, ncols,
              gcols.data(), ncols, /*accumulate=*/false);
      col2im(gcols.data(), g, want.data() + b * g.in_c * g.in_h * g.in_w);
    }
    const std::string label = "fused col2im stride=" + std::to_string(stride) +
                              " pad=" + std::to_string(pad);
    expect_tensor_near(grads.grad_input, want, 1e-4f, label.c_str());
  }
}

TEST(ConvBackward, GradInputFiniteDifferenceThroughStridedScatter) {
  // Finite-difference lock on the fused col2im backward over a geometry
  // where the scatter is non-trivial: stride 2 with padding drops edge
  // columns and interleaves kernel taps, and batch 2 runs the per-image
  // parallel loop.
  common::Rng rng(8);
  const Tensor input = Tensor::randn({2, 2, 7, 7}, rng);
  const Tensor weight = Tensor::randn({3, 2, 3, 3}, rng, 0.0f, 0.5f);
  const Tensor out = conv2d_forward(input, weight, Tensor(), 2, 1);
  const testutil::WeightedSum head(out.shape());
  const auto grads = conv2d_backward(input, weight, head.grad(), 2, 1, false);
  auto loss = [&](const Tensor& in) {
    return head(conv2d_forward(in, weight, Tensor(), 2, 1));
  };
  testutil::check_gradient(input, loss, grads.grad_input);
}

TEST(ConvBackward, GradWeightMatchesFiniteDifference) {
  common::Rng rng(5);
  const Tensor input = Tensor::randn({2, 2, 5, 5}, rng);
  const Tensor weight = Tensor::randn({2, 2, 3, 3}, rng, 0.0f, 0.5f);
  const Tensor out = conv2d_forward(input, weight, Tensor(), 2, 0);
  const testutil::WeightedSum head(out.shape());
  auto grads = conv2d_backward(input, weight, head.grad(), 2, 0, false);
  auto loss = [&](const Tensor& w) {
    return head(conv2d_forward(input, w, Tensor(), 2, 0));
  };
  testutil::check_gradient(weight, loss, grads.grad_weight);
}

TEST(ConvBackward, GradBiasIsOutputGradSum) {
  common::Rng rng(6);
  const Tensor input = Tensor::randn({2, 1, 4, 4}, rng);
  const Tensor weight = Tensor::randn({2, 1, 3, 3}, rng);
  const Tensor bias({2});
  const Tensor out = conv2d_forward(input, weight, bias, 1, 0);
  Tensor grad_out(out.shape(), 1.0f);
  auto grads = conv2d_backward(input, weight, grad_out, 1, 0, true);
  // Each bias gradient = number of output positions per filter x batch.
  const float expected = static_cast<float>(out.dim(0) * out.dim(2) * out.dim(3));
  EXPECT_FLOAT_EQ(grads.grad_bias[0], expected);
  EXPECT_FLOAT_EQ(grads.grad_bias[1], expected);
}

// The weight/bias gradients are reductions over per-thread partials; they
// are summed in thread-id order, so repeated calls at one team size give the
// same bits (in arrival order, a 4-thread team gave differing sums).
TEST(ConvBackward, WeightGradientIsBitReproducibleAtFourThreads) {
#ifdef _OPENMP
  const int threads = omp_get_max_threads();
  omp_set_num_threads(4);
#endif
  common::Rng rng(8);
  const Tensor input = Tensor::randn({32, 3, 16, 16}, rng);
  const Tensor weight = Tensor::randn({8, 3, 3, 3}, rng, 0.0f, 0.5f);
  const Tensor grad_out = Tensor::randn({32, 8, 16, 16}, rng);
  const Conv2dGrads ref = conv2d_backward(input, weight, grad_out, 1, 1, true);
  int differing = 0;
  for (int rep = 0; rep < 50; ++rep) {
    const Conv2dGrads g = conv2d_backward(input, weight, grad_out, 1, 1, true);
    bool same = true;
    for (std::int64_t i = 0; i < g.grad_weight.numel(); ++i)
      same = same && g.grad_weight[i] == ref.grad_weight[i];
    for (std::int64_t i = 0; i < g.grad_bias.numel(); ++i)
      same = same && g.grad_bias[i] == ref.grad_bias[i];
    differing += same ? 0 : 1;
  }
#ifdef _OPENMP
  omp_set_num_threads(threads);
#endif
  EXPECT_EQ(differing, 0);
}

TEST(ConvBackward, GradOutputShapeChecked) {
  const Tensor input({1, 1, 5, 5});
  const Tensor weight({1, 1, 3, 3});
  const Tensor bad_grad({1, 1, 9, 9});
  EXPECT_THROW(conv2d_backward(input, weight, bad_grad, 1, 0, false),
               qcaps::Error);
}

}  // namespace
}  // namespace qcaps::tensor
