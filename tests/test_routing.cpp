// Tests for dynamic routing-by-agreement on the j-major votes layout
// [R, Nout, Nin, D]: algorithmic properties, the
// quantization points of paper Fig. 9, and full unrolled gradients.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/rng.hpp"
#include "nn/routing.hpp"
#include "tensor/caps_kernels.hpp"
#include "tensor/ops.hpp"
#include "test_util.hpp"

namespace qcaps::nn {
namespace {

tensor::Tensor route(const tensor::Tensor& votes, int iters,
                     DynamicRouting* routing = nullptr, bool tape = false) {
  DynamicRouting local;
  DynamicRouting& r = routing != nullptr ? *routing : local;
  return r.forward(votes, iters, tape, RoutingQuantPoints{});
}

TEST(Routing, OutputShape) {
  common::Rng rng(1);
  const tensor::Tensor votes = tensor::Tensor::randn({3, 4, 6, 5}, rng);
  const tensor::Tensor v = route(votes, 3);
  EXPECT_EQ(v.shape(), (tensor::Shape{3, 4, 5}));
}

TEST(Routing, SingleIterationIsUniformAverageThenSquash) {
  // With one iteration, b = 0, so c = 1/Nout everywhere and
  // s_j = (1/Nout) Σ_i û_ij.
  common::Rng rng(2);
  const std::int64_t nin = 5, nout = 3, d = 4;
  const tensor::Tensor votes = tensor::Tensor::randn({1, nout, nin, d}, rng);
  const tensor::Tensor v = route(votes, 1);
  for (std::int64_t j = 0; j < nout; ++j) {
    tensor::Tensor s({1, d});
    for (std::int64_t i = 0; i < nin; ++i)
      for (std::int64_t k = 0; k < d; ++k)
        s[k] += votes.at({0, j, i, k}) / static_cast<float>(nout);
    // squash s and compare: v = s * n / (1 + n^2).
    float nsq = 0.0f;
    for (std::int64_t k = 0; k < d; ++k) nsq += s[k] * s[k];
    const float gain = std::sqrt(nsq) / (1.0f + nsq);
    for (std::int64_t k = 0; k < d; ++k)
      EXPECT_NEAR((v.at({0, j, k})), gain * s[k], 1e-5f);
  }
}

TEST(Routing, CouplingsFormDistributionOverOutputs) {
  common::Rng rng(3);
  const tensor::Tensor votes = tensor::Tensor::randn({2, 5, 7, 3}, rng);
  DynamicRouting r;
  r.forward(votes, 3, false, RoutingQuantPoints{});
  const tensor::Tensor& c = r.last_coupling();
  ASSERT_EQ(c.shape(), (tensor::Shape{2, 5, 7}));  // [R, Nout, Nin]
  for (std::int64_t b = 0; b < 2; ++b) {
    for (std::int64_t i = 0; i < 7; ++i) {
      float sum = 0.0f;
      for (std::int64_t j = 0; j < 5; ++j) sum += c.at({b, j, i});
      EXPECT_NEAR(sum, 1.0f, 1e-5f);
    }
  }
}

TEST(Routing, AgreementConcentratesCouplings) {
  // Input capsule 0's votes strongly agree with output 0 and are orthogonal
  // to the others: after 3 iterations its coupling to output 0 must exceed
  // the uniform 1/Nout level.
  const std::int64_t nin = 4, nout = 3, d = 4;
  tensor::Tensor votes({1, nout, nin, d});
  common::Rng rng(4);
  for (std::int64_t i = 0; i < nin; ++i)
    for (std::int64_t j = 0; j < nout; ++j)
      for (std::int64_t k = 0; k < d; ++k)
        votes.at({0, j, i, k}) = rng.normal(0.0f, 0.05f);
  // All capsules vote [2,0,0,0] for output 0 -> strong mutual agreement.
  for (std::int64_t i = 0; i < nin; ++i) votes.at({0, 0, i, 0}) = 2.0f;
  DynamicRouting r;
  r.forward(votes, 3, false, RoutingQuantPoints{});
  const tensor::Tensor& c = r.last_coupling();
  for (std::int64_t i = 0; i < nin; ++i)
    EXPECT_GT((c.at({0, 0, i})), 1.0f / static_cast<float>(nout) + 0.05f);
}

TEST(Routing, MoreIterationsSharpenAgreement) {
  const std::int64_t nin = 6, nout = 2, d = 3;
  tensor::Tensor votes({1, nout, nin, d});
  common::Rng rng(5);
  for (std::int64_t i = 0; i < nin; ++i) {
    for (std::int64_t k = 0; k < d; ++k) {
      votes.at({0, 0, i, k}) = 1.0f + rng.normal(0.0f, 0.1f);  // aligned
      votes.at({0, 1, i, k}) = rng.normal(0.0f, 1.0f);         // scattered
    }
  }
  DynamicRouting r1, r3;
  r1.forward(votes, 1, false, RoutingQuantPoints{});
  r3.forward(votes, 3, false, RoutingQuantPoints{});
  const float c1 = r1.last_coupling().at({0, 0, 0});
  const float c3 = r3.last_coupling().at({0, 0, 0});
  EXPECT_GT(c3, c1);
}

TEST(Routing, OutputCapsuleNormsBelowOne) {
  common::Rng rng(6);
  const tensor::Tensor votes = tensor::Tensor::randn({4, 5, 8, 6}, rng, 0.0f, 2.0f);
  const tensor::Tensor v = route(votes, 3);
  const tensor::Tensor norms = tensor::l2_norm_last(v, 0.0f);
  for (std::int64_t i = 0; i < norms.numel(); ++i) EXPECT_LT(norms[i], 1.0f);
}

TEST(Routing, RejectsBadInputs) {
  DynamicRouting r;
  EXPECT_THROW(r.forward(tensor::Tensor({2, 3, 4}), 3, false,
                         RoutingQuantPoints{}),
               qcaps::Error);
  EXPECT_THROW(r.forward(tensor::Tensor({1, 2, 3, 4}), 0, false,
                         RoutingQuantPoints{}),
               qcaps::Error);
  EXPECT_THROW(r.backward(tensor::Tensor({1, 3, 4})), qcaps::Error);
}

TEST(Routing, TapeAndNoTapeForwardsAgreeBitwiseOnEveryTier) {
  // keep_tape only changes where c, s and v are stored, not the loop that
  // computes them, so v and last_coupling must match bit for bit on every
  // tier, with and without each rounding scheme on the Fig. 9 points.
  common::Rng rng(11);
  // nin = 37 exercises the avx2/avx512 softmax_rows_t tails; iterations = 3
  // routes every kernel (iteration_fused twice, weighted_sum_squash once).
  const tensor::Tensor votes = tensor::Tensor::randn({3, 5, 37, 8}, rng);
  const fixed::RoundingScheme schemes[] = {
      fixed::RoundingScheme::kRoundToNearest, fixed::RoundingScheme::kTruncation,
      fixed::RoundingScheme::kStochastic};
  for (tensor::Isa k :
       {tensor::Isa::kScalar, tensor::Isa::kAvx2, tensor::Isa::kAvx512}) {
    if (!tensor::caps_force_kernel(k)) continue;
    for (int q = -1; q < 3; ++q) {
      SCOPED_TRACE(std::string(tensor::caps_kernel_name()) + " " +
                   (q < 0 ? "fp32" : fixed::scheme_name(schemes[q])));
      RoutingQuantPoints qp;
      fixed::Quantizer qa, qdr;
      if (q >= 0) {
        qa = fixed::Quantizer(fixed::FixedFormat(1, 6), schemes[q], 5);
        qdr = fixed::Quantizer(fixed::FixedFormat(2, 4), schemes[q], 6);
        qp.activations = &qa;
        qp.routing = &qdr;
      }
      DynamicRouting taped, plain;
      const tensor::Tensor vt = taped.forward(votes, 3, true, qp);
      const tensor::Tensor vn = plain.forward(votes, 3, false, qp);
      ASSERT_EQ(vt.shape(), vn.shape());
      const tensor::Tensor& ct = taped.last_coupling();
      const tensor::Tensor& cn = plain.last_coupling();
      ASSERT_EQ(ct.shape(), cn.shape());
      for (std::int64_t i = 0; i < vt.numel(); ++i)
        ASSERT_EQ(vt[i], vn[i]) << "v flat " << i;
      for (std::int64_t i = 0; i < ct.numel(); ++i)
        ASSERT_EQ(ct[i], cn[i]) << "c flat " << i;
    }
    tensor::caps_reset_kernel();
  }
}

TEST(RoutingQuant, StochasticRoundingIndependentOfTeamSize) {
#ifndef _OPENMP
  GTEST_SKIP() << "built without OpenMP";
#else
  // SR noise is keyed by each element's index in the whole tensor, so the
  // split of samples over the team must not change a single bit. The shape
  // is large enough for the forward to open its parallel region.
  common::Rng rng(12);
  const tensor::Tensor votes =
      tensor::Tensor::randn({8, 10, 37, 8}, rng, 0.0f, 0.5f);
  const fixed::Quantizer qa(fixed::FixedFormat(1, 5),
                            fixed::RoundingScheme::kStochastic, 3);
  const fixed::Quantizer qdr(fixed::FixedFormat(2, 3),
                             fixed::RoundingScheme::kStochastic, 4);
  RoutingQuantPoints qp;
  qp.activations = &qa;
  qp.routing = &qdr;
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  DynamicRouting one;
  const tensor::Tensor v1 = one.forward(votes, 3, false, qp);
  omp_set_num_threads(3);
  DynamicRouting three;
  const tensor::Tensor v3 = three.forward(votes, 3, false, qp);
  omp_set_num_threads(saved);
  for (std::int64_t i = 0; i < v1.numel(); ++i)
    ASSERT_EQ(v1[i], v3[i]) << "v flat " << i;
#endif
}

class RoutingGrad : public ::testing::TestWithParam<int> {};

TEST_P(RoutingGrad, UnrolledBackwardMatchesFiniteDifference) {
  const int iters = GetParam();
  common::Rng rng(static_cast<std::uint64_t>(iters) + 7);
  const tensor::Tensor votes = tensor::Tensor::randn({2, 3, 4, 3}, rng, 0.0f, 0.7f);
  DynamicRouting r;
  const tensor::Tensor v = r.forward(votes, iters, true, RoutingQuantPoints{});
  const testutil::WeightedSum head(v.shape());
  const tensor::Tensor analytic = r.backward(head.grad());
  auto loss = [&](const tensor::Tensor& in) {
    DynamicRouting probe;
    return head(probe.forward(in, iters, false, RoutingQuantPoints{}));
  };
  testutil::check_gradient(votes, loss, analytic, 1e-3f, 3e-2f, 3e-3f);
}

INSTANTIATE_TEST_SUITE_P(IterationSweep, RoutingGrad, ::testing::Values(1, 2, 3, 4));

TEST(RoutingQuant, RoutingPointsQuantizeInternals) {
  // With an extremely coarse QDR the routed output must collapse onto a much
  // coarser set of values than the FP32 reference.
  common::Rng rng(8);
  const tensor::Tensor votes = tensor::Tensor::randn({2, 4, 6, 4}, rng, 0.0f, 0.5f);
  const tensor::Tensor v_fp = route(votes, 3);

  const fixed::Quantizer dr(fixed::FixedFormat(2, 2),
                            fixed::RoundingScheme::kRoundToNearest);
  RoutingQuantPoints qp;
  qp.routing = &dr;
  DynamicRouting r;
  const tensor::Tensor v_q = r.forward(votes, 3, false, qp);
  float diff = 0.0f;
  for (std::int64_t i = 0; i < v_fp.numel(); ++i)
    diff = std::max(diff, std::fabs(v_fp[i] - v_q[i]));
  EXPECT_GT(diff, 1e-4f);
}

TEST(RoutingQuant, ActivationPointsQuantizeOutput) {
  common::Rng rng(9);
  const tensor::Tensor votes = tensor::Tensor::randn({1, 3, 5, 4}, rng, 0.0f, 0.5f);
  const fixed::Quantizer act(fixed::FixedFormat(1, 4),
                             fixed::RoundingScheme::kRoundToNearest);
  RoutingQuantPoints qp;
  qp.activations = &act;
  DynamicRouting r;
  const tensor::Tensor v = r.forward(votes, 3, false, qp);
  const double eps = fixed::FixedFormat(1, 4).precision();
  for (std::int64_t i = 0; i < v.numel(); ++i) {
    const double scaled = v[i] / eps;
    ASSERT_NEAR(scaled, std::round(scaled), 1e-5);
  }
}

TEST(RoutingQuant, ModerateQdrPreservesWinners) {
  // The paper's key claim (Sec. IV-D): routing tolerates aggressive
  // quantization. A 4-fractional-bit QDR must keep the argmax output capsule
  // for a decisive vote pattern.
  const std::int64_t nin = 8, nout = 4, d = 4;
  tensor::Tensor votes({1, nout, nin, d});
  common::Rng rng(10);
  for (std::int64_t i = 0; i < votes.numel(); ++i)
    votes[i] = rng.normal(0.0f, 0.1f);
  for (std::int64_t i = 0; i < nin; ++i) votes.at({0, 2, i, 0}) = 0.9f;
  const tensor::Tensor v_fp = route(votes, 3);

  const fixed::Quantizer dr(fixed::FixedFormat(2, 4),
                            fixed::RoundingScheme::kRoundToNearest);
  RoutingQuantPoints qp;
  qp.routing = &dr;
  DynamicRouting r;
  const tensor::Tensor v_q = r.forward(votes, 3, false, qp);

  auto argmax_norm = [&](const tensor::Tensor& v) {
    const tensor::Tensor n = tensor::l2_norm_last(v, 0.0f);
    return tensor::argmax_rows(n.reshaped({1, nout}))[0];
  };
  EXPECT_EQ(argmax_norm(v_fp), 2);
  EXPECT_EQ(argmax_norm(v_q), 2);
}

}  // namespace
}  // namespace qcaps::nn
