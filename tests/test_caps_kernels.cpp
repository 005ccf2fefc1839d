// Tests for the batched j-major routing kernel backend
// (tensor/caps_kernels.{hpp,cpp}) and the layout refactor built on it:
//
//  * every vector tier (AVX-512, AVX2, forced scalar) agrees with the plain
//    scalar loops on randomized shapes, including odd capsule dimensions;
//  * DynamicRouting on the j-major layout reproduces the pre-refactor
//    i-major implementation (kept verbatim below) within float tolerance on
//    randomized shapes — the layout round-trip lock;
//  * the unrolled-backward gradient check passes on every tier.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "hwmodel/units.hpp"
#include "nn/caps_ops.hpp"
#include "nn/routing.hpp"
#include "tensor/caps_kernels.hpp"
#include "tensor/ops.hpp"
#include "test_util.hpp"

namespace qcaps::tensor {
namespace {

// Run `fn` once per tier supported on this machine (scalar always runs; the
// scalar CI job caps every family at the same tier via QCAPS_ISA=scalar).
template <typename F>
void for_each_tier(const F& fn) {
  for (Isa k : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (!caps_force_kernel(k)) continue;
    fn(k);
  }
  caps_reset_kernel();
}

struct Shape4 {
  std::int64_t r, nin, nout, d;
};

// The pre-refactor routing forward, verbatim: i-major votes
// [R, Nin, Nout, D], scalar loops, std::exp softmax. The oracle the j-major
// path must reproduce (up to float reassociation and the shared-polynomial
// exp, hence the tolerances below).
tensor::Tensor legacy_routing_forward(const tensor::Tensor& votes, int iters) {
  const std::int64_t r_count = votes.dim(0), nin = votes.dim(1),
                     nout = votes.dim(2), d = votes.dim(3);
  tensor::Tensor b({r_count, nin, nout});
  tensor::Tensor v;
  const float* u = votes.data();
  for (int it = 0; it < iters; ++it) {
    tensor::Tensor c = b;
    {
      float* pc = c.data();
      for (std::int64_t row = 0; row < r_count * nin; ++row) {
        float* rw = pc + row * nout;
        float mx = rw[0];
        for (std::int64_t j = 1; j < nout; ++j) mx = std::max(mx, rw[j]);
        float sum = 0.0f;
        for (std::int64_t j = 0; j < nout; ++j) {
          rw[j] = std::exp(rw[j] - mx);
          sum += rw[j];
        }
        for (std::int64_t j = 0; j < nout; ++j) rw[j] /= sum;
      }
    }
    tensor::Tensor s({r_count, nout, d});
    {
      const float* pc = c.data();
      float* ps = s.data();
      for (std::int64_t r = 0; r < r_count; ++r)
        for (std::int64_t i = 0; i < nin; ++i)
          for (std::int64_t j = 0; j < nout; ++j) {
            const float cij = pc[(r * nin + i) * nout + j];
            const float* uv = u + ((r * nin + i) * nout + j) * d;
            float* sv = ps + (r * nout + j) * d;
            for (std::int64_t k = 0; k < d; ++k) sv[k] += cij * uv[k];
          }
    }
    v = tensor::Tensor(s.shape());
    {
      const float* ps = s.data();
      float* pv = v.data();
      for (std::int64_t row = 0; row < r_count * nout; ++row) {
        float nsq = 0.0f;
        for (std::int64_t k = 0; k < d; ++k)
          nsq += ps[row * d + k] * ps[row * d + k];
        const float n = std::sqrt(nsq + 1e-8f);
        const float f = n / (1.0f + nsq);
        for (std::int64_t k = 0; k < d; ++k)
          pv[row * d + k] = f * ps[row * d + k];
      }
    }
    if (it + 1 == iters) break;
    {
      const float* pv = v.data();
      float* pb = b.data();
      for (std::int64_t r = 0; r < r_count; ++r)
        for (std::int64_t i = 0; i < nin; ++i)
          for (std::int64_t j = 0; j < nout; ++j) {
            const float* uv = u + ((r * nin + i) * nout + j) * d;
            const float* vv = pv + (r * nout + j) * d;
            float acc = 0.0f;
            for (std::int64_t k = 0; k < d; ++k) acc += uv[k] * vv[k];
            pb[(r * nin + i) * nout + j] += acc;
          }
    }
  }
  return v;
}

tensor::Tensor permute_to_jmajor(const tensor::Tensor& votes) {
  const std::int64_t r = votes.dim(0), nin = votes.dim(1),
                     nout = votes.dim(2), d = votes.dim(3);
  tensor::Tensor out({r, nout, nin, d});
  const float* src = votes.data();
  float* dst = out.data();
  for (std::int64_t ri = 0; ri < r; ++ri)
    for (std::int64_t i = 0; i < nin; ++i)
      for (std::int64_t j = 0; j < nout; ++j)
        for (std::int64_t k = 0; k < d; ++k)
          dst[((ri * nout + j) * nin + i) * d + k] =
              src[((ri * nin + i) * nout + j) * d + k];
  return out;
}

TEST(CapsKernels, TiersAgreeWithScalarOnRandomShapes) {
  common::Rng rng(11);
  const Shape4 shapes[] = {
      {2, 9, 3, 5}, {1, 33, 10, 8}, {3, 21, 10, 16}, {2, 7, 4, 20}, {1, 5, 2, 1}};
  for (const auto& sh : shapes) {
    const tensor::Tensor u =
        tensor::Tensor::randn({sh.r, sh.nout, sh.nin, sh.d}, rng);
    const tensor::Tensor c =
        tensor::Tensor::uniform({sh.r, sh.nout, sh.nin}, rng, 0.0f, 1.0f);
    const tensor::Tensor v =
        tensor::Tensor::randn({sh.r, sh.nout, sh.d}, rng, 0.0f, 0.5f);
    const tensor::Tensor gs =
        tensor::Tensor::randn({sh.r, sh.nout, sh.d}, rng, 0.0f, 0.5f);
    const tensor::Tensor gb =
        tensor::Tensor::randn({sh.r, sh.nout, sh.nin}, rng, 0.0f, 0.5f);

    // Scalar references.
    ASSERT_TRUE(caps_force_kernel(Isa::kScalar));
    tensor::Tensor s_ref({sh.r, sh.nout, sh.d});
    routing_weighted_sum(u.data(), c.data(), s_ref.data(), sh.r, sh.nin,
                         sh.nout, sh.d);
    tensor::Tensor a_ref({sh.r, sh.nout, sh.nin});
    routing_agreement(u.data(), v.data(), a_ref.data(), sh.r, sh.nin, sh.nout,
                      sh.d, /*accumulate=*/false);
    tensor::Tensor gc_ref({sh.r, sh.nout, sh.nin});
    tensor::Tensor gu_ref(u.shape());
    routing_weighted_sum_backward(u.data(), c.data(), gs.data(), gc_ref.data(),
                                  gu_ref.data(), sh.r, sh.nin, sh.nout, sh.d);
    tensor::Tensor gv_ref({sh.r, sh.nout, sh.d});
    tensor::Tensor gu2_ref(u.shape());
    routing_agreement_backward(u.data(), v.data(), gb.data(), gv_ref.data(),
                               gu2_ref.data(), sh.r, sh.nin, sh.nout, sh.d);
    // The scalar references against plain loops over c, a, gc, gb as
    // [r, nout, nin] and u as [r, nout, nin, d].
    for (std::int64_t t = 0; t < sh.r * sh.nout; ++t) {
      for (std::int64_t i = 0; i < sh.nin; ++i) {
        const float* uv = u.data() + (t * sh.nin + i) * sh.d;
        float dot_v = 0.0f, dot_gs = 0.0f;
        for (std::int64_t k = 0; k < sh.d; ++k) {
          dot_v += uv[k] * v[t * sh.d + k];
          dot_gs += uv[k] * gs[t * sh.d + k];
        }
        ASSERT_NEAR(a_ref[t * sh.nin + i], dot_v, 1e-4f);
        ASSERT_NEAR(gc_ref[t * sh.nin + i], dot_gs, 1e-4f);
      }
      for (std::int64_t k = 0; k < sh.d; ++k) {
        float acc_s = 0.0f, acc_gv = 0.0f;
        for (std::int64_t i = 0; i < sh.nin; ++i) {
          const float uk = u[(t * sh.nin + i) * sh.d + k];
          acc_s += c[t * sh.nin + i] * uk;
          acc_gv += gb[t * sh.nin + i] * uk;
        }
        ASSERT_NEAR(s_ref[t * sh.d + k], acc_s, 1e-4f);
        ASSERT_NEAR(gv_ref[t * sh.d + k], acc_gv, 1e-4f);
      }
    }

    for_each_tier([&](Isa k) {
      const float tol = 2e-4f;
      tensor::Tensor s({sh.r, sh.nout, sh.d});
      routing_weighted_sum(u.data(), c.data(), s.data(), sh.r, sh.nin, sh.nout,
                           sh.d);
      testutil::expect_tensor_near(s, s_ref, tol, isa_name(k));

      tensor::Tensor s2({sh.r, sh.nout, sh.d});
      tensor::Tensor vout({sh.r, sh.nout, sh.d});
      routing_weighted_sum_squash(u.data(), c.data(), s2.data(), vout.data(),
                                  sh.r, sh.nin, sh.nout, sh.d, 1e-8f);
      testutil::expect_tensor_near(s2, s_ref, tol, isa_name(k));
      testutil::expect_tensor_near(vout, nn::squash_last(s2), 1e-5f,
                                   isa_name(k));

      tensor::Tensor a({sh.r, sh.nout, sh.nin});
      routing_agreement(u.data(), v.data(), a.data(), sh.r, sh.nin, sh.nout,
                        sh.d, /*accumulate=*/false);
      testutil::expect_tensor_near(a, a_ref, tol, isa_name(k));

      // accumulate=true must add on top of existing values.
      tensor::Tensor b2 = a_ref;
      routing_agreement(u.data(), v.data(), b2.data(), sh.r, sh.nin, sh.nout,
                        sh.d, /*accumulate=*/true);
      for (std::int64_t x = 0; x < b2.numel(); ++x)
        ASSERT_NEAR(b2[x], 2.0f * a_ref[x], 4e-4f) << isa_name(k);

      // Fused iteration == weighted sum + squash + agreement update.
      tensor::Tensor fs({sh.r, sh.nout, sh.d});
      tensor::Tensor fv({sh.r, sh.nout, sh.d});
      tensor::Tensor fb({sh.r, sh.nout, sh.nin});
      routing_iteration_fused(u.data(), c.data(), fs.data(), fv.data(),
                              fb.data(), sh.r, sh.nin, sh.nout, sh.d, 1e-8f);
      testutil::expect_tensor_near(fs, s_ref, tol, isa_name(k));
      tensor::Tensor want_b({sh.r, sh.nout, sh.nin});
      routing_agreement(u.data(), fv.data(), want_b.data(), sh.r, sh.nin,
                        sh.nout, sh.d, /*accumulate=*/false);
      testutil::expect_tensor_near(fb, want_b, 4e-4f, isa_name(k));

      tensor::Tensor gc({sh.r, sh.nout, sh.nin});
      tensor::Tensor gu(u.shape());
      routing_weighted_sum_backward(u.data(), c.data(), gs.data(), gc.data(),
                                    gu.data(), sh.r, sh.nin, sh.nout, sh.d);
      testutil::expect_tensor_near(gc, gc_ref, tol, isa_name(k));
      testutil::expect_tensor_near(gu, gu_ref, tol, isa_name(k));

      tensor::Tensor gv({sh.r, sh.nout, sh.d});
      tensor::Tensor gu2(u.shape());
      routing_agreement_backward(u.data(), v.data(), gb.data(), gv.data(),
                                 gu2.data(), sh.r, sh.nin, sh.nout, sh.d);
      testutil::expect_tensor_near(gv, gv_ref, tol, isa_name(k));
      testutil::expect_tensor_near(gu2, gu2_ref, tol, isa_name(k));
    });
  }
}

TEST(CapsKernels, SoftmaxRowsMatchesReferenceAllTiers) {
  common::Rng rng(12);
  for (std::int64_t d : {1, 3, 7, 10, 16, 21, 40}) {
    tensor::Tensor x = tensor::Tensor::randn({37, d}, rng, 0.0f, 3.0f);
    // Double-precision std::exp reference.
    std::vector<double> want(static_cast<std::size_t>(x.numel()));
    for (std::int64_t r = 0; r < 37; ++r) {
      double mx = x[r * d];
      for (std::int64_t j = 1; j < d; ++j)
        mx = std::max(mx, static_cast<double>(x[r * d + j]));
      double sum = 0.0;
      for (std::int64_t j = 0; j < d; ++j) {
        want[static_cast<std::size_t>(r * d + j)] = std::exp(x[r * d + j] - mx);
        sum += want[static_cast<std::size_t>(r * d + j)];
      }
      for (std::int64_t j = 0; j < d; ++j)
        want[static_cast<std::size_t>(r * d + j)] /= sum;
    }
    for_each_tier([&](Isa k) {
      tensor::Tensor y = x;
      softmax_rows(y.data(), 37, d);
      for (std::int64_t i = 0; i < y.numel(); ++i)
        ASSERT_NEAR(y[i], want[static_cast<std::size_t>(i)], 2e-6)
            << isa_name(k) << " d=" << d << " flat " << i;
    });
  }
}

TEST(CapsKernels, SoftmaxRowsTransposedMatchesReferenceAllTiers) {
  common::Rng rng(16);
  // rows = 37 lands mid-vector for both tiers (37 = 4*8+5 = 2*16+5), so the
  // avx2 scalar-delegated tail and the avx512 masked tail both execute.
  constexpr std::int64_t rows = 37;
  for (std::int64_t d : {1, 3, 7, 10, 16, 21, 40}) {
    tensor::Tensor x = tensor::Tensor::randn({d, rows}, rng, 0.0f, 3.0f);
    // Double-precision std::exp reference over the logical rows: element
    // (r, j) of the [d, rows] storage sits at x[j * rows + r].
    std::vector<double> want(static_cast<std::size_t>(x.numel()));
    for (std::int64_t r = 0; r < rows; ++r) {
      double mx = x[r];
      for (std::int64_t j = 1; j < d; ++j)
        mx = std::max(mx, static_cast<double>(x[j * rows + r]));
      double sum = 0.0;
      for (std::int64_t j = 0; j < d; ++j) {
        want[static_cast<std::size_t>(j * rows + r)] =
            std::exp(x[j * rows + r] - mx);
        sum += want[static_cast<std::size_t>(j * rows + r)];
      }
      for (std::int64_t j = 0; j < d; ++j)
        want[static_cast<std::size_t>(j * rows + r)] /= sum;
    }
    for_each_tier([&](Isa k) {
      tensor::Tensor y = x;
      softmax_rows_t(y.data(), rows, d);
      for (std::int64_t i = 0; i < y.numel(); ++i)
        ASSERT_NEAR(y[i], want[static_cast<std::size_t>(i)], 2e-6)
            << isa_name(k) << " d=" << d << " flat " << i;
    });
  }
}

TEST(CapsKernels, SquashRowsMatchesScalarAllTiers) {
  common::Rng rng(13);
  for (std::int64_t d : {1, 5, 8, 16, 19}) {
    const tensor::Tensor s = tensor::Tensor::randn({23, d}, rng);
    const tensor::Tensor g = tensor::Tensor::randn({23, d}, rng);
    ASSERT_TRUE(caps_force_kernel(Isa::kScalar));
    tensor::Tensor v_ref({23, d}), gs_ref({23, d});
    squash_rows(s.data(), v_ref.data(), 23, d, 1e-8f);
    squash_rows_backward(s.data(), g.data(), gs_ref.data(), 23, d, 1e-8f);
    for_each_tier([&](Isa k) {
      tensor::Tensor v({23, d}), gs({23, d});
      squash_rows(s.data(), v.data(), 23, d, 1e-8f);
      squash_rows_backward(s.data(), g.data(), gs.data(), 23, d, 1e-8f);
      testutil::expect_tensor_near(v, v_ref, 1e-5f, isa_name(k));
      testutil::expect_tensor_near(gs, gs_ref, 1e-5f, isa_name(k));
    });
  }
}

TEST(CapsKernels, SquashGainRawMatchesSquashUnitOracleAllTiers) {
  // Bit-exact lock of the batched integer gain against the scalar
  // hwmodel::SquashUnit datapath (the oracle), on every tier, across the
  // internal widths the graph uses and norms spanning the whole dynamic
  // range: zeros, tiny values (inv-sqrt saturation), exact powers of two
  // (normalization edges), and dense random coverage.
  common::Rng rng(21);
  for (const int qf : {12, 16, 20, 24, 28}) {
    const fixed::FixedFormat fmt{4, qf};
    const hwmodel::SquashUnit unit(fmt, qf);
    std::vector<std::int64_t> nsq;
    nsq.push_back(0);
    for (int b = 0; b <= 60; ++b) {
      nsq.push_back(std::int64_t{1} << b);
      nsq.push_back((std::int64_t{1} << b) - 1);
      nsq.push_back((std::int64_t{1} << b) + 1);
    }
    for (int i = 0; i < 1000; ++i) {
      const int bits = 1 + static_cast<int>(rng.uniform() * 59.0f);
      const std::uint64_t r =
          (static_cast<std::uint64_t>(rng.uniform() * 4294967295.0f) << 32) ^
          static_cast<std::uint64_t>(rng.uniform() * 4294967295.0f);
      nsq.push_back(static_cast<std::int64_t>(
          r & ((std::uint64_t{1} << bits) - 1)));
    }
    std::vector<std::int64_t> want(nsq.size());
    for (std::size_t i = 0; i < nsq.size(); ++i)
      want[i] = unit.gain_raw(nsq[i]);
    for_each_tier([&](Isa k) {
      std::vector<std::int64_t> got(nsq.size(), -1);
      squash_gain_raw_n(nsq.data(), got.data(),
                        static_cast<std::int64_t>(nsq.size()), qf);
      for (std::size_t i = 0; i < nsq.size(); ++i)
        ASSERT_EQ(got[i], want[i])
            << isa_name(k) << " qf " << qf << " nsq " << nsq[i];
      // Odd lengths exercise the masked/scalar tail.
      std::vector<std::int64_t> tail(nsq.begin(), nsq.begin() + 7);
      std::vector<std::int64_t> tg(7, -1);
      squash_gain_raw_n(tail.data(), tg.data(), 7, qf);
      for (std::size_t i = 0; i < 7; ++i)
        ASSERT_EQ(tg[i], want[i]) << isa_name(k) << " tail " << i;
    });
  }
}

TEST(CapsKernels, JMajorRoutingMatchesLegacyLayoutOnRandomShapes) {
  // The layout round-trip lock: forward on the j-major layout must equal the
  // pre-refactor i-major forward (modulo float reassociation and the shared
  // exp polynomial) for randomized shapes, on every kernel tier.
  common::Rng rng(14);
  const Shape4 shapes[] = {
      {2, 6, 4, 5}, {1, 40, 10, 16}, {3, 17, 3, 8}, {2, 11, 7, 12}};
  for (const auto& sh : shapes) {
    for (int iters : {1, 3}) {
      const tensor::Tensor votes_imajor =
          tensor::Tensor::randn({sh.r, sh.nin, sh.nout, sh.d}, rng, 0.0f, 0.6f);
      const tensor::Tensor want = legacy_routing_forward(votes_imajor, iters);
      const tensor::Tensor votes_j = permute_to_jmajor(votes_imajor);
      for_each_tier([&](Isa k) {
        nn::DynamicRouting routing;
        const tensor::Tensor got =
            routing.forward(votes_j, iters, false, nn::RoutingQuantPoints{});
        testutil::expect_tensor_near(got, want, 5e-4f, isa_name(k));
      });
    }
  }
}

TEST(CapsKernels, RoutingBackwardGradcheckAllTiers) {
  // Finite-difference check of the full unrolled backward on the new layout,
  // per tier (the forced-scalar tier included).
  common::Rng rng(15);
  const tensor::Tensor votes =
      tensor::Tensor::randn({2, 3, 4, 3}, rng, 0.0f, 0.7f);  // [R,Nout,Nin,D]
  for_each_tier([&](Isa k) {
    SCOPED_TRACE(isa_name(k));
    nn::DynamicRouting r;
    const tensor::Tensor v =
        r.forward(votes, 3, true, nn::RoutingQuantPoints{});
    const testutil::WeightedSum head(v.shape());
    const tensor::Tensor analytic = r.backward(head.grad());
    auto loss = [&](const tensor::Tensor& in) {
      nn::DynamicRouting probe;
      return head(probe.forward(in, 3, false, nn::RoutingQuantPoints{}));
    };
    testutil::check_gradient(votes, loss, analytic, 1e-3f, 3e-2f, 3e-3f);
  });
}

}  // namespace
}  // namespace qcaps::tensor
