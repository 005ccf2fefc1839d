#include "nn/routing.hpp"

#include <algorithm>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/error.hpp"
#include "nn/caps_ops.hpp"
#include "tensor/caps_kernels.hpp"

namespace qcaps::nn {

namespace {
constexpr float kSquashEps = 1e-8f;
}  // namespace

// The whole iteration sequence runs sample by sample, so each
// [Nout, Nin, D] votes slab is streamed from memory once and every later
// access (agreement, next iteration's weighted sum) hits cache. Iteration 0
// skips the softmax outright: b = 0 makes the couplings exactly uniform
// (softmax of a constant row computes 1 * (1 / Nout), the same float value
// the fill produces, and QDR maps 0 to 0 under every rounding scheme).
//
// Each Fig. 9 quantization point is one branch on `quant`. A quantizer sees
// one sample's span with that span's offset in the whole tensor, so SR noise
// is keyed by the element's [R, ...] index: it repeats across no samples and
// does not depend on which thread routes which sample.
tensor::Tensor DynamicRouting::forward(const tensor::Tensor& votes,
                                       int iterations, bool keep_tape,
                                       const RoutingQuantPoints& quant) {
  QCAPS_CHECK_MSG(votes.ndim() == 4, "routing votes must be [R, Nout, Nin, D]");
  QCAPS_CHECK(iterations >= 1);
  const fixed::Quantizer* qa = quant.activations;
  const fixed::Quantizer* qdr = quant.routing;
  // Checked here: a quantizer's own check would throw inside the team.
  for (const fixed::Quantizer* q : {qa, qdr})
    QCAPS_CHECK_MSG(q == nullptr || q->format().valid(),
                    "invalid routing quantizer format");
  const std::int64_t r_count = votes.dim(0), nout = votes.dim(1),
                     nin = votes.dim(2), d = votes.dim(3);
  iters_ = iterations;
  c_tape_.clear();
  s_tape_.clear();
  v_tape_.clear();
  if (keep_tape) {
    votes_ = votes;
    for (int it = 0; it < iterations; ++it) {
      c_tape_.emplace_back(tensor::Shape{r_count, nout, nin});
      s_tape_.emplace_back(tensor::Shape{r_count, nout, d});
      v_tape_.emplace_back(tensor::Shape{r_count, nout, d});
    }
  }
  const float* u = votes.data();
  tensor::Tensor v_out({r_count, nout, d});
  last_c_ = tensor::Tensor({r_count, nout, nin});
  const float uniform = 1.0f / static_cast<float>(nout);
  const std::int64_t row = nout * nin;  // one sample's b, c, a
  const std::int64_t caps = nout * d;   // one sample's s, v
  const bool fused = qa == nullptr && qdr == nullptr;

#ifdef _OPENMP
  const bool par = r_count > 1 && !omp_in_parallel() &&
                   iterations * r_count * row * d > (std::int64_t{1} << 15);
#pragma omp parallel if (par)
#endif
  {
    // Per-thread scratch: the logits never outlive the forward pass, and
    // without a tape neither do the per-iteration c/s/v.
    std::vector<float> b(static_cast<std::size_t>(row));
    std::vector<float> c(b.size()), a(qa ? b.size() : 0);
    std::vector<float> s(static_cast<std::size_t>(caps)), v(s.size());
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
    for (std::int64_t r = 0; r < r_count; ++r) {
      const std::int64_t coff = r * row;
      const std::int64_t soff = r * caps;
      const float* ur = u + r * nout * nin * d;
      std::fill(b.begin(), b.end(), 0.0f);
      for (int it = 0; it < iterations; ++it) {
        const bool last = it + 1 == iterations;
        const auto t = static_cast<std::size_t>(it);
        // The tape, or else the returned tensors on the last iteration,
        // take c, s and v in place.
        float* cp = keep_tape ? c_tape_[t].data() + coff
                    : last    ? last_c_.data() + coff
                              : c.data();
        float* sp = keep_tape ? s_tape_[t].data() + soff : s.data();
        float* vp = keep_tape ? v_tape_[t].data() + soff
                    : last    ? v_out.data() + soff
                              : v.data();

        // c = softmax over Nout of b, with QDR on b right before it.
        if (it == 0) {
          std::fill(cp, cp + row, uniform);
        } else {
          if (qdr) qdr->apply(b.data(), row, coff);
          std::copy(b.begin(), b.end(), cp);
          tensor::softmax_rows_t(cp, nin, nout);
        }
        if (qa) qa->apply(cp, row, coff);

        if (fused && !last) {
          tensor::routing_iteration_fused(ur, cp, sp, vp, b.data(), 1, nin,
                                          nout, d, kSquashEps);
          continue;
        }
        // s_j = Σ_i c_ij û_j|i ; v = squash(s), with QDR on s in between.
        if (qdr) {
          tensor::routing_weighted_sum(ur, cp, sp, 1, nin, nout, d);
          qdr->apply(sp, caps, soff);
          tensor::squash_rows(sp, vp, nout, d, kSquashEps);
        } else {
          tensor::routing_weighted_sum_squash(ur, cp, sp, vp, 1, nin, nout,
                                              d, kSquashEps);
        }
        if (qa) qa->apply(vp, caps, soff);
        if (last) break;

        // a_ij = v_j · û_j|i ; b += a (straight into b when a is exact).
        if (qa) {
          tensor::routing_agreement(ur, vp, a.data(), 1, nin, nout, d,
                                    /*accumulate=*/false);
          qa->apply(a.data(), row, coff);
          for (std::size_t k = 0; k < b.size(); ++k) b[k] += a[k];
        } else {
          tensor::routing_agreement(ur, vp, b.data(), 1, nin, nout, d,
                                    /*accumulate=*/true);
        }
      }
      if (keep_tape) {
        const float* cl = c_tape_.back().data() + coff;
        const float* vl = v_tape_.back().data() + soff;
        std::copy(cl, cl + row, last_c_.data() + coff);
        std::copy(vl, vl + caps, v_out.data() + soff);
      }
    }
  }
  return v_out;
}

tensor::Tensor DynamicRouting::backward(const tensor::Tensor& grad_v) {
  QCAPS_CHECK_MSG(!votes_.empty() && !v_tape_.empty(),
                  "routing backward without a keep_tape forward");
  const std::int64_t r_count = votes_.dim(0), nout = votes_.dim(1),
                     nin = votes_.dim(2), d = votes_.dim(3);
  QCAPS_CHECK(grad_v.ndim() == 3 && grad_v.dim(0) == r_count &&
              grad_v.dim(1) == nout && grad_v.dim(2) == d);

  tensor::Tensor grad_votes(votes_.shape());
  tensor::Tensor gv = grad_v;                // dL/dv of the current iteration
  tensor::Tensor gb({r_count, nout, nin});   // dL/db accumulator
  tensor::Tensor gc({r_count, nout, nin});   // dL/dc of the current iteration
  const float* u = votes_.data();
  const std::int64_t row = nout * nin;

  for (int it = iters_ - 1; it >= 0; --it) {
    const tensor::Tensor& c = c_tape_[static_cast<std::size_t>(it)];
    const tensor::Tensor& s = s_tape_[static_cast<std::size_t>(it)];
    // v = squash(s)
    tensor::Tensor gs = squash_last_backward(s, gv);
    // s = Σ_i c ⊙ û :  gc[j,i] = û_j|i·gs[j] ;  gU[j,i,:] += c[j,i] * gs[j,:]
    tensor::routing_weighted_sum_backward(u, c.data(), gs.data(), gc.data(),
                                          grad_votes.data(), r_count, nin,
                                          nout, d);
    // c = softmax over Nout of b, per (r, i): gb += c ⊙ (gc - Σ_j c gc).
    const float* pc = c.data();
    const float* pg = gc.data();
    float* pb = gb.data();
#pragma omp parallel for schedule(static) if (r_count * row > (1 << 14))
    for (std::int64_t ri = 0; ri < r_count * nin; ++ri) {
      const std::int64_t base = (ri / nin) * row + ri % nin;
      float dot = 0.0f;
      for (std::int64_t j = 0; j < nout; ++j)
        dot += pc[base + j * nin] * pg[base + j * nin];
      for (std::int64_t j = 0; j < nout; ++j) {
        const std::int64_t x = base + j * nin;
        pb[x] += pc[x] * (pg[x] - dot);
      }
    }

    if (it == 0) break;

    // b_it = b_{it-1} + a_{it-1},  a_{it-1}[j,i] = v_{it-1}[j] · û_j|i.
    // gb passes through to b_{it-1} unchanged; additionally:
    //   gv_{it-1}[j,:] = Σ_i gb[j,i] û[j,i,:] ;  gU[j,i,:] += gb[j,i] v[j,:]
    const tensor::Tensor& v_prev = v_tape_[static_cast<std::size_t>(it - 1)];
    tensor::Tensor gv_prev({r_count, nout, d});
    tensor::routing_agreement_backward(u, v_prev.data(), gb.data(),
                                       gv_prev.data(), grad_votes.data(),
                                       r_count, nin, nout, d);
    gv = std::move(gv_prev);
  }
  return grad_votes;
}

}  // namespace qcaps::nn
