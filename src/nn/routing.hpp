// Dynamic routing-by-agreement (paper Sec. II-A, Fig. 6).
//
// Operates on a vote tensor û of shape [R, Nout, Nin, D] — the j-major
// layout of tensor/caps_kernels.hpp, where R collapses the batch (and, for
// convolutional capsule layers, the spatial positions) and each (r, j) slab
// û_j is a contiguous [Nin, D] matrix. Per routing iteration:
//     c  = softmax over Nout of b          (coupling coefficients, Eq. 1)
//     s_j = Σ_i c_ij û_j|i                 (preactivation)
//     v_j = squash(s_j)                    (Eq. 2)
//     a_ij = v_j · û_j|i ;  b += a         (agreement, skipped after last)
// Logits b, couplings c and agreements a are j-major too, [R, Nout, Nin]:
// each (r, j) slab is a contiguous Nin-vector, and the softmax over Nout
// runs as tensor::softmax_rows_t. Both contractions run on the
// runtime-dispatched kernels in tensor/caps_kernels.{hpp,cpp}; when no
// quantization point sits in between, the weighted sum fuses with the
// squash and the agreement with the logit update.
//
// Quantization points follow paper Fig. 9: û, c, v, a carry the activation
// format Qa; b (before softmax) and s (before squash) are quantized harder
// with the dedicated routing format QDR — precision is lowered right before
// the compute-intensive nonlinear functions.
//
// backward() replays the full unrolled iteration tape — gradients flow
// through softmax, squash, agreement and logit updates of every iteration
// (no stop-gradient approximation).
#pragma once

#include <vector>

#include "fixed/quantizer.hpp"
#include "tensor/tensor.hpp"

namespace qcaps::nn {

struct RoutingQuantPoints {
  const fixed::Quantizer* activations = nullptr;  ///< Qa: û, c, v, a
  const fixed::Quantizer* routing = nullptr;      ///< QDR: b, s
};

class DynamicRouting {
 public:
  /// Route j-major votes [R, Nout, Nin, D] for `iterations` rounds; returns
  /// v [R, Nout, D]. With keep_tape the per-iteration intermediates are
  /// retained for backward().
  tensor::Tensor forward(const tensor::Tensor& votes, int iterations,
                         bool keep_tape, const RoutingQuantPoints& quant);

  /// Gradient wrt the votes (j-major, like the forward input); requires a
  /// keep_tape forward first.
  tensor::Tensor backward(const tensor::Tensor& grad_v);

  /// Coupling coefficients of the final iteration, [R, Nout, Nin]
  /// (for tests/inspection).
  const tensor::Tensor& last_coupling() const { return last_c_; }

 private:
  int iters_ = 0;
  tensor::Tensor votes_;
  tensor::Tensor last_c_;
  std::vector<tensor::Tensor> c_tape_;  // post-softmax (quantized) couplings,
                                        // [R, Nout, Nin]
  std::vector<tensor::Tensor> s_tape_;  // pre-squash inputs (quantized)
  std::vector<tensor::Tensor> v_tape_;  // post-squash outputs (quantized)
};

}  // namespace qcaps::nn
