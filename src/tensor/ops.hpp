// Elementwise, linear-algebra and reduction kernels over Tensor.
//
// All binary elementwise ops require identical shapes (no implicit
// broadcasting; the few broadcast patterns the layers need are explicit
// functions, e.g. add_row_bias). GEMM kernels are OpenMP-parallel.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace qcaps::tensor {

// ---- elementwise -----------------------------------------------------------

Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);

/// a += alpha * b
void axpy(Tensor& a, float alpha, const Tensor& b);
/// a *= alpha
void scale(Tensor& a, float alpha);
/// Elementwise in-place clamp to [lo, hi].
void clamp(Tensor& a, float lo, float hi);

// ---- GEMM ------------------------------------------------------------------
//
// All products run on the packed, blocked backend in tensor/gemm.hpp; use
// gemm_ex / gemm_batch from there directly for strided or batched operands.

/// C[M,N] = A[M,K] * B[K,N]
Tensor matmul(const Tensor& a, const Tensor& b);
/// C[M,N] = A[K,M]^T * B[K,N]
Tensor matmul_tn(const Tensor& a, const Tensor& b);
/// C[M,N] = A[M,K] * B[N,K]^T
Tensor matmul_nt(const Tensor& a, const Tensor& b);

/// Raw GEMM on contiguous pointers: C[M,N] (+)= A[M,K] * B[K,N];
/// accumulate=false overwrites C.
void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n, bool accumulate);

// ---- shape transforms ------------------------------------------------------

/// 2-D transpose of [M,N] -> [N,M].
Tensor transpose2d(const Tensor& a);

// ---- reductions ------------------------------------------------------------

/// Sum over the last axis: [..., D] -> [...].
Tensor reduce_sum_last(const Tensor& a);
/// Row-wise argmax of a [R, C] tensor.
std::vector<std::int64_t> argmax_rows(const Tensor& a);

// ---- neural-net primitives -------------------------------------------------

/// Numerically stable softmax over the last axis, out-of-place.
Tensor softmax_last(const Tensor& a);

/// Euclidean norms over the last axis: [..., D] -> [...]. eps guards
/// the gradient at exactly-zero vectors.
Tensor l2_norm_last(const Tensor& a, float eps = 1e-8f);

/// out[r, c] = in[r, c] + bias[c] for a [R, C] view.
void add_row_bias(Tensor& a, const Tensor& bias);

}  // namespace qcaps::tensor
