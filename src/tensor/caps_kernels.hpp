// Batched routing kernels over the j-major capsule votes layout.
//
// Dynamic routing-by-agreement iterates two dense contractions over the vote
// tensor û — the weighted sum s_j = Σ_i c_ij û_j|i and the agreement
// a_ij = û_j|i · v_j — plus softmax/squash nonlinearities. With the votes
// stored i-major ([R, Nin, Nout, D]) the per-j vectors are strided and every
// loop runs scalar. This backend fixes the layout: votes are j-major,
//
//     u[R, Nout, Nin, D]   — per (r, j) slab U_j is a contiguous [Nin, D]
//                            matrix, so both contractions walk unit-stride
//                            D-vectors;
//     c/b/a[R, Nout, Nin]  — couplings, logits and agreements are j-major
//                            too: each (r, j) slab is a contiguous
//                            Nin-vector, and the softmax over Nout runs
//                            per sample through softmax_rows_t;
//     s/v  [R, Nout, D]    — per-capsule rows, contiguous.
//
// Per (r, j) slab the weighted sum is a c-broadcast AXPY chain over U_j's
// rows and the agreement a row of D-length dot products — both carried by
// runtime-dispatched microkernels (AVX-512F tier, AVX2+FMA tier, portable
// scalar fallback) with dedicated small-D specializations for the capsule
// dimensions the models use (D = 8, 16). OpenMP parallelizes over the
// R*Nout slab batch; every slab is computed whole by exactly one thread, so
// results are identical for any thread count.
//
// The forward kernels come in fused forms — weighted-sum+squash and
// agreement+logit-update — used when no quantization point sits between the
// two steps (paper Fig. 9 places QDR right before the squash, in which case
// the caller quantizes the materialized s and squashes separately).
//
// The tier follows the shared kernel-tier ladder of isa.hpp, like the
// gemm/qgemm backends: picked once from CPUID, capped by QCAPS_ISA, and
// forceable from tests via caps_force_kernel.
#pragma once

#include <cstdint>

#include "tensor/isa.hpp"

namespace qcaps::tensor {

/// The active tier (kScalar, kAvx2 or kAvx512).
Isa caps_kernel();
/// Name of the active tier ("scalar", "avx2", "avx512").
const char* caps_kernel_name();
/// Test seam: force a specific tier. Returns false (and changes nothing)
/// when that tier is unsupported on this CPU/build or has no caps kernel
/// (kAvx512Vnni).
bool caps_force_kernel(Isa k);
/// Undo caps_force_kernel.
void caps_reset_kernel();

// ---- routing forward -------------------------------------------------------

/// s[r, j, :] = Σ_i c[r, j, i] * u[r, j, i, :]  (s is overwritten).
void routing_weighted_sum(const float* u, const float* c, float* s,
                          std::int64_t r, std::int64_t nin, std::int64_t nout,
                          std::int64_t d);

/// Fused weighted sum + squash: also writes v[r, j, :] = squash(s[r, j, :])
/// while the freshly accumulated s row is register/L1 resident. The squash
/// is identical to nn::squash_last (gain n/(1+n^2), norm guarded by eps).
void routing_weighted_sum_squash(const float* u, const float* c, float* s,
                                 float* v, std::int64_t r, std::int64_t nin,
                                 std::int64_t nout, std::int64_t d, float eps);

/// out[r, j, i] (+)= Σ_k u[r, j, i, k] * v[r, j, k]. With accumulate=true
/// this is the fused agreement + logit update (out = b); with
/// accumulate=false it materializes the agreement tensor a for a
/// quantization point.
void routing_agreement(const float* u, const float* v, float* out,
                       std::int64_t r, std::int64_t nin, std::int64_t nout,
                       std::int64_t d, bool accumulate);

/// Fully fused quantizer-free routing iteration: per (r, j) slab computes
///   s[r, j, :] = Σ_i c[r, j, i] u[r, j, i, :]
///   v[r, j, :] = squash(s[r, j, :])
///   b[r, j, i] += u[r, j, i, :] · v[r, j, :]
/// in ONE pass over the votes slab — the agreement re-reads û from cache
/// instead of streaming the tensor a second time, which matters once the
/// votes outgrow L2 (DeepCaps/ShallowCaps head shapes).
void routing_iteration_fused(const float* u, const float* c, float* s,
                             float* v, float* b, std::int64_t r,
                             std::int64_t nin, std::int64_t nout,
                             std::int64_t d, float eps);

// ---- routing backward ------------------------------------------------------

/// Backward of the weighted sum:
///   gc[r, j, i]    = Σ_k u[r, j, i, k] * gs[r, j, k]   (overwritten)
///   gu[r, j, i, :] += c[r, j, i] * gs[r, j, :]          (accumulated)
void routing_weighted_sum_backward(const float* u, const float* c,
                                   const float* gs, float* gc, float* gu,
                                   std::int64_t r, std::int64_t nin,
                                   std::int64_t nout, std::int64_t d);

/// Backward of the agreement + logit update (gb = dL/db flowing into
/// a_ij = v_j · û_j|i):
///   gv[r, j, :]    = Σ_i gb[r, j, i] * u[r, j, i, :]   (overwritten)
///   gu[r, j, i, :] += gb[r, j, i] * v[r, j, :]          (accumulated)
void routing_agreement_backward(const float* u, const float* v,
                                const float* gb, float* gv, float* gu,
                                std::int64_t r, std::int64_t nin,
                                std::int64_t nout, std::int64_t d);

// ---- row nonlinearities ----------------------------------------------------
//
// Vectorized row kernels shared with tensor::softmax_last and
// nn::squash_last; softmax_rows_t and squash_rows sit inside every routing
// iteration. All tiers (scalar included) evaluate exp through the same
// range-reduced polynomial, so the tier only changes summation order, not
// the pointwise math.

/// In-place numerically stable softmax over each contiguous row of length d.
void softmax_rows(float* x, std::int64_t rows, std::int64_t d);

/// Transposed-batch softmax: x holds [d, rows], so logical row r's element j
/// lives at x[j * rows + r] and normalization runs over j. In this
/// orientation the vector tiers put 8/16 logical rows in each register and
/// walk j as strided vertical loads — the entire softmax is per-lane math
/// with no horizontal reductions, which is the fast form when the caller's
/// logits are naturally column-major (e.g. one sample's [Nout, Nin] routing
/// logits, normalized over Nout per input capsule).
void softmax_rows_t(float* x, std::int64_t rows, std::int64_t d);

/// v[row, :] = squash(s[row, :]) per contiguous row of length d.
void squash_rows(const float* s, float* v, std::int64_t rows, std::int64_t d,
                 float eps);

/// gs = squash backward per row: gs = f*g + (f'/n)(s·g) s.
void squash_rows_backward(const float* s, const float* g, float* gs,
                          std::int64_t rows, std::int64_t d, float eps);

// ---- integer squash gain ---------------------------------------------------

/// Batched integer squash gain: gain[i] = the hwmodel SquashUnit gain for
/// squared norm nsq[i], everything at qf fractional bits — bit-for-bit the
/// scalar `SquashUnit::gain_raw` datapath (that unit stays the oracle the
/// tiers are locked against). The vector tiers run the Newton-Raphson
/// inverse-sqrt iterations over 4/8 lanes of int64 norms (every NR operand
/// fits 32 bits by construction: m, y < 4 << qf and qf <= 28); the
/// per-element ratio division and the final wide product stay scalar. A
/// conservative range mask falls any block whose intermediates leave the
/// proven envelope back to the scalar element — same bits on every tier,
/// only the throughput changes. nsq values must be >= 0; qf in [1, 28].
void squash_gain_raw_n(const std::int64_t* nsq, std::int64_t* gain,
                       std::int64_t n, int qf);

}  // namespace qcaps::tensor
