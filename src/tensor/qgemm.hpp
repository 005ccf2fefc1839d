// Blocked, packed, register-tiled integer GEMM backend for the quantized
// engine: int8 (or int16) operands, exact int32 accumulation, and a fused
// requantization epilogue.
//
// Every entry point runs one pipeline: one blocked driver accumulates the
// product into a dense int32 block, then one epilogue requantizes it (see
// QGemmRequant) and writes each element, converted, to a dense C or to an
// affine-scattered destination (see QGemmScatterTo).
//
// The kernel reuses the GotoBLAS/BLIS decomposition of the float backend in
// gemm.{hpp,cpp}: N is walked in blocks of NC, K in blocks of KC, M in blocks
// of MC; the current A block is packed into kQGemmMR-row panels and the
// current B block into kQGemmNR-column panels; each MR x NR output tile is
// produced by a register-resident microkernel. On the vpmaddwd tiers both
// operands are widened to int16 inside the packed panels with K laid out in
// interleaved pairs, so the microkernel is a chain of pairwise multiply-add
// instructions (vpmaddwd — the signed sibling of the maddubs path, exact for
// the full int8 range including -128) into int32 accumulators:
//
//   - AVX-512 VNNI tier: int8 operands stay narrow — row-contiguous int8 A
//     panels and quad-interleaved (k x 4) B panels consumed by vpdpbusd, four
//     MACs per int32 lane per instruction; int16 operands fuse the
//     madd+add pair into vpdpwssd;
//   - AVX-512BW tier: one zmm per tile row, 16 int32 lanes per vpmaddwd;
//   - AVX2 tier: two ymm per tile row;
//   - portable scalar fallback everywhere else.
//
// The tier follows the shared kernel-tier ladder of isa.hpp: picked once
// from CPUID, capped by QCAPS_ISA (QCAPS_ISA=avx512 stops at the vpmaddwd
// AVX-512BW tier, excluding VNNI) and compiled out by
// -DQCAPS_NATIVE_KERNELS=OFF.
//
// Accumulation is exact as long as the int32 accumulator cannot wrap:
// sum_k |a_ik| * |b_kj| must stay below 2^31 for every output element. For
// full-range int8 operands that holds for k <= qgemm_max_k(8, 8) = 131071
// (checked); for the int16 entry points the caller must bound its operands
// (see qgemm_max_k). Because integer addition is associative, results are
// bit-identical for every kernel tier, blocking split, and thread count.
//
// Matrices are row-major with explicit leading dimensions, exactly like the
// float backend.
#pragma once

#include <cstdint>

#include "tensor/gemm.hpp"  // Trans, Isa

namespace qcaps::tensor {

// Register tile of the integer microkernel (same shape as the float tile).
inline constexpr std::int64_t kQGemmMR = 6;
inline constexpr std::int64_t kQGemmNR = 16;

/// Requantization of raw int32 accumulators onto a narrower fixed-point
/// grid. Every Q-CapsNets format is a power-of-two scaled word (Qm.n), so
/// the rescale is a shift, a round and a clamp. Per output element of row i:
///
///   out = clamp(round_half_up((acc + bias[i]) / 2^s_i), qmin, qmax)
///
/// where s_i is row_shifts[i] when set (per-channel weight formats), else
/// `shift`; a negative shift is an exact left shift. round_half_up is
/// floor(x + 1/2), the convention of fixed::RoundingScheme::kRoundToNearest,
/// so with shift = from_qf - out_fmt.qf the result is bit-identical to
/// hwmodel::rescale_raw(acc + bias[i], from_qf, out_fmt, kRoundToNearest).
struct QGemmRequant {
  int shift = 0;                  ///< in [-30, 31]; negative shifts left
  std::int32_t qmin = INT32_MIN;  ///< saturation bounds of the output grid
  std::int32_t qmax = INT32_MAX;
  const int* row_shifts = nullptr;     ///< optional per-row shift, length m
  const std::int32_t* bias = nullptr;  ///< optional per-row int32 bias at
                                       ///< accumulator scale, length m
};

/// Requantize a single raw accumulator with `rq`'s per-tensor shift and
/// rails: the exact scalar applied to every output element. Bias is not
/// included; pass it in `acc`.
std::int32_t qgemm_requantize(std::int64_t acc, const QGemmRequant& rq);

/// Largest K for which exact int32 accumulation of products of operands with
/// the given significant bit widths (including sign) cannot wrap.
std::int64_t qgemm_max_k(int bits_a, int bits_b);

/// C[m,n] = requant(op(A)[m,k] * op(B)[k,n]) per `rq`.
void qgemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
           const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
           std::int64_t ldb, std::int32_t* c, std::int64_t ldc,
           const QGemmRequant& rq);
void qgemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
           const std::int16_t* a, std::int64_t lda, const std::int16_t* b,
           std::int64_t ldb, std::int32_t* c, std::int64_t ldc,
           const QGemmRequant& rq);

/// Strided batch of requantizing GEMMs: for i in [0, batch):
///   C_i = requant(op(A_i) * op(B_i))
/// with A_i = a + i*stride_a etc. Strides are in elements and may interleave,
/// matching gemm_batch (the capsule vote-product layout).
void qgemm_batch(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                 std::int64_t k, const std::int8_t* a, std::int64_t lda,
                 std::int64_t stride_a, const std::int8_t* b, std::int64_t ldb,
                 std::int64_t stride_b, std::int32_t* c, std::int64_t ldc,
                 std::int64_t stride_c, std::int64_t batch,
                 const QGemmRequant& rq);
void qgemm_batch(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                 std::int64_t k, const std::int16_t* a, std::int64_t lda,
                 std::int64_t stride_a, const std::int16_t* b,
                 std::int64_t ldb, std::int64_t stride_b, std::int32_t* c,
                 std::int64_t ldc, std::int64_t stride_c, std::int64_t batch,
                 const QGemmRequant& rq);

/// Optional record of what a scatter epilogue wrote, so the caller needs no
/// second pass over the result to learn its range or its saturation: the
/// largest |value| and how many values sit at or beyond the rails
/// [rail_lo, rail_hi]. The outputs accumulate (max / sum) onto what the
/// struct already holds, so one record can span several calls.
struct QGemmOutStats {
  std::int64_t rail_lo = INT64_MIN;  ///< in: lower rail to count
  std::int64_t rail_hi = INT64_MAX;  ///< in: upper rail to count
  std::int64_t max_abs = 0;          ///< out: largest |value| written
  std::uint64_t at_rail = 0;         ///< out: values <= rail_lo or >= rail_hi
};

/// Affine scatter destination for the fused requantize+scatter epilogue
/// (qgemm_scatter / qgemm_batch_scatter): output element (i, j) of the
/// logical m x n result is requantized and written, converted to T, at
///
///   dst[(i / row_inner) * row_outer_stride
///       + (i % row_inner) * row_inner_stride
///       + (j / col_inner) * col_outer_stride
///       + (j % col_inner) * col_inner_stride]
///
/// Splitting each output axis into two strided sub-axes expresses the
/// capsule permutations (the j-major [R, Nout, Nin, D] votes layout) without
/// a separate copy pass over a dense result. T is int8, int16, int32 or
/// int64; the requant rails [qmin, qmax] must fit it. Runs with
/// col_inner_stride == 1 are unit-stride and take a vector path on the
/// AVX-512 tiers.
template <typename T>
struct QGemmScatterTo {
  T* dst = nullptr;
  std::int64_t row_inner = 1;  ///< i splits as (i / row_inner, i % row_inner)
  std::int64_t row_outer_stride = 0;
  std::int64_t row_inner_stride = 0;
  std::int64_t col_inner = 1;  ///< j splits as (j / col_inner, j % col_inner)
  std::int64_t col_outer_stride = 0;
  std::int64_t col_inner_stride = 0;
  std::int64_t batch_stride = 0;  ///< dst advance per qgemm_batch_scatter item
  QGemmOutStats* stats = nullptr;  ///< optional: range and rail hits written
};

/// Scattered variant of qgemm: requant(op(A)[m,k] * op(B)[k,n]) per `rq`,
/// each element written straight to `sd` (see QGemmScatterTo) instead of a
/// dense int32 C. Bit-identical to qgemm followed by a converting scatter.
/// SrcT is int8 or int16.
template <typename SrcT, typename DstT>
void qgemm_scatter(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                   std::int64_t k, const SrcT* a, std::int64_t lda,
                   const SrcT* b, std::int64_t ldb, const QGemmRequant& rq,
                   const QGemmScatterTo<DstT>& sd);

/// Strided batch of scattered requantizing GEMMs: item i reads
/// a + i*stride_a / b + i*stride_b and writes to sd.dst + i*sd.batch_stride.
template <typename SrcT, typename DstT>
void qgemm_batch_scatter(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                         std::int64_t k, const SrcT* a, std::int64_t lda,
                         std::int64_t stride_a, const SrcT* b,
                         std::int64_t ldb, std::int64_t stride_b,
                         std::int64_t batch, const QGemmRequant& rq,
                         const QGemmScatterTo<DstT>& sd);

/// The active microkernel tier.
Isa qgemm_kernel();
/// Name of the active tier ("scalar", "avx2", "avx512", "avx512vnni").
const char* qgemm_kernel_name();

/// Test seam: force a specific tier. Returns false (and changes nothing)
/// when that tier is unsupported on this CPU/build.
bool qgemm_force_kernel(Isa k);
/// Undo qgemm_force_kernel.
void qgemm_reset_kernel();

}  // namespace qcaps::tensor
