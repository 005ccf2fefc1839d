#include "tensor/qgemm.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#ifdef QCAPS_X86_NATIVE
#include <immintrin.h>
#endif

namespace qcaps::tensor {
namespace {

constexpr std::int64_t MR = kQGemmMR;
constexpr std::int64_t NR = kQGemmNR;
// Cache blocking, same geometry as the float backend; panels hold int16, so
// the packed A block (MC x KC) is 48 KB -> L2, each packed B strip (KC x NR)
// is 8 KB -> L1, the packed B block (KC x NC) is 512 KB -> L3.
constexpr std::int64_t MC = 96;
constexpr std::int64_t KC = 256;  // even: K is packed in interleaved pairs
constexpr std::int64_t NC = 1024;
constexpr std::int64_t kParallelMinWork = std::int64_t{1} << 16;

std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

// ---- packing ---------------------------------------------------------------
//
// pack_a / pack_b are overloaded on the panel element type: int16 panels
// for the vpmaddwd tiers (below), int8 / uint8 panels for the VNNI int8
// tier (further down).
//
// Panels widen the operands to int16. With kc2 = ceil(kc/2) and
// kcp = kc2 * 2 (K padded to even):
//   A panel (per MR-row block): row-contiguous — (i, p) at out[i*kcp + p],
//     so the no-transpose pack is a straight widening copy and the kernel
//     broadcasts the (2p, 2p+1) pair with one 32-bit memory operand per row.
//   B panel (per NR-col strip): pair-interleaved — (2*p2+q, j) at
//     out[p2*NR*2 + j*2 + q], the operand shape vpmaddwd consumes.
// Rows/columns past the edge and the odd-K tail are zero.

template <typename SrcT>
void pack_a(Trans ta, const SrcT* a, std::int64_t lda, std::int64_t i0,
                  std::int64_t mc, std::int64_t p0, std::int64_t kc,
                  std::int16_t* out) {
  const std::int64_t kcp = 2 * ceil_div(kc, 2);
  for (std::int64_t ib = 0; ib < mc; ib += MR) {
    const std::int64_t mr = std::min(MR, mc - ib);
    for (std::int64_t i = 0; i < MR; ++i) {
      std::int16_t* dst = out + i * kcp;
      if (i < mr) {
        if (ta == Trans::kN) {
          const SrcT* src = a + (i0 + ib + i) * lda + p0;
          for (std::int64_t p = 0; p < kc; ++p)
            dst[p] = static_cast<std::int16_t>(src[p]);
        } else {
          const SrcT* src = a + p0 * lda + i0 + ib + i;
          for (std::int64_t p = 0; p < kc; ++p)
            dst[p] = static_cast<std::int16_t>(src[p * lda]);
        }
        if (kc < kcp) dst[kc] = 0;
      } else {
        // Zero rows past the edge so edge tiles can run the full kernel.
        std::fill(dst, dst + kcp, std::int16_t{0});
      }
    }
    out += MR * kcp;
  }
}

template <typename SrcT>
void pack_b(Trans tb, const SrcT* b, std::int64_t ldb, std::int64_t p0,
                  std::int64_t kc, std::int64_t j0, std::int64_t nc,
                  std::int16_t* out) {
  const std::int64_t kc2 = ceil_div(kc, 2);
  const std::int64_t k2full = kc / 2;
  for (std::int64_t jb = 0; jb < nc; jb += NR) {
    const std::int64_t nr = std::min(NR, nc - jb);
    if (tb == Trans::kN) {
      for (std::int64_t p2 = 0; p2 < kc2; ++p2) {
        const SrcT* lo = b + (p0 + 2 * p2) * ldb + j0 + jb;
        const SrcT* hi = lo + ldb;
        const bool has_hi = p2 < k2full;
        std::int16_t* dst = out + p2 * NR * 2;
        if (has_hi) {
          for (std::int64_t j = 0; j < nr; ++j) {
            dst[j * 2] = static_cast<std::int16_t>(lo[j]);
            dst[j * 2 + 1] = static_cast<std::int16_t>(hi[j]);
          }
        } else {
          for (std::int64_t j = 0; j < nr; ++j) {
            dst[j * 2] = static_cast<std::int16_t>(lo[j]);
            dst[j * 2 + 1] = 0;
          }
        }
        for (std::int64_t j = nr; j < NR; ++j) {
          dst[j * 2] = 0;
          dst[j * 2 + 1] = 0;
        }
      }
    } else {
      for (std::int64_t p2 = 0; p2 < kc2; ++p2) {
        const SrcT* src = b + (j0 + jb) * ldb + p0 + 2 * p2;
        const bool has_hi = p2 < k2full;
        std::int16_t* dst = out + p2 * NR * 2;
        for (std::int64_t j = 0; j < nr; ++j) {
          dst[j * 2] = static_cast<std::int16_t>(src[j * ldb]);
          dst[j * 2 + 1] =
              has_hi ? static_cast<std::int16_t>(src[j * ldb + 1])
                     : std::int16_t{0};
        }
        for (std::int64_t j = nr; j < NR; ++j) {
          dst[j * 2] = 0;
          dst[j * 2 + 1] = 0;
        }
      }
    }
    out += kc2 * NR * 2;
  }
}

// ---- microkernels ----------------------------------------------------------
//
// Each computes the MR x NR tile sum over kc2 packed pairs of
// a(i, 2p)*b(2p, j) + a(i, 2p+1)*b(2p+1, j) with int32 accumulators and
// merges the mr x nr valid region straight into C (overwriting or
// accumulating). Exact as long as the caller's no-wrap bound holds (see
// qgemm_max_k).

void merge_tile(const std::int32_t* t, std::int32_t* c, std::int64_t ldc,
                std::int64_t mr, std::int64_t nr, bool accumulate) {
  for (std::int64_t i = 0; i < mr; ++i) {
    std::int32_t* row = c + i * ldc;
    const std::int32_t* src = t + i * NR;
    if (accumulate) {
      for (std::int64_t j = 0; j < nr; ++j) row[j] += src[j];
    } else {
      for (std::int64_t j = 0; j < nr; ++j) row[j] = src[j];
    }
  }
}

void kernel_scalar_q(std::int64_t kc2, const std::int16_t* ap,
                     const std::int16_t* bp, std::int32_t* c,
                     std::int64_t ldc, std::int64_t mr, std::int64_t nr,
                     bool accumulate) {
  // Accumulate in int64 to keep the fallback free of signed-overflow UB even
  // at the bound; the final value fits int32 under the caller's guarantee.
  const std::int64_t kcp = kc2 * 2;
  std::int64_t t[MR * NR] = {};
  for (std::int64_t p2 = 0; p2 < kc2; ++p2) {
    const std::int16_t* b = bp + p2 * NR * 2;
    for (std::int64_t i = 0; i < MR; ++i) {
      const std::int32_t a0 = ap[i * kcp + 2 * p2];
      const std::int32_t a1 = ap[i * kcp + 2 * p2 + 1];
      for (std::int64_t j = 0; j < NR; ++j)
        t[i * NR + j] += a0 * b[j * 2] + a1 * b[j * 2 + 1];
    }
  }
  std::int32_t t32[MR * NR];
  for (std::int64_t i = 0; i < MR * NR; ++i)
    t32[i] = static_cast<std::int32_t>(t[i]);
  merge_tile(t32, c, ldc, mr, nr, accumulate);
}

#ifdef QCAPS_X86_NATIVE

// Broadcast one packed (a_2p, a_2p+1) int16 pair into every 32-bit lane.
inline std::int32_t load_pair(const std::int16_t* p) {
  std::int32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

__attribute__((target("avx2"))) void kernel_avx2_q(
    std::int64_t kc2, const std::int16_t* ap, const std::int16_t* bp,
    std::int32_t* c, std::int64_t ldc, std::int64_t mr, std::int64_t nr,
    bool accumulate) {
  // 6x16 int32 tile as 6 rows x 2 ymm accumulators; per packed K pair each
  // row costs one broadcast + two vpmaddwd + two vpaddd.
  const std::int64_t kcp = kc2 * 2;
  const std::int16_t* a0 = ap;
  const std::int16_t* a1 = ap + kcp;
  const std::int16_t* a2 = ap + 2 * kcp;
  const std::int16_t* a3 = ap + 3 * kcp;
  const std::int16_t* a4 = ap + 4 * kcp;
  const std::int16_t* a5 = ap + 5 * kcp;
  __m256i r0a = _mm256_setzero_si256(), r0b = _mm256_setzero_si256();
  __m256i r1a = _mm256_setzero_si256(), r1b = _mm256_setzero_si256();
  __m256i r2a = _mm256_setzero_si256(), r2b = _mm256_setzero_si256();
  __m256i r3a = _mm256_setzero_si256(), r3b = _mm256_setzero_si256();
  __m256i r4a = _mm256_setzero_si256(), r4b = _mm256_setzero_si256();
  __m256i r5a = _mm256_setzero_si256(), r5b = _mm256_setzero_si256();
  for (std::int64_t p2 = 0; p2 < kc2; ++p2) {
    const __m256i b0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bp + p2 * NR * 2));
    const __m256i b1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bp + p2 * NR * 2 + 16));
    __m256i av = _mm256_set1_epi32(load_pair(a0 + 2 * p2));
    r0a = _mm256_add_epi32(r0a, _mm256_madd_epi16(av, b0));
    r0b = _mm256_add_epi32(r0b, _mm256_madd_epi16(av, b1));
    av = _mm256_set1_epi32(load_pair(a1 + 2 * p2));
    r1a = _mm256_add_epi32(r1a, _mm256_madd_epi16(av, b0));
    r1b = _mm256_add_epi32(r1b, _mm256_madd_epi16(av, b1));
    av = _mm256_set1_epi32(load_pair(a2 + 2 * p2));
    r2a = _mm256_add_epi32(r2a, _mm256_madd_epi16(av, b0));
    r2b = _mm256_add_epi32(r2b, _mm256_madd_epi16(av, b1));
    av = _mm256_set1_epi32(load_pair(a3 + 2 * p2));
    r3a = _mm256_add_epi32(r3a, _mm256_madd_epi16(av, b0));
    r3b = _mm256_add_epi32(r3b, _mm256_madd_epi16(av, b1));
    av = _mm256_set1_epi32(load_pair(a4 + 2 * p2));
    r4a = _mm256_add_epi32(r4a, _mm256_madd_epi16(av, b0));
    r4b = _mm256_add_epi32(r4b, _mm256_madd_epi16(av, b1));
    av = _mm256_set1_epi32(load_pair(a5 + 2 * p2));
    r5a = _mm256_add_epi32(r5a, _mm256_madd_epi16(av, b0));
    r5b = _mm256_add_epi32(r5b, _mm256_madd_epi16(av, b1));
  }
  if (mr == MR && nr == NR) {
    // Merge straight into C without a bounce buffer.
#define QCAPS_QGEMM_MERGE_ROW(row, lo, hi)                                    \
  do {                                                                        \
    std::int32_t* r_ = (row);                                                 \
    __m256i lo_ = (lo), hi_ = (hi);                                           \
    if (accumulate) {                                                         \
      lo_ = _mm256_add_epi32(                                                 \
          lo_, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r_)));     \
      hi_ = _mm256_add_epi32(                                                 \
          hi_, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r_ + 8))); \
    }                                                                         \
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(r_), lo_);                 \
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(r_ + 8), hi_);             \
  } while (0)
    QCAPS_QGEMM_MERGE_ROW(c + 0 * ldc, r0a, r0b);
    QCAPS_QGEMM_MERGE_ROW(c + 1 * ldc, r1a, r1b);
    QCAPS_QGEMM_MERGE_ROW(c + 2 * ldc, r2a, r2b);
    QCAPS_QGEMM_MERGE_ROW(c + 3 * ldc, r3a, r3b);
    QCAPS_QGEMM_MERGE_ROW(c + 4 * ldc, r4a, r4b);
    QCAPS_QGEMM_MERGE_ROW(c + 5 * ldc, r5a, r5b);
#undef QCAPS_QGEMM_MERGE_ROW
    return;
  }
  std::int32_t t[MR * NR];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(t + 0 * NR), r0a);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(t + 0 * NR + 8), r0b);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(t + 1 * NR), r1a);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(t + 1 * NR + 8), r1b);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(t + 2 * NR), r2a);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(t + 2 * NR + 8), r2b);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(t + 3 * NR), r3a);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(t + 3 * NR + 8), r3b);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(t + 4 * NR), r4a);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(t + 4 * NR + 8), r4b);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(t + 5 * NR), r5a);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(t + 5 * NR + 8), r5b);
  merge_tile(t, c, ldc, mr, nr, accumulate);
}

__attribute__((target("avx512f,avx512bw"))) void kernel_avx512_q(
    std::int64_t kc2, const std::int16_t* ap, const std::int16_t* bp,
    std::int32_t* c, std::int64_t ldc, std::int64_t mr, std::int64_t nr,
    bool accumulate) {
  // One zmm of 16 int32 lanes per tile row: per packed K pair each row is a
  // single vpmaddwd + vpaddd against one 32-element B load. The merge into C
  // is masked, so edge tiles take the same code path.
  const std::int64_t kcp = kc2 * 2;
  const std::int16_t* a0 = ap;
  const std::int16_t* a1 = ap + kcp;
  const std::int16_t* a2 = ap + 2 * kcp;
  const std::int16_t* a3 = ap + 3 * kcp;
  const std::int16_t* a4 = ap + 4 * kcp;
  const std::int16_t* a5 = ap + 5 * kcp;
  __m512i r0 = _mm512_setzero_si512();
  __m512i r1 = _mm512_setzero_si512();
  __m512i r2 = _mm512_setzero_si512();
  __m512i r3 = _mm512_setzero_si512();
  __m512i r4 = _mm512_setzero_si512();
  __m512i r5 = _mm512_setzero_si512();
  const std::int16_t* bq = bp;
  std::int64_t p2 = 0;
  for (; p2 + 2 <= kc2; p2 += 2) {  // 2x unroll to amortize loop overhead
    const __m512i b0 = _mm512_loadu_si512(bq);
    r0 = _mm512_add_epi32(r0, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a0 + p2 * 2)), b0));
    r1 = _mm512_add_epi32(r1, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a1 + p2 * 2)), b0));
    r2 = _mm512_add_epi32(r2, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a2 + p2 * 2)), b0));
    r3 = _mm512_add_epi32(r3, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a3 + p2 * 2)), b0));
    r4 = _mm512_add_epi32(r4, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a4 + p2 * 2)), b0));
    r5 = _mm512_add_epi32(r5, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a5 + p2 * 2)), b0));
    const __m512i b1 = _mm512_loadu_si512(bq + NR * 2);
    r0 = _mm512_add_epi32(r0, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a0 + p2 * 2 + 2)), b1));
    r1 = _mm512_add_epi32(r1, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a1 + p2 * 2 + 2)), b1));
    r2 = _mm512_add_epi32(r2, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a2 + p2 * 2 + 2)), b1));
    r3 = _mm512_add_epi32(r3, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a3 + p2 * 2 + 2)), b1));
    r4 = _mm512_add_epi32(r4, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a4 + p2 * 2 + 2)), b1));
    r5 = _mm512_add_epi32(r5, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a5 + p2 * 2 + 2)), b1));
    bq += 2 * NR * 2;
  }
  if (p2 < kc2) {
    const __m512i b = _mm512_loadu_si512(bq);
    r0 = _mm512_add_epi32(r0, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a0 + p2 * 2)), b));
    r1 = _mm512_add_epi32(r1, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a1 + p2 * 2)), b));
    r2 = _mm512_add_epi32(r2, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a2 + p2 * 2)), b));
    r3 = _mm512_add_epi32(r3, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a3 + p2 * 2)), b));
    r4 = _mm512_add_epi32(r4, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a4 + p2 * 2)), b));
    r5 = _mm512_add_epi32(r5, _mm512_madd_epi16(_mm512_set1_epi32(load_pair(a5 + p2 * 2)), b));
  }
  const __mmask16 mask =
      static_cast<__mmask16>((std::uint32_t{1} << nr) - 1);
#define QCAPS_QGEMM_MERGE_ROW512(i, reg)                                     \
  do {                                                                       \
    if ((i) < mr) {                                                          \
      std::int32_t* row_ = c + (i)*ldc;                                      \
      __m512i v_ = (reg);                                                    \
      if (accumulate)                                                        \
        v_ = _mm512_add_epi32(                                               \
            v_, _mm512_maskz_loadu_epi32(mask, row_));                       \
      _mm512_mask_storeu_epi32(row_, mask, v_);                              \
    }                                                                        \
  } while (0)
  QCAPS_QGEMM_MERGE_ROW512(0, r0);
  QCAPS_QGEMM_MERGE_ROW512(1, r1);
  QCAPS_QGEMM_MERGE_ROW512(2, r2);
  QCAPS_QGEMM_MERGE_ROW512(3, r3);
  QCAPS_QGEMM_MERGE_ROW512(4, r4);
  QCAPS_QGEMM_MERGE_ROW512(5, r5);
#undef QCAPS_QGEMM_MERGE_ROW512
}

// ---- AVX-512 VNNI int8 path ------------------------------------------------
//
// The vpmaddwd tiers widen int8 operands to int16 inside the packed panels;
// VNNI keeps them narrow, doubling the MACs per instruction. With
// kc4 = ceil(kc/4) and kcp4 = kc4 * 4 (K padded to a multiple of 4):
//   A panel (per MR-row block): row-contiguous signed bytes — (i, p) at
//     out[i*kcp4 + p] — so the kernel broadcasts a 4-byte K quad per row
//     with one 32-bit memory operand.
//   B panel (per VNR = 32-col strip): quad-interleaved offset bytes —
//     (4*p4 + q, j) at out[p4*VNR*4 + j*4 + q], stored as uint8(b + 128)
//     because vpdpbusd multiplies an unsigned by a signed operand. One p4
//     step of a strip is exactly two 64-byte zmm loads. The strip is twice
//     as wide as the vpmaddwd tiers' (two zmm per tile row) so each A-quad
//     broadcast feeds 128 MACs instead of 64.
// The kernel therefore accumulates sum_k (b + 128) * a into each lane: the
// exact product plus 128 * rowsum(op(A))[i] — constant per output row — in
// wrapping int32 arithmetic. The driver subtracts that term in uint32
// arithmetic after the last K block; the true value fits int32 under the
// caller's no-wrap bound and 32-bit addition is modular, so the result is
// exact even when intermediate accumulators wrap.

void pack_a(Trans ta, const std::int8_t* a, std::int64_t lda,
                 std::int64_t i0, std::int64_t mc, std::int64_t p0,
                 std::int64_t kc, std::int8_t* out) {
  const std::int64_t kcp = 4 * ceil_div(kc, 4);
  for (std::int64_t ib = 0; ib < mc; ib += MR) {
    const std::int64_t mr = std::min(MR, mc - ib);
    for (std::int64_t i = 0; i < MR; ++i) {
      std::int8_t* dst = out + i * kcp;
      if (i < mr) {
        if (ta == Trans::kN) {
          std::memcpy(dst, a + (i0 + ib + i) * lda + p0,
                      static_cast<std::size_t>(kc));
        } else {
          const std::int8_t* src = a + p0 * lda + i0 + ib + i;
          for (std::int64_t p = 0; p < kc; ++p) dst[p] = src[p * lda];
        }
        std::fill(dst + kc, dst + kcp, std::int8_t{0});
      } else {
        std::fill(dst, dst + kcp, std::int8_t{0});
      }
    }
    out += MR * kcp;
  }
}

// Column-strip width of the VNNI int8 microkernel (two zmm per tile row).
inline constexpr std::int64_t VNR = 32;
static_assert(NC % VNR == 0, "B scratch sizing assumes NC is a strip multiple");

void pack_b(Trans tb, const std::int8_t* b, std::int64_t ldb,
                 std::int64_t p0, std::int64_t kc, std::int64_t j0,
                 std::int64_t nc, std::uint8_t* out) {
  const std::int64_t kc4 = ceil_div(kc, 4);
  for (std::int64_t jb = 0; jb < nc; jb += VNR) {
    const std::int64_t nr = std::min(VNR, nc - jb);
    for (std::int64_t p4 = 0; p4 < kc4; ++p4) {
      std::uint8_t* dst = out + p4 * VNR * 4;
      const std::int64_t pq = std::min<std::int64_t>(4, kc - 4 * p4);
      for (std::int64_t j = 0; j < nr; ++j) {
        for (std::int64_t q = 0; q < pq; ++q) {
          const std::int64_t p = p0 + 4 * p4 + q;
          const std::int8_t v = tb == Trans::kN ? b[p * ldb + j0 + jb + j]
                                                : b[(j0 + jb + j) * ldb + p];
          // Offset bytes; K-tail and edge-column pads are 0, which
          // contributes nothing against a zero (padded) A quad and is
          // masked out of the merge for edge columns.
          dst[j * 4 + q] = static_cast<std::uint8_t>(static_cast<int>(v) + 128);
        }
        for (std::int64_t q = pq; q < 4; ++q) dst[j * 4 + q] = 0;
      }
      for (std::int64_t j = nr; j < VNR; ++j) std::memset(dst + j * 4, 0, 4);
    }
    out += kc4 * VNR * 4;
  }
}

// Broadcast one packed 4-byte A quad into every 32-bit lane.
inline std::int32_t load_quad(const std::int8_t* p) {
  std::int32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

__attribute__((target("avx512f,avx512bw,avx512vnni"))) void
kernel_avx512vnni_q8(std::int64_t kc4, const std::int8_t* ap,
                     const std::uint8_t* bp, std::int32_t* c, std::int64_t ldc,
                     std::int64_t mr, std::int64_t nr, bool accumulate) {
  // Two zmm of 16 int32 lanes per tile row (VNR = 32 columns): per K quad
  // each row is two vpdpbusd against the strip's pair of 64-byte B loads
  // (the unsigned operand), with the row's 4-byte A quad broadcast as the
  // signed operand. The twelve accumulators double as the latency split the
  // vpmaddwd tiers get from their 1-cycle vpaddd chain: each accumulator is
  // touched only twice per unrolled iteration, so the loop runs at port
  // throughput, not vpdpbusd latency.
  const std::int64_t kcp = kc4 * 4;
  const std::int8_t* a0 = ap;
  const std::int8_t* a1 = ap + kcp;
  const std::int8_t* a2 = ap + 2 * kcp;
  const std::int8_t* a3 = ap + 3 * kcp;
  const std::int8_t* a4 = ap + 4 * kcp;
  const std::int8_t* a5 = ap + 5 * kcp;
  __m512i r0l = _mm512_setzero_si512(), r0h = _mm512_setzero_si512();
  __m512i r1l = _mm512_setzero_si512(), r1h = _mm512_setzero_si512();
  __m512i r2l = _mm512_setzero_si512(), r2h = _mm512_setzero_si512();
  __m512i r3l = _mm512_setzero_si512(), r3h = _mm512_setzero_si512();
  __m512i r4l = _mm512_setzero_si512(), r4h = _mm512_setzero_si512();
  __m512i r5l = _mm512_setzero_si512(), r5h = _mm512_setzero_si512();
  const std::uint8_t* bq = bp;
#define QCAPS_QGEMM_VNNI_STEP(off)                                           \
  do {                                                                       \
    const __m512i bl_ = _mm512_loadu_si512(bq + (off)*VNR * 4);              \
    const __m512i bh_ = _mm512_loadu_si512(bq + (off)*VNR * 4 + 64);         \
    __m512i av_;                                                             \
    av_ = _mm512_set1_epi32(load_quad(a0 + (p4 + (off)) * 4));               \
    r0l = _mm512_dpbusd_epi32(r0l, bl_, av_);                                \
    r0h = _mm512_dpbusd_epi32(r0h, bh_, av_);                                \
    av_ = _mm512_set1_epi32(load_quad(a1 + (p4 + (off)) * 4));               \
    r1l = _mm512_dpbusd_epi32(r1l, bl_, av_);                                \
    r1h = _mm512_dpbusd_epi32(r1h, bh_, av_);                                \
    av_ = _mm512_set1_epi32(load_quad(a2 + (p4 + (off)) * 4));               \
    r2l = _mm512_dpbusd_epi32(r2l, bl_, av_);                                \
    r2h = _mm512_dpbusd_epi32(r2h, bh_, av_);                                \
    av_ = _mm512_set1_epi32(load_quad(a3 + (p4 + (off)) * 4));               \
    r3l = _mm512_dpbusd_epi32(r3l, bl_, av_);                                \
    r3h = _mm512_dpbusd_epi32(r3h, bh_, av_);                                \
    av_ = _mm512_set1_epi32(load_quad(a4 + (p4 + (off)) * 4));               \
    r4l = _mm512_dpbusd_epi32(r4l, bl_, av_);                                \
    r4h = _mm512_dpbusd_epi32(r4h, bh_, av_);                                \
    av_ = _mm512_set1_epi32(load_quad(a5 + (p4 + (off)) * 4));               \
    r5l = _mm512_dpbusd_epi32(r5l, bl_, av_);                                \
    r5h = _mm512_dpbusd_epi32(r5h, bh_, av_);                                \
  } while (0)
  std::int64_t p4 = 0;
  for (; p4 + 2 <= kc4; p4 += 2) {
    QCAPS_QGEMM_VNNI_STEP(0);
    QCAPS_QGEMM_VNNI_STEP(1);
    bq += 2 * VNR * 4;
  }
  if (p4 < kc4) QCAPS_QGEMM_VNNI_STEP(0);
#undef QCAPS_QGEMM_VNNI_STEP
  const std::uint32_t full =
      nr >= 32 ? 0xFFFFFFFFu : (std::uint32_t{1} << nr) - 1;
  const __mmask16 mask_lo = static_cast<__mmask16>(full);
  const __mmask16 mask_hi = static_cast<__mmask16>(full >> 16);
#define QCAPS_QGEMM_MERGE_ROW512(i, lo, hi)                                  \
  do {                                                                       \
    if ((i) < mr) {                                                          \
      std::int32_t* row_ = c + (i)*ldc;                                      \
      __m512i vl_ = (lo);                                                    \
      __m512i vh_ = (hi);                                                    \
      if (accumulate) {                                                      \
        vl_ = _mm512_add_epi32(vl_, _mm512_maskz_loadu_epi32(mask_lo, row_)); \
        vh_ = _mm512_add_epi32(                                              \
            vh_, _mm512_maskz_loadu_epi32(mask_hi, row_ + 16));              \
      }                                                                      \
      _mm512_mask_storeu_epi32(row_, mask_lo, vl_);                          \
      _mm512_mask_storeu_epi32(row_ + 16, mask_hi, vh_);                     \
    }                                                                        \
  } while (0)
  QCAPS_QGEMM_MERGE_ROW512(0, r0l, r0h);
  QCAPS_QGEMM_MERGE_ROW512(1, r1l, r1h);
  QCAPS_QGEMM_MERGE_ROW512(2, r2l, r2h);
  QCAPS_QGEMM_MERGE_ROW512(3, r3l, r3h);
  QCAPS_QGEMM_MERGE_ROW512(4, r4l, r4h);
  QCAPS_QGEMM_MERGE_ROW512(5, r5l, r5h);
#undef QCAPS_QGEMM_MERGE_ROW512
}

__attribute__((target("avx512f,avx512bw,avx512vnni"))) void
kernel_avx512vnni_q16(std::int64_t kc2, const std::int16_t* ap,
                      const std::int16_t* bp, std::int32_t* c,
                      std::int64_t ldc, std::int64_t mr, std::int64_t nr,
                      bool accumulate) {
  // kernel_avx512_q with each madd+add pair fused into one vpdpwssd; the
  // int16 pair-interleaved panels are consumed unchanged. Accumulators are
  // split per unroll slot for the same latency reason as the int8 kernel:
  // vpdpwssd carries the dependency through the multi-cycle dot product,
  // where the madd tier chains through 1-cycle vpaddd.
  const std::int64_t kcp = kc2 * 2;
  const std::int16_t* a0 = ap;
  const std::int16_t* a1 = ap + kcp;
  const std::int16_t* a2 = ap + 2 * kcp;
  const std::int16_t* a3 = ap + 3 * kcp;
  const std::int16_t* a4 = ap + 4 * kcp;
  const std::int16_t* a5 = ap + 5 * kcp;
  __m512i r0a = _mm512_setzero_si512(), r0b = _mm512_setzero_si512();
  __m512i r1a = _mm512_setzero_si512(), r1b = _mm512_setzero_si512();
  __m512i r2a = _mm512_setzero_si512(), r2b = _mm512_setzero_si512();
  __m512i r3a = _mm512_setzero_si512(), r3b = _mm512_setzero_si512();
  __m512i r4a = _mm512_setzero_si512(), r4b = _mm512_setzero_si512();
  __m512i r5a = _mm512_setzero_si512(), r5b = _mm512_setzero_si512();
  const std::int16_t* bq = bp;
  std::int64_t p2 = 0;
  for (; p2 + 2 <= kc2; p2 += 2) {
    const __m512i b0 = _mm512_loadu_si512(bq);
    r0a = _mm512_dpwssd_epi32(r0a, _mm512_set1_epi32(load_pair(a0 + p2 * 2)), b0);
    r1a = _mm512_dpwssd_epi32(r1a, _mm512_set1_epi32(load_pair(a1 + p2 * 2)), b0);
    r2a = _mm512_dpwssd_epi32(r2a, _mm512_set1_epi32(load_pair(a2 + p2 * 2)), b0);
    r3a = _mm512_dpwssd_epi32(r3a, _mm512_set1_epi32(load_pair(a3 + p2 * 2)), b0);
    r4a = _mm512_dpwssd_epi32(r4a, _mm512_set1_epi32(load_pair(a4 + p2 * 2)), b0);
    r5a = _mm512_dpwssd_epi32(r5a, _mm512_set1_epi32(load_pair(a5 + p2 * 2)), b0);
    const __m512i b1 = _mm512_loadu_si512(bq + NR * 2);
    r0b = _mm512_dpwssd_epi32(r0b, _mm512_set1_epi32(load_pair(a0 + p2 * 2 + 2)), b1);
    r1b = _mm512_dpwssd_epi32(r1b, _mm512_set1_epi32(load_pair(a1 + p2 * 2 + 2)), b1);
    r2b = _mm512_dpwssd_epi32(r2b, _mm512_set1_epi32(load_pair(a2 + p2 * 2 + 2)), b1);
    r3b = _mm512_dpwssd_epi32(r3b, _mm512_set1_epi32(load_pair(a3 + p2 * 2 + 2)), b1);
    r4b = _mm512_dpwssd_epi32(r4b, _mm512_set1_epi32(load_pair(a4 + p2 * 2 + 2)), b1);
    r5b = _mm512_dpwssd_epi32(r5b, _mm512_set1_epi32(load_pair(a5 + p2 * 2 + 2)), b1);
    bq += 2 * NR * 2;
  }
  if (p2 < kc2) {
    const __m512i b = _mm512_loadu_si512(bq);
    r0a = _mm512_dpwssd_epi32(r0a, _mm512_set1_epi32(load_pair(a0 + p2 * 2)), b);
    r1a = _mm512_dpwssd_epi32(r1a, _mm512_set1_epi32(load_pair(a1 + p2 * 2)), b);
    r2a = _mm512_dpwssd_epi32(r2a, _mm512_set1_epi32(load_pair(a2 + p2 * 2)), b);
    r3a = _mm512_dpwssd_epi32(r3a, _mm512_set1_epi32(load_pair(a3 + p2 * 2)), b);
    r4a = _mm512_dpwssd_epi32(r4a, _mm512_set1_epi32(load_pair(a4 + p2 * 2)), b);
    r5a = _mm512_dpwssd_epi32(r5a, _mm512_set1_epi32(load_pair(a5 + p2 * 2)), b);
  }
  const __m512i r0 = _mm512_add_epi32(r0a, r0b);
  const __m512i r1 = _mm512_add_epi32(r1a, r1b);
  const __m512i r2 = _mm512_add_epi32(r2a, r2b);
  const __m512i r3 = _mm512_add_epi32(r3a, r3b);
  const __m512i r4 = _mm512_add_epi32(r4a, r4b);
  const __m512i r5 = _mm512_add_epi32(r5a, r5b);
  const __mmask16 mask =
      static_cast<__mmask16>((std::uint32_t{1} << nr) - 1);
#define QCAPS_QGEMM_MERGE_ROW512(i, reg)                                     \
  do {                                                                       \
    if ((i) < mr) {                                                          \
      std::int32_t* row_ = c + (i)*ldc;                                      \
      __m512i v_ = (reg);                                                    \
      if (accumulate)                                                        \
        v_ = _mm512_add_epi32(                                               \
            v_, _mm512_maskz_loadu_epi32(mask, row_));                       \
      _mm512_mask_storeu_epi32(row_, mask, v_);                              \
    }                                                                        \
  } while (0)
  QCAPS_QGEMM_MERGE_ROW512(0, r0);
  QCAPS_QGEMM_MERGE_ROW512(1, r1);
  QCAPS_QGEMM_MERGE_ROW512(2, r2);
  QCAPS_QGEMM_MERGE_ROW512(3, r3);
  QCAPS_QGEMM_MERGE_ROW512(4, r4);
  QCAPS_QGEMM_MERGE_ROW512(5, r5);
#undef QCAPS_QGEMM_MERGE_ROW512
}
#endif  // QCAPS_X86_NATIVE

using KernelFn = void (*)(std::int64_t kc2, const std::int16_t* ap,
                          const std::int16_t* bp, std::int32_t* c,
                          std::int64_t ldc, std::int64_t mr, std::int64_t nr,
                          bool accumulate);

struct KernelChoice {
  KernelFn fn;
  Isa tier;
};

KernelChoice make_choice(Isa k) {
  switch (k) {
#ifdef QCAPS_X86_NATIVE
    case Isa::kAvx512Vnni:
      // The int16-panel kernel; int8 operands take the QuadPanels format
      // (see qgemm_i32).
      return {kernel_avx512vnni_q16, Isa::kAvx512Vnni};
    case Isa::kAvx512:
      return {kernel_avx512_q, Isa::kAvx512};
    case Isa::kAvx2:
      return {kernel_avx2_q, Isa::kAvx2};
#endif
    default:
      break;
  }
  return {kernel_scalar_q, Isa::kScalar};
}

KernelChoice g_choice = make_choice(isa_default());

// ---- panel formats ---------------------------------------------------------
//
// What the blocked driver needs to know about a panel format: the packed
// element types (they select the pack_a / pack_b overloads), how many K
// elements share one 32-bit lane, the B strip width and the microkernel.

// The vpmaddwd tiers (and int16 operands on VNNI): int16 panels, K pairs,
// NR-wide strips, the active tier's kernel.
struct PairPanels {
  using A = std::int16_t;
  using B = std::int16_t;
  static constexpr std::int64_t kGroup = 2;
  static constexpr std::int64_t kStrip = NR;
  static KernelFn kernel() { return g_choice.fn; }
};

#ifdef QCAPS_X86_NATIVE
// The VNNI int8 tier: narrow panels, K quads, VNR-wide strips, vpdpbusd.
struct QuadPanels {
  using A = std::int8_t;
  using B = std::uint8_t;
  static constexpr std::int64_t kGroup = 4;
  static constexpr std::int64_t kStrip = VNR;
  static auto kernel() { return &kernel_avx512vnni_q8; }
};
#endif

// Per-thread packing buffers of format P, reused across calls. A packed
// block never exceeds MC x KC (A) or KC x NC (B): MC is a multiple of MR,
// NC of both strip widths, and KC of both K group sizes.
template <typename P>
struct Panels {
  std::vector<typename P::A> a;
  std::vector<typename P::B> b;
};

template <typename P>
Panels<P>& scratch() {
  thread_local Panels<P> s;
  if (s.a.empty()) {
    s.a.resize(static_cast<std::size_t>(MC * KC));
    s.b.resize(static_cast<std::size_t>(KC * NC));
  }
  return s;
}

// ---- blocked driver --------------------------------------------------------

// Single-threaded blocked driver over panel format P, structured exactly
// like gemm_serial in the float backend: C[m,n] = op(A) * op(B) in int32.
template <typename P, typename SrcT>
void qgemm_serial(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                  std::int64_t k, const SrcT* a, std::int64_t lda,
                  const SrcT* b, std::int64_t ldb, std::int32_t* c,
                  std::int64_t ldc) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    for (std::int64_t i = 0; i < m; ++i)
      std::fill(c + i * ldc, c + i * ldc + n, 0);
    return;
  }
  Panels<P>& s = scratch<P>();
  const auto kernel = P::kernel();
  for (std::int64_t jc = 0; jc < n; jc += NC) {
    const std::int64_t nc = std::min(NC, n - jc);
    for (std::int64_t pc = 0; pc < k; pc += KC) {
      const std::int64_t kc = std::min(KC, k - pc);
      const std::int64_t kg = ceil_div(kc, P::kGroup);  // packed K groups
      pack_b(tb, b, ldb, pc, kc, jc, nc, s.b.data());
      for (std::int64_t ic = 0; ic < m; ic += MC) {
        const std::int64_t mc = std::min(MC, m - ic);
        pack_a(ta, a, lda, ic, mc, pc, kc, s.a.data());
        for (std::int64_t jr = 0; jr < nc; jr += P::kStrip) {
          const std::int64_t nr = std::min(P::kStrip, nc - jr);
          const typename P::B* bstrip =
              s.b.data() + (jr / P::kStrip) * (kg * P::kStrip * P::kGroup);
          for (std::int64_t ir = 0; ir < mc; ir += MR) {
            const std::int64_t mr = std::min(MR, mc - ir);
            kernel(kg, s.a.data() + (ir / MR) * (kg * MR * P::kGroup), bstrip,
                   c + (ic + ir) * ldc + jc + jr, ldc, mr, nr, pc > 0);
          }
        }
      }
    }
  }
}

#ifdef _OPENMP
bool want_parallel(std::int64_t work) {
  return work > kParallelMinWork && omp_get_max_threads() > 1 &&
         !omp_in_parallel();
}
#endif

// qgemm_serial, with the larger output dimension split over the OpenMP team
// on tile boundaries when the product is big enough. Integer accumulation
// is exact and associative, so any split is bit-identical.
template <typename P, typename SrcT>
void qgemm_blocked(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                   std::int64_t k, const SrcT* a, std::int64_t lda,
                   const SrcT* b, std::int64_t ldb, std::int32_t* c,
                   std::int64_t ldc) {
#ifdef _OPENMP
  if (want_parallel(m * n * k)) {
    const bool split_n = n >= m;
    const std::int64_t tiles = split_n ? ceil_div(n, NR) : ceil_div(m, MR);
#pragma omp parallel
    {
      const std::int64_t nt = omp_get_num_threads();
      const std::int64_t t = omp_get_thread_num();
      const std::int64_t per = ceil_div(tiles, nt);
      const std::int64_t lo = std::min(t * per, tiles);
      const std::int64_t hi = std::min(lo + per, tiles);
      if (lo < hi) {
        if (split_n) {
          const std::int64_t j0 = lo * NR;
          const std::int64_t j1 = std::min(n, hi * NR);
          qgemm_serial<P>(ta, tb, m, j1 - j0, k, a, lda,
                          tb == Trans::kN ? b + j0 : b + j0 * ldb, ldb, c + j0,
                          ldc);
        } else {
          const std::int64_t i0 = lo * MR;
          const std::int64_t i1 = std::min(m, hi * MR);
          qgemm_serial<P>(ta, tb, i1 - i0, n, k,
                          ta == Trans::kN ? a + i0 * lda : a + i0, lda, b, ldb,
                          c + i0 * ldc, ldc);
        }
      }
    }
    return;
  }
#endif
  qgemm_serial<P>(ta, tb, m, n, k, a, lda, b, ldb, c, ldc);
}

// C[m,n] = op(A)[m,k] * op(B)[k,n], exact int32, on the active tier.
template <typename SrcT>
void qgemm_i32(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
               std::int64_t k, const SrcT* a, std::int64_t lda, const SrcT* b,
               std::int64_t ldb, std::int32_t* c, std::int64_t ldc) {
#ifdef QCAPS_X86_NATIVE
  if constexpr (std::is_same_v<SrcT, std::int8_t>) {
    if (g_choice.tier == Isa::kAvx512Vnni) {
      qgemm_blocked<QuadPanels>(ta, tb, m, n, k, a, lda, b, ldb, c, ldc);
      if (m <= 0 || n <= 0 || k <= 0) return;
      // Undo the +128 B-panel offset: the driver accumulated
      // acc + 128*rowsum(op(A))[i] mod 2^32 into each row (see the VNNI
      // packing comment); subtract the offset term in wrapping 32-bit
      // arithmetic.
#ifdef _OPENMP
#pragma omp parallel for schedule(static) if (want_parallel(m * n))
#endif
      for (std::int64_t i = 0; i < m; ++i) {
        std::int64_t sum = 0;
        for (std::int64_t p = 0; p < k; ++p)
          sum += ta == Trans::kN ? a[i * lda + p] : a[p * lda + i];
        const std::uint32_t off = static_cast<std::uint32_t>(
            static_cast<std::uint64_t>(std::int64_t{128} * sum));
        std::int32_t* row = c + i * ldc;
        for (std::int64_t j = 0; j < n; ++j)
          row[j] = static_cast<std::int32_t>(
              static_cast<std::uint32_t>(row[j]) - off);
      }
      return;
    }
  }
#endif
  qgemm_blocked<PairPanels>(ta, tb, m, n, k, a, lda, b, ldb, c, ldc);
}

// ---- requantize + scatter epilogue -----------------------------------------

// Validate up front, per-row shifts included: the epilogue may run inside
// an OpenMP parallel region (the batch loop), where a QCAPS throw would
// abort the process instead of propagating.
void check_requant(const QGemmRequant& rq, std::int64_t m) {
  QCAPS_CHECK_MSG(rq.shift >= -30 && rq.shift <= 31,
                  "qgemm requant shift out of [-30, 31]");
  QCAPS_CHECK(rq.qmin <= rq.qmax);
  if (rq.row_shifts)
    for (std::int64_t i = 0; i < m; ++i)
      QCAPS_CHECK_MSG(rq.row_shifts[i] >= -30 && rq.row_shifts[i] <= 31,
                      "qgemm per-row requant shift out of [-30, 31]");
}

// round_half_up(acc / 2^shift) clamped to [qmin, qmax]: a right shift with
// the 2^(shift-1) rounding constant, or an exact left shift for shift <= 0.
inline std::int32_t requant_one(std::int64_t acc, int shift, std::int32_t qmin,
                                std::int32_t qmax) {
  const std::int64_t r = shift > 0
                             ? (acc + (std::int64_t{1} << (shift - 1))) >> shift
                             : acc << -shift;
  return static_cast<std::int32_t>(std::clamp<std::int64_t>(r, qmin, qmax));
}

template <typename DstT>
void check_scatter(const QGemmScatterTo<DstT>& sd, const QGemmRequant& rq) {
  QCAPS_CHECK_MSG(sd.dst != nullptr, "qgemm scatter destination is null");
  QCAPS_CHECK_MSG(sd.row_inner >= 1 && sd.col_inner >= 1,
                  "qgemm scatter inner split sizes must be >= 1");
  QCAPS_CHECK_MSG(
      rq.qmin >= std::numeric_limits<DstT>::min() &&
          rq.qmax <= std::numeric_limits<DstT>::max(),
      "qgemm scatter rails do not fit the destination element type");
}

#ifdef QCAPS_X86_NATIVE
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
// requant_one over one output row into unit-stride runs: column j lands at
// dst[(j / run) * run_stride + j % run]. 8 accumulators per step in int64
// lanes (an int32 accumulator plus an int32 bias can leave int32), masked
// run tails instead of scalar ones, and the range / rail hits recorded on
// the way. GCC 12 emits -Wmaybe-uninitialized false positives from its own
// AVX-512 intrinsic headers here (PR105593).
template <typename DstT>
__attribute__((target("avx512f"))) void requant_row_runs_avx512(
    const std::int32_t* src, std::int64_t n, std::int64_t run,
    std::int64_t run_stride, std::int64_t base, int shift, std::int32_t qmin,
    std::int32_t qmax, std::int64_t rail_lo, std::int64_t rail_hi, DstT* dst,
    std::int64_t& max_abs, std::uint64_t& at_rail) {
  const __m512i vbase = _mm512_set1_epi64(
      base + (shift >= 1 ? (std::int64_t{1} << (shift - 1)) : 0));
  const __m128i vshr = _mm_cvtsi32_si128(shift > 0 ? shift : 0);
  const __m128i vshl = _mm_cvtsi32_si128(shift < 0 ? -shift : 0);
  const __m512i vmin = _mm512_set1_epi64(qmin);
  const __m512i vmax = _mm512_set1_epi64(qmax);
  const __m512i vlo = _mm512_set1_epi64(rail_lo);
  const __m512i vhi = _mm512_set1_epi64(rail_hi);
  __m512i vabs = _mm512_setzero_si512();
  std::uint64_t hits = 0;
  for (std::int64_t j0 = 0; j0 < n; j0 += run) {
    const std::int64_t len = std::min(run, n - j0);
    const std::int32_t* s = src + j0;
    DstT* d = dst + (j0 / run) * run_stride;
    for (std::int64_t j = 0; j < len; j += 8) {
      const std::int64_t left = len - j;
      const __mmask8 mk = left >= 8 ? static_cast<__mmask8>(0xFF)
                                    : static_cast<__mmask8>((1u << left) - 1);
      const __m256i a32 = _mm512_castsi512_si256(
          _mm512_maskz_loadu_epi32(static_cast<__mmask16>(mk), s + j));
      __m512i v = _mm512_add_epi64(_mm512_cvtepi32_epi64(a32), vbase);
      v = shift >= 0 ? _mm512_sra_epi64(v, vshr) : _mm512_sll_epi64(v, vshl);
      v = _mm512_min_epi64(_mm512_max_epi64(v, vmin), vmax);
      vabs = _mm512_mask_max_epi64(vabs, mk, vabs, _mm512_abs_epi64(v));
      hits += static_cast<std::uint64_t>(__builtin_popcount(
          _mm512_mask_cmple_epi64_mask(mk, v, vlo) |
          _mm512_mask_cmpge_epi64_mask(mk, v, vhi)));
      if constexpr (sizeof(DstT) == 1)
        _mm512_mask_cvtepi64_storeu_epi8(d + j, mk, v);
      else if constexpr (sizeof(DstT) == 2)
        _mm512_mask_cvtepi64_storeu_epi16(d + j, mk, v);
      else if constexpr (sizeof(DstT) == 4)
        _mm512_mask_cvtepi64_storeu_epi32(d + j, mk, v);
      else
        _mm512_mask_storeu_epi64(d + j, mk, v);
    }
  }
  max_abs = std::max(max_abs,
                     static_cast<std::int64_t>(_mm512_reduce_max_epi64(vabs)));
  at_rail += hits;
}
#pragma GCC diagnostic pop
#endif  // QCAPS_X86_NATIVE

// Requantize the dense int32 accumulators c [m, n] (leading dimension ldc)
// per `rq`, converting each element to DstT and writing it to the affine
// scattered destination; the range and rail hits of what was written
// accumulate into sd.stats.
template <typename DstT>
void requant_scatter_pass(const std::int32_t* c, std::int64_t ldc,
                          std::int64_t m, std::int64_t n,
                          const QGemmRequant& rq,
                          const QGemmScatterTo<DstT>& sd, DstT* dst) {
  const std::int64_t rail_lo = sd.stats ? sd.stats->rail_lo : INT64_MIN;
  const std::int64_t rail_hi = sd.stats ? sd.stats->rail_hi : INT64_MAX;
#ifdef QCAPS_X86_NATIVE
  const bool vector_runs =
      sd.col_inner_stride == 1 &&
      (g_choice.tier == Isa::kAvx512 || g_choice.tier == Isa::kAvx512Vnni);
#endif
  std::int64_t max_abs = 0;
  std::uint64_t at_rail = 0;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) if (want_parallel(m * n)) \
    reduction(max : max_abs) reduction(+ : at_rail)
#endif
  for (std::int64_t i = 0; i < m; ++i) {
    const int shift = rq.row_shifts ? rq.row_shifts[i] : rq.shift;
    const std::int64_t base = rq.bias ? rq.bias[i] : 0;
    const std::int32_t* row = c + i * ldc;
    DstT* drow = dst + (i / sd.row_inner) * sd.row_outer_stride +
                 (i % sd.row_inner) * sd.row_inner_stride;
#ifdef QCAPS_X86_NATIVE
    if (vector_runs) {
      requant_row_runs_avx512(row, n, sd.col_inner, sd.col_outer_stride, base,
                              shift, rq.qmin, rq.qmax, rail_lo, rail_hi, drow,
                              max_abs, at_rail);
      continue;
    }
#endif
    std::int64_t j = 0;
    for (std::int64_t jo = 0; j < n; ++jo) {
      DstT* dcol = drow + jo * sd.col_outer_stride;
      const std::int64_t ji_end = std::min(sd.col_inner, n - j);
      for (std::int64_t ji = 0; ji < ji_end; ++ji, ++j) {
        const std::int32_t v = requant_one(row[j] + base, shift, rq.qmin,
                                           rq.qmax);
        dcol[ji * sd.col_inner_stride] = static_cast<DstT>(v);
        max_abs = std::max<std::int64_t>(max_abs, v < 0 ? -std::int64_t{v} : v);
        at_rail += (v <= rail_lo || v >= rail_hi) ? 1 : 0;
      }
    }
  }
  if (sd.stats) {
    sd.stats->max_abs = std::max(sd.stats->max_abs, max_abs);
    sd.stats->at_rail += at_rail;
  }
}

template <typename SrcT, typename DstT>
void qgemm_scatter_one(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                       std::int64_t k, const SrcT* a, std::int64_t lda,
                       const SrcT* b, std::int64_t ldb, const QGemmRequant& rq,
                       const QGemmScatterTo<DstT>& sd, DstT* dst) {
  if (m <= 0 || n <= 0) return;
  // The accumulators bounce through a per-thread dense buffer; only the
  // epilogue is scattered, so the microkernels are untouched.
  thread_local std::vector<std::int32_t> cbuf;
  if (cbuf.size() < static_cast<std::size_t>(m * n))
    cbuf.resize(static_cast<std::size_t>(m * n));
  qgemm_i32(ta, tb, m, n, k, a, lda, b, ldb, cbuf.data(), n);
  requant_scatter_pass(cbuf.data(), n, m, n, rq, sd, dst);
}

// The dense row-major C of qgemm / qgemm_batch as a scatter destination:
// each output row is one unit-stride run.
QGemmScatterTo<std::int32_t> dense_to(std::int32_t* c, std::int64_t n,
                                      std::int64_t ldc,
                                      std::int64_t stride_c) {
  QGemmScatterTo<std::int32_t> sd;
  sd.dst = c;
  sd.row_outer_stride = ldc;
  sd.col_inner = std::max<std::int64_t>(n, 1);
  sd.col_inner_stride = 1;
  sd.batch_stride = stride_c;
  return sd;
}

}  // namespace

std::int32_t qgemm_requantize(std::int64_t acc, const QGemmRequant& rq) {
  check_requant(rq, 0);
  return requant_one(acc, rq.shift, rq.qmin, rq.qmax);
}

std::int64_t qgemm_max_k(int bits_a, int bits_b) {
  QCAPS_CHECK(bits_a >= 2 && bits_b >= 2 && bits_a + bits_b <= 33);
  // |a| <= 2^(bits_a - 1), |b| <= 2^(bits_b - 1).
  return ((std::int64_t{1} << 31) - 1) >> (bits_a + bits_b - 2);
}

template <typename SrcT, typename DstT>
void qgemm_batch_scatter(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                         std::int64_t k, const SrcT* a, std::int64_t lda,
                         std::int64_t stride_a, const SrcT* b,
                         std::int64_t ldb, std::int64_t stride_b,
                         std::int64_t batch, const QGemmRequant& rq,
                         const QGemmScatterTo<DstT>& sd) {
  static_assert(std::is_same_v<SrcT, std::int8_t> ||
                    std::is_same_v<SrcT, std::int16_t>,
                "qgemm operands are int8 or int16");
  // int8 operands are full-range by contract; int16 callers bound theirs
  // (see qgemm_max_k).
  if constexpr (std::is_same_v<SrcT, std::int8_t>)
    QCAPS_CHECK_MSG(k <= qgemm_max_k(8, 8),
                    "qgemm int8 K too large for exact int32 accumulation");
  if (batch <= 0) return;
  check_requant(rq, m);
  check_scatter(sd, rq);
#ifdef _OPENMP
  if (batch > 1 && want_parallel(batch * m * n * k)) {
    // Each item records into its own stats slot; the slots are combined in
    // item order afterwards (max and sum are order-free anyway).
    std::vector<QGemmOutStats> item_stats(
        sd.stats ? static_cast<std::size_t>(batch) : 0);
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < batch; ++i) {
      QGemmScatterTo<DstT> item = sd;
      if (sd.stats) {
        item.stats = &item_stats[static_cast<std::size_t>(i)];
        item.stats->rail_lo = sd.stats->rail_lo;
        item.stats->rail_hi = sd.stats->rail_hi;
      }
      qgemm_scatter_one(ta, tb, m, n, k, a + i * stride_a, lda,
                        b + i * stride_b, ldb, rq, item,
                        sd.dst + i * sd.batch_stride);
    }
    for (const QGemmOutStats& st : item_stats) {
      sd.stats->max_abs = std::max(sd.stats->max_abs, st.max_abs);
      sd.stats->at_rail += st.at_rail;
    }
    return;
  }
#endif
  for (std::int64_t i = 0; i < batch; ++i)
    qgemm_scatter_one(ta, tb, m, n, k, a + i * stride_a, lda,
                      b + i * stride_b, ldb, rq, sd,
                      sd.dst + i * sd.batch_stride);
}

template <typename SrcT, typename DstT>
void qgemm_scatter(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                   std::int64_t k, const SrcT* a, std::int64_t lda,
                   const SrcT* b, std::int64_t ldb, const QGemmRequant& rq,
                   const QGemmScatterTo<DstT>& sd) {
  qgemm_batch_scatter(ta, tb, m, n, k, a, lda, 0, b, ldb, 0, 1, rq, sd);
}

void qgemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
           const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
           std::int64_t ldb, std::int32_t* c, std::int64_t ldc,
           const QGemmRequant& rq) {
  qgemm_batch_scatter(ta, tb, m, n, k, a, lda, 0, b, ldb, 0, 1, rq,
                      dense_to(c, n, ldc, 0));
}

void qgemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
           const std::int16_t* a, std::int64_t lda, const std::int16_t* b,
           std::int64_t ldb, std::int32_t* c, std::int64_t ldc,
           const QGemmRequant& rq) {
  qgemm_batch_scatter(ta, tb, m, n, k, a, lda, 0, b, ldb, 0, 1, rq,
                      dense_to(c, n, ldc, 0));
}

void qgemm_batch(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                 std::int64_t k, const std::int8_t* a, std::int64_t lda,
                 std::int64_t stride_a, const std::int8_t* b, std::int64_t ldb,
                 std::int64_t stride_b, std::int32_t* c, std::int64_t ldc,
                 std::int64_t stride_c, std::int64_t batch,
                 const QGemmRequant& rq) {
  qgemm_batch_scatter(ta, tb, m, n, k, a, lda, stride_a, b, ldb, stride_b,
                      batch, rq, dense_to(c, n, ldc, stride_c));
}

void qgemm_batch(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                 std::int64_t k, const std::int16_t* a, std::int64_t lda,
                 std::int64_t stride_a, const std::int16_t* b,
                 std::int64_t ldb, std::int64_t stride_b, std::int32_t* c,
                 std::int64_t ldc, std::int64_t stride_c, std::int64_t batch,
                 const QGemmRequant& rq) {
  qgemm_batch_scatter(ta, tb, m, n, k, a, lda, stride_a, b, ldb, stride_b,
                      batch, rq, dense_to(c, n, ldc, stride_c));
}

#define QCAPS_QGEMM_SCATTER(SrcT, DstT)                                       \
  template void qgemm_scatter<SrcT, DstT>(                                    \
      Trans, Trans, std::int64_t, std::int64_t, std::int64_t, const SrcT*,    \
      std::int64_t, const SrcT*, std::int64_t, const QGemmRequant&,          \
      const QGemmScatterTo<DstT>&);                                           \
  template void qgemm_batch_scatter<SrcT, DstT>(                              \
      Trans, Trans, std::int64_t, std::int64_t, std::int64_t, const SrcT*,    \
      std::int64_t, std::int64_t, const SrcT*, std::int64_t, std::int64_t,    \
      std::int64_t, const QGemmRequant&, const QGemmScatterTo<DstT>&);
#define QCAPS_QGEMM_SCATTER_TO(SrcT)        \
  QCAPS_QGEMM_SCATTER(SrcT, std::int8_t)    \
  QCAPS_QGEMM_SCATTER(SrcT, std::int16_t)   \
  QCAPS_QGEMM_SCATTER(SrcT, std::int32_t)   \
  QCAPS_QGEMM_SCATTER(SrcT, std::int64_t)
QCAPS_QGEMM_SCATTER_TO(std::int8_t)
QCAPS_QGEMM_SCATTER_TO(std::int16_t)
#undef QCAPS_QGEMM_SCATTER_TO
#undef QCAPS_QGEMM_SCATTER

Isa qgemm_kernel() { return g_choice.tier; }

const char* qgemm_kernel_name() { return isa_name(g_choice.tier); }

bool qgemm_force_kernel(Isa k) {
  if (!isa_supported(k)) return false;
  g_choice = make_choice(k);
  return true;
}

void qgemm_reset_kernel() { g_choice = make_choice(isa_default()); }

}  // namespace qcaps::tensor
