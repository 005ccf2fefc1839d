#include "tensor/caps_kernels.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#ifdef _OPENMP
#include <omp.h>
#endif

#ifdef QCAPS_X86_NATIVE
#include <immintrin.h>
#endif

namespace qcaps::tensor {
namespace {

// Below this many multiply-adds the threading machinery costs more than it
// saves (same threshold as the GEMM backends).
constexpr std::int64_t kParallelMinWork = std::int64_t{1} << 15;

std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

// Split [0, total) into per-thread ranges and run f(lo, hi) on each; every
// index is processed by exactly one thread, so results are identical for any
// thread count. Serial when the work is small or we are already inside a
// parallel region.
template <typename F>
void run_ranges(std::int64_t total, std::int64_t work_per, const F& f) {
  if (total <= 0) return;
#ifdef _OPENMP
  if (total > 1 && total * work_per > kParallelMinWork &&
      omp_get_max_threads() > 1 && !omp_in_parallel()) {
#pragma omp parallel
    {
      const std::int64_t nt = omp_get_num_threads();
      const std::int64_t tid = omp_get_thread_num();
      const std::int64_t per = ceil_div(total, nt);
      const std::int64_t lo = std::min(tid * per, total);
      const std::int64_t hi = std::min(lo + per, total);
      if (lo < hi) f(lo, hi);
    }
    return;
  }
#endif
  f(0, total);
}

// ---- shared exp polynomial -------------------------------------------------
//
// Cephes-style expf: clamp, split x = n*ln2 + r with r in [-ln2/2, ln2/2],
// degree-5 polynomial for e^r, scale by 2^n through the float exponent
// field. Max relative error ~2 ulp — far below every softmax tolerance in
// the suite. The scalar tier evaluates the *same* polynomial so changing
// tier never changes the pointwise math, only vector summation order.

constexpr float kExpHi = 88.3762626647950f;
constexpr float kExpLo = -87.3365478515625f;
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kExpC1 = 0.693359375f;
constexpr float kExpC2 = -2.12194440e-4f;
constexpr float kExpP0 = 1.9875691500e-4f;
constexpr float kExpP1 = 1.3981999507e-3f;
constexpr float kExpP2 = 8.3334519073e-3f;
constexpr float kExpP3 = 4.1665795894e-2f;
constexpr float kExpP4 = 1.6666665459e-1f;
constexpr float kExpP5 = 5.0000001201e-1f;

inline float poly_expf(float x) {
  x = std::min(kExpHi, std::max(kExpLo, x));
  const float n = std::nearbyintf(x * kLog2e);
  float r = x - n * kExpC1;
  r = r - n * kExpC2;
  float z = kExpP0;
  z = z * r + kExpP1;
  z = z * r + kExpP2;
  z = z * r + kExpP3;
  z = z * r + kExpP4;
  z = z * r + kExpP5;
  z = z * r * r + r + 1.0f;
  const std::int32_t e = (static_cast<std::int32_t>(n) + 127) << 23;
  float scale;
  std::memcpy(&scale, &e, sizeof(scale));
  return z * scale;
}

// Squash gain for a row with squared norm nsq: f(n) = n / (1 + n^2) applied
// to s/n, i.e. v = s * sqrt(nsq + eps) / (1 + nsq) — matches nn::squash_last.
inline float squash_gain(float nsq, float eps) {
  return std::sqrt(nsq + eps) / (1.0f + nsq);
}

// ---- integer squash gain core ----------------------------------------------
//
// The SquashUnit datapath (hwmodel/units.cpp) replicated raw-for-raw; that
// scalar unit is the oracle every tier is locked against. Normalization is
// the branch-free form of the unit's while-loop: for s > 0 there is exactly
// one even e with m = s / 2^e in [2^qf, 2^(qf+2)), namely the parity round-up
// of bit_width(s) - qf - 2, so both derivations land on the same (m, e).

// Tail shared by every tier after the Newton-Raphson value y ~ 1/sqrt(m) is
// known: undo the exponent, then gain = (1 - 1/(1 + nsq)) / sqrt(nsq).
inline std::int64_t squash_gain_finish(std::int64_t s, std::int64_t y,
                                       int half_e, int qf) {
  std::int64_t inv_sqrt;
  if (half_e > 0) {
    inv_sqrt = y >> std::min(half_e, 62);
  } else if (half_e < 0) {
    const int up = -half_e;
    inv_sqrt = up >= 30 ? std::int64_t{1} << 53  // saturate for tiny s
                        : y << up;
  } else {
    inv_sqrt = y;
  }
  const std::int64_t one = std::int64_t{1} << qf;
  const std::int64_t denom = one + s;
  const std::int64_t inv_denom = (one << qf) / denom;
  const std::int64_t ratio = one - inv_denom;
  return (ratio * inv_sqrt) >> qf;
}

inline std::int64_t squash_gain_one(std::int64_t s, int qf) {
  if (s <= 0) return 0;
  const std::int64_t one = std::int64_t{1} << qf;
  const int e0 =
      static_cast<int>(std::bit_width(static_cast<std::uint64_t>(s))) - qf - 2;
  const int e = e0 + (e0 & 1);  // e0 & 1 == 1 for negative odd e0 too
  const std::int64_t m = e >= 0 ? s >> e : s << -e;
  // Seed: 1/sqrt(m) in (0.5, 1]; two-segment linear fit within ~8% on [1, 4).
  std::int64_t y = m < 2 * one ? one - ((m - one) >> 2)
                               : (3 * one >> 2) - ((m - 2 * one) >> 3);
  const std::int64_t three = 3 * one;
  for (int it = 0; it < 4; ++it) {
    const std::int64_t y2 = (y * y) >> qf;
    const std::int64_t my2 = (m * y2) >> qf;
    y = (y * (three - my2)) >> (qf + 1);
  }
  return squash_gain_finish(s, y, e / 2, qf);
}

// ---- scalar tier -----------------------------------------------------------
//
// Plain loops over the j-major slabs; the portable fallback every non-AVX
// machine runs and the oracle the vector tiers are tested against.

namespace scalar {

inline void squash_row(const float* s, float* v, std::int64_t d, float eps) {
  float nsq = 0.0f;
  for (std::int64_t k = 0; k < d; ++k) nsq += s[k] * s[k];
  const float f = squash_gain(nsq, eps);
  for (std::int64_t k = 0; k < d; ++k) v[k] = f * s[k];
}

inline void ws_slab(const float* ur, const float* cs, float* srow,
                    std::int64_t nin, std::int64_t d) {
  std::fill(srow, srow + d, 0.0f);
  for (std::int64_t i = 0; i < nin; ++i) {
    const float cij = cs[i];
    const float* uv = ur + i * d;
    for (std::int64_t k = 0; k < d; ++k) srow[k] += cij * uv[k];
  }
}

void ws(const float* u, const float* c, float* s, std::int64_t nin,
        std::int64_t d, std::int64_t t0, std::int64_t t1) {
  for (std::int64_t t = t0; t < t1; ++t)
    ws_slab(u + t * nin * d, c + t * nin, s + t * d, nin, d);
}

void ws_squash(const float* u, const float* c, float* s, float* v,
               std::int64_t nin, std::int64_t d, float eps, std::int64_t t0,
               std::int64_t t1) {
  for (std::int64_t t = t0; t < t1; ++t) {
    float* srow = s + t * d;
    ws_slab(u + t * nin * d, c + t * nin, srow, nin, d);
    squash_row(srow, v + t * d, d, eps);
  }
}

inline void agree_slab(const float* ur, const float* vrow, float* os,
                       std::int64_t nin, std::int64_t d, bool accumulate) {
  for (std::int64_t i = 0; i < nin; ++i) {
    const float* uv = ur + i * d;
    float acc = 0.0f;
    for (std::int64_t k = 0; k < d; ++k) acc += uv[k] * vrow[k];
    if (accumulate)
      os[i] += acc;
    else
      os[i] = acc;
  }
}

void agree(const float* u, const float* v, float* out, std::int64_t nin,
           std::int64_t d, bool accumulate, std::int64_t t0, std::int64_t t1) {
  for (std::int64_t t = t0; t < t1; ++t)
    agree_slab(u + t * nin * d, v + t * d, out + t * nin, nin, d, accumulate);
}

void iter_fused(const float* u, const float* c, float* s, float* v, float* b,
                std::int64_t nin, std::int64_t d, float eps, std::int64_t t0,
                std::int64_t t1) {
  for (std::int64_t t = t0; t < t1; ++t) {
    const float* ur = u + t * nin * d;
    float* srow = s + t * d;
    float* vrow = v + t * d;
    ws_slab(ur, c + t * nin, srow, nin, d);
    squash_row(srow, vrow, d, eps);
    agree_slab(ur, vrow, b + t * nin, nin, d, /*accumulate=*/true);
  }
}

void ws_bwd(const float* u, const float* c, const float* gs, float* gc,
            float* gu, std::int64_t nin, std::int64_t d, std::int64_t t0,
            std::int64_t t1) {
  for (std::int64_t t = t0; t < t1; ++t) {
    const float* ur = u + t * nin * d;
    const float* gsrow = gs + t * d;
    const float* cs = c + t * nin;
    float* gcs = gc + t * nin;
    float* gur = gu + t * nin * d;
    for (std::int64_t i = 0; i < nin; ++i) {
      const float* uv = ur + i * d;
      float* guv = gur + i * d;
      const float cij = cs[i];
      float dot = 0.0f;
      for (std::int64_t k = 0; k < d; ++k) {
        dot += uv[k] * gsrow[k];
        guv[k] += cij * gsrow[k];
      }
      gcs[i] = dot;
    }
  }
}

void agree_bwd(const float* u, const float* v, const float* gb, float* gv,
               float* gu, std::int64_t nin, std::int64_t d, std::int64_t t0,
               std::int64_t t1) {
  for (std::int64_t t = t0; t < t1; ++t) {
    const float* ur = u + t * nin * d;
    const float* vrow = v + t * d;
    const float* gbs = gb + t * nin;
    float* gvrow = gv + t * d;
    float* gur = gu + t * nin * d;
    std::fill(gvrow, gvrow + d, 0.0f);
    for (std::int64_t i = 0; i < nin; ++i) {
      const float gij = gbs[i];
      const float* uv = ur + i * d;
      float* guv = gur + i * d;
      for (std::int64_t k = 0; k < d; ++k) {
        gvrow[k] += gij * uv[k];
        guv[k] += gij * vrow[k];
      }
    }
  }
}

void softmax(float* x, std::int64_t d, std::int64_t r0, std::int64_t r1) {
  for (std::int64_t r = r0; r < r1; ++r) {
    float* row = x + r * d;
    float mx = row[0];
    for (std::int64_t j = 1; j < d; ++j) mx = std::max(mx, row[j]);
    float sum = 0.0f;
    for (std::int64_t j = 0; j < d; ++j) {
      row[j] = poly_expf(row[j] - mx);
      sum += row[j];
    }
    const float inv = 1.0f / sum;
    for (std::int64_t j = 0; j < d; ++j) row[j] *= inv;
  }
}

// Transposed-batch softmax: logical row r's element j lives at
// x[j * rows + r] ([d, rows] storage); normalization runs over j.
void softmax_t(float* x, std::int64_t rows, std::int64_t d, std::int64_t r0,
               std::int64_t r1) {
  for (std::int64_t r = r0; r < r1; ++r) {
    float* col = x + r;
    float mx = col[0];
    for (std::int64_t j = 1; j < d; ++j) mx = std::max(mx, col[j * rows]);
    float sum = 0.0f;
    for (std::int64_t j = 0; j < d; ++j) {
      const float e = poly_expf(col[j * rows] - mx);
      col[j * rows] = e;
      sum += e;
    }
    const float inv = 1.0f / sum;
    for (std::int64_t j = 0; j < d; ++j) col[j * rows] *= inv;
  }
}

void squash(const float* s, float* v, std::int64_t d, float eps,
            std::int64_t r0, std::int64_t r1) {
  for (std::int64_t r = r0; r < r1; ++r) squash_row(s + r * d, v + r * d, d, eps);
}

void squash_bwd(const float* s, const float* g, float* gs, std::int64_t d,
                float eps, std::int64_t r0, std::int64_t r1) {
  for (std::int64_t r = r0; r < r1; ++r) {
    const float* sr = s + r * d;
    const float* gr = g + r * d;
    float* out = gs + r * d;
    float nsq = 0.0f, dot = 0.0f;
    for (std::int64_t k = 0; k < d; ++k) {
      nsq += sr[k] * sr[k];
      dot += sr[k] * gr[k];
    }
    const float n = std::sqrt(nsq + eps);
    const float denom = 1.0f + nsq;
    const float f = n / denom;
    const float coeff = (1.0f - nsq) / (denom * denom) / n * dot;
    for (std::int64_t k = 0; k < d; ++k) out[k] = f * gr[k] + coeff * sr[k];
  }
}

void gain_n(const std::int64_t* nsq, std::int64_t* gain, std::int64_t n,
            int qf) {
  for (std::int64_t i = 0; i < n; ++i) gain[i] = squash_gain_one(nsq[i], qf);
}

}  // namespace scalar

#ifdef QCAPS_X86_NATIVE

// ---- AVX2+FMA tier ---------------------------------------------------------

namespace avx2 {

__attribute__((target("avx2,fma"))) inline float hsum8(__m256 x) {
  const __m128 lo = _mm256_castps256_ps128(x);
  const __m128 hi = _mm256_extractf128_ps(x, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_movehdup_ps(s));
  return _mm_cvtss_f32(s);
}

__attribute__((target("avx2,fma"))) inline __m256 exp8(__m256 x) {
  x = _mm256_min_ps(_mm256_set1_ps(kExpHi), _mm256_max_ps(_mm256_set1_ps(kExpLo), x));
  const __m256 n = _mm256_round_ps(_mm256_mul_ps(x, _mm256_set1_ps(kLog2e)),
                                   _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fnmadd_ps(n, _mm256_set1_ps(kExpC1), x);
  r = _mm256_fnmadd_ps(n, _mm256_set1_ps(kExpC2), r);
  __m256 z = _mm256_set1_ps(kExpP0);
  z = _mm256_fmadd_ps(z, r, _mm256_set1_ps(kExpP1));
  z = _mm256_fmadd_ps(z, r, _mm256_set1_ps(kExpP2));
  z = _mm256_fmadd_ps(z, r, _mm256_set1_ps(kExpP3));
  z = _mm256_fmadd_ps(z, r, _mm256_set1_ps(kExpP4));
  z = _mm256_fmadd_ps(z, r, _mm256_set1_ps(kExpP5));
  z = _mm256_fmadd_ps(_mm256_mul_ps(z, r), r,
                      _mm256_add_ps(r, _mm256_set1_ps(1.0f)));
  __m256i e = _mm256_cvtps_epi32(n);
  e = _mm256_slli_epi32(_mm256_add_epi32(e, _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(z, _mm256_castsi256_ps(e));
}

__attribute__((target("avx2,fma"))) inline void squash_row(const float* s,
                                                           float* v,
                                                           std::int64_t d,
                                                           float eps) {
  float nsq = 0.0f;
  std::int64_t k = 0;
  if (d >= 8) {
    __m256 acc = _mm256_setzero_ps();
    for (; k + 8 <= d; k += 8) {
      const __m256 x = _mm256_loadu_ps(s + k);
      acc = _mm256_fmadd_ps(x, x, acc);
    }
    nsq = hsum8(acc);
  }
  for (; k < d; ++k) nsq += s[k] * s[k];
  const float f = squash_gain(nsq, eps);
  const __m256 fv = _mm256_set1_ps(f);
  k = 0;
  for (; k + 8 <= d; k += 8)
    _mm256_storeu_ps(v + k, _mm256_mul_ps(fv, _mm256_loadu_ps(s + k)));
  for (; k < d; ++k) v[k] = f * s[k];
}

__attribute__((target("avx2,fma"))) inline void ws_slab(
    const float* ur, const float* cs, float* srow, std::int64_t nin,
    std::int64_t d) {
  if (d == 16) {
    __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
    __m256 b0 = _mm256_setzero_ps(), b1 = _mm256_setzero_ps();
    std::int64_t i = 0;
    for (; i + 2 <= nin; i += 2) {
      const __m256 c0 = _mm256_broadcast_ss(cs + i);
      const __m256 c1 = _mm256_broadcast_ss(cs + i + 1);
      const float* u0 = ur + i * 16;
      a0 = _mm256_fmadd_ps(c0, _mm256_loadu_ps(u0), a0);
      a1 = _mm256_fmadd_ps(c0, _mm256_loadu_ps(u0 + 8), a1);
      b0 = _mm256_fmadd_ps(c1, _mm256_loadu_ps(u0 + 16), b0);
      b1 = _mm256_fmadd_ps(c1, _mm256_loadu_ps(u0 + 24), b1);
    }
    if (i < nin) {
      const __m256 c0 = _mm256_broadcast_ss(cs + i);
      a0 = _mm256_fmadd_ps(c0, _mm256_loadu_ps(ur + i * 16), a0);
      a1 = _mm256_fmadd_ps(c0, _mm256_loadu_ps(ur + i * 16 + 8), a1);
    }
    _mm256_storeu_ps(srow, _mm256_add_ps(a0, b0));
    _mm256_storeu_ps(srow + 8, _mm256_add_ps(a1, b1));
  } else if (d == 8) {
    __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
    std::int64_t i = 0;
    for (; i + 4 <= nin; i += 4) {
      a0 = _mm256_fmadd_ps(_mm256_broadcast_ss(cs + i),
                           _mm256_loadu_ps(ur + i * 8), a0);
      a1 = _mm256_fmadd_ps(_mm256_broadcast_ss(cs + i + 1),
                           _mm256_loadu_ps(ur + i * 8 + 8), a1);
      a2 = _mm256_fmadd_ps(_mm256_broadcast_ss(cs + i + 2),
                           _mm256_loadu_ps(ur + i * 8 + 16), a2);
      a3 = _mm256_fmadd_ps(_mm256_broadcast_ss(cs + i + 3),
                           _mm256_loadu_ps(ur + i * 8 + 24), a3);
    }
    for (; i < nin; ++i)
      a0 = _mm256_fmadd_ps(_mm256_broadcast_ss(cs + i),
                           _mm256_loadu_ps(ur + i * 8), a0);
    _mm256_storeu_ps(srow,
                     _mm256_add_ps(_mm256_add_ps(a0, a1), _mm256_add_ps(a2, a3)));
  } else {
    std::fill(srow, srow + d, 0.0f);
    for (std::int64_t i = 0; i < nin; ++i) {
      const float cij = cs[i];
      const __m256 cb = _mm256_set1_ps(cij);
      const float* uv = ur + i * d;
      std::int64_t k = 0;
      for (; k + 8 <= d; k += 8)
        _mm256_storeu_ps(srow + k, _mm256_fmadd_ps(cb, _mm256_loadu_ps(uv + k),
                                                   _mm256_loadu_ps(srow + k)));
      for (; k < d; ++k) srow[k] += cij * uv[k];
    }
  }
}

__attribute__((target("avx2,fma"))) void ws(
    const float* u, const float* c, float* s, std::int64_t nin,
    std::int64_t d, std::int64_t t0, std::int64_t t1) {
  for (std::int64_t t = t0; t < t1; ++t)
    ws_slab(u + t * nin * d, c + t * nin, s + t * d, nin, d);
}

__attribute__((target("avx2,fma"))) void ws_squash(
    const float* u, const float* c, float* s, float* v, std::int64_t nin,
    std::int64_t d, float eps, std::int64_t t0, std::int64_t t1) {
  for (std::int64_t t = t0; t < t1; ++t) {
    float* srow = s + t * d;
    ws_slab(u + t * nin * d, c + t * nin, srow, nin, d);
    squash_row(srow, v + t * d, d, eps);
  }
}

__attribute__((target("avx2,fma"))) inline void agree_slab(
    const float* ur, const float* vrow, float* os, std::int64_t nin,
    std::int64_t d, bool accumulate) {
  {
    if (d == 16) {
      const __m256 v0 = _mm256_loadu_ps(vrow);
      const __m256 v1 = _mm256_loadu_ps(vrow + 8);
      std::int64_t i = 0;
      for (; i + 2 <= nin; i += 2) {
        const float* u0 = ur + i * 16;
        __m256 d0 = _mm256_mul_ps(_mm256_loadu_ps(u0), v0);
        d0 = _mm256_fmadd_ps(_mm256_loadu_ps(u0 + 8), v1, d0);
        __m256 d1 = _mm256_mul_ps(_mm256_loadu_ps(u0 + 16), v0);
        d1 = _mm256_fmadd_ps(_mm256_loadu_ps(u0 + 24), v1, d1);
        const float dot0 = hsum8(d0);
        const float dot1 = hsum8(d1);
        if (accumulate) {
          os[i] += dot0;
          os[i + 1] += dot1;
        } else {
          os[i] = dot0;
          os[i + 1] = dot1;
        }
      }
      if (i < nin) {
        __m256 d0 = _mm256_mul_ps(_mm256_loadu_ps(ur + i * 16), v0);
        d0 = _mm256_fmadd_ps(_mm256_loadu_ps(ur + i * 16 + 8), v1, d0);
        const float dot = hsum8(d0);
        if (accumulate)
          os[i] += dot;
        else
          os[i] = dot;
      }
    } else if (d == 8) {
      const __m256 v0 = _mm256_loadu_ps(vrow);
      for (std::int64_t i = 0; i < nin; ++i) {
        const float dot = hsum8(_mm256_mul_ps(_mm256_loadu_ps(ur + i * 8), v0));
        if (accumulate)
          os[i] += dot;
        else
          os[i] = dot;
      }
    } else {
      for (std::int64_t i = 0; i < nin; ++i) {
        const float* uv = ur + i * d;
        float dot = 0.0f;
        std::int64_t k = 0;
        if (d >= 8) {
          __m256 acc = _mm256_setzero_ps();
          for (; k + 8 <= d; k += 8)
            acc = _mm256_fmadd_ps(_mm256_loadu_ps(uv + k),
                                  _mm256_loadu_ps(vrow + k), acc);
          dot = hsum8(acc);
        }
        for (; k < d; ++k) dot += uv[k] * vrow[k];
        if (accumulate)
          os[i] += dot;
        else
          os[i] = dot;
      }
    }
  }
}

__attribute__((target("avx2,fma"))) void agree(
    const float* u, const float* v, float* out, std::int64_t nin,
    std::int64_t d, bool accumulate, std::int64_t t0, std::int64_t t1) {
  for (std::int64_t t = t0; t < t1; ++t)
    agree_slab(u + t * nin * d, v + t * d, out + t * nin, nin, d, accumulate);
}

__attribute__((target("avx2,fma"))) void iter_fused(
    const float* u, const float* c, float* s, float* v, float* b,
    std::int64_t nin, std::int64_t d, float eps, std::int64_t t0,
    std::int64_t t1) {
  for (std::int64_t t = t0; t < t1; ++t) {
    const float* ur = u + t * nin * d;
    float* srow = s + t * d;
    float* vrow = v + t * d;
    ws_slab(ur, c + t * nin, srow, nin, d);
    squash_row(srow, vrow, d, eps);
    agree_slab(ur, vrow, b + t * nin, nin, d, /*accumulate=*/true);
  }
}

__attribute__((target("avx2,fma"))) void ws_bwd(
    const float* u, const float* c, const float* gs, float* gc, float* gu,
    std::int64_t nin, std::int64_t d, std::int64_t t0, std::int64_t t1) {
  for (std::int64_t t = t0; t < t1; ++t) {
    const float* ur = u + t * nin * d;
    const float* gsrow = gs + t * d;
    const float* cs = c + t * nin;
    float* gcs = gc + t * nin;
    float* gur = gu + t * nin * d;
    if (d == 16) {
      const __m256 g0 = _mm256_loadu_ps(gsrow);
      const __m256 g1 = _mm256_loadu_ps(gsrow + 8);
      for (std::int64_t i = 0; i < nin; ++i) {
        const float* uv = ur + i * 16;
        float* guv = gur + i * 16;
        __m256 dv = _mm256_mul_ps(_mm256_loadu_ps(uv), g0);
        dv = _mm256_fmadd_ps(_mm256_loadu_ps(uv + 8), g1, dv);
        gcs[i] = hsum8(dv);
        const __m256 cb = _mm256_broadcast_ss(cs + i);
        _mm256_storeu_ps(guv, _mm256_fmadd_ps(cb, g0, _mm256_loadu_ps(guv)));
        _mm256_storeu_ps(guv + 8,
                         _mm256_fmadd_ps(cb, g1, _mm256_loadu_ps(guv + 8)));
      }
    } else if (d == 8) {
      const __m256 g0 = _mm256_loadu_ps(gsrow);
      for (std::int64_t i = 0; i < nin; ++i) {
        const float* uv = ur + i * 8;
        float* guv = gur + i * 8;
        gcs[i] = hsum8(_mm256_mul_ps(_mm256_loadu_ps(uv), g0));
        const __m256 cb = _mm256_broadcast_ss(cs + i);
        _mm256_storeu_ps(guv, _mm256_fmadd_ps(cb, g0, _mm256_loadu_ps(guv)));
      }
    } else {
      for (std::int64_t i = 0; i < nin; ++i) {
        const float* uv = ur + i * d;
        float* guv = gur + i * d;
        const float cij = cs[i];
        const __m256 cb = _mm256_set1_ps(cij);
        float dot = 0.0f;
        std::int64_t k = 0;
        if (d >= 8) {
          __m256 acc = _mm256_setzero_ps();
          for (; k + 8 <= d; k += 8) {
            const __m256 gk = _mm256_loadu_ps(gsrow + k);
            acc = _mm256_fmadd_ps(_mm256_loadu_ps(uv + k), gk, acc);
            _mm256_storeu_ps(guv + k,
                             _mm256_fmadd_ps(cb, gk, _mm256_loadu_ps(guv + k)));
          }
          dot = hsum8(acc);
        }
        for (; k < d; ++k) {
          dot += uv[k] * gsrow[k];
          guv[k] += cij * gsrow[k];
        }
        gcs[i] = dot;
      }
    }
  }
}

__attribute__((target("avx2,fma"))) void agree_bwd(
    const float* u, const float* v, const float* gb, float* gv, float* gu,
    std::int64_t nin, std::int64_t d, std::int64_t t0, std::int64_t t1) {
  for (std::int64_t t = t0; t < t1; ++t) {
    const float* ur = u + t * nin * d;
    const float* vrow = v + t * d;
    const float* gbs = gb + t * nin;
    float* gvrow = gv + t * d;
    float* gur = gu + t * nin * d;
    if (d == 16) {
      const __m256 v0 = _mm256_loadu_ps(vrow);
      const __m256 v1 = _mm256_loadu_ps(vrow + 8);
      __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
      for (std::int64_t i = 0; i < nin; ++i) {
        const __m256 g = _mm256_broadcast_ss(gbs + i);
        const float* uv = ur + i * 16;
        float* guv = gur + i * 16;
        acc0 = _mm256_fmadd_ps(g, _mm256_loadu_ps(uv), acc0);
        acc1 = _mm256_fmadd_ps(g, _mm256_loadu_ps(uv + 8), acc1);
        _mm256_storeu_ps(guv, _mm256_fmadd_ps(g, v0, _mm256_loadu_ps(guv)));
        _mm256_storeu_ps(guv + 8,
                         _mm256_fmadd_ps(g, v1, _mm256_loadu_ps(guv + 8)));
      }
      _mm256_storeu_ps(gvrow, acc0);
      _mm256_storeu_ps(gvrow + 8, acc1);
    } else if (d == 8) {
      const __m256 v0 = _mm256_loadu_ps(vrow);
      __m256 acc0 = _mm256_setzero_ps();
      for (std::int64_t i = 0; i < nin; ++i) {
        const __m256 g = _mm256_broadcast_ss(gbs + i);
        const float* uv = ur + i * 8;
        float* guv = gur + i * 8;
        acc0 = _mm256_fmadd_ps(g, _mm256_loadu_ps(uv), acc0);
        _mm256_storeu_ps(guv, _mm256_fmadd_ps(g, v0, _mm256_loadu_ps(guv)));
      }
      _mm256_storeu_ps(gvrow, acc0);
    } else {
      std::fill(gvrow, gvrow + d, 0.0f);
      for (std::int64_t i = 0; i < nin; ++i) {
        const float gij = gbs[i];
        const __m256 g = _mm256_set1_ps(gij);
        const float* uv = ur + i * d;
        float* guv = gur + i * d;
        std::int64_t k = 0;
        for (; k + 8 <= d; k += 8) {
          _mm256_storeu_ps(gvrow + k, _mm256_fmadd_ps(g, _mm256_loadu_ps(uv + k),
                                                      _mm256_loadu_ps(gvrow + k)));
          _mm256_storeu_ps(guv + k, _mm256_fmadd_ps(g, _mm256_loadu_ps(vrow + k),
                                                    _mm256_loadu_ps(guv + k)));
        }
        for (; k < d; ++k) {
          gvrow[k] += gij * uv[k];
          guv[k] += gij * vrow[k];
        }
      }
    }
  }
}

__attribute__((target("avx2,fma"))) void softmax(float* x, std::int64_t d,
                                                 std::int64_t r0,
                                                 std::int64_t r1) {
  for (std::int64_t r = r0; r < r1; ++r) {
    float* row = x + r * d;
    float mx;
    std::int64_t j = 0;
    if (d >= 8) {
      __m256 mv = _mm256_loadu_ps(row);
      for (j = 8; j + 8 <= d; j += 8)
        mv = _mm256_max_ps(mv, _mm256_loadu_ps(row + j));
      __m128 m4 = _mm_max_ps(_mm256_castps256_ps128(mv),
                             _mm256_extractf128_ps(mv, 1));
      m4 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
      m4 = _mm_max_ss(m4, _mm_movehdup_ps(m4));
      mx = _mm_cvtss_f32(m4);
    } else {
      mx = row[0];
      j = 1;
    }
    for (; j < d; ++j) mx = std::max(mx, row[j]);
    const __m256 mxv = _mm256_set1_ps(mx);
    float sum = 0.0f;
    j = 0;
    if (d >= 8) {
      __m256 sv = _mm256_setzero_ps();
      for (; j + 8 <= d; j += 8) {
        const __m256 e = exp8(_mm256_sub_ps(_mm256_loadu_ps(row + j), mxv));
        _mm256_storeu_ps(row + j, e);
        sv = _mm256_add_ps(sv, e);
      }
      sum = hsum8(sv);
    }
    for (; j < d; ++j) {
      row[j] = poly_expf(row[j] - mx);
      sum += row[j];
    }
    const float inv = 1.0f / sum;
    const __m256 iv = _mm256_set1_ps(inv);
    j = 0;
    for (; j + 8 <= d; j += 8)
      _mm256_storeu_ps(row + j, _mm256_mul_ps(iv, _mm256_loadu_ps(row + j)));
    for (; j < d; ++j) row[j] *= inv;
  }
}

__attribute__((target("avx2,fma"))) void softmax_t(float* x, std::int64_t rows,
                                                   std::int64_t d,
                                                   std::int64_t r0,
                                                   std::int64_t r1) {
  // The transposed [d, rows] layout vectorizes across the batch: 8 logical
  // rows share each ymm and the j walk is a strided vertical load, so the
  // whole softmax is per-lane math with no horizontal reductions anywhere.
  std::int64_t r = r0;
  for (; r + 8 <= r1; r += 8) {
    float* base = x + r;
    __m256 mx = _mm256_loadu_ps(base);
    for (std::int64_t j = 1; j < d; ++j)
      mx = _mm256_max_ps(mx, _mm256_loadu_ps(base + j * rows));
    __m256 sum = _mm256_setzero_ps();
    for (std::int64_t j = 0; j < d; ++j) {
      const __m256 e =
          exp8(_mm256_sub_ps(_mm256_loadu_ps(base + j * rows), mx));
      _mm256_storeu_ps(base + j * rows, e);
      sum = _mm256_add_ps(sum, e);
    }
    const __m256 inv = _mm256_div_ps(_mm256_set1_ps(1.0f), sum);
    for (std::int64_t j = 0; j < d; ++j)
      _mm256_storeu_ps(base + j * rows,
                       _mm256_mul_ps(inv, _mm256_loadu_ps(base + j * rows)));
  }
  if (r < r1) scalar::softmax_t(x, rows, d, r, r1);
}

__attribute__((target("avx2,fma"))) void squash(const float* s, float* v,
                                                std::int64_t d, float eps,
                                                std::int64_t r0,
                                                std::int64_t r1) {
  for (std::int64_t r = r0; r < r1; ++r) squash_row(s + r * d, v + r * d, d, eps);
}

__attribute__((target("avx2,fma"))) void squash_bwd(const float* s,
                                                    const float* g, float* gs,
                                                    std::int64_t d, float eps,
                                                    std::int64_t r0,
                                                    std::int64_t r1) {
  for (std::int64_t r = r0; r < r1; ++r) {
    const float* sr = s + r * d;
    const float* gr = g + r * d;
    float* out = gs + r * d;
    float nsq = 0.0f, dot = 0.0f;
    std::int64_t k = 0;
    if (d >= 8) {
      __m256 na = _mm256_setzero_ps(), da = _mm256_setzero_ps();
      for (; k + 8 <= d; k += 8) {
        const __m256 sv = _mm256_loadu_ps(sr + k);
        na = _mm256_fmadd_ps(sv, sv, na);
        da = _mm256_fmadd_ps(sv, _mm256_loadu_ps(gr + k), da);
      }
      nsq = hsum8(na);
      dot = hsum8(da);
    }
    for (; k < d; ++k) {
      nsq += sr[k] * sr[k];
      dot += sr[k] * gr[k];
    }
    const float n = std::sqrt(nsq + eps);
    const float denom = 1.0f + nsq;
    const float f = n / denom;
    const float coeff = (1.0f - nsq) / (denom * denom) / n * dot;
    const __m256 fv = _mm256_set1_ps(f);
    const __m256 cv = _mm256_set1_ps(coeff);
    k = 0;
    for (; k + 8 <= d; k += 8)
      _mm256_storeu_ps(out + k,
                       _mm256_fmadd_ps(fv, _mm256_loadu_ps(gr + k),
                                       _mm256_mul_ps(cv, _mm256_loadu_ps(sr + k))));
    for (; k < d; ++k) out[k] = f * gr[k] + coeff * sr[k];
  }
}

// Integer squash gain, 4 int64 norms per iteration. The Newton-Raphson
// body runs vectorized: every operand is < 4 << qf <= 2^30 by construction,
// so the 64x64 products reduce to _mm256_mul_epu32 on the low halves. The
// normalization (lzcnt math), the ratio division, and the final wide product
// stay scalar per lane — they are a fixed handful of ops next to the 4x3
// multiplies of the NR rounds. A conservative mask (negative NR residual or
// y leaving 32 bits) falls the whole block back to the scalar element.
__attribute__((target("avx2"))) void gain_n(const std::int64_t* nsq,
                                            std::int64_t* gain, std::int64_t n,
                                            int qf) {
  const std::int64_t one = std::int64_t{1} << qf;
  const __m256i vone = _mm256_set1_epi64x(one);
  const __m256i vtwo_one = _mm256_set1_epi64x(2 * one);
  const __m256i vthree = _mm256_set1_epi64x(3 * one);
  const __m256i vseed_hi = _mm256_set1_epi64x(3 * one >> 2);
  const __m256i vzero = _mm256_setzero_si256();
  const __m256i vy_cap = _mm256_set1_epi64x(std::int64_t{1} << 31);
  const __m128i cqf = _mm_cvtsi32_si128(qf);
  const __m128i cqf1 = _mm_cvtsi32_si128(qf + 1);
  alignas(32) std::int64_t mbuf[4], ybuf[4];
  int half_e[4];
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (int l = 0; l < 4; ++l) {
      const std::int64_t s = nsq[i + l];
      if (s <= 0) {  // zero vector: lane runs on a dummy m, result forced 0
        mbuf[l] = one;
        half_e[l] = 0;
        continue;
      }
      const int e0 = static_cast<int>(
                         std::bit_width(static_cast<std::uint64_t>(s))) -
                     qf - 2;
      const int e = e0 + (e0 & 1);
      mbuf[l] = e >= 0 ? s >> e : s << -e;
      half_e[l] = e / 2;
    }
    const __m256i m =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(mbuf));
    // Two-segment seed: both branches evaluated, blended on m < 2. The
    // discarded lane of the high branch may shift a negative value
    // logically — it never survives the blend.
    const __m256i ya = _mm256_sub_epi64(
        vone, _mm256_srli_epi64(_mm256_sub_epi64(m, vone), 2));
    const __m256i yb = _mm256_sub_epi64(
        vseed_hi, _mm256_srli_epi64(_mm256_sub_epi64(m, vtwo_one), 3));
    __m256i y = _mm256_blendv_epi8(yb, ya, _mm256_cmpgt_epi64(vtwo_one, m));
    __m256i bad = vzero;
    for (int it = 0; it < 4; ++it) {
      const __m256i y2 = _mm256_srl_epi64(_mm256_mul_epu32(y, y), cqf);
      const __m256i my2 = _mm256_srl_epi64(_mm256_mul_epu32(m, y2), cqf);
      const __m256i t = _mm256_sub_epi64(vthree, my2);
      bad = _mm256_or_si256(bad, _mm256_cmpgt_epi64(vzero, t));
      y = _mm256_srl_epi64(_mm256_mul_epu32(y, t), cqf1);
      bad = _mm256_or_si256(bad, _mm256_cmpgt_epi64(y, vy_cap));
    }
    if (_mm256_movemask_epi8(bad) != 0) {
      for (int l = 0; l < 4; ++l)
        gain[i + l] = squash_gain_one(nsq[i + l], qf);
      continue;
    }
    _mm256_store_si256(reinterpret_cast<__m256i*>(ybuf), y);
    for (int l = 0; l < 4; ++l)
      gain[i + l] =
          nsq[i + l] <= 0
              ? 0
              : squash_gain_finish(nsq[i + l], ybuf[l], half_e[l], qf);
  }
  for (; i < n; ++i) gain[i] = squash_gain_one(nsq[i], qf);
}

}  // namespace avx2

// ---- AVX-512F tier ---------------------------------------------------------
//
// D = 16 (the DigitCaps dimension) is exactly one zmm: the weighted sum is a
// broadcast-FMA chain with four independent accumulators, the agreement a
// masked-free dot per input capsule. Other D use chunks of 16 with masked
// tails. AVX-512F implies AVX2+FMA in the compiler's ISA sets, so the d == 8
// rows reuse ymm code.

namespace avx512 {

// GCC 12's AVX-512 headers route lane extraction through
// _mm512_extractf32x4_ps with an _mm_undefined_ps passthrough, which trips
// -Wmaybe-uninitialized at every inlining site (same false positive the
// qgemm backend suppresses).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// Hand-rolled reductions: _mm512_reduce_add_ps/_mm512_reduce_max_ps expand
// through _mm512_extractf64x4_pd, which additionally needs AVX-512DQ-free
// handling; the shuffle ladder below stays within AVX-512F.
__attribute__((target("avx512f"))) inline float hsum16(__m512 x) {
  __m512 t = _mm512_add_ps(x, _mm512_shuffle_f32x4(x, x, _MM_SHUFFLE(1, 0, 3, 2)));
  t = _mm512_add_ps(t, _mm512_shuffle_f32x4(t, t, _MM_SHUFFLE(2, 3, 0, 1)));
  __m128 q = _mm512_castps512_ps128(t);
  q = _mm_add_ps(q, _mm_movehl_ps(q, q));
  q = _mm_add_ss(q, _mm_movehdup_ps(q));
  return _mm_cvtss_f32(q);
}

__attribute__((target("avx512f"))) inline float hmax16(__m512 x) {
  __m512 t = _mm512_max_ps(x, _mm512_shuffle_f32x4(x, x, _MM_SHUFFLE(1, 0, 3, 2)));
  t = _mm512_max_ps(t, _mm512_shuffle_f32x4(t, t, _MM_SHUFFLE(2, 3, 0, 1)));
  __m128 q = _mm512_castps512_ps128(t);
  q = _mm_max_ps(q, _mm_movehl_ps(q, q));
  q = _mm_max_ss(q, _mm_movehdup_ps(q));
  return _mm_cvtss_f32(q);
}

__attribute__((target("avx512f"))) inline __m512 exp16(__m512 x) {
  x = _mm512_min_ps(_mm512_set1_ps(kExpHi), _mm512_max_ps(_mm512_set1_ps(kExpLo), x));
  const __m512 n = _mm512_roundscale_ps(_mm512_mul_ps(x, _mm512_set1_ps(kLog2e)),
                                        _MM_FROUND_TO_NEAREST_INT);
  __m512 r = _mm512_fnmadd_ps(n, _mm512_set1_ps(kExpC1), x);
  r = _mm512_fnmadd_ps(n, _mm512_set1_ps(kExpC2), r);
  __m512 z = _mm512_set1_ps(kExpP0);
  z = _mm512_fmadd_ps(z, r, _mm512_set1_ps(kExpP1));
  z = _mm512_fmadd_ps(z, r, _mm512_set1_ps(kExpP2));
  z = _mm512_fmadd_ps(z, r, _mm512_set1_ps(kExpP3));
  z = _mm512_fmadd_ps(z, r, _mm512_set1_ps(kExpP4));
  z = _mm512_fmadd_ps(z, r, _mm512_set1_ps(kExpP5));
  z = _mm512_fmadd_ps(_mm512_mul_ps(z, r), r,
                      _mm512_add_ps(r, _mm512_set1_ps(1.0f)));
  __m512i e = _mm512_cvtps_epi32(n);
  e = _mm512_slli_epi32(_mm512_add_epi32(e, _mm512_set1_epi32(127)), 23);
  return _mm512_mul_ps(z, _mm512_castsi512_ps(e));
}

__attribute__((target("avx512f"))) inline void squash_row(const float* s,
                                                          float* v,
                                                          std::int64_t d,
                                                          float eps) {
  if (d == 16) {
    const __m512 x = _mm512_loadu_ps(s);
    const float f = squash_gain(hsum16(_mm512_mul_ps(x, x)), eps);
    _mm512_storeu_ps(v, _mm512_mul_ps(_mm512_set1_ps(f), x));
    return;
  }
  float nsq = 0.0f;
  std::int64_t k = 0;
  __m512 acc = _mm512_setzero_ps();
  for (; k + 16 <= d; k += 16) {
    const __m512 x = _mm512_loadu_ps(s + k);
    acc = _mm512_fmadd_ps(x, x, acc);
  }
  if (k < d) {
    const __mmask16 m = static_cast<__mmask16>((1u << (d - k)) - 1);
    const __m512 x = _mm512_maskz_loadu_ps(m, s + k);
    acc = _mm512_fmadd_ps(x, x, acc);
  }
  nsq = hsum16(acc);
  const float f = squash_gain(nsq, eps);
  const __m512 fv = _mm512_set1_ps(f);
  k = 0;
  for (; k + 16 <= d; k += 16)
    _mm512_storeu_ps(v + k, _mm512_mul_ps(fv, _mm512_loadu_ps(s + k)));
  if (k < d) {
    const __mmask16 m = static_cast<__mmask16>((1u << (d - k)) - 1);
    _mm512_mask_storeu_ps(v + k, m,
                          _mm512_mul_ps(fv, _mm512_maskz_loadu_ps(m, s + k)));
  }
}

__attribute__((target("avx512f"))) inline __m256 fold256(__m512 x) {
  return _mm256_add_ps(
      _mm512_castps512_ps256(x),
      _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(x), 1)));
}

// fma (not just avx512f) in the target set: the d == 8 remainder rows run on
// ymm FMAs, and GCC gates the 256-bit fmadd intrinsic on the FMA3 flag even
// though every AVX-512F CPU has it.
__attribute__((target("avx512f,fma"))) inline void ws_slab(
    const float* ur, const float* cs, float* srow, std::int64_t nin,
    std::int64_t d) {
  if (d == 16) {
    __m512 a0 = _mm512_setzero_ps(), a1 = _mm512_setzero_ps();
    __m512 a2 = _mm512_setzero_ps(), a3 = _mm512_setzero_ps();
    std::int64_t i = 0;
    for (; i + 4 <= nin; i += 4) {
      const float* u0 = ur + i * 16;
      a0 = _mm512_fmadd_ps(_mm512_set1_ps(cs[i]), _mm512_loadu_ps(u0), a0);
      a1 = _mm512_fmadd_ps(_mm512_set1_ps(cs[i + 1]),
                           _mm512_loadu_ps(u0 + 16), a1);
      a2 = _mm512_fmadd_ps(_mm512_set1_ps(cs[i + 2]),
                           _mm512_loadu_ps(u0 + 32), a2);
      a3 = _mm512_fmadd_ps(_mm512_set1_ps(cs[i + 3]),
                           _mm512_loadu_ps(u0 + 48), a3);
    }
    for (; i < nin; ++i)
      a0 = _mm512_fmadd_ps(_mm512_set1_ps(cs[i]),
                           _mm512_loadu_ps(ur + i * 16), a0);
    _mm512_storeu_ps(srow,
                     _mm512_add_ps(_mm512_add_ps(a0, a1), _mm512_add_ps(a2, a3)));
  } else if (d == 8) {
    // Two capsule rows per zmm: rows i and i+1 are 16 contiguous floats, and
    // their couplings are broadcast into the two 256-bit halves with a lane
    // blend (AVX-512F only — insertf32x8 would need DQ). Two accumulators
    // cover four rows per step; the halves fold together once at the end.
    __m512 a0 = _mm512_setzero_ps(), a1 = _mm512_setzero_ps();
    std::int64_t i = 0;
    for (; i + 4 <= nin; i += 4) {
      const __m512 c01 =
          _mm512_mask_blend_ps(0xFF00, _mm512_set1_ps(cs[i]),
                               _mm512_set1_ps(cs[i + 1]));
      const __m512 c23 =
          _mm512_mask_blend_ps(0xFF00, _mm512_set1_ps(cs[i + 2]),
                               _mm512_set1_ps(cs[i + 3]));
      a0 = _mm512_fmadd_ps(c01, _mm512_loadu_ps(ur + i * 8), a0);
      a1 = _mm512_fmadd_ps(c23, _mm512_loadu_ps(ur + (i + 2) * 8), a1);
    }
    __m256 acc = fold256(_mm512_add_ps(a0, a1));
    for (; i < nin; ++i)
      acc = _mm256_fmadd_ps(_mm256_broadcast_ss(cs + i),
                            _mm256_loadu_ps(ur + i * 8), acc);
    _mm256_storeu_ps(srow, acc);
  } else {
    std::fill(srow, srow + d, 0.0f);
    for (std::int64_t i = 0; i < nin; ++i) {
      const float cij = cs[i];
      const __m512 cb = _mm512_set1_ps(cij);
      const float* uv = ur + i * d;
      std::int64_t k = 0;
      for (; k + 16 <= d; k += 16)
        _mm512_storeu_ps(srow + k, _mm512_fmadd_ps(cb, _mm512_loadu_ps(uv + k),
                                                   _mm512_loadu_ps(srow + k)));
      if (k < d) {
        const __mmask16 m = static_cast<__mmask16>((1u << (d - k)) - 1);
        _mm512_mask_storeu_ps(
            srow + k, m,
            _mm512_fmadd_ps(cb, _mm512_maskz_loadu_ps(m, uv + k),
                            _mm512_maskz_loadu_ps(m, srow + k)));
      }
    }
  }
}

__attribute__((target("avx512f"))) void ws(
    const float* u, const float* c, float* s, std::int64_t nin,
    std::int64_t d, std::int64_t t0, std::int64_t t1) {
  for (std::int64_t t = t0; t < t1; ++t)
    ws_slab(u + t * nin * d, c + t * nin, s + t * d, nin, d);
}

__attribute__((target("avx512f"))) void ws_squash(
    const float* u, const float* c, float* s, float* v, std::int64_t nin,
    std::int64_t d, float eps, std::int64_t t0, std::int64_t t1) {
  for (std::int64_t t = t0; t < t1; ++t) {
    float* srow = s + t * d;
    ws_slab(u + t * nin * d, c + t * nin, srow, nin, d);
    squash_row(srow, v + t * d, d, eps);
  }
}

// Four d==16 dot products against v0 reduced together: fold each zmm to
// ymm, then a horizontal-add tree yields [dot0..dot3] in one xmm — far
// fewer serial shuffles than four independent ladders.
__attribute__((target("avx512f"))) inline __m128 dots4x16(const float* u0,
                                                          __m512 v0) {
  const __m256 q0 = fold256(_mm512_mul_ps(_mm512_loadu_ps(u0), v0));
  const __m256 q1 = fold256(_mm512_mul_ps(_mm512_loadu_ps(u0 + 16), v0));
  const __m256 q2 = fold256(_mm512_mul_ps(_mm512_loadu_ps(u0 + 32), v0));
  const __m256 q3 = fold256(_mm512_mul_ps(_mm512_loadu_ps(u0 + 48), v0));
  const __m256 hh =
      _mm256_hadd_ps(_mm256_hadd_ps(q0, q1), _mm256_hadd_ps(q2, q3));
  return _mm_add_ps(_mm256_castps256_ps128(hh), _mm256_extractf128_ps(hh, 1));
}

__attribute__((target("avx512f"))) inline void scatter4(__m128 dots, float* os,
                                                        std::int64_t ib,
                                                        bool accumulate) {
  const float dot0 = _mm_cvtss_f32(dots);
  const float dot1 = _mm_cvtss_f32(_mm_movehdup_ps(dots));
  const float dot2 = _mm_cvtss_f32(_mm_movehl_ps(dots, dots));
  const float dot3 =
      _mm_cvtss_f32(_mm_shuffle_ps(dots, dots, _MM_SHUFFLE(3, 3, 3, 3)));
  if (accumulate) {
    os[ib] += dot0;
    os[ib + 1] += dot1;
    os[ib + 2] += dot2;
    os[ib + 3] += dot3;
  } else {
    os[ib] = dot0;
    os[ib + 1] = dot1;
    os[ib + 2] = dot2;
    os[ib + 3] = dot3;
  }
}

__attribute__((target("avx512f"))) inline void agree_slab(
    const float* ur, const float* vrow, float* os, std::int64_t nin,
    std::int64_t d, bool accumulate) {
  {
    if (d == 16) {
      const __m512 v0 = _mm512_loadu_ps(vrow);
      std::int64_t i = 0;
      // Two four-dot groups per step keep the shuffle and FMA ports busy
      // past the reduce-tree latency.
      for (; i + 8 <= nin; i += 8) {
        const __m128 a = dots4x16(ur + i * 16, v0);
        const __m128 b = dots4x16(ur + (i + 4) * 16, v0);
        scatter4(a, os, i, accumulate);
        scatter4(b, os, i + 4, accumulate);
      }
      for (; i + 4 <= nin; i += 4)
        scatter4(dots4x16(ur + i * 16, v0), os, i, accumulate);
      for (; i < nin; ++i) {
        const float dot = hsum16(_mm512_mul_ps(_mm512_loadu_ps(ur + i * 16), v0));
        if (accumulate)
          os[i] += dot;
        else
          os[i] = dot;
      }
    } else {
      for (std::int64_t i = 0; i < nin; ++i) {
        const float* uv = ur + i * d;
        __m512 acc = _mm512_setzero_ps();
        std::int64_t k = 0;
        for (; k + 16 <= d; k += 16)
          acc = _mm512_fmadd_ps(_mm512_loadu_ps(uv + k),
                                _mm512_loadu_ps(vrow + k), acc);
        if (k < d) {
          const __mmask16 m = static_cast<__mmask16>((1u << (d - k)) - 1);
          acc = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(m, uv + k),
                                _mm512_maskz_loadu_ps(m, vrow + k), acc);
        }
        const float dot = hsum16(acc);
        if (accumulate)
          os[i] += dot;
        else
          os[i] = dot;
      }
    }
  }
}

__attribute__((target("avx512f"))) void agree(
    const float* u, const float* v, float* out, std::int64_t nin,
    std::int64_t d, bool accumulate, std::int64_t t0, std::int64_t t1) {
  for (std::int64_t t = t0; t < t1; ++t)
    agree_slab(u + t * nin * d, v + t * d, out + t * nin, nin, d, accumulate);
}

__attribute__((target("avx512f"))) void iter_fused(
    const float* u, const float* c, float* s, float* v, float* b,
    std::int64_t nin, std::int64_t d, float eps, std::int64_t t0,
    std::int64_t t1) {
  for (std::int64_t t = t0; t < t1; ++t) {
    const float* ur = u + t * nin * d;
    float* srow = s + t * d;
    float* vrow = v + t * d;
    ws_slab(ur, c + t * nin, srow, nin, d);
    squash_row(srow, vrow, d, eps);
    agree_slab(ur, vrow, b + t * nin, nin, d, /*accumulate=*/true);
  }
}

__attribute__((target("avx512f"))) void ws_bwd(
    const float* u, const float* c, const float* gs, float* gc, float* gu,
    std::int64_t nin, std::int64_t d, std::int64_t t0, std::int64_t t1) {
  for (std::int64_t t = t0; t < t1; ++t) {
    const float* ur = u + t * nin * d;
    const float* gsrow = gs + t * d;
    const float* cs = c + t * nin;
    float* gcs = gc + t * nin;
    float* gur = gu + t * nin * d;
    if (d == 16) {
      const __m512 g0 = _mm512_loadu_ps(gsrow);
      for (std::int64_t i = 0; i < nin; ++i) {
        const float* uv = ur + i * 16;
        float* guv = gur + i * 16;
        gcs[i] = hsum16(_mm512_mul_ps(_mm512_loadu_ps(uv), g0));
        const __m512 cb = _mm512_set1_ps(cs[i]);
        _mm512_storeu_ps(guv, _mm512_fmadd_ps(cb, g0, _mm512_loadu_ps(guv)));
      }
    } else {
      for (std::int64_t i = 0; i < nin; ++i) {
        const float* uv = ur + i * d;
        float* guv = gur + i * d;
        const __m512 cb = _mm512_set1_ps(cs[i]);
        __m512 acc = _mm512_setzero_ps();
        std::int64_t k = 0;
        for (; k + 16 <= d; k += 16) {
          const __m512 gk = _mm512_loadu_ps(gsrow + k);
          acc = _mm512_fmadd_ps(_mm512_loadu_ps(uv + k), gk, acc);
          _mm512_storeu_ps(guv + k,
                           _mm512_fmadd_ps(cb, gk, _mm512_loadu_ps(guv + k)));
        }
        if (k < d) {
          const __mmask16 m = static_cast<__mmask16>((1u << (d - k)) - 1);
          const __m512 gk = _mm512_maskz_loadu_ps(m, gsrow + k);
          acc = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(m, uv + k), gk, acc);
          _mm512_mask_storeu_ps(
              guv + k, m,
              _mm512_fmadd_ps(cb, gk, _mm512_maskz_loadu_ps(m, guv + k)));
        }
        gcs[i] = hsum16(acc);
      }
    }
  }
}

__attribute__((target("avx512f"))) void agree_bwd(
    const float* u, const float* v, const float* gb, float* gv, float* gu,
    std::int64_t nin, std::int64_t d, std::int64_t t0, std::int64_t t1) {
  for (std::int64_t t = t0; t < t1; ++t) {
    const float* ur = u + t * nin * d;
    const float* vrow = v + t * d;
    const float* gbs = gb + t * nin;
    float* gvrow = gv + t * d;
    float* gur = gu + t * nin * d;
    if (d == 16) {
      const __m512 v0 = _mm512_loadu_ps(vrow);
      __m512 acc0 = _mm512_setzero_ps(), acc1 = _mm512_setzero_ps();
      std::int64_t i = 0;
      for (; i + 2 <= nin; i += 2) {
        const __m512 ga = _mm512_set1_ps(gbs[i]);
        const __m512 gbv = _mm512_set1_ps(gbs[i + 1]);
        const float* u0 = ur + i * 16;
        float* gu0 = gur + i * 16;
        acc0 = _mm512_fmadd_ps(ga, _mm512_loadu_ps(u0), acc0);
        acc1 = _mm512_fmadd_ps(gbv, _mm512_loadu_ps(u0 + 16), acc1);
        _mm512_storeu_ps(gu0, _mm512_fmadd_ps(ga, v0, _mm512_loadu_ps(gu0)));
        _mm512_storeu_ps(gu0 + 16,
                         _mm512_fmadd_ps(gbv, v0, _mm512_loadu_ps(gu0 + 16)));
      }
      if (i < nin) {
        const __m512 ga = _mm512_set1_ps(gbs[i]);
        float* gu0 = gur + i * 16;
        acc0 = _mm512_fmadd_ps(ga, _mm512_loadu_ps(ur + i * 16), acc0);
        _mm512_storeu_ps(gu0, _mm512_fmadd_ps(ga, v0, _mm512_loadu_ps(gu0)));
      }
      _mm512_storeu_ps(gvrow, _mm512_add_ps(acc0, acc1));
    } else {
      std::fill(gvrow, gvrow + d, 0.0f);
      for (std::int64_t i = 0; i < nin; ++i) {
        const __m512 g = _mm512_set1_ps(gbs[i]);
        const float* uv = ur + i * d;
        float* guv = gur + i * d;
        std::int64_t k = 0;
        for (; k + 16 <= d; k += 16) {
          _mm512_storeu_ps(gvrow + k,
                           _mm512_fmadd_ps(g, _mm512_loadu_ps(uv + k),
                                           _mm512_loadu_ps(gvrow + k)));
          _mm512_storeu_ps(guv + k,
                           _mm512_fmadd_ps(g, _mm512_loadu_ps(vrow + k),
                                           _mm512_loadu_ps(guv + k)));
        }
        if (k < d) {
          const __mmask16 m = static_cast<__mmask16>((1u << (d - k)) - 1);
          _mm512_mask_storeu_ps(
              gvrow + k, m,
              _mm512_fmadd_ps(g, _mm512_maskz_loadu_ps(m, uv + k),
                              _mm512_maskz_loadu_ps(m, gvrow + k)));
          _mm512_mask_storeu_ps(
              guv + k, m,
              _mm512_fmadd_ps(g, _mm512_maskz_loadu_ps(m, vrow + k),
                              _mm512_maskz_loadu_ps(m, guv + k)));
        }
      }
    }
  }
}

__attribute__((target("avx512f"))) void softmax(float* x, std::int64_t d,
                                                std::int64_t r0,
                                                std::int64_t r1) {
  if (d <= 16) {
    // One masked vector per row — the routing shape (Nout <= 16). Inactive
    // lanes are filled with -FLT_MAX for the max and with 0 for the exp
    // argument (exp(0) = 1, a normal float): letting them underflow to
    // denormals costs a microcode assist per row on most cores. Rows are
    // processed four at a time: each row's max/sum ladder is latency-bound,
    // so four independent chains keep the vector units busy.
    const __mmask16 m = static_cast<__mmask16>((1u << d) - 1);
    const __m512 lowest = _mm512_set1_ps(std::numeric_limits<float>::lowest());
    std::int64_t r = r0;
    for (; r + 4 <= r1; r += 4) {
      float* p0 = x + r * d;
      float* p1 = p0 + d;
      float* p2 = p1 + d;
      float* p3 = p2 + d;
      const __m512 x0 = _mm512_mask_loadu_ps(lowest, m, p0);
      const __m512 x1 = _mm512_mask_loadu_ps(lowest, m, p1);
      const __m512 x2 = _mm512_mask_loadu_ps(lowest, m, p2);
      const __m512 x3 = _mm512_mask_loadu_ps(lowest, m, p3);
      const float mx0 = hmax16(x0), mx1 = hmax16(x1);
      const float mx2 = hmax16(x2), mx3 = hmax16(x3);
      const __m512 e0 = exp16(_mm512_maskz_sub_ps(m, x0, _mm512_set1_ps(mx0)));
      const __m512 e1 = exp16(_mm512_maskz_sub_ps(m, x1, _mm512_set1_ps(mx1)));
      const __m512 e2 = exp16(_mm512_maskz_sub_ps(m, x2, _mm512_set1_ps(mx2)));
      const __m512 e3 = exp16(_mm512_maskz_sub_ps(m, x3, _mm512_set1_ps(mx3)));
      const float s0 = hsum16(_mm512_maskz_mov_ps(m, e0));
      const float s1 = hsum16(_mm512_maskz_mov_ps(m, e1));
      const float s2 = hsum16(_mm512_maskz_mov_ps(m, e2));
      const float s3 = hsum16(_mm512_maskz_mov_ps(m, e3));
      _mm512_mask_storeu_ps(p0, m, _mm512_mul_ps(e0, _mm512_set1_ps(1.0f / s0)));
      _mm512_mask_storeu_ps(p1, m, _mm512_mul_ps(e1, _mm512_set1_ps(1.0f / s1)));
      _mm512_mask_storeu_ps(p2, m, _mm512_mul_ps(e2, _mm512_set1_ps(1.0f / s2)));
      _mm512_mask_storeu_ps(p3, m, _mm512_mul_ps(e3, _mm512_set1_ps(1.0f / s3)));
    }
    for (; r < r1; ++r) {
      float* row = x + r * d;
      const __m512 xv = _mm512_mask_loadu_ps(lowest, m, row);
      const float mx = hmax16(xv);
      const __m512 e = exp16(_mm512_maskz_sub_ps(m, xv, _mm512_set1_ps(mx)));
      const float sum = hsum16(_mm512_maskz_mov_ps(m, e));
      _mm512_mask_storeu_ps(row, m,
                            _mm512_mul_ps(e, _mm512_set1_ps(1.0f / sum)));
    }
    return;
  }
  for (std::int64_t r = r0; r < r1; ++r) {
    float* row = x + r * d;
    __m512 mv = _mm512_loadu_ps(row);
    std::int64_t j = 16;
    for (; j + 16 <= d; j += 16) mv = _mm512_max_ps(mv, _mm512_loadu_ps(row + j));
    float mx = hmax16(mv);
    for (; j < d; ++j) mx = std::max(mx, row[j]);
    const __m512 mxv = _mm512_set1_ps(mx);
    __m512 sv = _mm512_setzero_ps();
    float sum = 0.0f;
    j = 0;
    for (; j + 16 <= d; j += 16) {
      const __m512 e = exp16(_mm512_sub_ps(_mm512_loadu_ps(row + j), mxv));
      _mm512_storeu_ps(row + j, e);
      sv = _mm512_add_ps(sv, e);
    }
    sum = hsum16(sv);
    for (; j < d; ++j) {
      row[j] = poly_expf(row[j] - mx);
      sum += row[j];
    }
    const float inv = 1.0f / sum;
    const __m512 iv = _mm512_set1_ps(inv);
    j = 0;
    for (; j + 16 <= d; j += 16)
      _mm512_storeu_ps(row + j, _mm512_mul_ps(iv, _mm512_loadu_ps(row + j)));
    for (; j < d; ++j) row[j] *= inv;
  }
}

__attribute__((target("avx512f"))) void softmax_t(float* x, std::int64_t rows,
                                                  std::int64_t d,
                                                  std::int64_t r0,
                                                  std::int64_t r1) {
  // 16 logical rows per zmm; the normalization axis j is walked as strided
  // vertical loads so no lane ever needs a horizontal reduction.
  std::int64_t r = r0;
  for (; r + 16 <= r1; r += 16) {
    float* base = x + r;
    __m512 mx = _mm512_loadu_ps(base);
    for (std::int64_t j = 1; j < d; ++j)
      mx = _mm512_max_ps(mx, _mm512_loadu_ps(base + j * rows));
    __m512 sum = _mm512_setzero_ps();
    for (std::int64_t j = 0; j < d; ++j) {
      const __m512 e =
          exp16(_mm512_sub_ps(_mm512_loadu_ps(base + j * rows), mx));
      _mm512_storeu_ps(base + j * rows, e);
      sum = _mm512_add_ps(sum, e);
    }
    const __m512 inv = _mm512_div_ps(_mm512_set1_ps(1.0f), sum);
    for (std::int64_t j = 0; j < d; ++j)
      _mm512_storeu_ps(base + j * rows,
                       _mm512_mul_ps(inv, _mm512_loadu_ps(base + j * rows)));
  }
  if (r < r1) {
    // Masked tail: inactive lanes stay untouched (maskz loads feed them
    // zeros, masked stores never write them back).
    const __mmask16 m = static_cast<__mmask16>((1u << (r1 - r)) - 1);
    float* base = x + r;
    __m512 mx = _mm512_maskz_loadu_ps(m, base);
    for (std::int64_t j = 1; j < d; ++j)
      mx = _mm512_mask_max_ps(mx, m, mx,
                              _mm512_maskz_loadu_ps(m, base + j * rows));
    __m512 sum = _mm512_setzero_ps();
    for (std::int64_t j = 0; j < d; ++j) {
      const __m512 e = exp16(_mm512_maskz_sub_ps(
          m, _mm512_maskz_loadu_ps(m, base + j * rows), mx));
      _mm512_mask_storeu_ps(base + j * rows, m, e);
      sum = _mm512_maskz_add_ps(m, sum, e);
    }
    const __m512 inv = _mm512_maskz_div_ps(m, _mm512_set1_ps(1.0f), sum);
    for (std::int64_t j = 0; j < d; ++j)
      _mm512_mask_storeu_ps(
          base + j * rows, m,
          _mm512_mul_ps(inv, _mm512_maskz_loadu_ps(m, base + j * rows)));
  }
}

__attribute__((target("avx512f"))) void squash(const float* s, float* v,
                                               std::int64_t d, float eps,
                                               std::int64_t r0,
                                               std::int64_t r1) {
  for (std::int64_t r = r0; r < r1; ++r) squash_row(s + r * d, v + r * d, d, eps);
}

__attribute__((target("avx512f"))) void squash_bwd(const float* s,
                                                   const float* g, float* gs,
                                                   std::int64_t d, float eps,
                                                   std::int64_t r0,
                                                   std::int64_t r1) {
  if (d == 16) {
    // One zmm per row: both reductions come from the same loaded registers
    // and the output is a single fused multiply-add.
    for (std::int64_t r = r0; r < r1; ++r) {
      const __m512 sv = _mm512_loadu_ps(s + r * 16);
      const __m512 gv = _mm512_loadu_ps(g + r * 16);
      const float nsq = hsum16(_mm512_mul_ps(sv, sv));
      const float dot = hsum16(_mm512_mul_ps(sv, gv));
      const float n = std::sqrt(nsq + eps);
      const float denom = 1.0f + nsq;
      const float f = n / denom;
      const float coeff = (1.0f - nsq) / (denom * denom) / n * dot;
      _mm512_storeu_ps(
          gs + r * 16,
          _mm512_fmadd_ps(_mm512_set1_ps(f), gv,
                          _mm512_mul_ps(_mm512_set1_ps(coeff), sv)));
    }
    return;
  }
  for (std::int64_t r = r0; r < r1; ++r) {
    const float* sr = s + r * d;
    const float* gr = g + r * d;
    float* out = gs + r * d;
    __m512 na = _mm512_setzero_ps(), da = _mm512_setzero_ps();
    std::int64_t k = 0;
    for (; k + 16 <= d; k += 16) {
      const __m512 sv = _mm512_loadu_ps(sr + k);
      na = _mm512_fmadd_ps(sv, sv, na);
      da = _mm512_fmadd_ps(sv, _mm512_loadu_ps(gr + k), da);
    }
    if (k < d) {
      const __mmask16 m = static_cast<__mmask16>((1u << (d - k)) - 1);
      const __m512 sv = _mm512_maskz_loadu_ps(m, sr + k);
      na = _mm512_fmadd_ps(sv, sv, na);
      da = _mm512_fmadd_ps(sv, _mm512_maskz_loadu_ps(m, gr + k), da);
    }
    const float nsq = hsum16(na);
    const float dot = hsum16(da);
    const float n = std::sqrt(nsq + eps);
    const float denom = 1.0f + nsq;
    const float f = n / denom;
    const float coeff = (1.0f - nsq) / (denom * denom) / n * dot;
    const __m512 fv = _mm512_set1_ps(f);
    const __m512 cv = _mm512_set1_ps(coeff);
    k = 0;
    for (; k + 16 <= d; k += 16)
      _mm512_storeu_ps(
          out + k,
          _mm512_fmadd_ps(fv, _mm512_loadu_ps(gr + k),
                          _mm512_mul_ps(cv, _mm512_loadu_ps(sr + k))));
    if (k < d) {
      const __mmask16 m = static_cast<__mmask16>((1u << (d - k)) - 1);
      _mm512_mask_storeu_ps(
          out + k, m,
          _mm512_fmadd_ps(fv, _mm512_maskz_loadu_ps(m, gr + k),
                          _mm512_mul_ps(cv, _mm512_maskz_loadu_ps(m, sr + k))));
    }
  }
}

#pragma GCC diagnostic pop

// Integer squash gain, 8 int64 norms per iteration (same organization as
// the AVX2 kernel — vectorized NR body, scalar normalization/finish, block
// falls back to the scalar element when the conservative mask trips).
__attribute__((target("avx512f"))) void gain_n(const std::int64_t* nsq,
                                               std::int64_t* gain,
                                               std::int64_t n, int qf) {
  const std::int64_t one = std::int64_t{1} << qf;
  const __m512i vone = _mm512_set1_epi64(one);
  const __m512i vtwo_one = _mm512_set1_epi64(2 * one);
  const __m512i vthree = _mm512_set1_epi64(3 * one);
  const __m512i vseed_hi = _mm512_set1_epi64(3 * one >> 2);
  const __m512i vzero = _mm512_setzero_si512();
  const __m512i vy_cap = _mm512_set1_epi64(std::int64_t{1} << 31);
  const __m128i cqf = _mm_cvtsi32_si128(qf);
  const __m128i cqf1 = _mm_cvtsi32_si128(qf + 1);
  alignas(64) std::int64_t mbuf[8], ybuf[8];
  int half_e[8];
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (int l = 0; l < 8; ++l) {
      const std::int64_t s = nsq[i + l];
      if (s <= 0) {
        mbuf[l] = one;
        half_e[l] = 0;
        continue;
      }
      const int e0 = static_cast<int>(
                         std::bit_width(static_cast<std::uint64_t>(s))) -
                     qf - 2;
      const int e = e0 + (e0 & 1);
      mbuf[l] = e >= 0 ? s >> e : s << -e;
      half_e[l] = e / 2;
    }
    const __m512i m = _mm512_load_si512(mbuf);
    const __m512i ya = _mm512_sub_epi64(
        vone, _mm512_srli_epi64(_mm512_sub_epi64(m, vone), 2));
    const __m512i yb = _mm512_sub_epi64(
        vseed_hi, _mm512_srli_epi64(_mm512_sub_epi64(m, vtwo_one), 3));
    __m512i y = _mm512_mask_blend_epi64(
        _mm512_cmpgt_epi64_mask(vtwo_one, m), yb, ya);
    __mmask8 bad = 0;
    for (int it = 0; it < 4; ++it) {
      const __m512i y2 = _mm512_srl_epi64(_mm512_mul_epu32(y, y), cqf);
      const __m512i my2 = _mm512_srl_epi64(_mm512_mul_epu32(m, y2), cqf);
      const __m512i t = _mm512_sub_epi64(vthree, my2);
      bad |= _mm512_cmpgt_epi64_mask(vzero, t);
      y = _mm512_srl_epi64(_mm512_mul_epu32(y, t), cqf1);
      bad |= _mm512_cmpgt_epi64_mask(y, vy_cap);
    }
    if (bad != 0) {
      for (int l = 0; l < 8; ++l)
        gain[i + l] = squash_gain_one(nsq[i + l], qf);
      continue;
    }
    _mm512_store_si512(ybuf, y);
    for (int l = 0; l < 8; ++l)
      gain[i + l] =
          nsq[i + l] <= 0
              ? 0
              : squash_gain_finish(nsq[i + l], ybuf[l], half_e[l], qf);
  }
  for (; i < n; ++i) gain[i] = squash_gain_one(nsq[i], qf);
}

}  // namespace avx512

#endif  // QCAPS_X86_NATIVE

// ---- dispatch --------------------------------------------------------------

struct OpsTable {
  void (*ws)(const float*, const float*, float*, std::int64_t, std::int64_t,
             std::int64_t, std::int64_t);
  void (*ws_squash)(const float*, const float*, float*, float*, std::int64_t,
                    std::int64_t, float, std::int64_t, std::int64_t);
  void (*agree)(const float*, const float*, float*, std::int64_t, std::int64_t,
                bool, std::int64_t, std::int64_t);
  void (*iter_fused)(const float*, const float*, float*, float*, float*,
                     std::int64_t, std::int64_t, float, std::int64_t,
                     std::int64_t);
  void (*ws_bwd)(const float*, const float*, const float*, float*, float*,
                 std::int64_t, std::int64_t, std::int64_t, std::int64_t);
  void (*agree_bwd)(const float*, const float*, const float*, float*, float*,
                    std::int64_t, std::int64_t, std::int64_t, std::int64_t);
  void (*softmax)(float*, std::int64_t, std::int64_t, std::int64_t);
  void (*softmax_t)(float*, std::int64_t, std::int64_t, std::int64_t,
                    std::int64_t);
  void (*squash)(const float*, float*, std::int64_t, float, std::int64_t,
                 std::int64_t);
  void (*squash_bwd)(const float*, const float*, float*, std::int64_t, float,
                     std::int64_t, std::int64_t);
  void (*gain_n)(const std::int64_t*, std::int64_t*, std::int64_t, int);
  Isa tier;
};

// The best table at or below tier `k` (there is no VNNI caps kernel).
OpsTable make_table(Isa k) {
  switch (k) {
#ifdef QCAPS_X86_NATIVE
    case Isa::kAvx512Vnni:
    case Isa::kAvx512:
      return {avx512::ws,        avx512::ws_squash,  avx512::agree,
              avx512::iter_fused, avx512::ws_bwd,     avx512::agree_bwd,
              avx512::softmax,    avx512::softmax_t,  avx512::squash,
              avx512::squash_bwd, avx512::gain_n,     Isa::kAvx512};
    case Isa::kAvx2:
      return {avx2::ws,        avx2::ws_squash,  avx2::agree,
              avx2::iter_fused, avx2::ws_bwd,     avx2::agree_bwd,
              avx2::softmax,    avx2::softmax_t,  avx2::squash,
              avx2::squash_bwd, avx2::gain_n,     Isa::kAvx2};
#endif
    default:
      break;
  }
  return {scalar::ws,        scalar::ws_squash,  scalar::agree,
          scalar::iter_fused, scalar::ws_bwd,     scalar::agree_bwd,
          scalar::softmax,    scalar::softmax_t,  scalar::squash,
          scalar::squash_bwd, scalar::gain_n,     Isa::kScalar};
}

OpsTable g_ops = make_table(isa_default());

}  // namespace

Isa caps_kernel() { return g_ops.tier; }

const char* caps_kernel_name() { return isa_name(g_ops.tier); }

bool caps_force_kernel(Isa k) {
  const OpsTable t = make_table(k);
  if (!isa_supported(k) || t.tier != k) return false;
  g_ops = t;
  return true;
}

void caps_reset_kernel() { g_ops = make_table(isa_default()); }

void routing_weighted_sum(const float* u, const float* c, float* s,
                          std::int64_t r, std::int64_t nin, std::int64_t nout,
                          std::int64_t d) {
  run_ranges(r * nout, nin * d, [&](std::int64_t t0, std::int64_t t1) {
    g_ops.ws(u, c, s, nin, d, t0, t1);
  });
}

void routing_weighted_sum_squash(const float* u, const float* c, float* s,
                                 float* v, std::int64_t r, std::int64_t nin,
                                 std::int64_t nout, std::int64_t d,
                                 float eps) {
  run_ranges(r * nout, nin * d, [&](std::int64_t t0, std::int64_t t1) {
    g_ops.ws_squash(u, c, s, v, nin, d, eps, t0, t1);
  });
}

void routing_agreement(const float* u, const float* v, float* out,
                       std::int64_t r, std::int64_t nin, std::int64_t nout,
                       std::int64_t d, bool accumulate) {
  run_ranges(r * nout, nin * d, [&](std::int64_t t0, std::int64_t t1) {
    g_ops.agree(u, v, out, nin, d, accumulate, t0, t1);
  });
}

void routing_iteration_fused(const float* u, const float* c, float* s,
                             float* v, float* b, std::int64_t r,
                             std::int64_t nin, std::int64_t nout,
                             std::int64_t d, float eps) {
  run_ranges(r * nout, 2 * nin * d, [&](std::int64_t t0, std::int64_t t1) {
    g_ops.iter_fused(u, c, s, v, b, nin, d, eps, t0, t1);
  });
}

void routing_weighted_sum_backward(const float* u, const float* c,
                                   const float* gs, float* gc, float* gu,
                                   std::int64_t r, std::int64_t nin,
                                   std::int64_t nout, std::int64_t d) {
  run_ranges(r * nout, 2 * nin * d, [&](std::int64_t t0, std::int64_t t1) {
    g_ops.ws_bwd(u, c, gs, gc, gu, nin, d, t0, t1);
  });
}

void routing_agreement_backward(const float* u, const float* v,
                                const float* gb, float* gv, float* gu,
                                std::int64_t r, std::int64_t nin,
                                std::int64_t nout, std::int64_t d) {
  run_ranges(r * nout, 2 * nin * d, [&](std::int64_t t0, std::int64_t t1) {
    g_ops.agree_bwd(u, v, gb, gv, gu, nin, d, t0, t1);
  });
}

void softmax_rows(float* x, std::int64_t rows, std::int64_t d) {
  if (d <= 0) return;
  run_ranges(rows, 4 * d, [&](std::int64_t r0, std::int64_t r1) {
    g_ops.softmax(x, d, r0, r1);
  });
}

void softmax_rows_t(float* x, std::int64_t rows, std::int64_t d) {
  if (d <= 0 || rows <= 0) return;
  run_ranges(rows, 4 * d, [&](std::int64_t r0, std::int64_t r1) {
    g_ops.softmax_t(x, rows, d, r0, r1);
  });
}

void squash_rows(const float* s, float* v, std::int64_t rows, std::int64_t d,
                 float eps) {
  if (d <= 0) return;
  run_ranges(rows, 2 * d, [&](std::int64_t r0, std::int64_t r1) {
    g_ops.squash(s, v, d, eps, r0, r1);
  });
}

void squash_rows_backward(const float* s, const float* g, float* gs,
                          std::int64_t rows, std::int64_t d, float eps) {
  if (d <= 0) return;
  run_ranges(rows, 3 * d, [&](std::int64_t r0, std::int64_t r1) {
    g_ops.squash_bwd(s, g, gs, d, eps, r0, r1);
  });
}

void squash_gain_raw_n(const std::int64_t* nsq, std::int64_t* gain,
                       std::int64_t n, int qf) {
  // No internal threading: callers batch per pixel-block inside their own
  // parallel loops, so the call sees short arrays on a hot path.
  if (n <= 0) return;
  g_ops.gain_n(nsq, gain, n, qf);
}

}  // namespace qcaps::tensor
