#include "qengine/qengine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "hwmodel/units.hpp"
#include "qengine/schedule.hpp"
#include "tensor/caps_kernels.hpp"
#include "tensor/qgemm.hpp"

namespace qcaps::qengine {
namespace {

int ceil_log2(std::int64_t v) {
  return v <= 1 ? 0
               : std::bit_width(static_cast<std::uint64_t>(v - 1));
}

// qgemm storage tiers for a pair of operands (by actual raw range, not
// format): 0 = no exact-int32 fast path, 1 = packed int8, 2 = packed int16.
int qgemm_tier(std::int64_t maxabs_a, std::int64_t maxabs_b, std::int64_t k) {
  if (maxabs_a > 32767 || maxabs_b > 32767) return 0;
  // sum_k |a||b| <= k * 2^ba * 2^bb must stay below 2^31.
  const int ba = std::bit_width(static_cast<std::uint64_t>(maxabs_a));
  const int bb = std::bit_width(static_cast<std::uint64_t>(maxabs_b));
  if (ba + bb + ceil_log2(k) > 30) return 0;
  return (maxabs_a <= 127 && maxabs_b <= 127) ? 1 : 2;
}

// The int64 scalar fallbacks are exact only while k * |a| * |b| cannot wrap
// int64; FixedFormat allows wordlengths up to 62, so this must be checked.
void check_i64_acc(std::int64_t max_a, std::int64_t max_b, std::int64_t k,
                   const char* what) {
  const int ba = std::bit_width(static_cast<std::uint64_t>(max_a));
  const int bb = std::bit_width(static_cast<std::uint64_t>(max_b));
  QCAPS_CHECK_MSG(ba + bb + ceil_log2(std::max<std::int64_t>(k, 1)) <= 62,
                  what << " accumulator would overflow for these values");
}

// True when the accumulator -> out_fmt rescale is expressible as a qgemm
// requant (round-to-nearest, int32 output grid, shift within range).
bool requant_expressible(int acc_qf, const fixed::FixedFormat& out_fmt,
                         fixed::RoundingScheme scheme) {
  if (scheme != fixed::RoundingScheme::kRoundToNearest) return false;
  if (out_fmt.wordlength() > 31) return false;
  const int shift = acc_qf - out_fmt.qf;
  return shift >= -30 && shift <= 31;
}

tensor::QGemmRequant make_requant(int acc_qf,
                                  const fixed::FixedFormat& out_fmt) {
  tensor::QGemmRequant rq;
  rq.shift = acc_qf - out_fmt.qf;
  rq.qmin = static_cast<std::int32_t>(out_fmt.raw_min());
  rq.qmax = static_cast<std::int32_t>(out_fmt.raw_max());
  return rq;
}

// Epilogue statistics request counting `fmt`'s rails.
tensor::QGemmOutStats rail_stats(const fixed::FixedFormat& fmt) {
  tensor::QGemmOutStats st;
  st.rail_lo = fmt.raw_min();
  st.rail_hi = fmt.raw_max();
  return st;
}

void take_stats(const tensor::QGemmOutStats& st, int qgemm_bits,
                OpRun& run) {
  run.max_abs = st.max_abs;
  run.at_rail = st.at_rail;
  run.qgemm_bits = std::max(run.qgemm_bits, qgemm_bits);
}

// Range / rail bookkeeping of one written raw value.
inline void note(std::int64_t v, std::int64_t lo, std::int64_t hi,
                 std::int64_t& max_abs, std::uint64_t& at_rail) {
  max_abs = std::max(max_abs, v < 0 ? -v : v);
  at_rail += (v <= lo || v >= hi) ? 1 : 0;
}

// A value left all-zero (empty contraction): zero sits on a rail only for
// a one-bit format.
void note_zeros(const fixed::FixedFormat& fmt, std::int64_t n, OpRun& run) {
  run.max_abs = 0;
  run.at_rail = (fmt.raw_max() <= 0) ? static_cast<std::uint64_t>(n) : 0;
}

// Narrowing copy of a tensor into a packed qgemm operand. The caller's tier
// decision (qgemm_tier over the tensor's range) guarantees the values fit.
template <typename T, typename TI>
std::vector<T> narrow_copy(const QTensorT<TI>& t) {
  return std::vector<T>(t.raw.begin(), t.raw.end());
}

template <typename T>
const T* cached_data(const QGemmOperandCache& cache) {
  if constexpr (std::is_same_v<T, std::int8_t>)
    return cache.i8_data();
  else
    return cache.i16_data();
}

// The packed weight operand: the persistent cache when given, otherwise a
// copy into `local`.
template <typename T>
const T* weight_panel(const QTensor& w, const QGemmOperandCache* cache,
                      std::vector<T>& local) {
  if (cache) return cached_data<T>(*cache);
  local = narrow_copy<T>(w);
  return local.data();
}

// One strided GEMM per input type i (the shape qgemm amortizes best):
//   c[:, i, :] [B x JD] = u[:, i, :] [B x Din] * w[i]^T [Din x JD]
// The i-major result is permuted into the j-major votes layout by the
// requant epilogue's affine scatter (QGemmScatterTo) — element (bi, j*Dout
// + dd) of batch item i lands at votes[((bi*Nout + j)*Nin + i)*Dout + dd]
// straight out of the microkernel, so the routing layout costs no separate
// copy pass. (Emitting j-major via GEMM shapes instead would need one batch
// per output capsule: n = Dout-wide calls too small to amortize packing,
// measured 3x slower on the ShallowCaps head.)
template <typename T, typename TI, typename TO>
void run_qgemm_votes(const QTensorT<TI>& u, const QTensor& w,
                     const QGemmOperandCache* w_cache, std::int64_t b,
                     std::int64_t nin, std::int64_t din, std::int64_t nout,
                     std::int64_t dout, const tensor::QGemmRequant& rq,
                     QTensorT<TO>& votes, tensor::QGemmOutStats& st) {
  const auto up = narrow_copy<T>(u);
  std::vector<T> wp_local;
  const T* wp = weight_panel<T>(w, w_cache, wp_local);
  const std::int64_t jd = nout * dout;
  tensor::QGemmScatterTo<TO> sd;
  sd.dst = votes.raw.data();
  sd.row_outer_stride = nout * nin * dout;  // per image row bi (row_inner = 1)
  sd.col_inner = dout;
  sd.col_outer_stride = nin * dout;         // per output type j
  sd.col_inner_stride = 1;                  // per vote component dd
  sd.batch_stride = dout;                   // per input type i
  sd.stats = &st;
  tensor::qgemm_batch_scatter(tensor::Trans::kN, tensor::Trans::kT, b, jd,
                              din, up.data(), nin * din, din, wp, din,
                              jd * din, nin, rq, sd);
}

// Geometry of one conv: input [b, c, h, w], square kernel k, output oh x ow.
struct ConvGeom {
  std::int64_t b, c, h, w, k, stride, pad, oh, ow;
};

// im2col of the flattened output rows [r0, r1) (r = image * oh + y) of x
// [B, C, H, W] into the column panel [C*K*K, (r1 - r0)*OW]. Each kernel tap
// (ci, ky, kx) has one range of output columns [x0, x1) whose input pixels
// lie inside the image; per output row that range is one contiguous
// (stride 1) or strided converting copy and the padding around it is
// written as zeros — no per-element bounds test and no separate zero-fill
// of the panel. Serial: the node schedule runs it on each thread's rows.
template <typename TI, typename T>
void im2col_rows(const TI* x, std::int64_t r0, std::int64_t r1,
                 const ConvGeom& g, T* cols) {
  const std::int64_t n_chunk = (r1 - r0) * g.ow;
  const std::int64_t k = g.k, ow = g.ow, wd = g.w, stride = g.stride,
                     pad = g.pad;
  for_each_image_rows(r0, r1, g.oh, [&](std::int64_t bi, std::int64_t ya,
                                        std::int64_t yb) {
    // Output row y of this image is chunk column (y - ya) * ow + off.
    const std::int64_t off = (bi * g.oh + ya - r0) * ow;
    for (std::int64_t ci = 0; ci < g.c; ++ci) {
      const TI* xplane = x + (bi * g.c + ci) * g.h * wd;
      for (std::int64_t ky = 0; ky < k; ++ky) {
        for (std::int64_t kx = 0; kx < k; ++kx) {
          T* crow = cols + ((ci * k + ky) * k + kx) * n_chunk + off;
          // Valid columns: 0 <= xx*stride + kx - pad <= wd - 1.
          const std::int64_t x0 =
              kx >= pad ? 0
                        : std::min(ow, (pad - kx + stride - 1) / stride);
          const std::int64_t last = wd - 1 + pad - kx;
          const std::int64_t x1 =
              std::max(x0, last < 0 ? 0 : std::min(ow, last / stride + 1));
          if (stride == 1 && ow == wd && x0 < x1) {
            // Same-size stride-1 output: the valid rows [y0, y1) of this
            // tap are ONE contiguous shifted copy of the plane. Copy it in
            // one run, then zero the clipped border columns (which the run
            // filled with neighbouring rows' pixels) and the clipped rows.
            const std::int64_t y0 = std::clamp<std::int64_t>(pad - ky, ya, yb);
            const std::int64_t y1 =
                std::clamp<std::int64_t>(g.h + pad - ky, y0, yb);
            std::fill(crow, crow + (y0 - ya) * ow, T{0});
            if (y1 > y0) {
              const std::int64_t d0 = (y0 - ya) * ow + x0;
              const std::int64_t d1 = (y1 - 1 - ya) * ow + x1;
              const TI* src = xplane + (y0 + ky - pad) * wd + x0 + kx - pad;
              T* dst = crow + d0;
              for (std::int64_t e = 0; e < d1 - d0; ++e)
                dst[e] = static_cast<T>(src[e]);
              for (std::int64_t y = y0 - ya; y < y1 - ya; ++y) {
                std::fill(crow + y * ow, crow + y * ow + x0, T{0});
                std::fill(crow + y * ow + x1, crow + (y + 1) * ow, T{0});
              }
            }
            std::fill(crow + (y1 - ya) * ow, crow + (yb - ya) * ow, T{0});
            continue;
          }
          for (std::int64_t y = ya; y < yb; ++y) {
            T* dst = crow + (y - ya) * ow;
            const std::int64_t iy = y * stride + ky - pad;
            if (iy < 0 || iy >= g.h) {
              std::fill(dst, dst + ow, T{0});
              continue;
            }
            std::fill(dst, dst + x0, T{0});
            const TI* src = xplane + iy * wd + x0 * stride + kx - pad;
            if (stride == 1) {
              for (std::int64_t xx = x0; xx < x1; ++xx)
                dst[xx] = static_cast<T>(src[xx - x0]);
            } else {
              for (std::int64_t xx = x0; xx < x1; ++xx)
                dst[xx] = static_cast<T>(src[(xx - x0) * stride]);
            }
            std::fill(dst + x1, dst + ow, T{0});
          }
        }
      }
    }
  });
}

// Output rows per GEMM chunk of one thread: the team's chunks together keep
// the im2col columns, the int32 accumulators and the written outputs
// L2-resident (~1 MB); the packed weight panels stay hot across every
// chunk. Whole images whenever one fits (and no more than a thread's share
// of the batch), so a one-thread team chunks the batch exactly as a
// whole-image loop would. Chunking cannot change results: each output
// element's exact int32 accumulation is unaffected by which chunk
// computes it.
std::int64_t chunk_rows(std::int64_t bytes_per_col, const ConvGeom& g,
                        int threads) {
  constexpr std::int64_t kConvWorkingSetBytes = std::int64_t{1} << 20;
  const std::int64_t rows = std::max<std::int64_t>(
      kConvWorkingSetBytes / threads /
          std::max<std::int64_t>(bytes_per_col * g.ow, 1),
      1);
  if (rows < g.oh) return rows;
  const std::int64_t share = (g.b * g.oh + threads - 1) / threads;
  return std::min(rows - rows % g.oh, (share + g.oh - 1) / g.oh * g.oh);
}

// The node schedule of a conv-shaped op (qengine/schedule.hpp): each thread
// walks its range of output rows chunk by chunk, im2cols every chunk into
// its own slice of one node-wide scratch arena and hands it to
// gemm(t, r0, r1, cols, tail), where `tail` is a further
// tail_bytes_per_col per column of the largest chunk. A chunk that starts
// inside an image ends with that image, so every chunk is either one
// image's run of rows or starts at an image boundary — the two shapes the
// affine scatter epilogue can address.
template <typename T, typename TI, typename Gemm>
void conv_schedule(int threads, const TI* x, const ConvGeom& g,
                   std::int64_t bytes_per_col, std::int64_t tail_bytes_per_col,
                   Gemm&& gemm) {
  const std::int64_t rows = chunk_rows(bytes_per_col, g, threads);
  const std::int64_t kk = g.c * g.k * g.k;
  const auto round64 = [](std::int64_t v) { return (v + 63) / 64 * 64; };
  const std::int64_t col_bytes =
      round64(rows * g.ow * kk * static_cast<std::int64_t>(sizeof(T)));
  const std::int64_t slice =
      col_bytes + round64(rows * g.ow * tail_bytes_per_col);
  // One allocation per node, not zero-filled, freed on return, so the
  // executor's values can reuse the block. A grow-only arena kept per
  // calling thread across calls raised the Q-CapsNets search's peak RSS
  // from 59.1 to 63.5 MiB for the same work.
  const std::unique_ptr<std::byte[]> arena(
      new std::byte[static_cast<std::size_t>(threads * slice)]);
  for_each_row_range(threads, g.b, g.oh, [&](int t, std::int64_t r0,
                                             std::int64_t r1) {
    std::byte* mine = arena.get() + t * slice;
    T* cols = reinterpret_cast<T*>(mine);
    for (std::int64_t r = r0; r < r1;) {
      std::int64_t e = std::min(r + rows, r1);
      if (r % g.oh != 0) e = std::min(e, (r / g.oh + 1) * g.oh);
      im2col_rows(x, r, e, g, cols);
      gemm(t, r, e, cols, mine + col_bytes);
      r = e;
    }
  });
}

// Folds per-thread copies of a fresh record `st` (its rails, nothing
// recorded yet) back into it in thread order; max and sum are order-free.
void merge_stats(const std::vector<tensor::QGemmOutStats>& part,
                 tensor::QGemmOutStats& st) {
  for (const tensor::QGemmOutStats& p : part) {
    st.max_abs = std::max(st.max_abs, p.max_abs);
    st.at_rail += p.at_rail;
  }
}

// One (image, capsule type) slab of a channel-grouped squash: capsule p's D
// elements sit `src_stride` (`dst_stride` in the output) apart, so the
// squared norms accumulate vertically across the D channel rows, pixel
// block by pixel block, and the gain rescales each element in a second
// pass. Bit-identical to SquashUnit::apply per capsule: integer addition is
// order-free and the per-term shift, the gain and the final rescale are
// element-local. run_avx512 is the same body compiled for AVX-512, where
// the 64-bit multiplies and the clamp vectorize.
template <typename TI, typename TO>
struct SquashSlab {
  hwmodel::SquashUnit unit;
  std::int64_t caps_dim;
  int shift_up, shift;
  std::int64_t half, lo, hi;  ///< output rounding constant and clamp rails
  fixed::FixedFormat result_fmt;  ///< whose rails are counted
  bool avx512;

  [[gnu::always_inline]] inline void body(const TI* src,
                                          std::int64_t src_stride, TO* dst,
                                          std::int64_t dst_stride,
                                          std::int64_t npix,
                                          std::int64_t& max_abs_out,
                                          std::uint64_t& at_rail_out) const {
    constexpr std::int64_t kBlock = 512;
    std::int64_t nsq[kBlock];
    std::int64_t gain[kBlock];
    std::int64_t max_abs = 0;
    std::uint64_t at_rail = 0;
    const std::int64_t rail_lo = result_fmt.raw_min();
    const std::int64_t rail_hi = result_fmt.raw_max();
    for (std::int64_t p0 = 0; p0 < npix; p0 += kBlock) {
      const std::int64_t pc = std::min(kBlock, npix - p0);
      std::fill(nsq, nsq + pc, std::int64_t{0});
      for (std::int64_t j = 0; j < caps_dim; ++j) {
        const TI* row = src + j * src_stride + p0;
        if (shift_up >= 0)
          for (std::int64_t p = 0; p < pc; ++p)
            nsq[p] += (static_cast<std::int64_t>(row[p]) * row[p]) << shift_up;
        else
          for (std::int64_t p = 0; p < pc; ++p)
            nsq[p] +=
                (static_cast<std::int64_t>(row[p]) * row[p]) >> -shift_up;
      }
      unit.gain_raw_n(nsq, gain, pc);
      for (std::int64_t j = 0; j < caps_dim; ++j) {
        const TI* row = src + j * src_stride + p0;
        TO* orow = dst + j * dst_stride + p0;
        for (std::int64_t p = 0; p < pc; ++p) {
          const std::int64_t v =
              std::clamp((row[p] * gain[p] + half) >> shift, lo, hi);
          orow[p] = static_cast<TO>(v);
          max_abs = std::max(max_abs, v < 0 ? -v : v);
          at_rail += (v <= rail_lo || v >= rail_hi) ? 1 : 0;
        }
      }
    }
    max_abs_out = std::max(max_abs_out, max_abs);
    at_rail_out += at_rail;
  }
#ifdef QCAPS_X86_NATIVE
  __attribute__((target("avx512f,avx512dq,avx512bw,avx512vl"))) void
  run_avx512(const TI* src, std::int64_t src_stride, TO* dst,
             std::int64_t dst_stride, std::int64_t npix, std::int64_t& max_abs,
             std::uint64_t& at_rail) const {
    body(src, src_stride, dst, dst_stride, npix, max_abs, at_rail);
  }
#endif
  // Squash every capsule type of `npix` pixels.
  void run(const TI* src, std::int64_t src_stride, TO* dst,
           std::int64_t dst_stride, std::int64_t npix, std::int64_t types,
           std::int64_t& max_abs, std::uint64_t& at_rail) const {
    for (std::int64_t t = 0; t < types; ++t) {
      const TI* s = src + t * caps_dim * src_stride;
      TO* d = dst + t * caps_dim * dst_stride;
#ifdef QCAPS_X86_NATIVE
      if (avx512) {
        run_avx512(s, src_stride, d, dst_stride, npix, max_abs, at_rail);
        continue;
      }
#endif
      body(s, src_stride, d, dst_stride, npix, max_abs, at_rail);
    }
  }
};

// The squash of `s_fmt` values into out_fmt, with an exact trailing rescale
// out_fmt -> *fold_fmt composed in when given.
template <typename TI, typename TO>
SquashSlab<TI, TO> make_squash_slab(fixed::FixedFormat s_fmt,
                                    std::int64_t caps_dim,
                                    fixed::FixedFormat out_fmt,
                                    const fixed::FixedFormat* fold_fmt) {
  const hwmodel::SquashUnit unit(s_fmt);
  const int shift_up = unit.internal_qf() - 2 * s_fmt.qf;
  const int prod_qf = s_fmt.qf + unit.internal_qf();
  // The output rescale always shifts DOWN (internal_qf >= out qf), so the
  // round-to-nearest + saturate is inlined — per-element calls into
  // hwmodel::rescale_raw would dominate the second pass.
  int shift = prod_qf - out_fmt.qf;
  QCAPS_CHECK(shift > 0);
  std::int64_t half = std::int64_t{1} << (shift - 1);
  std::int64_t lo = out_fmt.raw_min(), hi = out_fmt.raw_max();
  fixed::FixedFormat result_fmt = out_fmt;
  if (fold_fmt != nullptr) {
    // Compose the trailing rescale into this pass: same bits as
    // squash-then-rescale, one traversal (the fusion pass validated
    // exactness before annotating).
    const RescaleFold fold =
        compose_rescale(shift, lo, hi, out_fmt, *fold_fmt);
    QCAPS_CHECK_MSG(fold.ok, "squash: inexact rescale fold");
    shift = fold.shift;
    half = fold.add;
    lo = fold.lo;
    hi = fold.hi;
    result_fmt = *fold_fmt;
  }
#ifdef QCAPS_X86_NATIVE
  const bool avx512 = tensor::caps_kernel() == tensor::Isa::kAvx512;
#else
  const bool avx512 = false;
#endif
  return {unit, caps_dim, shift_up, shift, half, lo, hi, result_fmt, avx512};
}

// The packed-GEMM form of a conv (see conv2d in the header), when the
// operands' raw ranges and the requant admit it: `tier` 1 (int8) or 2
// (int16) with the requant and its accumulator-scale bias; 0 otherwise.
// With a folded trailing rescale the requant expresses the COMPOSED
// shift/rails, so the expressibility gate runs against the final format.
struct ConvGemm {
  int tier = 0;
  tensor::QGemmRequant rq;
  std::vector<std::int32_t> bias32;

  tensor::QGemmRequant requant() const {
    tensor::QGemmRequant r = rq;
    if (!bias32.empty()) r.bias = bias32.data();
    return r;
  }
};

ConvGemm plan_conv_gemm(const fixed::FixedFormat& x_fmt,
                        std::int64_t x_max_abs, const QTensor& w,
                        const QTensor& bias, const fixed::FixedFormat& out_fmt,
                        fixed::RoundingScheme scheme,
                        const QGemmOperandCache* w_cache, bool fuse_relu,
                        const fixed::FixedFormat* fold_fmt) {
  ConvGemm cg;
  const int acc_qf = x_fmt.qf + w.fmt.qf;
  RescaleFold fold;
  if (fold_fmt != nullptr) {
    const std::int64_t lo1 = fuse_relu
                                 ? std::max<std::int64_t>(out_fmt.raw_min(), 0)
                                 : out_fmt.raw_min();
    fold = compose_rescale(acc_qf - out_fmt.qf, lo1, out_fmt.raw_max(),
                           out_fmt, *fold_fmt);
  }
  if (!requant_expressible(acc_qf, fold_fmt ? *fold_fmt : out_fmt, scheme) ||
      (fold_fmt != nullptr && !fold.ok))
    return cg;
  const std::int64_t wmax = w_cache ? w_cache->max_abs : w.max_abs_raw();
  const int tier = qgemm_tier(x_max_abs, wmax, w.dim(1) * w.dim(2) * w.dim(3));
  if (tier == 0) return cg;
  const std::int64_t f = w.dim(0);
  if (!bias.raw.empty()) {
    const int bshift = acc_qf - bias.fmt.qf;
    if (bshift < 0 || bshift >= 31 ||
        bias.max_abs_raw() > ((INT32_MAX - fold.bias_add) >> bshift))
      return cg;
    cg.bias32.resize(static_cast<std::size_t>(f));
    for (std::int64_t i = 0; i < f; ++i)
      cg.bias32[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(
          bias.raw[static_cast<std::size_t>(i)] << bshift);
  }
  cg.rq = make_requant(acc_qf, out_fmt);
  // Fused ReLU: clamp-lo at the (zero) output zero point inside the requant.
  if (fuse_relu) cg.rq.qmin = std::max(cg.rq.qmin, std::int32_t{0});
  if (fold_fmt != nullptr) {
    // Folded trailing rescale: one requant with the composed shift, rails,
    // and the inner rounding constant carried in the accumulator-scale bias.
    cg.rq.shift = fold.shift;
    cg.rq.qmin = static_cast<std::int32_t>(fold.lo);
    cg.rq.qmax = static_cast<std::int32_t>(fold.hi);
    if (fold.bias_add != 0) {
      if (cg.bias32.empty())
        cg.bias32.assign(static_cast<std::size_t>(f),
                         static_cast<std::int32_t>(fold.bias_add));
      else
        for (auto& bv : cg.bias32)
          bv += static_cast<std::int32_t>(fold.bias_add);
    }
  }
  cg.tier = tier;
  return cg;
}

// Batched im2col + packed integer GEMM convolution on the node schedule. A =
// weights [F, C*K*K] (from the packed cache when supplied), B = one chunk's
// im2col columns [C*K*K, rows*OW], bias folded into the fused
// requantization. Padding contributes stored zeros, which are exact zeros
// on the symmetric grid. The requant epilogue scatters each chunk straight
// into the TO output — or, with `squash`, into the thread's int32 scratch,
// which the thread then squashes into the output right away (squash works
// per pixel, so a chunk needs nothing from outside itself).
template <typename T, typename TI, typename TO>
void conv2d_qgemm(const TI* x, const ConvGeom& g, const QTensor& w,
                  const QGemmOperandCache* w_cache, const ConvGemm& cg,
                  const SquashSlab<std::int32_t, TO>* squash, TO* out,
                  tensor::QGemmOutStats& st) {
  const std::int64_t f = w.dim(0);
  const std::int64_t kk = g.c * g.k * g.k;
  const std::int64_t plane = g.oh * g.ow;
  std::vector<T> w_local;
  const T* wp = weight_panel<T>(w, w_cache, w_local);
  const tensor::QGemmRequant rq = cg.requant();
  const int threads = schedule_threads();
  std::vector<tensor::QGemmOutStats> part(static_cast<std::size_t>(threads),
                                          st);
  // Fused squash: the pre-squash int32 chunk is scratch too.
  const std::int64_t mid_bytes =
      squash ? f * static_cast<std::int64_t>(sizeof(std::int32_t)) : 0;
  conv_schedule<T>(
      threads, x, g,
      kk * static_cast<std::int64_t>(sizeof(T)) +
          f * static_cast<std::int64_t>(sizeof(std::int32_t)) +
          (squash ? mid_bytes
                  : f * static_cast<std::int64_t>(sizeof(TO))),
      mid_bytes,
      [&](int t, std::int64_t r0, std::int64_t r1, const T* cols,
          std::byte* tail) {
        const std::int64_t n = (r1 - r0) * g.ow;
        tensor::QGemmOutStats& ts = part[static_cast<std::size_t>(t)];
        if (squash == nullptr) {
          // [F, n] -> out[image, F, pixel]: each row of a plane is one
          // unit-stride run.
          tensor::QGemmScatterTo<TO> sd;
          sd.dst = out + (r0 / g.oh) * f * plane + (r0 % g.oh) * g.ow;
          sd.row_inner = f;
          sd.row_inner_stride = plane;
          sd.col_inner = plane;
          sd.col_outer_stride = f * plane;
          sd.col_inner_stride = 1;
          sd.stats = &ts;
          tensor::qgemm_scatter(tensor::Trans::kN, tensor::Trans::kN, f, n,
                                kk, wp, kk, cols, n, rq, sd);
          return;
        }
        // Pre-squash chunk as [image][F][seg]: seg is the plane when the
        // chunk starts at an image boundary, else its own pixel count.
        const std::int64_t seg = std::min(plane, n);
        auto* mid = reinterpret_cast<std::int32_t*>(tail);
        tensor::QGemmScatterTo<std::int32_t> sd;
        sd.dst = mid;
        sd.row_inner = f;
        sd.row_inner_stride = seg;
        sd.col_inner = seg;
        sd.col_outer_stride = f * seg;
        sd.col_inner_stride = 1;
        tensor::qgemm_scatter(tensor::Trans::kN, tensor::Trans::kN, f, n, kk,
                              wp, kk, cols, n, rq, sd);
        for_each_image_rows(r0, r1, g.oh, [&](std::int64_t bi,
                                              std::int64_t ya,
                                              std::int64_t yb) {
          squash->run(mid + (bi - r0 / g.oh) * f * seg, seg,
                      out + bi * f * plane + ya * g.ow, plane,
                      (yb - ya) * g.ow, f / squash->caps_dim, ts.max_abs,
                      ts.at_rail);
        });
      });
  merge_stats(part, st);
}

// Shape checks shared by the conv-shaped ops; the output geometry.
ConvGeom conv_geom(const std::vector<std::int64_t>& xs, const QTensor& w,
                   fixed::FixedFormat x_fmt, const QTensor& bias,
                   const QGemmOperandCache* w_cache, std::int64_t stride,
                   std::int64_t pad) {
  QCAPS_CHECK_MSG(xs.size() == 4 && w.shape.size() == 4,
                  "qengine conv2d expects [B,C,H,W] x [F,C,K,K]");
  QCAPS_CHECK_MSG(!w_cache || w_cache->max_abs >= 0,
                  "conv2d weight cache was not built");
  ConvGeom g{xs[0], xs[1], xs[2], xs[3], w.dim(2), stride, pad, 0, 0};
  QCAPS_CHECK(w.dim(1) == g.c && w.dim(3) == g.k);
  g.oh = (g.h + 2 * pad - g.k) / stride + 1;
  g.ow = (g.w + 2 * pad - g.k) / stride + 1;
  QCAPS_CHECK(g.oh > 0 && g.ow > 0);
  // Accumulator guard: fan-in * 2^(wl_x + wl_w) must fit in int64.
  QCAPS_CHECK_MSG(x_fmt.wordlength() + w.fmt.wordlength() +
                          static_cast<int>(std::ceil(std::log2(
                              static_cast<double>(g.c * g.k * g.k + 1)))) <=
                      62,
                  "conv accumulator would overflow for these formats");
  QCAPS_CHECK_MSG(bias.raw.empty() || bias.fmt.qf <= x_fmt.qf + w.fmt.qf,
                  "conv2d bias fractional width exceeds the accumulator's");
  return g;
}

}  // namespace

template <typename TI, typename TO>
void conv2d_to(const QTensorT<TI>& x, std::int64_t x_max_abs,
               const QTensor& w, const QTensor& bias, std::int64_t stride,
               std::int64_t pad, fixed::FixedFormat out_fmt,
               fixed::RoundingScheme scheme, const QGemmOperandCache* w_cache,
               bool fuse_relu, const fixed::FixedFormat* fold_fmt,
               QTensorT<TO>& out, OpRun& run) {
  const ConvGeom g = conv_geom(x.shape, w, x.fmt, bias, w_cache, stride, pad);
  const std::int64_t b = g.b, c = g.c, h = g.h, wd = g.w, k = g.k;
  const std::int64_t f = w.dim(0), oh = g.oh, ow = g.ow;
  const int acc_qf = x.fmt.qf + w.fmt.qf;
  const bool has_bias = !bias.raw.empty();
  const fixed::FixedFormat result_fmt = fold_fmt ? *fold_fmt : out_fmt;
  out = QTensorT<TO>({b, f, oh, ow}, result_fmt);
  run = OpRun{};
  if (b == 0) return;

  // Packed-GEMM fast path (bit-identical; see header). Any reject (range,
  // bias widening) falls back to the scalar path, which applies a folded
  // rescale's two rounding steps inline — still one pass, still
  // bit-identical.
  const ConvGemm cg = plan_conv_gemm(x.fmt, x_max_abs, w, bias, out_fmt,
                                     scheme, w_cache, fuse_relu, fold_fmt);
  if (cg.tier != 0) {
    tensor::QGemmOutStats st = rail_stats(result_fmt);
    const SquashSlab<std::int32_t, TO>* no_squash = nullptr;
    if (cg.tier == 1)
      conv2d_qgemm<std::int8_t>(x.raw.data(), g, w, w_cache, cg, no_squash,
                                out.raw.data(), st);
    else
      conv2d_qgemm<std::int16_t>(x.raw.data(), g, w, w_cache, cg, no_squash,
                                 out.raw.data(), st);
    take_stats(st, cg.tier == 1 ? 8 : 16, run);
    return;
  }

  const std::int64_t lo = result_fmt.raw_min(), hi = result_fmt.raw_max();
  std::int64_t max_abs = 0;
  std::uint64_t at_rail = 0;
#pragma omp parallel for collapse(2) schedule(static) \
    reduction(max : max_abs) reduction(+ : at_rail)
  for (std::int64_t bi = 0; bi < b; ++bi) {
    for (std::int64_t fi = 0; fi < f; ++fi) {
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t xx = 0; xx < ow; ++xx) {
          std::int64_t acc = 0;
          for (std::int64_t ci = 0; ci < c; ++ci) {
            for (std::int64_t ky = 0; ky < k; ++ky) {
              const std::int64_t iy = y * stride + ky - pad;
              if (iy < 0 || iy >= h) continue;
              for (std::int64_t kx = 0; kx < k; ++kx) {
                const std::int64_t ix = xx * stride + kx - pad;
                if (ix < 0 || ix >= wd) continue;
                acc += static_cast<std::int64_t>(x.raw[static_cast<std::size_t>(
                           ((bi * c + ci) * h + iy) * wd + ix)]) *
                       w.raw[static_cast<std::size_t>(
                           ((fi * c + ci) * k + ky) * k + kx)];
              }
            }
          }
          if (has_bias) {
            // Align the bias (weight fmt) to the accumulator's frac width.
            acc += bias.raw[static_cast<std::size_t>(fi)] << (acc_qf - bias.fmt.qf);
          }
          std::int64_t v = hwmodel::rescale_raw(acc, acc_qf, out_fmt, scheme);
          if (fuse_relu && v < 0) v = 0;
          // Folded trailing rescale: the second rounding step runs inline
          // (always round-to-nearest — the kRescale node's scheme).
          if (fold_fmt != nullptr)
            v = hwmodel::rescale_raw(v, out_fmt.qf, *fold_fmt);
          out.raw[static_cast<std::size_t>(((bi * f + fi) * oh + y) * ow + xx)] =
              static_cast<TO>(v);
          note(v, lo, hi, max_abs, at_rail);
        }
      }
    }
  }
  run.max_abs = max_abs;
  run.at_rail = at_rail;
  run.qgemm_bits = 64;
}

QTensor conv2d(const QTensor& x, const QTensor& w, const QTensor& bias,
               std::int64_t stride, std::int64_t pad,
               fixed::FixedFormat out_fmt, fixed::RoundingScheme scheme,
               const QGemmOperandCache* w_cache, bool fuse_relu,
               const fixed::FixedFormat* fold_fmt) {
  QTensor out;
  OpRun run;
  conv2d_to(x, x.max_abs_raw(), w, bias, stride, pad, out_fmt, scheme,
            w_cache, fuse_relu, fold_fmt, out, run);
  return out;
}

template <typename TI, typename TO>
void squash_channels_to(const QTensorT<TI>& s, std::int64_t caps_dim,
                        fixed::FixedFormat out_fmt,
                        const fixed::FixedFormat* fold_fmt, QTensorT<TO>& out,
                        OpRun& run) {
  QCAPS_CHECK_MSG(s.shape.size() == 4 && caps_dim > 0 &&
                      s.dim(1) % caps_dim == 0,
                  "squash_channels expects [B, T*D, H, W] with D = "
                      << caps_dim);
  const std::int64_t b = s.dim(0), c = s.dim(1), h = s.dim(2), w = s.dim(3);
  // Squash in the channel-grouped layout directly: capsule (b, t, y, x)'s
  // elements sit exactly `plane` apart, so one streaming pass per (image,
  // type) run of rows needs no transposes. On the node schedule: each
  // thread squashes its own rows.
  const auto slab = make_squash_slab<TI, TO>(s.fmt, caps_dim, out_fmt, fold_fmt);
  out = QTensorT<TO>(s.shape, slab.result_fmt);
  const int threads = schedule_threads();
  std::vector<OpRun> part(static_cast<std::size_t>(threads));
  for_each_row_range(threads, b, h, [&](int t, std::int64_t r0,
                                        std::int64_t r1) {
    OpRun& p = part[static_cast<std::size_t>(t)];
    for_each_image_rows(r0, r1, h, [&](std::int64_t bi, std::int64_t ya,
                                       std::int64_t yb) {
      const std::int64_t o = bi * c * h * w + ya * w;
      slab.run(s.raw.data() + o, h * w, out.raw.data() + o, h * w,
               (yb - ya) * w, c / caps_dim, p.max_abs, p.at_rail);
    });
  });
  run = merge_runs(part);
}

template <typename TI, typename TO>
void conv_caps_to(const QTensorT<TI>& x, std::int64_t x_max_abs,
                  const QTensor& w, const QTensor& bias, std::int64_t stride,
                  std::int64_t pad, const QGemmOperandCache* w_cache,
                  fixed::FixedFormat mid_fmt, std::int64_t caps_dim,
                  fixed::FixedFormat out_fmt,
                  const fixed::FixedFormat* fold_fmt, QTensorT<TO>& out,
                  OpRun& run) {
  constexpr auto kRtn = fixed::RoundingScheme::kRoundToNearest;
  const ConvGeom g = conv_geom(x.shape, w, x.fmt, bias, w_cache, stride, pad);
  QCAPS_CHECK_MSG(caps_dim > 0 && w.dim(0) % caps_dim == 0,
                  "conv caps: " << w.dim(0) << " filters are not whole "
                                << caps_dim << "-D capsule types");
  const ConvGemm cg = plan_conv_gemm(x.fmt, x_max_abs, w, bias, mid_fmt, kRtn,
                                     w_cache, false, nullptr);
  if (cg.tier == 0 || g.b == 0) {
    // Exact path: the scalar conv into a full pre-squash value, then the
    // squash over it.
    QTensor s;
    OpRun srun;
    conv2d_to(x, x_max_abs, w, bias, stride, pad, mid_fmt, kRtn, w_cache,
              false, nullptr, s, srun);
    squash_channels_to(s, caps_dim, out_fmt, fold_fmt, out, run);
    run.qgemm_bits = srun.qgemm_bits;
    return;
  }
  const auto slab =
      make_squash_slab<std::int32_t, TO>(mid_fmt, caps_dim, out_fmt, fold_fmt);
  out = QTensorT<TO>({g.b, w.dim(0), g.oh, g.ow}, slab.result_fmt);
  run = OpRun{};
  tensor::QGemmOutStats st;
  if (cg.tier == 1)
    conv2d_qgemm<std::int8_t>(x.raw.data(), g, w, w_cache, cg, &slab,
                              out.raw.data(), st);
  else
    conv2d_qgemm<std::int16_t>(x.raw.data(), g, w, w_cache, cg, &slab,
                               out.raw.data(), st);
  take_stats(st, cg.tier == 1 ? 8 : 16, run);
}

template <typename T>
void relu_to(QTensorT<T>& x, OpRun& run) {
  std::int64_t max_abs = 0;
  for (auto& v : x.raw) {
    if (v < 0) v = 0;
    max_abs = std::max<std::int64_t>(max_abs, v);
  }
  run.max_abs = max_abs;
}

void relu(QTensor& x) {
  OpRun run;
  relu_to(x, run);
}

template <typename TI, typename TO>
void rescale_to(const QTensorT<TI>& x, fixed::FixedFormat out_fmt,
                fixed::RoundingScheme scheme, QTensorT<TO>& out, OpRun& run) {
  out = QTensorT<TO>(x.shape, out_fmt);
  const std::int64_t lo = out_fmt.raw_min(), hi = out_fmt.raw_max();
  const std::int64_t n = x.numel();
  std::int64_t max_abs = 0;
  std::uint64_t at_rail = 0;
#pragma omp parallel for schedule(static) if (n > (1 << 16)) \
    reduction(max : max_abs) reduction(+ : at_rail)
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t v = hwmodel::rescale_raw(
        x.raw[static_cast<std::size_t>(i)], x.fmt.qf, out_fmt, scheme);
    out.raw[static_cast<std::size_t>(i)] = static_cast<TO>(v);
    note(v, lo, hi, max_abs, at_rail);
  }
  run = OpRun{max_abs, at_rail, 0};
}

QTensor rescale(const QTensor& x, fixed::FixedFormat out_fmt,
                fixed::RoundingScheme scheme) {
  QTensor out;
  OpRun run;
  rescale_to(x, out_fmt, scheme, out, run);
  return out;
}

template <typename TI, typename TO>
void squash_last_to(const QTensorT<TI>& s, fixed::FixedFormat out_fmt,
                    const fixed::FixedFormat* fold_fmt, QTensorT<TO>& out,
                    OpRun& run) {
  QCAPS_CHECK(!s.shape.empty());
  const std::int64_t d = s.dim(-1);
  const std::int64_t rows = s.numel() / d;
  // Raw-seam bulk path: same arithmetic as unit.apply() per row without the
  // per-row FixedNum vector allocations.
  const auto sq = make_squash_slab<TI, TO>(s.fmt, d, out_fmt, fold_fmt);
  const int shift_up = sq.shift_up, shift = sq.shift;
  const std::int64_t half = sq.half, lo = sq.lo, hi = sq.hi;
  out = QTensorT<TO>(s.shape, sq.result_fmt);
  const std::int64_t rail_lo = sq.result_fmt.raw_min();
  const std::int64_t rail_hi = sq.result_fmt.raw_max();
  std::int64_t max_abs = 0;
  std::uint64_t at_rail = 0;
  // Blocked rows: one norms pass, one batched gain (vector NR over lanes of
  // rows), one scale pass — same bits as the per-row loop in any order.
  constexpr std::int64_t kBlock = 64;
  const std::int64_t nblocks = (rows + kBlock - 1) / kBlock;
#pragma omp parallel for schedule(static) if (rows > 64) \
    reduction(max : max_abs) reduction(+ : at_rail)
  for (std::int64_t blk = 0; blk < nblocks; ++blk) {
    const std::int64_t r0 = blk * kBlock;
    const std::int64_t rc = std::min(kBlock, rows - r0);
    std::int64_t nsq[kBlock];
    std::int64_t gain[kBlock];
    for (std::int64_t rr = 0; rr < rc; ++rr) {
      const TI* src = s.raw.data() + (r0 + rr) * d;
      std::int64_t acc = 0;
      for (std::int64_t j = 0; j < d; ++j) {
        const std::int64_t wide = static_cast<std::int64_t>(src[j]) * src[j];
        acc += shift_up >= 0 ? (wide << shift_up) : (wide >> -shift_up);
      }
      nsq[rr] = acc;
    }
    sq.unit.gain_raw_n(nsq, gain, rc);
    for (std::int64_t rr = 0; rr < rc; ++rr) {
      const TI* src = s.raw.data() + (r0 + rr) * d;
      TO* dst = out.raw.data() + (r0 + rr) * d;
      for (std::int64_t j = 0; j < d; ++j) {
        const std::int64_t v =
            std::clamp((src[j] * gain[rr] + half) >> shift, lo, hi);
        dst[j] = static_cast<TO>(v);
        note(v, rail_lo, rail_hi, max_abs, at_rail);
      }
    }
  }
  run = OpRun{max_abs, at_rail, 0};
}

QTensor squash_last(const QTensor& s, fixed::FixedFormat out_fmt,
                    const fixed::FixedFormat* fold_fmt) {
  QTensor out;
  OpRun run;
  squash_last_to(s, out_fmt, fold_fmt, out, run);
  return out;
}

// The routing iterations of one row at accumulator width A: int32 when the
// operand ranges rule out a wrap (the contractions vectorize), int64
// otherwise. Integer addition is associative, so both widths give the same
// bits; every rescale point (into QDR before the squash, per Fig. 9) is the
// same. `u` is the row's votes [Nout, Nin, D] widened to A; the outputs
// v [Nout, D] land in act fmt in `v_raw`.
template <typename A>
void route_row(const A* u, std::int64_t nout, std::int64_t nin,
               std::int64_t d, int iterations,
               const fixed::FixedFormat& act_fmt,
               const fixed::FixedFormat& dr_fmt,
               const hwmodel::SoftmaxUnit& softmax,
               const hwmodel::SquashUnit& squash, std::int64_t* v_raw) {
  // Per-row state: logits b (dr fmt), couplings c (act fmt). Both are held
  // j-major [Nout, Nin] — the transposed-batch orientation: the softmax
  // normalizes each logical i-row through the strided raw seam, while the
  // weighted sum's coupling reads and the agreement's logit writes (both
  // per-j slabs) become unit-stride.
  std::vector<std::int64_t> b_raw(static_cast<std::size_t>(nout * nin), 0);
  std::vector<std::int64_t> c_raw(static_cast<std::size_t>(nout * nin), 0);
  std::vector<std::int64_t> s_raw(static_cast<std::size_t>(nout * d), 0);
  std::vector<A> c(static_cast<std::size_t>(nout * nin), 0);
  std::vector<A> v(static_cast<std::size_t>(nout * d), 0);
  std::vector<A> acc(static_cast<std::size_t>(d), 0);
  std::vector<std::int64_t> nsq_scratch(static_cast<std::size_t>(nout));
  std::vector<std::int64_t> gain_scratch(static_cast<std::size_t>(nout));
  const int acc_qf = 2 * act_fmt.qf;

  for (int it = 0; it < iterations; ++it) {
    // c_i* = softmax over Nout of b_i* — logits carry the QDR format but
    // the couplings come out at activation precision (Fig. 9: the cheap
    // data is what feeds the unit, not what leaves it). One batched raw
    // pass over all Nin rows: no per-i FixedNum marshaling.
    softmax.apply_rows_t_raw(b_raw.data(), c_raw.data(), nin, nout, act_fmt);
    for (std::size_t t = 0; t < c_raw.size(); ++t)
      c[t] = static_cast<A>(c_raw[t]);
    // s_j = Σ_i c_ij û_j|i, accumulated wide, rescaled into dr fmt
    // (precision lowered before the squash, Fig. 9). Per (r, j) slab the
    // votes rows are contiguous in k, so the inner loop vectorizes.
    for (std::int64_t j = 0; j < nout; ++j) {
      const A* uj = u + j * nin * d;
      const A* cj = c.data() + j * nin;
      std::fill(acc.begin(), acc.end(), A{0});
      for (std::int64_t i = 0; i < nin; ++i) {
        const A cij = cj[i];
        const A* uv = uj + i * d;
        for (std::int64_t k = 0; k < d; ++k)
          acc[static_cast<std::size_t>(k)] += cij * uv[k];
      }
      for (std::int64_t k = 0; k < d; ++k)
        s_raw[static_cast<std::size_t>(j * d + k)] = hwmodel::rescale_raw(
            acc[static_cast<std::size_t>(k)], acc_qf, dr_fmt);
    }
    // v_j = squash(s_j): QDR input, activation-precision output. Raw bulk
    // seam: norms for all Nout capsules, ONE batched gain call (vector NR
    // over lanes of norms), then the per-element finish — apply()'s
    // arithmetic without the FixedNum marshaling.
    {
      const int shift_up = squash.internal_qf() - 2 * dr_fmt.qf;
      const int prod_qf = dr_fmt.qf + squash.internal_qf();
      for (std::int64_t j = 0; j < nout; ++j) {
        const std::int64_t* sj = s_raw.data() + j * d;
        std::int64_t sq = 0;
        for (std::int64_t k = 0; k < d; ++k) {
          const std::int64_t wide = sj[k] * sj[k];
          sq += shift_up >= 0 ? (wide << shift_up) : (wide >> -shift_up);
        }
        nsq_scratch[static_cast<std::size_t>(j)] = sq;
      }
      squash.gain_raw_n(nsq_scratch.data(), gain_scratch.data(), nout);
      for (std::int64_t j = 0; j < nout; ++j) {
        const std::int64_t g = gain_scratch[static_cast<std::size_t>(j)];
        for (std::int64_t k = 0; k < d; ++k) {
          const std::size_t t = static_cast<std::size_t>(j * d + k);
          v_raw[t] = hwmodel::rescale_raw(s_raw[t] * g, prod_qf, act_fmt);
          v[t] = static_cast<A>(v_raw[t]);
        }
      }
    }
    if (it + 1 == iterations) break;
    // b_ij += a_ij = v_j · û_j|i (wide dot, rescaled into dr fmt); the
    // j-major logits make this a unit-stride walk per j-slab.
    for (std::int64_t j = 0; j < nout; ++j) {
      std::int64_t* bj = b_raw.data() + j * nin;
      const A* uj = u + j * nin * d;
      const A* vj = v.data() + j * d;
      for (std::int64_t i = 0; i < nin; ++i) {
        const A* uv = uj + i * d;
        A dot = 0;
        for (std::int64_t k = 0; k < d; ++k) dot += uv[k] * vj[k];
        const std::int64_t a = hwmodel::rescale_raw(dot, acc_qf, dr_fmt);
        bj[i] = hwmodel::saturate_raw(bj[i] + a, dr_fmt);
      }
    }
  }
}

template <typename TI, typename TO>
void dynamic_routing_to(const QTensorT<TI>& votes, std::int64_t votes_max_abs,
                        int iterations, fixed::FixedFormat act_fmt,
                        fixed::FixedFormat dr_fmt, QTensorT<TO>& out,
                        OpRun& run) {
  QCAPS_CHECK_MSG(votes.shape.size() == 4, "votes must be [R, Nout, Nin, D]");
  QCAPS_CHECK(iterations >= 1);
  const std::int64_t r_count = votes.dim(0), nout = votes.dim(1),
                     nin = votes.dim(2), d = votes.dim(3);
  QCAPS_CHECK(votes.fmt == act_fmt);

  const hwmodel::SoftmaxUnit softmax(dr_fmt);
  const hwmodel::SquashUnit squash(dr_fmt);
  out = QTensorT<TO>({r_count, nout, d}, act_fmt);
  run = OpRun{};
  if (out.numel() == 0) return;

  // Exact int32 accumulation is admissible as long as Σ |c||u| (resp.
  // Σ |v||u|) cannot wrap. Couplings and squashed outputs carry the
  // activation format, so their raw magnitude is bounded by 2^(wl-1); the
  // votes' range comes from the producer. The votes are widened once at
  // entry: to int32 on the fast path, to int64 on the exact one.
  const int bu = std::bit_width(static_cast<std::uint64_t>(votes_max_abs));
  const int bact = act_fmt.wordlength();  // |c|, |v| <= 2^(wl-1)
  const bool i32_ok =
      bu + bact + ceil_log2(std::max<std::int64_t>(std::max(nin, d), 1)) <= 30;
  std::vector<std::int32_t> u32;
  std::vector<std::int64_t> u64;
  if (i32_ok)
    u32.assign(votes.raw.begin(), votes.raw.end());
  else
    u64.assign(votes.raw.begin(), votes.raw.end());
  const std::int64_t rail_lo = act_fmt.raw_min(), rail_hi = act_fmt.raw_max();
  std::int64_t max_abs = 0;
  std::uint64_t at_rail = 0;

#pragma omp parallel for schedule(static) if (r_count > 4) \
    reduction(max : max_abs) reduction(+ : at_rail)
  for (std::int64_t r = 0; r < r_count; ++r) {
    std::vector<std::int64_t> v_raw(static_cast<std::size_t>(nout * d));
    const std::int64_t off = r * nout * nin * d;
    if (i32_ok)
      route_row(u32.data() + off, nout, nin, d, iterations, act_fmt, dr_fmt,
                softmax, squash, v_raw.data());
    else
      route_row(u64.data() + off, nout, nin, d, iterations, act_fmt, dr_fmt,
                softmax, squash, v_raw.data());
    TO* dst = out.raw.data() + r * nout * d;
    for (std::size_t t = 0; t < v_raw.size(); ++t) {
      dst[t] = static_cast<TO>(v_raw[t]);
      note(v_raw[t], rail_lo, rail_hi, max_abs, at_rail);
    }
  }
  run.max_abs = max_abs;
  run.at_rail = at_rail;
}

QTensor dynamic_routing(const QTensor& votes, int iterations,
                        fixed::FixedFormat act_fmt, fixed::FixedFormat dr_fmt) {
  QTensor out;
  OpRun run;
  dynamic_routing_to(votes, votes.max_abs_raw(), iterations, act_fmt, dr_fmt,
                     out, run);
  return out;
}

RescaleFold compose_rescale(int shift1, std::int64_t lo1, std::int64_t hi1,
                            fixed::FixedFormat from, fixed::FixedFormat to) {
  RescaleFold f;
  const int t = from.qf - to.qf;
  // An upshifting rescale multiplies the already-rounded value by 2^-t —
  // not expressible as one round-to-nearest pass over the accumulator.
  if (t < 0) return f;
  // Push the producer's rails through the (monotone, nondecreasing) rescale
  // and intersect with the target's: clamp commutes with a monotone map.
  const auto step = [t](std::int64_t y) {
    return t == 0 ? y : (y + (std::int64_t{1} << (t - 1))) >> t;
  };
  f.lo = std::max(step(lo1), to.raw_min());
  f.hi = std::min(step(hi1), to.raw_max());
  if (f.lo > f.hi) return f;  // empty composed range
  f.shift = shift1 + t;
  if (t == 0) {
    // Format change on the same grid: only the rails tighten.
    f.add = shift1 >= 1 ? std::int64_t{1} << (shift1 - 1) : 0;
  } else if (shift1 >= 1) {
    // Nested round-to-nearest telescopes with the inner rounding constant
    // widened into the numerator:
    //   floor((floor((x + 2^(s1-1)) / 2^s1) + 2^(t-1)) / 2^t)
    //     == floor((x + 2^(s1-1) + 2^(s1+t-1)) / 2^(s1+t))   for every x.
    f.add = (std::int64_t{1} << (shift1 - 1)) +
            (std::int64_t{1} << (f.shift - 1));
    f.bias_add = std::int64_t{1} << (shift1 - 1);
  } else if (f.shift >= 1) {
    // Exact upshift by -s1 then RTN by t collapses to plain RTN by s1+t:
    // the shifted-in zeros sit strictly below the rounding constant.
    f.add = std::int64_t{1} << (f.shift - 1);
  }
  // else: both stages net to an exact left shift by -(s1+t); no constant.
  f.ok = true;
  return f;
}

QGemmOperandCache make_operand_cache(const QTensor& t) {
  QGemmOperandCache cache;
  cache.max_abs = t.max_abs_raw();
  if (cache.max_abs <= 127) cache.i8 = t.packed_i8();
  if (cache.max_abs <= 32767) cache.i16 = t.packed_i16();
  return cache;
}

template <typename TI, typename TO>
void vote_transform_to(const QTensorT<TI>& u, std::int64_t u_max_abs,
                       const QTensor& w, fixed::FixedFormat out_fmt,
                       fixed::RoundingScheme scheme,
                       const QGemmOperandCache* w_cache, QTensorT<TO>& votes,
                       OpRun& run) {
  QCAPS_CHECK_MSG(u.shape.size() == 3 && w.shape.size() == 4,
                  "vote_transform expects u [B,Nin,Din], w [Nin,Nout,Dout,Din]");
  const std::int64_t b = u.dim(0), nin = u.dim(1), din = u.dim(2);
  const std::int64_t nout = w.dim(1), dout = w.dim(2);
  QCAPS_CHECK(w.dim(0) == nin && w.dim(3) == din);
  QCAPS_CHECK_MSG(!w_cache || w_cache->max_abs >= 0,
                  "vote_transform weight cache was not built");
  const std::int64_t jd = nout * dout;
  const int acc_qf = u.fmt.qf + w.fmt.qf;
  votes = QTensorT<TO>({b, nout, nin, dout}, out_fmt);
  run = OpRun{};
  if (din == 0 || votes.numel() == 0) {
    note_zeros(out_fmt, votes.numel(), run);
    return;
  }

  const std::int64_t wmax = w_cache ? w_cache->max_abs : w.max_abs_raw();
  if (requant_expressible(acc_qf, out_fmt, scheme)) {
    const int tier = qgemm_tier(u_max_abs, wmax, din);
    if (tier != 0) {
      const tensor::QGemmRequant rq = make_requant(acc_qf, out_fmt);
      tensor::QGemmOutStats st = rail_stats(out_fmt);
      if (tier == 1)
        run_qgemm_votes<std::int8_t>(u, w, w_cache, b, nin, din, nout, dout,
                                     rq, votes, st);
      else
        run_qgemm_votes<std::int16_t>(u, w, w_cache, b, nin, din, nout, dout,
                                      rq, votes, st);
      take_stats(st, tier == 1 ? 8 : 16, run);
      return;
    }
  }

  // Exact int64 scalar path, writing the j-major layout directly.
  check_i64_acc(u_max_abs, wmax, din, "qengine vote_transform");
  const std::int64_t lo = out_fmt.raw_min(), hi = out_fmt.raw_max();
  std::int64_t max_abs = 0;
  std::uint64_t at_rail = 0;
#pragma omp parallel for collapse(2) schedule(static) \
    reduction(max : max_abs) reduction(+ : at_rail)
  for (std::int64_t bi = 0; bi < b; ++bi) {
    for (std::int64_t i = 0; i < nin; ++i) {
      const TI* uv = u.raw.data() + (bi * nin + i) * din;
      const std::int64_t* wrow = w.raw.data() + i * jd * din;
      for (std::int64_t x = 0; x < jd; ++x) {
        std::int64_t acc = 0;
        for (std::int64_t p = 0; p < din; ++p)
          acc += wrow[x * din + p] * uv[p];
        const std::int64_t v =
            hwmodel::rescale_raw(acc, acc_qf, out_fmt, scheme);
        votes.raw[static_cast<std::size_t>(
            ((bi * nout + x / dout) * nin + i) * dout + x % dout)] =
            static_cast<TO>(v);
        note(v, lo, hi, max_abs, at_rail);
      }
    }
  }
  run = OpRun{max_abs, at_rail, 64};
}

QTensor vote_transform(const QTensor& u, const QTensor& w,
                       fixed::FixedFormat out_fmt,
                       fixed::RoundingScheme scheme,
                       const QGemmOperandCache* w_cache) {
  QTensor votes;
  OpRun run;
  vote_transform_to(u, u.max_abs_raw(), w, out_fmt, scheme, w_cache, votes,
                    run);
  return votes;
}

namespace {

// Grouped ConvCaps3d vote convolutions (see the header) on the node
// schedule: per chunk of a thread's output rows, one im2col over the full
// channel set, then a batch of Tin scattered GEMMs — type t's B operand is
// the contiguous row block [t*Din*K*K, (t+1)*Din*K*K) of the shared
// columns, its A operand the t-th slice of the concatenated packed weights.
template <typename T, typename TI, typename TO>
void conv_caps3d_votes_impl(const TI* x, const ConvGeom& g, const T* wp,
                            const tensor::QGemmRequant& rq,
                            std::int64_t in_types, std::int64_t out_types,
                            std::int64_t dout, TO* votes,
                            tensor::QGemmOutStats& st) {
  const std::int64_t kk = g.c / in_types * g.k * g.k;  // ONE type's fan-in
  const std::int64_t jd = out_types * dout;
  const std::int64_t jd_all = out_types * in_types * dout;
  const int threads = schedule_threads();
  std::vector<tensor::QGemmOutStats> part(static_cast<std::size_t>(threads),
                                          st);
  conv_schedule<T>(
      threads, x, g,
      g.c * g.k * g.k * static_cast<std::int64_t>(sizeof(T)) +
          in_types * jd *
              static_cast<std::int64_t>(sizeof(std::int32_t) + sizeof(TO)),
      0,
      [&](int t, std::int64_t r0, std::int64_t r1, const T* cols,
          std::byte*) {
        const std::int64_t n = (r1 - r0) * g.ow;
        // Batch item t: votes[(r*OW + x)*Tout*Tin*Dout + j*Tin*Dout
        //                     + t*Dout + dd]
        // for GEMM element (row j*Dout + dd, column (r - r0)*OW + x).
        tensor::QGemmScatterTo<TO> sd;
        sd.dst = votes + r0 * g.ow * jd_all;
        sd.row_inner = dout;  // row splits as (j, dd)
        sd.row_outer_stride = in_types * dout;
        sd.row_inner_stride = 1;
        sd.col_outer_stride = jd_all;  // column index is linear (inner = 1)
        sd.batch_stride = dout;        // per input type t
        sd.stats = &part[static_cast<std::size_t>(t)];
        tensor::qgemm_batch_scatter(tensor::Trans::kN, tensor::Trans::kN, jd,
                                    n, kk, wp, kk, jd * kk, cols, n, kk * n,
                                    in_types, rq, sd);
      });
  merge_stats(part, st);
}

}  // namespace

template <typename TI, typename TO>
bool conv_caps3d_votes_to(const QTensorT<TI>& x, std::int64_t x_max_abs,
                          const QGemmOperandCache& grouped,
                          fixed::FixedFormat w_fmt, std::int64_t in_types,
                          std::int64_t in_dim, std::int64_t out_types,
                          std::int64_t out_dim, std::int64_t ksize,
                          std::int64_t stride, std::int64_t pad,
                          fixed::FixedFormat out_fmt, QTensorT<TO>& votes,
                          OpRun& run) {
  QCAPS_CHECK_MSG(x.shape.size() == 4 && x.dim(1) == in_types * in_dim,
                  "conv_caps3d_votes expects [B, Tin*Din, H, W] input");
  if (grouped.max_abs < 0) return false;
  const int acc_qf = x.fmt.qf + w_fmt.qf;
  if (!requant_expressible(acc_qf, out_fmt,
                           fixed::RoundingScheme::kRoundToNearest))
    return false;
  const std::int64_t kk = in_dim * ksize * ksize;
  const int tier = qgemm_tier(x_max_abs, grouped.max_abs, kk);
  if (tier == 0) return false;
  if (tier == 1 && !grouped.has_i8()) return false;
  if (tier == 2 && !grouped.has_i16()) return false;

  const std::int64_t b = x.dim(0), h = x.dim(2), wd = x.dim(3);
  const ConvGeom g{b,     x.dim(1), h,   wd, ksize, stride, pad,
                   (h + 2 * pad - ksize) / stride + 1,
                   (wd + 2 * pad - ksize) / stride + 1};
  QCAPS_CHECK_MSG(
      votes.numel() == b * g.oh * g.ow * out_types * in_types * out_dim,
      "conv_caps3d_votes: votes tensor has the wrong size");
  run = OpRun{};
  if (votes.numel() == 0) return true;
  const tensor::QGemmRequant rq = make_requant(acc_qf, out_fmt);
  tensor::QGemmOutStats st = rail_stats(out_fmt);
  if (tier == 1)
    conv_caps3d_votes_impl(x.raw.data(), g, grouped.i8_data(), rq, in_types,
                           out_types, out_dim, votes.raw.data(), st);
  else
    conv_caps3d_votes_impl(x.raw.data(), g, grouped.i16_data(), rq, in_types,
                           out_types, out_dim, votes.raw.data(), st);
  take_stats(st, tier == 1 ? 8 : 16, run);
  return true;
}

bool conv_caps3d_votes(const QTensor& x, const QGemmOperandCache& grouped,
                       fixed::FixedFormat w_fmt, std::int64_t in_types,
                       std::int64_t in_dim, std::int64_t out_types,
                       std::int64_t out_dim, std::int64_t ksize,
                       std::int64_t stride, std::int64_t pad,
                       fixed::FixedFormat out_fmt, QTensor& votes) {
  OpRun run;
  return conv_caps3d_votes_to(x, x.max_abs_raw(), grouped, w_fmt, in_types,
                              in_dim, out_types, out_dim, ksize, stride, pad,
                              out_fmt, votes, run);
}

tensor::Tensor lengths(const QTensor& caps) {
  QCAPS_CHECK(caps.shape.size() == 3);
  const std::int64_t b = caps.dim(0), n = caps.dim(1), d = caps.dim(2);
  // Accumulate the sum of squares exactly in raw integer space; only the
  // final square root is floating point. (The previous float32 accumulator
  // over dequantized values silently lost low-order contributions once the
  // running sum passed 2^24 ULPs — locked by QEngineLengths tests.)
  const std::int64_t maxabs = caps.max_abs_raw();
  const int vb = std::bit_width(static_cast<std::uint64_t>(maxabs));
  QCAPS_CHECK_MSG(2 * vb + ceil_log2(std::max<std::int64_t>(d, 1)) <= 62,
                  "lengths accumulator would overflow for these values");
  tensor::Tensor out({b, n});
  for (std::int64_t i = 0; i < b * n; ++i) {
    std::int64_t acc = 0;
    for (std::int64_t k = 0; k < d; ++k) {
      const std::int64_t v = caps.raw[static_cast<std::size_t>(i * d + k)];
      acc += v * v;
    }
    out[i] = static_cast<float>(
        std::ldexp(std::sqrt(static_cast<double>(acc)), -caps.fmt.qf));
  }
  return out;
}

// ---- explicit instantiations: every (input, output) container pair ---------

#define QCAPS_QENGINE_PAIR(TI, TO)                                            \
  template void conv2d_to<TI, TO>(                                            \
      const QTensorT<TI>&, std::int64_t, const QTensor&, const QTensor&,     \
      std::int64_t, std::int64_t, fixed::FixedFormat, fixed::RoundingScheme, \
      const QGemmOperandCache*, bool, const fixed::FixedFormat*,             \
      QTensorT<TO>&, OpRun&);                                                 \
  template void squash_channels_to<TI, TO>(                                   \
      const QTensorT<TI>&, std::int64_t, fixed::FixedFormat,                 \
      const fixed::FixedFormat*, QTensorT<TO>&, OpRun&);                      \
  template void conv_caps_to<TI, TO>(                                         \
      const QTensorT<TI>&, std::int64_t, const QTensor&, const QTensor&,     \
      std::int64_t, std::int64_t, const QGemmOperandCache*,                   \
      fixed::FixedFormat, std::int64_t, fixed::FixedFormat,                   \
      const fixed::FixedFormat*, QTensorT<TO>&, OpRun&);                      \
  template void rescale_to<TI, TO>(const QTensorT<TI>&, fixed::FixedFormat,  \
                                   fixed::RoundingScheme, QTensorT<TO>&,     \
                                   OpRun&);                                   \
  template void squash_last_to<TI, TO>(const QTensorT<TI>&,                  \
                                       fixed::FixedFormat,                    \
                                       const fixed::FixedFormat*,            \
                                       QTensorT<TO>&, OpRun&);                \
  template void dynamic_routing_to<TI, TO>(                                   \
      const QTensorT<TI>&, std::int64_t, int, fixed::FixedFormat,            \
      fixed::FixedFormat, QTensorT<TO>&, OpRun&);                             \
  template void vote_transform_to<TI, TO>(                                    \
      const QTensorT<TI>&, std::int64_t, const QTensor&, fixed::FixedFormat, \
      fixed::RoundingScheme, const QGemmOperandCache*, QTensorT<TO>&,        \
      OpRun&);                                                                \
  template bool conv_caps3d_votes_to<TI, TO>(                                 \
      const QTensorT<TI>&, std::int64_t, const QGemmOperandCache&,           \
      fixed::FixedFormat, std::int64_t, std::int64_t, std::int64_t,          \
      std::int64_t, std::int64_t, std::int64_t, std::int64_t,                \
      fixed::FixedFormat, QTensorT<TO>&, OpRun&);
#define QCAPS_QENGINE_FROM(TI)                  \
  QCAPS_QENGINE_PAIR(TI, std::int8_t)           \
  QCAPS_QENGINE_PAIR(TI, std::int16_t)          \
  QCAPS_QENGINE_PAIR(TI, std::int32_t)          \
  QCAPS_QENGINE_PAIR(TI, std::int64_t)          \
  template void relu_to<TI>(QTensorT<TI>&, OpRun&);
QCAPS_QENGINE_FROM(std::int8_t)
QCAPS_QENGINE_FROM(std::int16_t)
QCAPS_QENGINE_FROM(std::int32_t)
QCAPS_QENGINE_FROM(std::int64_t)
#undef QCAPS_QENGINE_FROM
#undef QCAPS_QENGINE_PAIR

}  // namespace qcaps::qengine
