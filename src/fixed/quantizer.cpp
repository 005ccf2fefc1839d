#include "fixed/quantizer.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace qcaps::fixed {

void Quantizer::apply(float* p, std::int64_t n,
                      std::int64_t index_base) const {
  QCAPS_CHECK_MSG(fmt_.valid(), "invalid fixed format " << fmt_.to_string());
  const FixedFormat fmt = fmt_;
  if (scheme_ != RoundingScheme::kStochastic) {
    // Deterministic schemes inline to a branch-free grid snap the compiler
    // vectorizes (round/clamp/convert have direct vector forms): the same
    // double-precision formula as fixed::to_raw — x/eps, floor (half-up
    // offset for RTN), clamp to the raw range, back by eps — so results are
    // bit-identical to the scalar path. This sits inside every routing
    // iteration of a fake-quantized forward (b, c, s, v, a per Fig. 9), where
    // the old per-element call chain dominated the whole routing benchmark.
    const double scale = std::ldexp(1.0, fmt.qf);
    const double inv = std::ldexp(1.0, -fmt.qf);
    const double lo = static_cast<double>(fmt.raw_min());
    const double hi = static_cast<double>(fmt.raw_max());
    const double bias = scheme_ == RoundingScheme::kRoundToNearest ? 0.5 : 0.0;
#pragma omp parallel for schedule(static) if (n > (1 << 16))
    for (std::int64_t i = 0; i < n; ++i) {
      const double r = std::floor(static_cast<double>(p[i]) * scale + bias);
      p[i] = static_cast<float>(std::min(hi, std::max(lo, r)) * inv);
    }
    return;
  }
  const std::uint64_t seed = seed_;
#pragma omp parallel for schedule(static) if (n > (1 << 15))
  for (std::int64_t i = 0; i < n; ++i) {
    const float noise = common::u64_to_unit_float(common::counter_hash(
        seed, static_cast<std::uint64_t>(index_base + i)));
    p[i] = static_cast<float>(
        quantize_value(p[i], fmt, RoundingScheme::kStochastic, noise));
  }
}

tensor::Tensor Quantizer::quantized(const tensor::Tensor& t) const {
  tensor::Tensor out = t;
  apply(out);
  return out;
}

QuantError measure_error(const tensor::Tensor& reference,
                         const tensor::Tensor& quantized) {
  QCAPS_CHECK_MSG(reference.same_shape(quantized), "measure_error shape mismatch");
  const std::int64_t n = reference.numel();
  QCAPS_CHECK(n > 0);
  const float* x = reference.data();
  const float* xq = quantized.data();
  double sum_err = 0.0, sum_sq_err = 0.0, sum_sq_sig = 0.0, max_abs = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const double e = static_cast<double>(xq[i]) - static_cast<double>(x[i]);
    sum_err += e;
    sum_sq_err += e * e;
    sum_sq_sig += static_cast<double>(x[i]) * static_cast<double>(x[i]);
    max_abs = std::max(max_abs, std::fabs(e));
  }
  QuantError qe;
  qe.bias = sum_err / static_cast<double>(n);
  qe.mse = sum_sq_err / static_cast<double>(n);
  qe.max_abs = max_abs;
  qe.sqnr_db = (sum_sq_err > 0.0)
                   ? 10.0 * std::log10(sum_sq_sig / sum_sq_err)
                   : 300.0;  // lossless: report a large finite SQNR
  return qe;
}

QuantError quantization_error(const tensor::Tensor& t, const FixedFormat& fmt,
                              RoundingScheme scheme, std::uint64_t seed) {
  const Quantizer q(fmt, scheme, seed);
  return measure_error(t, q.quantized(t));
}

}  // namespace qcaps::fixed
