// Tensor-level fake quantization and quantization-error statistics.
//
// "Fake" quantization maps every float onto its fixed-point grid value while
// keeping float storage — exactly how the paper's PyTorch framework simulates
// fixed-point inference. The stochastic-rounding noise stream is derived from
// (seed, element index) with a counter hash, so quantization is deterministic
// and independent of the OpenMP schedule.
#pragma once

#include <cstdint>

#include "fixed/rounding.hpp"
#include "tensor/tensor.hpp"

namespace qcaps::fixed {

/// Quantizer for one tensor role (weights of a layer, activations, ...).
class Quantizer {
 public:
  Quantizer() = default;
  Quantizer(FixedFormat fmt, RoundingScheme scheme, std::uint64_t seed = 0)
      : fmt_(fmt), scheme_(scheme), seed_(seed) {}

  const FixedFormat& format() const { return fmt_; }
  RoundingScheme scheme() const { return scheme_; }

  /// Quantize in place.
  void apply(tensor::Tensor& t) const { apply(t.data(), t.numel(), 0); }
  /// Quantize the span p[0, n) in place as elements index_base .. +n of a
  /// larger tensor: SR noise is keyed by that whole-tensor index, so a
  /// tensor quantized span by span gets the same bits as in one call.
  void apply(float* p, std::int64_t n, std::int64_t index_base) const;
  /// Out-of-place variant.
  tensor::Tensor quantized(const tensor::Tensor& t) const;

  /// Advance the SR noise stream (call between inference passes if fresh
  /// stochastic noise per pass is wanted; not needed for reproducibility).
  void reseed(std::uint64_t seed) { seed_ = seed; }

 private:
  FixedFormat fmt_{1, 15};
  RoundingScheme scheme_ = RoundingScheme::kRoundToNearest;
  std::uint64_t seed_ = 0;
};

/// Error statistics of quantizing `reference` to `quantized`.
struct QuantError {
  double bias = 0.0;    ///< mean(xq - x) — negative for TRN per Sec. II-B
  double mse = 0.0;     ///< mean squared error
  double max_abs = 0.0; ///< worst-case absolute error
  double sqnr_db = 0.0; ///< signal-to-quantization-noise ratio in dB
};

QuantError measure_error(const tensor::Tensor& reference,
                         const tensor::Tensor& quantized);

/// Convenience: quantize and measure in one step.
QuantError quantization_error(const tensor::Tensor& t, const FixedFormat& fmt,
                              RoundingScheme scheme, std::uint64_t seed = 0);

}  // namespace qcaps::fixed
