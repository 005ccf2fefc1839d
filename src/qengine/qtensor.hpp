// Integer tensor for the fixed-point inference engine.
//
// Unlike the fake quantizer (float values on a grid), a QTensor stores raw
// two's-complement integers plus their ⟨QI.QF⟩ format — what an accelerator
// actually moves through its datapath. src/qengine runs entire CapsNet
// forward passes on QTensors, validating at network scale that the grid
// simulation used by the search framework matches true integer execution.
//
// The element type is the storage container. The public operators and the
// weights use the int64 QTensor; the QuantizedGraph executor holds each
// activation in the narrowest container its format fits (act_container_bits)
// so an int8 activation moves one byte per element.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "fixed/rounding.hpp"
#include "tensor/tensor.hpp"

namespace qcaps::qengine {

template <typename T>
struct QTensorT {
  std::vector<T> raw;
  fixed::FixedFormat fmt{1, 15};
  tensor::Shape shape;

  QTensorT() = default;
  /// Zero-filled tensor of shape `s` in format `f`.
  QTensorT(tensor::Shape s, fixed::FixedFormat f)
      : raw(static_cast<std::size_t>(tensor::shape_numel(s)), T{0}),
        fmt(f),
        shape(std::move(s)) {}

  std::int64_t numel() const { return static_cast<std::int64_t>(raw.size()); }
  std::int64_t dim(std::int64_t i) const {
    if (i < 0) i += static_cast<std::int64_t>(shape.size());
    QCAPS_CHECK(i >= 0 && i < static_cast<std::int64_t>(shape.size()));
    return shape[static_cast<std::size_t>(i)];
  }

  /// Quantize a float tensor into raw integers (saturating at the format's
  /// rails, so the values fit any container of at least its wordlength).
  static QTensorT from_float(const tensor::Tensor& t, fixed::FixedFormat fmt,
                             fixed::RoundingScheme scheme =
                                 fixed::RoundingScheme::kRoundToNearest) {
    QTensorT q(t.shape(), fmt);
    for (std::int64_t i = 0; i < t.numel(); ++i)
      q.raw[static_cast<std::size_t>(i)] =
          static_cast<T>(fixed::to_raw(t[i], fmt, scheme));
    return q;
  }

  /// Back-convert to float (exact: every raw value is representable).
  tensor::Tensor to_float() const {
    tensor::Tensor t(shape);
    for (std::int64_t i = 0; i < numel(); ++i)
      t[i] = static_cast<float>(
          fixed::from_raw(raw[static_cast<std::size_t>(i)], fmt));
    return t;
  }

  // ---- packed integer storage for the qgemm backend ----
  //
  // The fixed-point grid is symmetric two's complement: scale() = 2^-QF and
  // zero_point() = 0 are the quantization metadata a packed container
  // carries. Whether a tensor packs into 8 or 16 bits depends on its actual
  // raw range, not just the format: a wide-format tensor whose values stayed
  // small still packs narrow.

  /// Largest |raw| value (0 when empty).
  std::int64_t max_abs_raw() const {
    std::int64_t m = 0;
    for (const T v : raw) {
      const std::int64_t w = v;
      m = std::max(m, w < 0 ? -w : w);
    }
    return m;
  }
  /// True when every raw value fits the packed container.
  bool fits_i8() const { return fits(-128, 127); }
  bool fits_i16() const { return fits(-32768, 32767); }
  /// Narrow the raw values into a packed container (requires fits_i8/i16).
  std::vector<std::int8_t> packed_i8() const {
    QCAPS_CHECK_MSG(fits_i8(),
                    "QTensor value does not fit the packed int8 container");
    return {raw.begin(), raw.end()};
  }
  std::vector<std::int16_t> packed_i16() const {
    QCAPS_CHECK_MSG(fits_i16(),
                    "QTensor value does not fit the packed int16 container");
    return {raw.begin(), raw.end()};
  }
  /// Rebuild a QTensor from a packed int8 container and its metadata.
  static QTensorT from_packed_i8(const std::int8_t* data, tensor::Shape s,
                                 fixed::FixedFormat f) {
    QTensorT q(std::move(s), f);
    for (std::size_t i = 0; i < q.raw.size(); ++i) q.raw[i] = data[i];
    return q;
  }

  /// Quantization step of the grid, 2^-QF.
  double scale() const { return fmt.precision(); }
  /// The grid is symmetric: raw 0 is real 0.
  static constexpr std::int32_t zero_point() { return 0; }

 private:
  bool fits(std::int64_t lo, std::int64_t hi) const {
    for (const T v : raw)
      if (v < lo || v > hi) return false;
    return true;
  }
};

/// The int64 tensor of the public operators and of the weights.
using QTensor = QTensorT<std::int64_t>;

/// Storage container (in bits) of an activation in format `f`: 8, 16 or 32
/// for wordlengths up to that width, 64 above. Every value an operator
/// produces is clamped to its format's rails, so it fits this container.
inline int act_container_bits(const fixed::FixedFormat& f) {
  const int wl = f.wordlength();
  return wl <= 8 ? 8 : wl <= 16 ? 16 : wl <= 32 ? 32 : 64;
}

}  // namespace qcaps::qengine
