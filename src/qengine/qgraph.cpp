#include "qengine/qgraph.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <type_traits>
#include <variant>

#include "common/error.hpp"
#include "hwmodel/units.hpp"
#include "nn/activation_layers.hpp"
#include "nn/conv2d_layer.hpp"
#include "nn/conv_caps.hpp"
#include "nn/fc_caps.hpp"
#include "nn/network.hpp"
#include "nn/primary_caps.hpp"
#include "qengine/schedule.hpp"

namespace qcaps::qengine {
namespace {

constexpr auto kRtn = fixed::RoundingScheme::kRoundToNearest;

// Wide working format for pre-squash values: the activation format is
// calibrated on the bounded post-squash capsules, but the conv outputs that
// feed the squash can be far outside it. Same rule the hand-rolled
// ShallowCaps deployment used (locked by the golden test).
fixed::FixedFormat pre_squash_fmt(const fixed::FixedFormat& act) {
  return {8, std::min(20, act.qf + 8)};
}

// Smallest QI with 2^(QI-1) > m (two's complement, sign included) — the
// evaluator's calibration rule, with more headroom allowed since folded
// weights are a deployment artifact, not a searched quantity.
int needed_qi(double m) {
  int qi = 1;
  while (qi < 16 && std::ldexp(1.0, qi - 1) <= m) ++qi;
  return qi;
}

// Quantize an FP32 weight tensor under the spec's weight format. When
// `widen` (BN-folded weights), the integer bits grow to cover the values'
// actual range so folding cannot push weights into the saturation cliff;
// otherwise the spec format applies verbatim (the pre-refactor behaviour,
// which the ShallowCaps golden-lock test depends on).
QTensor quantize_weight(const tensor::Tensor& w, const core::LayerQuantSpec& ls,
                        fixed::RoundingScheme scheme, bool widen,
                        double folded_abs_max = 0.0) {
  fixed::FixedFormat fmt = ls.weight_format();
  if (widen) {
    // Saturating silently here would collapse accuracy with no diagnostic
    // (degenerate BN statistics can blow folded weights up arbitrarily).
    QCAPS_CHECK_MSG(folded_abs_max < std::ldexp(1.0, 15),
                    "BN-folded weights exceed the representable range "
                    "(|w| up to " << folded_abs_max
                    << "); the batch-norm statistics are degenerate");
    fmt.qi = std::max(fmt.qi, needed_qi(folded_abs_max));
  }
  return QTensor::from_float(w, fmt, scheme);
}

double tensor_abs_max(const tensor::Tensor& t) {
  double m = 0.0;
  for (std::int64_t i = 0; i < t.numel(); ++i)
    m = std::max(m, std::fabs(static_cast<double>(t[i])));
  return m;
}

// The weight-cache key: layer identity + the spec fields that determine the
// quantized bytes. Everything else about the layer (FP32 masters, BN stats)
// is frozen for the cache's lifetime by contract.
std::string weight_key(const std::string& source,
                       const core::LayerQuantSpec& ls,
                       fixed::RoundingScheme scheme) {
  return source + '|' + std::to_string(ls.qw_int) + '.' +
         std::to_string(ls.qw_frac) + '|' +
         std::to_string(static_cast<int>(scheme));
}

// Fill op's weight fields from the cache, or run `build` and remember the
// result. `build` must populate weight/bias/wcache (and the type_* vectors
// for kConvCaps3d) on the op it is given.
template <typename Build>
void with_weights(QGraphWeightCache* cache, const core::LayerQuantSpec& ls,
                  fixed::RoundingScheme scheme, QuantizedOp& op,
                  Build&& build) {
  if (cache == nullptr) {
    build(op);
    return;
  }
  const std::string key = weight_key(op.source, ls, scheme);
  if (const QGraphWeightCache::Entry* e = cache->find(key)) {
    op.weight = e->weight;
    op.bias = e->bias;
    op.wcache = e->wcache;
    op.type_weights = e->type_weights;
    op.type_caches = e->type_caches;
    return;
  }
  build(op);
  cache->put(key, {op.weight, op.bias, op.wcache, op.type_weights,
                   op.type_caches});
}

// Compile one ConvCapsLayer (BN folded) into a kConvCaps node.
QuantizedOp compile_conv_caps(const nn::ConvCapsLayer& l,
                              const core::LayerQuantSpec& ls,
                              fixed::RoundingScheme scheme, int input,
                              QGraphWeightCache* cache) {
  QuantizedOp op;
  op.kind = QOpKind::kConvCaps;
  op.input = input;
  op.source = l.name();
  with_weights(cache, ls, scheme, op, [&](QuantizedOp& o) {
    tensor::Tensor w = l.master_weight();
    tensor::Tensor b = l.master_bias();
    if (const nn::BatchNorm2d* bn = l.batch_norm()) {
      FoldedConv folded = fold_batch_norm(w, b, *bn);
      const double m =
          std::max(tensor_abs_max(folded.weight), tensor_abs_max(folded.bias));
      o.weight = quantize_weight(folded.weight, ls, scheme, /*widen=*/true, m);
      o.bias = QTensor::from_float(folded.bias, o.weight.fmt, scheme);
    } else {
      o.weight = quantize_weight(w, ls, scheme, /*widen=*/false);
      if (b.numel() > 0) o.bias = QTensor::from_float(b, o.weight.fmt, scheme);
    }
    o.wcache = make_operand_cache(o.weight);
  });
  op.stride = l.stride();
  op.pad = l.pad();
  op.in_types = l.in_types();
  op.in_dim = l.in_dim();
  op.out_types = l.out_types();
  op.out_dim = l.out_dim();
  op.out_fmt = ls.act_format();
  op.mid_fmt = pre_squash_fmt(op.out_fmt);
  return op;
}

// Compile one RoutedConvCapsLayer (the ConvCaps3D) into a kConvCaps3d node:
// per input type, that type's vote convolution weight, packed once.
QuantizedOp compile_conv_caps3d(const nn::RoutedConvCapsLayer& l,
                                const core::LayerQuantSpec& ls,
                                fixed::RoundingScheme scheme, int input,
                                QGraphWeightCache* cache) {
  QuantizedOp op;
  op.kind = QOpKind::kConvCaps3d;
  op.input = input;
  op.source = l.name();
  with_weights(cache, ls, scheme, op, [&](QuantizedOp& o) {
    for (std::int64_t t = 0; t < l.in_types(); ++t) {
      QTensor wt = quantize_weight(l.weight_slice(t), ls, scheme, false);
      o.type_caches.push_back(make_operand_cache(wt));
      o.type_weights.push_back(std::move(wt));
    }
  });
  op.stride = l.stride();
  op.pad = l.pad();
  op.in_types = l.in_types();
  op.in_dim = l.in_dim();
  op.out_types = l.out_types();
  op.out_dim = l.out_dim();
  op.iterations = l.iterations();
  op.out_fmt = ls.act_format();
  op.dr_fmt = ls.dr_format();
  return op;
}

// ---- op execution ----------------------------------------------------------

// An executor value: the activation in its planned storage container plus
// what the pass that wrote it recorded (its range, its rail hits).
using AnyAct = std::variant<QTensorT<std::int8_t>, QTensorT<std::int16_t>,
                            QTensorT<std::int32_t>, QTensor>;
struct Value {
  AnyAct t;
  OpRun run;
};

AnyAct empty_act(int bits) {
  switch (bits) {
    case 8: return QTensorT<std::int8_t>();
    case 16: return QTensorT<std::int16_t>();
    case 32: return QTensorT<std::int32_t>();
    default: return QTensor();
  }
}

std::int64_t act_bytes(const AnyAct& a) {
  return std::visit(
      [](const auto& t) {
        return static_cast<std::int64_t>(t.raw.size() * sizeof(t.raw[0]));
      },
      a);
}

int act_bits_of(const AnyAct& a) {
  return std::visit(
      [](const auto& t) { return static_cast<int>(8 * sizeof(t.raw[0])); }, a);
}

// Run `fn` on an empty tensor of the container `f` needs (the pre-squash
// and vote intermediates inside one node).
template <typename Fn>
void with_container(const fixed::FixedFormat& f, Fn&& fn) {
  AnyAct a = empty_act(act_container_bits(f));
  std::visit(fn, a);
}

// The one capsule-layout transpose the routing-bound ops share: gather
// [B, T*D, H, W] feature-map raws into [B, T*HW, D] capsule rows.
template <typename T>
void gather_caps_rows(const T* src, std::int64_t b, std::int64_t types,
                      std::int64_t d, std::int64_t plane, T* dst) {
  for (std::int64_t bi = 0; bi < b; ++bi)
    for (std::int64_t t = 0; t < types; ++t)
      for (std::int64_t dd = 0; dd < d; ++dd)
        for (std::int64_t p = 0; p < plane; ++p)
          dst[((bi * types + t) * plane + p) * d + dd] =
              src[((bi * types * d) + t * d + dd) * plane + p];
}

// out = clamp(a + b, lo, hi) over n elements, recording range and rail hits.
template <typename T>
void add_run(const T* __restrict a, const T* __restrict b, T* __restrict out,
             std::int64_t n, std::int64_t lo, std::int64_t hi,
             std::int64_t& max_abs_out, std::uint64_t& at_rail_out) {
  std::int64_t max_abs = 0;
  std::uint64_t at_rail = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t v =
        std::clamp<std::int64_t>(static_cast<std::int64_t>(a[i]) + b[i], lo, hi);
    out[i] = static_cast<T>(v);
    max_abs = std::max(max_abs, v < 0 ? -v : v);
    at_rail += (v <= lo || v >= hi) ? 1 : 0;
  }
  max_abs_out = std::max(max_abs_out, max_abs);
  at_rail_out += at_rail;
}

// Saturating raw add of two same-format values in one container, on the
// row split of the node schedule (qengine/schedule.hpp): each thread adds
// the rows its own thread wrote in the producing convs.
template <typename T>
void residual_add_to(const QTensorT<T>& a, const QTensorT<T>& b,
                     QTensorT<T>& out, OpRun& run) {
  QCAPS_CHECK_MSG(a.shape == b.shape && a.fmt == b.fmt,
                  "residual_add expects same-shape, same-format operands");
  out = QTensorT<T>(a.shape, a.fmt);
  const std::int64_t lo = a.fmt.raw_min(), hi = a.fmt.raw_max();
  // [B, C, H, W] splits by (image, row); any other rank is one image of
  // one channel row.
  const bool maps = a.shape.size() == 4;
  const std::int64_t images = maps ? a.dim(0) : 1;
  const std::int64_t chans = maps ? a.dim(1) : 1;
  const std::int64_t rows = maps ? a.dim(2) : 1;
  const std::int64_t width = maps ? a.dim(3) : a.numel();
  const int threads = schedule_threads();
  std::vector<OpRun> part(static_cast<std::size_t>(threads));
  for_each_row_range(threads, images, rows, [&](int t, std::int64_t r0,
                                                std::int64_t r1) {
    std::int64_t max_abs = 0;
    std::uint64_t at_rail = 0;
    for_each_image_rows(r0, r1, rows, [&](std::int64_t bi, std::int64_t ya,
                                          std::int64_t yb) {
      for (std::int64_t ch = 0; ch < chans; ++ch) {
        const std::int64_t o = ((bi * chans + ch) * rows + ya) * width;
        add_run(a.raw.data() + o, b.raw.data() + o, out.raw.data() + o,
                (yb - ya) * width, lo, hi, max_abs, at_rail);
      }
    });
    part[static_cast<std::size_t>(t)] = OpRun{max_abs, at_rail, 0};
  });
  run = merge_runs(part);
}

template <typename TI, typename TO>
void exec_conv_caps3d(const QuantizedOp& op, const QTensorT<TI>& x,
                      std::int64_t x_max_abs, QTensorT<TO>& out, OpRun& run) {
  const std::int64_t b = x.dim(0), h = x.dim(2), w = x.dim(3);
  QCAPS_CHECK_MSG(x.dim(1) == op.in_types * op.in_dim,
                  op.source << ": expected " << op.in_types * op.in_dim
                            << " channels, got " << x.dim(1));
  const std::int64_t plane = h * w;
  const std::int64_t k = op.type_weights.front().dim(2);
  const std::int64_t oh = (h + 2 * op.pad - k) / op.stride + 1;
  const std::int64_t ow = (w + 2 * op.pad - k) / op.stride + 1;
  const std::int64_t oplane = oh * ow;
  const std::int64_t jd = op.out_types * op.out_dim;

  // Votes and routed capsules sit in the container of the node's activation
  // format; the output gather converts to the (possibly folded) result.
  with_container(op.out_fmt, [&](auto& votes) {
    using TV = std::decay_t<decltype(votes.raw[0])>;
    votes = QTensorT<TV>({b * oplane, op.out_types, op.in_types, op.out_dim},
                         op.out_fmt);
    OpRun vrun;
    // Fused path (fusion pass set op.grouped): ONE im2col over the full
    // channel set feeds a batch of Tin scattered GEMMs against the
    // concatenated packed vote weights; votes land j-major straight out of
    // the requant epilogue. Bit-identical to the per-type loop below.
    const bool done =
        op.grouped && op.grouped_cache &&
        conv_caps3d_votes_to(x, x_max_abs, *op.grouped_cache,
                             op.type_weights.front().fmt, op.in_types,
                             op.in_dim, op.out_types, op.out_dim, k,
                             op.stride, op.pad, op.out_fmt, votes, vrun);

    // Per input type t: integer conv of that type's channel slice with its
    // vote weights, then a strided scatter straight into the j-major votes
    // layout [R, Nout, Nin, Dout] (R = B * OH * OW) the routing engine
    // consumes — the per-position analogue of the fc_caps vote product.
    // The slice copy records the slice's range for the conv's tier choice.
    if (!done) {
      vrun = OpRun{};
      QTensorT<TI> xs({b, op.in_dim, h, w}, x.fmt);
      QTensorT<TV> vmap;
      const std::int64_t slice = op.in_dim * plane;
      for (std::int64_t t = 0; t < op.in_types; ++t) {
        std::int64_t xs_max = 0;
        for (std::int64_t bi = 0; bi < b; ++bi) {
          const TI* src = x.raw.data() +
                          (bi * op.in_types * op.in_dim + t * op.in_dim) * plane;
          TI* dst = xs.raw.data() + bi * slice;
          for (std::int64_t e = 0; e < slice; ++e) {
            const std::int64_t v = src[e];
            dst[e] = src[e];
            xs_max = std::max(xs_max, v < 0 ? -v : v);
          }
        }
        OpRun trun;
        conv2d_to(xs, xs_max, op.type_weights[static_cast<std::size_t>(t)],
                  QTensor(), op.stride, op.pad, op.out_fmt, kRtn,
                  &op.type_caches[static_cast<std::size_t>(t)], false,
                  nullptr, vmap, trun);
        vrun.max_abs = std::max(vrun.max_abs, trun.max_abs);
        vrun.qgemm_bits = std::max(vrun.qgemm_bits, trun.qgemm_bits);
        const TV* pv = vmap.raw.data();
        TV* pvotes = votes.raw.data();
        for (std::int64_t bi = 0; bi < b; ++bi)
          for (std::int64_t j = 0; j < op.out_types; ++j)
            for (std::int64_t dd = 0; dd < op.out_dim; ++dd) {
              const TV* src = pv + (bi * jd + j * op.out_dim + dd) * oplane;
              for (std::int64_t p = 0; p < oplane; ++p)
                pvotes[(((bi * oplane + p) * op.out_types + j) *
                            op.in_types +
                        t) *
                           op.out_dim +
                       dd] = src[p];
            }
      }
    }

    QTensorT<TV> v;
    OpRun rrun;
    dynamic_routing_to(votes, vrun.max_abs, op.iterations, op.out_fmt,
                       op.dr_fmt, v, rrun);

    // Gather v[(b, y, x), j, dd] back into the feature map [B, Tout*Dout,
    // ...]. A folded trailing kRescale rides this pass for free: the
    // per-element rescale_raw IS the rescale node's arithmetic, applied
    // while the value is being copied anyway (exact for any format pair).
    const fixed::FixedFormat ofmt =
        op.fused_rescale ? op.fused_out_fmt : op.out_fmt;
    out = QTensorT<TO>({b, jd, oh, ow}, ofmt);
    const std::int64_t lo = ofmt.raw_min(), hi = ofmt.raw_max();
    std::int64_t max_abs = 0;
    std::uint64_t at_rail = 0;
    const TV* pvv = v.raw.data();
    TO* po = out.raw.data();
    for (std::int64_t bi = 0; bi < b; ++bi)
      for (std::int64_t c = 0; c < jd; ++c)
        for (std::int64_t p = 0; p < oplane; ++p) {
          const std::int64_t raw = pvv[(bi * oplane + p) * jd + c];
          const std::int64_t y =
              op.fused_rescale
                  ? hwmodel::rescale_raw(raw, op.out_fmt.qf, ofmt)
                  : raw;
          po[(bi * jd + c) * oplane + p] = static_cast<TO>(y);
          max_abs = std::max(max_abs, y < 0 ? -y : y);
          at_rail += (y <= lo || y >= hi) ? 1 : 0;
        }
    run = OpRun{max_abs, at_rail, vrun.qgemm_bits};
  });
}

template <typename TI, typename TO>
void exec_primary_caps(const QuantizedOp& op, const QTensorT<TI>& x,
                       std::int64_t x_max_abs, QTensorT<TO>& out,
                       OpRun& run) {
  with_container(op.mid_fmt, [&](auto& s) {
    using TM = std::decay_t<decltype(s.raw[0])>;
    OpRun srun;
    conv2d_to(x, x_max_abs, op.weight, op.bias, op.stride, op.pad, op.mid_fmt,
              kRtn, &op.wcache, false, nullptr, s, srun);
    // [B, T*D, H', W'] -> capsule list [B, T*H'*W', D] (same traversal the
    // hand-rolled deployment used — locked by the golden test).
    const std::int64_t b = s.dim(0), plane = s.dim(2) * s.dim(3);
    QTensorT<TM> caps({b, op.caps_types * plane, op.caps_dim}, op.mid_fmt);
    gather_caps_rows(s.raw.data(), b, op.caps_types, op.caps_dim, plane,
                     caps.raw.data());
    squash_last_to(caps, op.out_fmt,
                   op.fused_rescale ? &op.fused_out_fmt : nullptr, out, run);
    run.qgemm_bits = srun.qgemm_bits;
  });
}

template <typename T>
void exec_flatten(const QuantizedOp& op, const QTensorT<T>& x,
                  QTensorT<T>& out) {
  QCAPS_CHECK_MSG(x.shape.size() == 4 && x.dim(1) % op.caps_dim == 0,
                  op.source << ": expected [B, T*D, H, W] with D = "
                            << op.caps_dim);
  const std::int64_t b = x.dim(0), c = x.dim(1), plane = x.dim(2) * x.dim(3);
  const std::int64_t types = c / op.caps_dim;
  out = QTensorT<T>({b, types * plane, op.caps_dim}, x.fmt);
  gather_caps_rows(x.raw.data(), b, types, op.caps_dim, plane,
                   out.raw.data());
}

}  // namespace

const QGraphWeightCache::Entry* QGraphWeightCache::find(
    const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  ++hits_;
  return &it->second;
}

void QGraphWeightCache::put(std::string key, Entry entry) {
  entries_.emplace(std::move(key), std::move(entry));
}

std::int64_t QuantizedOp::weight_bits() const {
  // Count from shapes, not raw.size(): mmap-loaded graphs carry "hollow"
  // weights (shape + format + packed containers, no raw vector) whose
  // storage cost is unchanged.
  std::int64_t bits = tensor::shape_numel(weight.shape) *
                          weight.fmt.wordlength() +
                      tensor::shape_numel(bias.shape) * bias.fmt.wordlength();
  for (const auto& w : type_weights)
    bits += tensor::shape_numel(w.shape) * w.fmt.wordlength();
  return bits;
}

QTensor squash_channels(const QTensor& s, std::int64_t caps_dim,
                        fixed::FixedFormat out_fmt,
                        const fixed::FixedFormat* fold_fmt) {
  QTensor out;
  OpRun run;
  squash_channels_to(s, caps_dim, out_fmt, fold_fmt, out, run);
  return out;
}

QTensor residual_add(const QTensor& a, const QTensor& b) {
  QTensor out;
  OpRun run;
  residual_add_to(a, b, out, run);
  return out;
}

FoldedConv fold_batch_norm(const tensor::Tensor& weight,
                           const tensor::Tensor& bias,
                           const nn::BatchNorm2d& bn) {
  const std::int64_t f = weight.dim(0);
  QCAPS_CHECK_MSG(bn.channels() == f,
                  "batch-norm channels do not match conv filters");
  FoldedConv out;
  out.weight = weight;
  out.bias = tensor::Tensor({f});
  const std::int64_t per_filter = weight.numel() / f;
  for (std::int64_t c = 0; c < f; ++c) {
    const double inv = 1.0 / std::sqrt(static_cast<double>(
                                           bn.running_var()[c]) +
                                       static_cast<double>(bn.eps()));
    const double scale = static_cast<double>(bn.gamma()[c]) * inv;
    float* wrow = out.weight.data() + c * per_filter;
    for (std::int64_t i = 0; i < per_filter; ++i)
      wrow[i] = static_cast<float>(wrow[i] * scale);
    const double b0 = bias.numel() > 0 ? static_cast<double>(bias[c]) : 0.0;
    out.bias[c] = static_cast<float>(
        (b0 - static_cast<double>(bn.running_mean()[c])) * scale +
        static_cast<double>(bn.beta()[c]));
  }
  return out;
}

QuantizedGraph QuantizedGraph::compile(nn::Network& net,
                                       const core::NetworkQuantSpec& spec,
                                       QGraphWeightCache* weights,
                                       bool track_saturation) {
  core::check_spec_covers(net, spec);
  const auto scheme = spec.scheme;
  QuantizedGraph g;
  std::size_t w = 0;  // weighted-layer cursor = spec index
  int last = -1;      // value produced by the previous op
  bool input_fmt_set = false;

  const auto push = [&g, &last](QuantizedOp op) {
    g.ops_.push_back(std::move(op));
    last = static_cast<int>(g.ops_.size()) - 1;
  };
  const auto take_spec = [&](nn::Layer& layer) -> const core::LayerQuantSpec& {
    QCAPS_CHECK_MSG(w < spec.layers.size(),
                    "spec exhausted before layer " << layer.name());
    const core::LayerQuantSpec& ls = spec.layers[w++];
    if (!input_fmt_set) {
      // Inputs are [0, 1] pixels: reuse the first layer's activation format.
      g.input_fmt_ = ls.act_format();
      input_fmt_set = true;
    }
    return ls;
  };

  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    nn::Layer& layer = net.layer(i);
    if (auto* conv = dynamic_cast<nn::Conv2dLayer*>(&layer)) {
      const auto& ls = take_spec(layer);
      QuantizedOp op;
      op.kind = QOpKind::kConv2d;
      op.input = last;
      op.source = layer.name();
      with_weights(weights, ls, scheme, op, [&](QuantizedOp& o) {
        o.weight = quantize_weight(conv->master_weight(), ls, scheme, false);
        if (conv->master_bias().numel() > 0)
          o.bias = QTensor::from_float(conv->master_bias(), o.weight.fmt,
                                       scheme);
        o.wcache = make_operand_cache(o.weight);
      });
      op.stride = conv->stride();
      op.pad = conv->pad();
      op.out_fmt = ls.act_format();
      push(std::move(op));
    } else if (dynamic_cast<nn::ReluLayer*>(&layer) != nullptr) {
      QuantizedOp op;
      op.kind = QOpKind::kRelu;
      op.input = last;
      op.source = layer.name();
      op.out_fmt = g.ops_.empty() ? g.input_fmt_ : g.ops_.back().out_fmt;
      push(std::move(op));
    } else if (auto* primary = dynamic_cast<nn::PrimaryCapsLayer*>(&layer)) {
      const auto& ls = take_spec(layer);
      QuantizedOp op;
      op.kind = QOpKind::kPrimaryCaps;
      op.input = last;
      op.source = layer.name();
      with_weights(weights, ls, scheme, op, [&](QuantizedOp& o) {
        o.weight =
            quantize_weight(primary->master_weight(), ls, scheme, false);
        o.bias = QTensor::from_float(primary->master_bias(), o.weight.fmt,
                                     scheme);
        o.wcache = make_operand_cache(o.weight);
      });
      op.stride = primary->stride();
      op.pad = 0;
      op.caps_types = primary->caps_types();
      op.caps_dim = primary->caps_dim();
      op.out_fmt = ls.act_format();
      op.mid_fmt = pre_squash_fmt(op.out_fmt);
      push(std::move(op));
    } else if (auto* fc = dynamic_cast<nn::FCCapsLayer*>(&layer)) {
      const auto& ls = take_spec(layer);
      QuantizedOp votes;
      votes.kind = QOpKind::kVoteTransform;
      votes.input = last;
      votes.source = layer.name();
      with_weights(weights, ls, scheme, votes, [&](QuantizedOp& o) {
        o.weight = quantize_weight(fc->master_weight(), ls, scheme, false);
        o.wcache = make_operand_cache(o.weight);
      });
      votes.in_types = fc->num_in();
      votes.in_dim = fc->dim_in();
      votes.out_types = fc->num_out();
      votes.out_dim = fc->dim_out();
      votes.out_fmt = ls.act_format();
      push(std::move(votes));
      QuantizedOp routing;
      routing.kind = QOpKind::kDynamicRouting;
      routing.input = last;
      routing.source = layer.name();
      routing.iterations = fc->iterations();
      routing.out_fmt = ls.act_format();
      routing.dr_fmt = ls.dr_format();
      push(std::move(routing));
    } else if (auto* flat = dynamic_cast<nn::FlattenCapsLayer*>(&layer)) {
      QuantizedOp op;
      op.kind = QOpKind::kFlatten;
      op.input = last;
      op.source = layer.name();
      op.caps_dim = flat->caps_dim();
      op.out_fmt = g.ops_.empty() ? g.input_fmt_ : g.ops_.back().out_fmt;
      push(std::move(op));
    } else if (auto* block = dynamic_cast<nn::CapsBlockLayer*>(&layer)) {
      const auto& ls = take_spec(layer);
      push(compile_conv_caps(block->conv1(), ls, scheme, last, weights));
      const int x1 = last;
      push(compile_conv_caps(block->conv2(), ls, scheme, last, weights));
      push(compile_conv_caps(block->conv3(), ls, scheme, last, weights));
      const int x3 = last;
      if (block->routed_skip()) {
        const auto* routed =
            dynamic_cast<const nn::RoutedConvCapsLayer*>(&block->skip_layer());
        QCAPS_CHECK_MSG(routed != nullptr,
                        layer.name() << ": routed skip is not ConvCaps3D");
        push(compile_conv_caps3d(*routed, ls, scheme, x1, weights));
      } else {
        const auto* skip =
            dynamic_cast<const nn::ConvCapsLayer*>(&block->skip_layer());
        QCAPS_CHECK_MSG(skip != nullptr,
                        layer.name() << ": skip is not a ConvCaps layer");
        push(compile_conv_caps(*skip, ls, scheme, x1, weights));
      }
      // Both branches carry the block's activation format today; should a
      // future per-conv spec diverge them, align the skip with an explicit
      // width-change node (residual_add requires one shared grid).
      if (!(g.ops_[static_cast<std::size_t>(last)].out_fmt ==
            g.ops_[static_cast<std::size_t>(x3)].out_fmt)) {
        QuantizedOp fix;
        fix.kind = QOpKind::kRescale;
        fix.input = last;
        fix.source = layer.name() + "/skip-rescale";
        fix.out_fmt = g.ops_[static_cast<std::size_t>(x3)].out_fmt;
        push(std::move(fix));
      }
      QuantizedOp add;
      add.kind = QOpKind::kResidualAdd;
      add.input = x3;
      add.input2 = last;
      add.source = layer.name();
      add.out_fmt = g.ops_[static_cast<std::size_t>(x3)].out_fmt;
      push(std::move(add));
    } else if (auto* caps = dynamic_cast<nn::ConvCapsLayer*>(&layer)) {
      const auto& ls = take_spec(layer);
      push(compile_conv_caps(*caps, ls, scheme, last, weights));
    } else if (auto* routed =
                   dynamic_cast<nn::RoutedConvCapsLayer*>(&layer)) {
      const auto& ls = take_spec(layer);
      push(compile_conv_caps3d(*routed, ls, scheme, last, weights));
    } else {
      QCAPS_CHECK_MSG(false, "quantized-graph compiler does not support layer "
                                 << layer.name());
    }
  }
  QCAPS_CHECK_MSG(w == spec.layers.size(),
                  "spec has " << spec.layers.size() << " entries but only " << w
                              << " weighted layers were compiled");
  QCAPS_CHECK_MSG(!g.ops_.empty(), "cannot compile an empty network");
  if (track_saturation) g.sat_ = std::make_shared<SatCounters>(g.ops_.size());
  g.init_profile();
  g.plan_containers();
  if (fuse_enabled()) g.fuse();
  return g;
}

QuantizedGraph QuantizedGraph::from_ops(std::vector<QuantizedOp> ops,
                                        fixed::FixedFormat input_fmt,
                                        bool track_saturation) {
  QCAPS_CHECK_MSG(!ops.empty(), "cannot build an empty graph");
  QCAPS_CHECK_MSG(input_fmt.valid(),
                  "invalid input format " << input_fmt.to_string());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const QuantizedOp& op = ops[i];
    QCAPS_CHECK_MSG(op.input >= -1 && op.input < static_cast<int>(i),
                    "op " << i << " consumes value " << op.input
                          << " which is not an earlier node");
    QCAPS_CHECK_MSG(op.input2 >= -1 && op.input2 < static_cast<int>(i),
                    "op " << i << " consumes value " << op.input2
                          << " which is not an earlier node");
  }
  QuantizedGraph g;
  g.ops_ = std::move(ops);
  // Fusion annotations never survive a round trip through an op list: any
  // graph rebuilt from ops() (or from disk — the serializer always writes
  // the unfused form) starts as the unfused twin. The .qcg loader re-runs
  // fuse() explicitly after this when fusion is enabled.
  for (QuantizedOp& op : g.ops_) {
    op.fused_relu = false;
    op.fused_away = false;
    op.grouped = false;
    op.grouped_cache.reset();
    op.fused_rescale = false;
    op.fused_out_fmt = fixed::FixedFormat{1, 15};
  }
  g.input_fmt_ = input_fmt;
  if (track_saturation) g.sat_ = std::make_shared<SatCounters>(g.ops_.size());
  g.init_profile();
  g.plan_containers();
  return g;
}

void QuantizedGraph::plan_containers() {
  // A node that forwards or combines values in place (relu, flatten, the
  // residual add, a fused-away alias) keeps its input's format; every other
  // node produces its (possibly folded) output format.
  std::vector<fixed::FixedFormat> fmt(ops_.size());
  value_bits_.assign(ops_.size(), 64);
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const QuantizedOp& op = ops_[i];
    const bool keeps_input =
        op.fused_away || op.kind == QOpKind::kRelu ||
        op.kind == QOpKind::kFlatten || op.kind == QOpKind::kResidualAdd;
    if (keeps_input)
      fmt[i] = op.input < 0 ? input_fmt_
                            : fmt[static_cast<std::size_t>(op.input)];
    else
      fmt[i] = op.fused_rescale ? op.fused_out_fmt : op.out_fmt;
    value_bits_[i] = act_container_bits(fmt[i]);
    if (prof_) prof_->container[i] = value_bits_[i];
  }
}

bool QuantizedGraph::fuse_enabled() {
  const char* e = std::getenv("QCAPS_QGRAPH_FUSE");
  return e == nullptr || std::strcmp(e, "0") != 0;
}

namespace {

// The ONE rescale-fold eligibility decision, shared by fuse() and the
// qcg_tool report so they cannot diverge. Returns "" when node `i` (a
// kRescale) folds into its producer; otherwise a short reason. On success
// `fold` carries the composed constants (unused for kConvCaps3d, whose
// fold is a per-element rescale riding the output gather).
std::string rescale_fold_decision(const std::vector<QuantizedOp>& ops,
                                  fixed::FixedFormat input_fmt,
                                  const std::vector<int>& consumers,
                                  std::size_t i, RescaleFold* fold) {
  const QuantizedOp& op = ops[i];
  if (op.kind != QOpKind::kRescale) return "not a rescale";
  if (op.fused_away) return "";  // already folded (fused graph)
  if (op.input < 0) return "no producer (network input)";
  const std::size_t p = static_cast<std::size_t>(op.input);
  const QuantizedOp& prod = ops[p];
  if (consumers[p] != 1) return "producer shared";
  if (prod.fused_away) return "producer fused away";
  if (prod.fused_rescale) return "producer already folded";
  const fixed::FixedFormat from = prod.out_fmt;
  const fixed::FixedFormat to = op.out_fmt;
  const auto verdict = [&](const RescaleFold& f) -> std::string {
    if (f.ok) {
      *fold = f;
      return "";
    }
    return to.qf > from.qf ? "inexact: upshift" : "inexact: empty range";
  };
  switch (prod.kind) {
    case QOpKind::kConvCaps3d:
      // The fold is rescale_raw applied during the routed output's gather
      // pass — the rescale node's own arithmetic, exact for any pair.
      fold->ok = true;
      return "";
    case QOpKind::kConvCaps:
    case QOpKind::kPrimaryCaps: {
      // squash_channels / squash_last epilogue: one RTN shift from the
      // squash product grid down to the activation format.
      const hwmodel::SquashUnit unit(prod.mid_fmt);
      const int s1 = prod.mid_fmt.qf + unit.internal_qf() - from.qf;
      return verdict(
          compose_rescale(s1, from.raw_min(), from.raw_max(), from, to));
    }
    case QOpKind::kConv2d: {
      // conv requant epilogue: shift from the accumulator grid. The scalar
      // fallback applies the two rounding steps inline, so only the
      // composition itself gates the fold (bias widening is re-checked by
      // the fast path's own gate, which falls back bit-identically).
      const fixed::FixedFormat in_fmt =
          prod.input < 0
              ? input_fmt
              : (ops[static_cast<std::size_t>(prod.input)].fused_rescale
                     ? ops[static_cast<std::size_t>(prod.input)].fused_out_fmt
                     : ops[static_cast<std::size_t>(prod.input)].out_fmt);
      const int s1 = in_fmt.qf + prod.weight.fmt.qf - from.qf;
      const std::int64_t lo1 =
          prod.fused_relu ? std::max<std::int64_t>(from.raw_min(), 0)
                          : from.raw_min();
      return verdict(compose_rescale(s1, lo1, from.raw_max(), from, to));
    }
    default:
      return "producer kind";
  }
}

}  // namespace

std::string rescale_fold_blocker(const QuantizedGraph& g, std::size_t i) {
  const auto& ops = g.ops();
  QCAPS_CHECK(i < ops.size());
  std::vector<int> consumers(ops.size(), 0);
  for (const QuantizedOp& op : ops) {
    if (op.input >= 0) ++consumers[static_cast<std::size_t>(op.input)];
    if (op.input2 >= 0) ++consumers[static_cast<std::size_t>(op.input2)];
  }
  RescaleFold fold;
  return rescale_fold_decision(ops, g.input_format(), consumers, i, &fold);
}

void QuantizedGraph::fuse() {
  if (fused_) return;
  fused_ = true;
  // A relu folds into its producing conv only when the conv's value has no
  // other reader — any second consumer must see the pre-relu activation.
  std::vector<int> consumers(ops_.size(), 0);
  for (const QuantizedOp& op : ops_) {
    if (op.input >= 0) ++consumers[static_cast<std::size_t>(op.input)];
    if (op.input2 >= 0) ++consumers[static_cast<std::size_t>(op.input2)];
  }
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    QuantizedOp& op = ops_[i];
    if (op.kind == QOpKind::kRelu && op.input >= 0) {
      const std::size_t p = static_cast<std::size_t>(op.input);
      QuantizedOp& prod = ops_[p];
      // relu(clamp(v, qmin, qmax)) == clamp(v, max(qmin, 0), qmax) on the
      // symmetric grid, so raising the conv requant's lower clamp to the
      // zero point reproduces the relu element-exactly on every path. The
      // formats must match: a relu that also changes format would need a
      // second rescale the fused clamp cannot express.
      if (prod.kind == QOpKind::kConv2d && !prod.fused_relu &&
          !prod.fused_rescale && consumers[p] == 1 &&
          prod.out_fmt == op.out_fmt) {
        prod.fused_relu = true;
        op.fused_away = true;
        if (prof_) prof_->fused_from[p] = op.source;
      }
    } else if (op.kind == QOpKind::kRescale) {
      // Fold the format change into the producer's requant epilogue when
      // the two-step round-to-nearest composition is exact on the RTN grid
      // (compose_rescale); reject-and-skip otherwise. Ops are scanned in
      // SSA order, so an upstream conv's own fold is already visible when
      // its accumulator grid is derived here.
      RescaleFold fold;
      if (rescale_fold_decision(ops_, input_fmt_, consumers, i, &fold)
              .empty()) {
        const std::size_t p = static_cast<std::size_t>(op.input);
        ops_[p].fused_rescale = true;
        ops_[p].fused_out_fmt = op.out_fmt;
        op.fused_away = true;
        if (prof_) prof_->fused_from[p] = op.source;
      }
    } else if (op.kind == QOpKind::kConvCaps3d && !op.type_caches.empty()) {
      // Concatenate the per-type packed vote weights into one operand image
      // so the executor can run the Tin vote convolutions as ONE grouped
      // im2col + scattered-GEMM batch. Grouping demands one shared storage
      // tier across all types (the batch packs A once); when the types
      // straddle the int8 boundary, stay on the per-type path rather than
      // demote anyone to the wider tier unnecessarily — the executor's
      // range gate re-checks at run time and falls back bit-identically.
      std::int64_t gmax = 0;
      bool all8 = true, all16 = true;
      for (const auto& tc : op.type_caches) {
        if (tc.max_abs < 0) { all8 = all16 = false; break; }
        gmax = std::max(gmax, tc.max_abs);
        all8 = all8 && tc.has_i8();
        all16 = all16 && tc.has_i16();
      }
      all8 = all8 && gmax <= 127;
      all16 = all16 && gmax <= 32767;
      if (!all8 && !all16) continue;
      auto cache = std::make_shared<QGemmOperandCache>();
      cache->max_abs = gmax;
      for (std::size_t t = 0; t < op.type_caches.size(); ++t) {
        const std::int64_t n = tensor::shape_numel(op.type_weights[t].shape);
        if (all8) {
          const std::int8_t* src = op.type_caches[t].i8_data();
          cache->i8.insert(cache->i8.end(), src, src + n);
        }
        if (all16) {
          const std::int16_t* src = op.type_caches[t].i16_data();
          cache->i16.insert(cache->i16.end(), src, src + n);
        }
      }
      op.grouped = true;
      op.grouped_cache = std::move(cache);
      if (prof_) prof_->fused_from[i] = "grouped-votes";
    }
  }
  plan_containers();
}

namespace {

const char* qop_kind_name(QOpKind k) {
  switch (k) {
    case QOpKind::kConv2d: return "conv2d";
    case QOpKind::kRelu: return "relu";
    case QOpKind::kRescale: return "rescale";
    case QOpKind::kPrimaryCaps: return "primary";
    case QOpKind::kVoteTransform: return "votes";
    case QOpKind::kDynamicRouting: return "routing";
    case QOpKind::kConvCaps: return "convcaps";
    case QOpKind::kConvCaps3d: return "convcaps3d";
    case QOpKind::kResidualAdd: return "residual";
    case QOpKind::kFlatten: return "flatten";
  }
  return "unknown";
}

// QCAPS_QGRAPH_PROFILE: unset or "0" disables; "1" dumps to stderr; any
// other value is the dump file path.
const char* profile_target() {
  const char* e = std::getenv("QCAPS_QGRAPH_PROFILE");
  if (e == nullptr || std::strcmp(e, "0") == 0) return nullptr;
  return e;
}

}  // namespace

QuantizedGraph::NodeProfile::~NodeProfile() {
  std::FILE* f = stderr;
  bool close = false;
  if (!target.empty() && target != "1") {
    if (std::FILE* fp = std::fopen(target.c_str(), "w")) {
      f = fp;
      close = true;
    }
  }
  std::fprintf(f, "{\"nodes\": [");
  for (std::size_t i = 0; i < source.size(); ++i) {
    const int seen = qgemm_seen[i].load(std::memory_order_relaxed);
    std::string qgemm;
    for (const auto& [bit, name] :
         {std::pair{2, "i8"}, std::pair{4, "i16"}, std::pair{1, "i64"}})
      if (seen & bit) {
        if (!qgemm.empty()) qgemm += '+';
        qgemm += name;
      }
    std::fprintf(
        f, "%s\n {\"index\":%zu,\"source\":\"%s\",\"kind\":\"%s\",\"ns\":%lld,"
           "\"bytes\":%lld,\"container\":\"i%d\",\"qgemm\":\"%s\","
           "\"fused_from\":[%s%s%s]}",
        i == 0 ? "" : ",", i, source[i].c_str(), kind[i].c_str(),
        static_cast<long long>(ns[i].load(std::memory_order_relaxed)),
        static_cast<long long>(bytes[i].load(std::memory_order_relaxed)),
        container[i], qgemm.empty() ? "-" : qgemm.c_str(),
        fused_from[i].empty() ? "" : "\"", fused_from[i].c_str(),
        fused_from[i].empty() ? "" : "\"");
  }
  // Per-op-kind aggregate, heaviest kind first: where the graph's time goes
  // at a glance (a fused-away node keeps its kind but accumulates ~0 ns, so
  // folded rescale/relu rows visibly drain out of this table).
  struct KindRow {
    std::string name;
    std::int64_t nodes = 0;
    std::int64_t total_ns = 0;
  };
  std::vector<KindRow> rows;
  std::int64_t graph_ns = 0;
  for (std::size_t i = 0; i < source.size(); ++i) {
    const std::int64_t t = ns[i].load(std::memory_order_relaxed);
    graph_ns += t;
    auto it = std::find_if(rows.begin(), rows.end(),
                           [&](const KindRow& r) { return r.name == kind[i]; });
    if (it == rows.end()) {
      rows.push_back({kind[i], 1, t});
    } else {
      ++it->nodes;
      it->total_ns += t;
    }
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const KindRow& a, const KindRow& b) {
                     return a.total_ns > b.total_ns;
                   });
  std::fprintf(f, "\n],\n \"kinds\": [");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double pct =
        graph_ns > 0 ? 100.0 * static_cast<double>(rows[i].total_ns) /
                           static_cast<double>(graph_ns)
                     : 0.0;
    std::fprintf(f,
                 "%s\n {\"kind\":\"%s\",\"nodes\":%lld,\"ns\":%lld,"
                 "\"pct\":%.1f}",
                 i == 0 ? "" : ",", rows[i].name.c_str(),
                 static_cast<long long>(rows[i].nodes),
                 static_cast<long long>(rows[i].total_ns), pct);
  }
  std::fprintf(f, "\n]}\n");
  if (close) std::fclose(f);
}

void QuantizedGraph::init_profile() {
  const char* target = profile_target();
  if (target == nullptr) return;
  prof_ = std::make_shared<NodeProfile>(ops_.size());
  prof_->target = target;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    prof_->source[i] = ops_[i].source;
    prof_->kind[i] = qop_kind_name(ops_[i].kind);
  }
}

namespace {

// The network input, quantized into its container with its range recorded.
template <typename T>
void quantize_input(const tensor::Tensor& images, fixed::FixedFormat fmt,
                    QTensorT<T>& out, OpRun& run) {
  out = QTensorT<T>(images.shape(), fmt);
  std::int64_t max_abs = 0;
  for (std::int64_t i = 0; i < images.numel(); ++i) {
    const std::int64_t v = fixed::to_raw(images[i], fmt, kRtn);
    out.raw[static_cast<std::size_t>(i)] = static_cast<T>(v);
    max_abs = std::max(max_abs, v < 0 ? -v : v);
  }
  run = OpRun{max_abs, 0, 0};
}

int qgemm_seen_bit(int qgemm_bits) {
  switch (qgemm_bits) {
    case 8: return 2;
    case 16: return 4;
    case 64: return 1;
    default: return 0;
  }
}

}  // namespace

QTensor QuantizedGraph::forward(const tensor::Tensor& images,
                                std::vector<NodeTrace>* trace) const {
  QCAPS_CHECK_MSG(!ops_.empty(), "forward on an empty graph");
  QCAPS_CHECK_MSG(images.ndim() == 4, "expected [B, C, H, W] images");
  Value x0{empty_act(act_container_bits(input_fmt_)), {}};
  std::visit([&](auto& t) { quantize_input(images, input_fmt_, t, x0.run); },
             x0.t);
  std::vector<Value> vals(ops_.size());
  const auto val = [&](int idx) -> const Value& {
    return idx < 0 ? x0 : vals[static_cast<std::size_t>(idx)];
  };
  // Last consumer of each value: intermediates are freed as soon as no
  // later op reads them, so the peak working set stays at a couple of
  // layer activations instead of the whole (batched) value list.
  std::vector<int> last_use(ops_.size(), -1);
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (ops_[i].input >= 0)
      last_use[static_cast<std::size_t>(ops_[i].input)] = static_cast<int>(i);
    if (ops_[i].input2 >= 0)
      last_use[static_cast<std::size_t>(ops_[i].input2)] = static_cast<int>(i);
  }
  if (trace) trace->assign(ops_.size(), NodeTrace{});
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const QuantizedOp& op = ops_[i];
    const Value& xv = val(op.input);
    Value& y = vals[i];
    const auto t0 = prof_ ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point{};
    // Forward the input unchanged: steal it when this is its last use (the
    // common case: relu directly follows its conv) instead of copying.
    const auto forward_input = [&] {
      if (op.input >= 0 &&
          last_use[static_cast<std::size_t>(op.input)] == static_cast<int>(i))
        y = std::move(vals[static_cast<std::size_t>(op.input)]);
      else
        y = xv;
      y.run.qgemm_bits = 0;
    };
    // Run `fn(x, out)` with out in this node's planned container.
    const auto produce = [&](auto&& fn) {
      y.t = empty_act(value_bits_[i]);
      std::visit(fn, xv.t, y.t);
    };
    const std::int64_t xmax = xv.run.max_abs;
    switch (op.kind) {
      case QOpKind::kConv2d:
        produce([&](const auto& x, auto& out) {
          conv2d_to(x, xmax, op.weight, op.bias, op.stride, op.pad,
                    op.out_fmt, kRtn, &op.wcache, op.fused_relu,
                    op.fused_rescale ? &op.fused_out_fmt : nullptr, out,
                    y.run);
        });
        break;
      case QOpKind::kRelu:
        forward_input();
        // Folded into the producing conv's requant clamp: the value already
        // is relu(conv(...)); this node just forwards it.
        if (!op.fused_away)
          std::visit([&](auto& t) { relu_to(t, y.run); }, y.t);
        break;
      case QOpKind::kRescale:
        // Folded into the producer's requant epilogue: the value already
        // carries out_fmt, so forward it.
        if (op.fused_away) {
          forward_input();
        } else {
          produce([&](const auto& x, auto& out) {
            rescale_to(x, op.out_fmt, kRtn, out, y.run);
          });
        }
        break;
      case QOpKind::kPrimaryCaps:
        produce([&](const auto& x, auto& out) {
          exec_primary_caps(op, x, xmax, out, y.run);
        });
        break;
      case QOpKind::kVoteTransform:
        produce([&](const auto& x, auto& out) {
          QCAPS_CHECK_MSG(x.dim(1) == op.in_types && x.dim(2) == op.in_dim,
                          op.source << ": capsule list shape mismatch");
          vote_transform_to(x, xmax, op.weight, op.out_fmt, kRtn, &op.wcache,
                            out, y.run);
        });
        break;
      case QOpKind::kDynamicRouting:
        produce([&](const auto& x, auto& out) {
          dynamic_routing_to(x, xmax, op.iterations, op.out_fmt, op.dr_fmt,
                             out, y.run);
        });
        break;
      case QOpKind::kConvCaps:
        produce([&](const auto& x, auto& out) {
          conv_caps_to(x, xmax, op.weight, op.bias, op.stride, op.pad,
                       &op.wcache, op.mid_fmt, op.out_dim, op.out_fmt,
                       op.fused_rescale ? &op.fused_out_fmt : nullptr, out,
                       y.run);
        });
        break;
      case QOpKind::kConvCaps3d:
        produce([&](const auto& x, auto& out) {
          exec_conv_caps3d(op, x, xmax, out, y.run);
        });
        break;
      case QOpKind::kResidualAdd:
        std::visit(
            [&](const auto& a) {
              using QT = std::decay_t<decltype(a)>;
              const QT* b = std::get_if<QT>(&val(op.input2).t);
              QCAPS_CHECK_MSG(b != nullptr,
                              op.source << ": residual operands are held in "
                                           "different containers");
              y.t = QT();
              residual_add_to(a, *b, std::get<QT>(y.t), y.run);
            },
            xv.t);
        break;
      case QOpKind::kFlatten:
        std::visit(
            [&](const auto& x) {
              using QT = std::decay_t<decltype(x)>;
              y.t = QT();
              exec_flatten(op, x, std::get<QT>(y.t));
            },
            xv.t);
        y.run = OpRun{xv.run.max_abs, 0, 0};
        break;
    }
    const fixed::FixedFormat yfmt =
        std::visit([](const auto& t) { return t.fmt; }, y.t);
    QCAPS_CHECK_MSG(act_bits_of(y.t) == value_bits_[i] &&
                        act_container_bits(yfmt) == value_bits_[i],
                    op.source << ": value does not match its planned "
                                 "container");
    if (prof_) {
      const auto dt = std::chrono::steady_clock::now() - t0;
      prof_->ns[i].fetch_add(
          std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count(),
          std::memory_order_relaxed);
      prof_->bytes[i].fetch_add(act_bytes(y.t), std::memory_order_relaxed);
      prof_->qgemm_seen[i].fetch_or(qgemm_seen_bit(y.run.qgemm_bits),
                                    std::memory_order_relaxed);
    }
    if (trace) (*trace)[i] = {value_bits_[i], y.run.qgemm_bits};
    // Requant-saturation accounting: the producer's output pass counted the
    // raws sitting on the output format's rails while writing them.
    // Anything requantized (conv, rescale, squash, routing, residual add)
    // can only reach a rail by clamping — or by landing on it exactly,
    // which is indistinguishable and rare. kRelu and kFlatten never
    // requantize, so they are left uncounted. A conv with a fused relu
    // cannot reach the (negative) lower rail, so only its high rail counts:
    // the raised lower clamp produces legitimate relu zeros, not
    // saturation. Only relaxed atomics are touched, so replica pools can
    // run concurrently. A fused-away rescale forwards a value its producer
    // already counted at the same composed rails — counting it again would
    // double-count.
    if (sat_ && op.kind != QOpKind::kRelu && op.kind != QOpKind::kFlatten &&
        !op.fused_away) {
      const std::int64_t n =
          std::visit([](const auto& t) { return t.numel(); }, y.t);
      sat_->saturated[i].fetch_add(y.run.at_rail, std::memory_order_relaxed);
      sat_->total[i].fetch_add(static_cast<std::uint64_t>(n),
                               std::memory_order_relaxed);
    }
    for (const int in : {op.input, op.input2})
      if (in >= 0 && last_use[static_cast<std::size_t>(in)] ==
                         static_cast<int>(i))
        vals[static_cast<std::size_t>(in)] = Value{};
  }
  // Only the returned value is widened to int64.
  return std::visit(
      [](auto& t) -> QTensor {
        if constexpr (std::is_same_v<std::decay_t<decltype(t)>, QTensor>) {
          return std::move(t);
        } else {
          QTensor q;
          q.raw.assign(t.raw.begin(), t.raw.end());
          q.fmt = t.fmt;
          q.shape = std::move(t.shape);
          return q;
        }
      },
      vals.back().t);
}

std::vector<NodeSaturation> QuantizedGraph::saturation() const {
  std::vector<NodeSaturation> out(ops_.size());
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    out[i].source = ops_[i].source;
    out[i].kind = ops_[i].kind;
    if (sat_) {
      out[i].saturated = sat_->saturated[i].load(std::memory_order_relaxed);
      out[i].total = sat_->total[i].load(std::memory_order_relaxed);
    }
  }
  return out;
}

double QuantizedGraph::saturation_rate() const {
  std::uint64_t saturated = 0, total = 0;
  if (sat_) {
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      saturated += sat_->saturated[i].load(std::memory_order_relaxed);
      total += sat_->total[i].load(std::memory_order_relaxed);
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(saturated) /
                          static_cast<double>(total);
}

std::vector<int> QuantizedGraph::predict_batch(
    const tensor::Tensor& images, std::vector<float>* scores) const {
  return nn::classify_lengths(lengths(forward(images)), scores);
}

std::int64_t QuantizedGraph::weight_bits() const {
  std::int64_t bits = 0;
  for (const auto& op : ops_) bits += op.weight_bits();
  return bits;
}

}  // namespace qcaps::qengine
