// Differential test of the QuantizedGraph executor against a node-by-node
// oracle built from the public int64 QTensor operators (and a direct int64
// convolution).
//
// The executor holds every value in the container its format needs (int8,
// int16, int32, int64), runs one container-generic implementation per op,
// and takes ranges and rail hits from the pass that wrote each value. The
// oracle below does none of that: it evaluates the unfused op list with
// the int64 entry points and scans every value afterwards. Seeded random
// per-layer specs (wordlengths 2-16) plus diverged producer formats that
// force kRescale nodes (foldable downshifts, unfoldable upshifts, int32 and
// int64 wide values) drive both; outputs and per-node saturation counts
// must agree bit for bit under every forced qgemm/caps tier, with fusion on
// and off, at OpenMP teams of 1, 2 and 3, on batches of 2 and 3 images
// (an odd team or batch splits the node schedule's rows mid-image).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/rng.hpp"
#include "hwmodel/units.hpp"
#include "models/deep_caps.hpp"
#include "models/shallow_caps.hpp"
#include "qengine/qgraph.hpp"
#include "tensor/caps_kernels.hpp"
#include "tensor/qgemm.hpp"

namespace qcaps::qengine {
namespace {

constexpr auto kRtn = fixed::RoundingScheme::kRoundToNearest;

// Direct int64 convolution with one rescale per output: independent of the
// im2col and packed-GEMM paths the operators take.
QTensor naive_conv2d(const QTensor& x, const QTensor& w, const QTensor& bias,
                     std::int64_t stride, std::int64_t pad,
                     fixed::FixedFormat out_fmt) {
  const std::int64_t b = x.dim(0), c = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const std::int64_t f = w.dim(0), k = w.dim(2);
  const std::int64_t oh = (h + 2 * pad - k) / stride + 1;
  const std::int64_t ow = (wd + 2 * pad - k) / stride + 1;
  const int acc_qf = x.fmt.qf + w.fmt.qf;
  QTensor out({b, f, oh, ow}, out_fmt);
  std::size_t o = 0;
  for (std::int64_t bi = 0; bi < b; ++bi)
    for (std::int64_t fi = 0; fi < f; ++fi)
      for (std::int64_t y = 0; y < oh; ++y)
        for (std::int64_t xx = 0; xx < ow; ++xx, ++o) {
          std::int64_t acc =
              bias.raw.empty()
                  ? 0
                  : bias.raw[static_cast<std::size_t>(fi)]
                        << (acc_qf - bias.fmt.qf);
          for (std::int64_t ci = 0; ci < c; ++ci)
            for (std::int64_t ky = 0; ky < k; ++ky)
              for (std::int64_t kx = 0; kx < k; ++kx) {
                const std::int64_t iy = y * stride + ky - pad;
                const std::int64_t ix = xx * stride + kx - pad;
                if (iy < 0 || iy >= h || ix < 0 || ix >= wd) continue;
                acc += x.raw[static_cast<std::size_t>(
                           ((bi * c + ci) * h + iy) * wd + ix)] *
                       w.raw[static_cast<std::size_t>(
                           ((fi * c + ci) * k + ky) * k + kx)];
              }
          out.raw[o] = hwmodel::rescale_raw(acc, acc_qf, out_fmt);
        }
  return out;
}

// [B, T*D, H, W] feature map -> [B, T*H*W, D] capsule rows.
QTensor caps_rows(const QTensor& s, std::int64_t types, std::int64_t d) {
  const std::int64_t b = s.dim(0), plane = s.dim(2) * s.dim(3);
  QTensor out({b, types * plane, d}, s.fmt);
  for (std::int64_t bi = 0; bi < b; ++bi)
    for (std::int64_t t = 0; t < types; ++t)
      for (std::int64_t dd = 0; dd < d; ++dd)
        for (std::int64_t p = 0; p < plane; ++p)
          out.raw[static_cast<std::size_t>(((bi * types + t) * plane + p) * d +
                                           dd)] =
              s.raw[static_cast<std::size_t>((bi * types * d + t * d + dd) *
                                                 plane +
                                             p)];
  return out;
}

// ConvCaps3d the long way: per input type, conv its channel slice, scatter
// the vote maps j-major, route, gather back into a feature map.
QTensor conv_caps3d_oracle(const QuantizedOp& op, const QTensor& x) {
  const std::int64_t b = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::int64_t plane = h * w;
  const std::int64_t k = op.type_weights.front().dim(2);
  const std::int64_t oh = (h + 2 * op.pad - k) / op.stride + 1;
  const std::int64_t ow = (w + 2 * op.pad - k) / op.stride + 1;
  const std::int64_t oplane = oh * ow;
  const std::int64_t jd = op.out_types * op.out_dim;
  QTensor votes({b * oplane, op.out_types, op.in_types, op.out_dim},
                op.out_fmt);
  for (std::int64_t t = 0; t < op.in_types; ++t) {
    QTensor xs({b, op.in_dim, h, w}, x.fmt);
    for (std::int64_t bi = 0; bi < b; ++bi)
      for (std::int64_t e = 0; e < op.in_dim * plane; ++e)
        xs.raw[static_cast<std::size_t>(bi * op.in_dim * plane + e)] =
            x.raw[static_cast<std::size_t>(
                (bi * op.in_types + t) * op.in_dim * plane + e)];
    const QTensor vmap =
        naive_conv2d(xs, op.type_weights[static_cast<std::size_t>(t)],
                     QTensor(), op.stride, op.pad, op.out_fmt);
    for (std::int64_t bi = 0; bi < b; ++bi)
      for (std::int64_t c = 0; c < jd; ++c)
        for (std::int64_t p = 0; p < oplane; ++p)
          votes.raw[static_cast<std::size_t>(
              (((bi * oplane + p) * op.out_types + c / op.out_dim) *
                   op.in_types +
               t) *
                  op.out_dim +
              c % op.out_dim)] =
              vmap.raw[static_cast<std::size_t>((bi * jd + c) * oplane + p)];
  }
  const QTensor v =
      dynamic_routing(votes, op.iterations, op.out_fmt, op.dr_fmt);
  QTensor out({b, jd, oh, ow}, op.out_fmt);
  for (std::int64_t bi = 0; bi < b; ++bi)
    for (std::int64_t c = 0; c < jd; ++c)
      for (std::int64_t p = 0; p < oplane; ++p)
        out.raw[static_cast<std::size_t>((bi * jd + c) * oplane + p)] =
            v.raw[static_cast<std::size_t>((bi * oplane + p) * jd + c)];
  return out;
}

// Every node's value of the UNFUSED op list, through the int64 operators.
std::vector<QTensor> oracle_values(const std::vector<QuantizedOp>& ops,
                                   fixed::FixedFormat input_fmt,
                                   const tensor::Tensor& images) {
  const QTensor x0 = QTensor::from_float(images, input_fmt);
  std::vector<QTensor> vals(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const QuantizedOp& op = ops[i];
    const QTensor& x =
        op.input < 0 ? x0 : vals[static_cast<std::size_t>(op.input)];
    switch (op.kind) {
      case QOpKind::kConv2d:
        vals[i] =
            naive_conv2d(x, op.weight, op.bias, op.stride, op.pad, op.out_fmt);
        break;
      case QOpKind::kRelu:
        vals[i] = x;
        relu(vals[i]);
        break;
      case QOpKind::kRescale:
        vals[i] = rescale(x, op.out_fmt);
        break;
      case QOpKind::kPrimaryCaps: {
        const QTensor s = naive_conv2d(x, op.weight, op.bias, op.stride,
                                       op.pad, op.mid_fmt);
        vals[i] = squash_last(caps_rows(s, op.caps_types, op.caps_dim),
                              op.out_fmt);
        break;
      }
      case QOpKind::kVoteTransform:
        vals[i] = vote_transform(x, op.weight, op.out_fmt);
        break;
      case QOpKind::kDynamicRouting:
        vals[i] = dynamic_routing(x, op.iterations, op.out_fmt, op.dr_fmt);
        break;
      case QOpKind::kConvCaps: {
        const QTensor s = naive_conv2d(x, op.weight, op.bias, op.stride,
                                       op.pad, op.mid_fmt);
        vals[i] = squash_channels(s, op.out_dim, op.out_fmt);
        break;
      }
      case QOpKind::kConvCaps3d:
        vals[i] = conv_caps3d_oracle(op, x);
        break;
      case QOpKind::kResidualAdd:
        vals[i] = residual_add(x, vals[static_cast<std::size_t>(op.input2)]);
        break;
      case QOpKind::kFlatten:
        vals[i] = caps_rows(x, x.dim(1) / op.caps_dim, op.caps_dim);
        break;
    }
  }
  return vals;
}

std::uint64_t rail_hits(const QTensor& v, bool high_only) {
  const std::int64_t lo = v.fmt.raw_min(), hi = v.fmt.raw_max();
  std::uint64_t n = 0;
  for (const std::int64_t r : v.raw) n += (r >= hi || (!high_only && r <= lo));
  return n;
}

// Per-node saturation a graph must report after one forward, by the
// counting rules: relu/flatten and fused-away nodes are uncounted; a node
// with a folded rescale counts the rescaled value; a conv with a folded
// relu counts only high-rail hits of the relu'd value.
std::vector<NodeSaturation> expected_saturation(
    const std::vector<QuantizedOp>& ops, const std::vector<QTensor>& vals) {
  std::vector<NodeSaturation> out(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const QuantizedOp& op = ops[i];
    if (op.kind == QOpKind::kRelu || op.kind == QOpKind::kFlatten ||
        op.fused_away)
      continue;
    std::size_t at = i;
    if (op.fused_relu || op.fused_rescale)
      for (std::size_t j = i + 1; j < ops.size(); ++j)
        if (ops[j].input == static_cast<int>(i) && ops[j].fused_away) at = j;
    out[i].saturated = rail_hits(vals[at], op.fused_relu);
    out[i].total = static_cast<std::uint64_t>(vals[at].numel());
  }
  return out;
}

// Widen producer `idx`'s format to `wide` and restore the original with a
// kRescale right after it (downstream consumers rewired onto it): the
// diverged-format shape the compiler's skip alignment emits.
std::vector<QuantizedOp> with_rescale_after(std::vector<QuantizedOp> ops,
                                            int idx,
                                            fixed::FixedFormat wide) {
  QuantizedOp r;
  r.kind = QOpKind::kRescale;
  r.input = idx;
  r.source = ops[static_cast<std::size_t>(idx)].source + "/restore";
  r.out_fmt = ops[static_cast<std::size_t>(idx)].out_fmt;
  ops[static_cast<std::size_t>(idx)].out_fmt = wide;
  for (std::size_t i = static_cast<std::size_t>(idx) + 1; i < ops.size();
       ++i)
    for (int* v : {&ops[i].input, &ops[i].input2})
      if (*v >= idx) *v = *v == idx ? idx + 1 : *v + 1;
  ops.insert(ops.begin() + idx + 1, std::move(r));
  return ops;
}

int draw(common::Rng& rng, int lo, int hi) {  // uniform in [lo, hi]
  return lo + static_cast<int>(rng.next_u64() %
                               static_cast<std::uint64_t>(hi - lo + 1));
}

// One format with wordlength in [2, 16].
void draw_format(common::Rng& rng, int& qi, int& qf) {
  const int wl = draw(rng, 2, 16);
  qi = draw(rng, 1, std::min(wl - 1, 6));
  qf = wl - qi;
}

core::NetworkQuantSpec draw_spec(common::Rng& rng, std::size_t layers) {
  core::NetworkQuantSpec spec;
  spec.scheme = kRtn;
  for (std::size_t l = 0; l < layers; ++l) {
    core::LayerQuantSpec ls;
    draw_format(rng, ls.qw_int, ls.qw_frac);
    draw_format(rng, ls.qa_int, ls.qa_frac);
    if (rng.next_u64() % 2 == 0) draw_format(rng, ls.qdr_int, ls.qdr_frac);
    spec.layers.push_back(ls);
  }
  return spec;
}

// Diverge one or two producers' formats behind a restoring kRescale: a
// foldable downshift, an unfoldable upshift, or a wide int32 / int64 value.
// `wide64` first widens the first conv past 32 bits (the exact int64 path).
std::vector<QuantizedOp> diverge(std::vector<QuantizedOp> ops,
                                 common::Rng& rng, bool wide64) {
  if (wide64) {
    const std::size_t c = static_cast<std::size_t>(
        std::find_if(ops.begin(), ops.end(),
                     [](const QuantizedOp& op) {
                       return op.kind == QOpKind::kConv2d;
                     }) -
        ops.begin());
    const fixed::FixedFormat f = ops[c].out_fmt;
    ops = with_rescale_after(std::move(ops), static_cast<int>(c),
                             fixed::FixedFormat{f.qi + 4, 30});
  }
  const int n = draw(rng, 1, 2);
  for (int r = 0; r < n; ++r) {
    std::vector<int> cand;
    for (std::size_t i = 0; i < ops.size(); ++i)
      switch (ops[i].kind) {
        case QOpKind::kConv2d:
        case QOpKind::kPrimaryCaps:
        case QOpKind::kConvCaps:
        case QOpKind::kConvCaps3d:
        case QOpKind::kVoteTransform:
          cand.push_back(static_cast<int>(i));
          break;
        default:
          break;
      }
    const int idx = cand[rng.next_u64() % cand.size()];
    const fixed::FixedFormat f = ops[static_cast<std::size_t>(idx)].out_fmt;
    fixed::FixedFormat wide = f;
    switch (draw(rng, 0, 3)) {
      case 0:  // wider and finer: the restore is a foldable downshift
        wide = {f.qi + draw(rng, 0, 2), f.qf + draw(rng, 1, 3)};
        break;
      case 1:  // coarser: the restore upshifts and cannot fold
        wide = {f.qi, std::max(0, f.qf - draw(rng, 1, 2))};
        break;
      case 2:  // an int32-container value
        wide = {f.qi + 2, std::max(f.qf, 18 - f.qi)};
        break;
      default:  // an int64-container value where the op allows one
        if (ops[static_cast<std::size_t>(idx)].kind == QOpKind::kConv2d)
          wide = {f.qi + 4, 30};
        break;
    }
    ops = with_rescale_after(std::move(ops), idx, wide);
  }
  return ops;
}

struct Tier {
  tensor::Isa isa;
  const char* name;
};

std::vector<Tier> tiers() {
  std::vector<Tier> out;
  for (const auto k : {tensor::Isa::kScalar, tensor::Isa::kAvx2,
                       tensor::Isa::kAvx512, tensor::Isa::kAvx512Vnni}) {
    const bool q = tensor::qgemm_force_kernel(k);
    const bool c = tensor::caps_force_kernel(k);
    if (q || c) out.push_back({k, tensor::isa_name(k)});
  }
  tensor::qgemm_reset_kernel();
  tensor::caps_reset_kernel();
  return out;
}

void expect_same(const QTensor& got, const QTensor& want, const char* what) {
  ASSERT_EQ(got.shape, want.shape) << what;
  ASSERT_TRUE(got.fmt == want.fmt) << what;
  for (std::size_t i = 0; i < got.raw.size(); ++i)
    ASSERT_EQ(got.raw[i], want.raw[i]) << what << " flat " << i;
}

void run_family(nn::Network& net, std::size_t layers,
                const tensor::Tensor& images, std::uint64_t seed0, int specs,
                std::set<int>& containers, std::set<int>& gemm_widths) {
  const std::vector<Tier> all_tiers = tiers();
#ifdef _OPENMP
  const int threads = omp_get_max_threads();
#endif
  for (int sp = 0; sp < specs; ++sp) {
    common::Rng rng(seed0 + static_cast<std::uint64_t>(sp));
    const core::NetworkQuantSpec spec = draw_spec(rng, layers);
    const QuantizedGraph compiled =
        QuantizedGraph::compile(net, spec, nullptr, false);
    const std::vector<QuantizedOp> ops =
        diverge(compiled.ops(), rng, /*wide64=*/sp == 0);
    const fixed::FixedFormat in_fmt = compiled.input_format();
    const std::vector<QTensor> want = oracle_values(ops, in_fmt, images);
    for (const bool fuse : {false, true}) {
      QuantizedGraph g = QuantizedGraph::from_ops(ops, in_fmt);
      if (fuse) g.fuse();
      const auto sat_want = expected_saturation(g.ops(), want);
      for (const Tier& tier : all_tiers) {
        tensor::qgemm_force_kernel(tier.isa);
        tensor::caps_force_kernel(tier.isa);
        for (const int team : {1, 2, 3}) {
#ifdef _OPENMP
          omp_set_num_threads(team);
#endif
          SCOPED_TRACE(::testing::Message()
                       << "spec " << sp << " fuse " << fuse << " tier "
                       << tier.name << " team " << team);
          // A fresh graph per run: its counters start from zero.
          QuantizedGraph rg = QuantizedGraph::from_ops(ops, in_fmt);
          if (fuse) rg.fuse();
          std::vector<QuantizedGraph::NodeTrace> trace;
          expect_same(rg.forward(images, &trace), want.back(), "output");
          const auto sat = rg.saturation();
          ASSERT_EQ(sat.size(), sat_want.size());
          for (std::size_t i = 0; i < sat.size(); ++i) {
            EXPECT_EQ(sat[i].saturated, sat_want[i].saturated)
                << "node " << i << " " << rg.ops()[i].source;
            EXPECT_EQ(sat[i].total, sat_want[i].total) << "node " << i;
            EXPECT_EQ(trace[i].container_bits, rg.value_bits(i));
            containers.insert(trace[i].container_bits);
            gemm_widths.insert(trace[i].qgemm_bits);
          }
        }
      }
      tensor::qgemm_reset_kernel();
      tensor::caps_reset_kernel();
#ifdef _OPENMP
      omp_set_num_threads(threads);
#endif
      // Replica copies share one counter block: two forwards through two
      // copies count every node twice.
      const QuantizedGraph replica = g;
      g.forward(images);
      replica.forward(images);
      const auto sat = g.saturation();
      for (std::size_t i = 0; i < sat.size(); ++i) {
        EXPECT_EQ(sat[i].saturated, 2 * sat_want[i].saturated) << "node " << i;
        EXPECT_EQ(sat[i].total, 2 * sat_want[i].total) << "node " << i;
      }
    }
  }
}

// Larger weights push capsule norms up, so the squash outputs reach both
// rails of the narrow formats and the rail counts are exercised there too.
void scale_params(nn::Network& net, float factor) {
  for (tensor::Tensor* p : net.params())
    for (std::int64_t i = 0; i < p->numel(); ++i) (*p)[i] *= factor;
}

TEST(QGraphDifferential, ShallowAndDeepCapsMatchInt64OracleBitForBit) {
  std::set<int> containers, gemm_widths;
  {
    common::Rng rng(401);
    auto net = models::build_shallow_caps(
        models::ShallowCapsConfig::experiment(), rng);
    scale_params(*net, 3.0f);
    for (const std::int64_t batch : {2, 3}) {
      const tensor::Tensor images =
          tensor::Tensor::uniform({batch, 1, 28, 28}, rng, 0.0f, 1.0f);
      run_family(*net, 3, images, 1000, 6, containers, gemm_widths);
    }
  }
  {
    common::Rng rng(402);
    auto net =
        models::build_deep_caps(models::DeepCapsConfig::experiment(28, 1), rng);
    scale_params(*net, 3.0f);
    for (const std::int64_t batch : {2, 3}) {
      const tensor::Tensor images =
          tensor::Tensor::uniform({batch, 1, 28, 28}, rng, 0.0f, 1.0f);
      run_family(*net, 6, images, 2000, 4, containers, gemm_widths);
    }
  }
  // The draws reach every container and both packed qgemm widths plus the
  // exact int64 path.
  for (const int bits : {8, 16, 32, 64})
    EXPECT_TRUE(containers.count(bits)) << "no int" << bits << " value";
  for (const int bits : {8, 16, 64})
    EXPECT_TRUE(gemm_widths.count(bits)) << "no " << bits << "-bit GEMM";
}

}  // namespace
}  // namespace qcaps::qengine
