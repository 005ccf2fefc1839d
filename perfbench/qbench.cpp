// qbench — the measuring program behind perfbench/run.py (see README.md).
//
//   qbench prepare --dir D
//       Untimed: train fp32 DeepCaps (synthetic CIFAR) and ShallowCaps
//       (synthetic digits), calibrate the frozen int8 specs, export .qcg.
//   qbench setup --dir D --workload W
//       Load what W's measuring process loads, warm up once, print @ready
//       and exit (run.py times spawn -> @ready to get setup_s).
//   qbench measure --dir D --workload W --seed N --seconds S --trace 0|1
//                  [--min-top1 P] [--trace-out FILE]
//       Set up as above, then measure W. Prints '#' log lines and, last, one
//       JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Every process runs a fixed 2-thread OpenMP team: main() re-executes itself
// with OMP_NUM_THREADS=2 whenever the inherited environment says otherwise.
#include <omp.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluator.hpp"
#include "core/framework.hpp"
#include "core/qgraph_evaluator.hpp"
#include "data/synth.hpp"
#include "io/model_serializer.hpp"
#include "models/deep_caps.hpp"
#include "models/shallow_caps.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"
#include "qengine/qgraph.hpp"
#include "serve/model_backend.hpp"
#include "serve/server.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/qgemm.hpp"
#include "tracer.hpp"

namespace {

using namespace qcaps;
using perfbench::Clock;
using perfbench::median;
using perfbench::ms_between;
using perfbench::quantile;
using perfbench::ScopedSpan;
using perfbench::Tracer;

constexpr int kThreads = 2;
constexpr std::int64_t kBatch = 16;          // deepcaps-* predict_batch size
constexpr std::int64_t kPoolImages = 256;    // seeded images per workload
constexpr std::int64_t kExtraTop1Images = 768;  // more seeded images for top-1
constexpr std::int64_t kServeMaxBatch = 8;
constexpr int kServeInFlight = 16;
constexpr double kWindowS = 0.5;             // throughput window
constexpr std::size_t kTailBlock = 100;      // operations per p90 block
constexpr std::uint64_t kWarmSeed = 977;     // warm-up images (setup only)

// qcapsnets-search: Algorithm 1 over the integer graph, RTN only.
constexpr std::int64_t kSearchEvalImages = 128;
constexpr double kSearchTolerance = 0.02;
constexpr double kSearchBudgetFrac = 0.25;
constexpr int kSearchInitFrac = 15;
constexpr std::uint64_t kSearchDataSeed = 2;

// The mixed per-layer RTN spec the Q-CapsNets search selects for the
// prepared DeepCaps (fractional widths qw/qa/qdr per unit L1, B2..B5, L6;
// qdr < 0 inherits qa). Frozen here so deepcaps-int8 does not drift with
// search outcomes; integer bits are calibrated at prepare time.
struct FrozenLayer {
  int qw, qa, qdr;
};
constexpr FrozenLayer kDeepCapsSpec[] = {
    {10, 5, -1}, {9, 3, -1}, {8, 3, -1}, {7, 3, -1}, {6, 3, 0}, {5, 3, 1}};

const char* const kUnits[] = {"L1", "B2", "B3", "B4", "B5", "L6"};
constexpr std::size_t kNumUnits = 6;

// ---------------------------------------------------------------------------
// Small utilities

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "qbench: %s\n", msg.c_str());
  std::exit(2);
}

struct Args {
  std::map<std::string, std::string> kv;
  std::string get(const std::string& k, const std::string& def = "") const {
    auto it = kv.find(k);
    return it == kv.end() ? def : it->second;
  }
  std::string need(const std::string& k) const {
    auto it = kv.find(k);
    if (it == kv.end()) die("missing --" + k);
    return it->second;
  }
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 2; i < argc; ++i) {
    std::string k = argv[i];
    if (k.rfind("--", 0) != 0 || i + 1 >= argc) die("bad argument " + k);
    a.kv[k.substr(2)] = argv[++i];
  }
  return a;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto pos = line.find(':');
      return pos == std::string::npos ? line : line.substr(pos + 2);
    }
  return "unknown";
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string host_stamp() {
  return "{\"cpu\": " + json_str(cpu_model()) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"omp_threads\": " + std::to_string(omp_get_max_threads()) +
         ", \"gemm_kernel\": " + json_str(tensor::gemm_kernel_name()) +
         ", \"qgemm_kernel\": " + json_str(tensor::qgemm_kernel_name()) + "}";
}

// Key/value metadata written by prepare and read by measure.
using Meta = std::map<std::string, std::string>;

void write_meta(const std::string& path, const Meta& meta) {
  std::ofstream out(path);
  for (const auto& [k, v] : meta) out << k << ' ' << v << '\n';
  if (!out) die("cannot write " + path);
}

Meta read_meta(const std::string& path) {
  std::ifstream in(path);
  if (!in) die("cannot read " + path + " (run prepare first)");
  Meta meta;
  std::string line;
  while (std::getline(in, line)) {
    const auto sp = line.find(' ');
    if (sp != std::string::npos) meta[line.substr(0, sp)] = line.substr(sp + 1);
  }
  return meta;
}

double meta_num(const Meta& m, const std::string& k) {
  auto it = m.find(k);
  if (it == m.end()) die("prepared metadata lacks " + k);
  return std::stod(it->second);
}

std::string spec_line(const core::LayerQuantSpec& l) {
  std::ostringstream os;
  os << l.qw_int << ' ' << l.qw_frac << ' ' << l.qa_int << ' ' << l.qa_frac
     << ' ' << l.qdr_int << ' ' << l.qdr_frac;
  return os.str();
}

core::NetworkQuantSpec read_spec(const Meta& m, const std::string& prefix,
                                 std::size_t layers) {
  core::NetworkQuantSpec spec;
  spec.scheme = fixed::RoundingScheme::kRoundToNearest;
  for (std::size_t i = 0; i < layers; ++i) {
    auto it = m.find(prefix + std::to_string(i));
    if (it == m.end()) die("prepared metadata lacks " + prefix + std::to_string(i));
    std::istringstream is(it->second);
    core::LayerQuantSpec l;
    is >> l.qw_int >> l.qw_frac >> l.qa_int >> l.qa_frac >> l.qdr_int >> l.qdr_frac;
    spec.layers.push_back(l);
  }
  return spec;
}

/// FNV-1a over every trained parameter and batch-norm statistic, folded to
/// 48 bits so it prints exactly as a JSON number.
double param_digest(nn::Network& net) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const tensor::Tensor* t) {
    const auto* p = reinterpret_cast<const unsigned char*>(t->data());
    for (std::size_t i = 0; i < static_cast<std::size_t>(t->numel()) * sizeof(float); ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  for (const tensor::Tensor* t : net.params()) mix(t);
  for (const tensor::Tensor* t : net.state()) mix(t);
  return static_cast<double>((h ^ (h >> 48)) & ((std::uint64_t{1} << 48) - 1));
}

std::vector<tensor::Tensor> make_batches(const data::Dataset& ds,
                                         std::int64_t batch) {
  std::vector<tensor::Tensor> out;
  for (std::int64_t b0 = 0; b0 + batch <= ds.size(); b0 += batch) {
    std::vector<std::int64_t> idx;
    for (std::int64_t i = b0; i < b0 + batch; ++i) idx.push_back(i);
    out.push_back(ds.batch(idx));
  }
  return out;
}

std::string dir_file(const std::string& dir, const char* name) {
  return (std::filesystem::path(dir) / name).string();
}

std::unique_ptr<nn::Network> load_deepcaps(const std::string& dir) {
  common::Rng rng(13);
  auto net = models::build_deep_caps(models::DeepCapsConfig::experiment(32, 3), rng);
  if (!nn::load_params(*net, dir_file(dir, "deepcaps_fp32.bin")))
    die("missing deepcaps_fp32.bin in " + dir);
  return net;
}

int count_correct(const std::vector<int>& pred, const std::vector<int>& labels,
                  std::size_t offset) {
  int c = 0;
  for (std::size_t i = 0; i < pred.size(); ++i)
    if (pred[i] == labels[offset + i]) ++c;
  return c;
}

// ---------------------------------------------------------------------------
// prepare

int cmd_prepare(const Args& args) {
  const std::string dir = args.need("dir");
  std::filesystem::create_directories(dir);
  Meta meta;

  // DeepCaps experiment(32, 3) on synthetic CIFAR.
  {
    data::SynthConfig dc;
    dc.train_size = 1500;
    dc.test_size = 384;
    dc.seed = 1;
    const data::DataSplit split = data::make_cifar_split(dc);
    common::Rng rng(13);
    auto net = models::build_deep_caps(models::DeepCapsConfig::experiment(32, 3), rng);
    nn::TrainConfig tc;
    tc.epochs = 4;
    tc.augment = data::AugmentPolicy::cifar10();
    tc.verbose = false;
    const auto tr = nn::train(*net, split.train, split.test, tc);
    nn::save_params(*net, dir_file(dir, "deepcaps_fp32.bin"));

    core::Evaluator calib(*net, split.test, 256);
    calib.evaluate_fp32();  // calibration ranges
    core::NetworkQuantSpec spec;
    spec.scheme = fixed::RoundingScheme::kRoundToNearest;
    for (const FrozenLayer& f : kDeepCapsSpec) {
      core::LayerQuantSpec l;
      l.qw_frac = f.qw;
      l.qa_frac = f.qa;
      l.qdr_frac = f.qdr;
      spec.layers.push_back(l);
    }
    calib.calibrate_spec(spec);
    const auto g = qengine::QuantizedGraph::compile(*net, spec);
    io::SaveOptions so;
    so.in_channels = 3;
    so.in_h = so.in_w = 32;
    io::save_graph(g, dir_file(dir, "deepcaps_int8.qcg"), so);
    int rescales = 0;
    for (const auto& op : g.ops()) rescales += op.kind == qengine::QOpKind::kRescale;

    meta["deepcaps.weight_reduction"] = num(calib.memory().weight_reduction(spec));
    meta["deepcaps.act_reduction"] = num(calib.memory().activation_reduction(spec));
    for (std::size_t i = 0; i < spec.layers.size(); ++i)
      meta["deepcaps.spec." + std::to_string(i)] = spec_line(spec.layers[i]);
    std::printf("# prepare deepcaps: fp32 top1 %.2f%%, spec %s, %d rescale nodes\n",
                100.0 * tr.test_accuracy, spec.to_string().c_str(), rescales);
  }

  // ShallowCaps experiment config on synthetic digits, uniform 8-bit RTN.
  {
    data::SynthConfig dc;
    dc.train_size = 2000;
    dc.test_size = 512;
    dc.seed = 1;
    const data::DataSplit split = data::make_digits_split(dc);
    common::Rng rng(11);
    auto net = models::build_shallow_caps(models::ShallowCapsConfig::experiment(), rng);
    nn::TrainConfig tc;
    tc.epochs = 3;
    tc.verbose = false;
    const auto tr = nn::train(*net, split.train, split.test, tc);

    core::Evaluator calib(*net, split.test, 256);
    calib.evaluate_fp32();
    auto spec = core::NetworkQuantSpec::uniform(
        net->weighted_layers().size(), 7, fixed::RoundingScheme::kRoundToNearest);
    calib.calibrate_spec(spec);
    for (auto& l : spec.layers) {  // 8-bit words after calibration
      l.qw_frac = 8 - l.qw_int;
      l.qa_frac = 8 - l.qa_int;
    }
    const auto g = qengine::QuantizedGraph::compile(*net, spec);
    io::SaveOptions so;
    so.in_channels = 1;
    so.in_h = so.in_w = 28;
    io::save_graph(g, dir_file(dir, "shallowcaps_int8.qcg"), so);
    meta["shallowcaps.weight_reduction"] = num(calib.memory().weight_reduction(spec));
    meta["shallowcaps.act_reduction"] = num(calib.memory().activation_reduction(spec));
    std::printf("# prepare shallowcaps: fp32 top1 %.2f%%, spec %s\n",
                100.0 * tr.test_accuracy, spec.to_string().c_str());
  }

  write_meta(dir_file(dir, "meta.txt"), meta);
  std::printf("# prepare done: %s\n", host_stamp().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Measurement plumbing

/// One workload's end-to-end outcome plus the per-layer numbers its traced
/// blocks produced.
struct Outcome {
  std::vector<double> op_ms;       // per timed operation
  std::vector<double> window_ips;  // images/s per throughput window
  double top1_pct = 0.0;
  double weight_reduction = 1.0;
  double act_reduction = 1.0;
  double rss_mb = 0.0;  // peak RSS when the timed part ends
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> layer;  // per-layer metrics (traced runs)

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
  double images_per_s() const { return median(window_ips); }
  /// p90 within each block of kTailBlock consecutive operations (10 beyond
  /// it), median over blocks: a stall from another tenant that covers a few
  /// blocks barely moves it, while a slower tail in every block moves it
  /// fully. Runs with fewer than two blocks take the plain p90.
  double latency_p90_ms() const {
    if (op_ms.size() < 2 * kTailBlock) return quantile(op_ms, 0.9);
    std::vector<double> p90;
    for (auto it = op_ms.begin(); op_ms.end() - it >= static_cast<std::ptrdiff_t>(kTailBlock);
         it += kTailBlock)
      p90.push_back(quantile({it, it + kTailBlock}, 0.9));
    return median(p90);
  }
};

/// Counts images per fixed wall window; the median window rate is robust to
/// short stalls caused by other tenants of the host.
class WindowMeter {
 public:
  explicit WindowMeter(std::vector<double>* out) : out_(out), t0_(Clock::now()) {}
  void add(std::int64_t images) {
    n_ += images;
    const auto now = Clock::now();
    const double s = ms_between(t0_, now) / 1e3;
    if (s >= kWindowS) {
      out_->push_back(static_cast<double>(n_) / s);
      n_ = 0;
      t0_ = now;
    }
  }

 private:
  std::vector<double>* out_;
  Clock::time_point t0_;
  std::int64_t n_ = 0;
};

// ---- deepcaps-int8 / deepcaps-fp32 ----------------------------------------

using Predictor = std::function<std::vector<int>(const tensor::Tensor&)>;

/// Cycle predict over `batches` for `seconds`. Every call on a batch must
/// reproduce that batch's first predictions exactly.
void run_batches(const Predictor& predict, const std::vector<tensor::Tensor>& batches,
                 double seconds, Tracer* tracer, const char* call_name,
                 std::vector<std::vector<int>>& first, Outcome& out) {
  WindowMeter meter(&out.window_ips);
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  for (std::size_t k = 0; Clock::now() < end; ++k) {
    const std::size_t b = k % batches.size();
    ScopedSpan op(tracer, "bench.batch", -1, k);
    const auto t0 = Clock::now();
    std::vector<int> pred;
    bool ok = true;
    try {
      ScopedSpan call(tracer, call_name, op.index(), k);
      pred = predict(batches[b]);
    } catch (const std::exception&) {
      ok = false;
    }
    out.op_ms.push_back(ms_between(t0, Clock::now()));
    if (ok && first[b].empty()) first[b] = pred;
    out.check(ok && pred == first[b], "predict_batch call " + std::to_string(k));
    meter.add(batches[b].dim(0));
  }
}

/// Shared measurement of deepcaps-int8 and deepcaps-fp32: timed loop (or, traced,
/// alternating untraced / traced one-second blocks), then correctness.
Outcome measure_batched(const Predictor& predict, const char* call_name, std::uint64_t seed,
                        double seconds, Tracer* tracer, double min_top1) {
  const data::Dataset ds = data::make_synth_cifar(kPoolImages, seed);
  const auto batches = make_batches(ds, kBatch);
  std::vector<std::vector<int>> first(batches.size());
  Outcome out;
  if (tracer == nullptr) {
    run_batches(predict, batches, seconds, nullptr, call_name, first, out);
  } else {
    Outcome plain, traced;
    for (int blk = 0; blk < static_cast<int>(seconds); ++blk)
      run_batches(predict, batches, 1.0, blk % 2 ? tracer : nullptr, call_name, first,
                  blk % 2 ? traced : plain);
    out = plain;
    out.attempted += traced.attempted;
    out.failed += traced.failed;
    out.layer["trace.overhead_pct"] =
        100.0 * (plain.images_per_s() - traced.images_per_s()) / plain.images_per_s();
  }
  out.rss_mb = peak_rss_mb();
  // Top-1 over the seeded pool plus kExtraTop1Images more seeded images,
  // generated and classified in small chunks after timing.
  int correct = 0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    if (first[b].empty()) first[b] = predict(batches[b]);
    correct += count_correct(first[b], ds.labels, b * kBatch);
  }
  for (std::int64_t k = 0; k < kExtraTop1Images / kPoolImages; ++k) {
    const data::Dataset extra = data::make_synth_cifar(kPoolImages, seed * 100 + 1 + k);
    const auto extra_batches = make_batches(extra, kBatch);
    for (std::size_t b = 0; b < extra_batches.size(); ++b)
      correct += count_correct(predict(extra_batches[b]), extra.labels, b * kBatch);
  }
  out.top1_pct = 100.0 * correct / static_cast<double>(kPoolImages + kExtraTop1Images);
  out.check(out.top1_pct >= min_top1, "top-1 " + num(out.top1_pct) + "% below floor " +
                                          num(min_top1) + "%");
  // Batched predictions equal per-image predictions on the first batch.
  bool same = true;
  for (std::int64_t i = 0; i < kBatch; ++i)
    same = same && predict(ds.image(i)).at(0) == first[0][static_cast<std::size_t>(i)];
  out.check(same, "batched != per-image predictions");
  return out;
}

// ---- shallowcaps-int8-serve ---------------------------------------------

/// Benchmark-side ModelBackend decorator: times every predict_batch the
/// worker makes (span "serve.backend") and keeps batch sizes in order so
/// request sequence numbers map back to their batch.
class TimedBackend final : public serve::ModelBackend {
 public:
  struct BatchRec {
    std::int64_t start_ns, end_ns, size;
  };
  TimedBackend(std::unique_ptr<serve::ModelBackend> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}
  const std::string& name() const override { return inner_->name(); }
  std::vector<serve::Prediction> predict_batch(const tensor::Tensor& images) override {
    const std::int64_t t0 = tracer_->now_ns();
    auto out = inner_->predict_batch(images);
    const std::int64_t t1 = tracer_->now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    const auto id = static_cast<std::uint64_t>(batches_.size());
    batches_.push_back({t0, t1, images.dim(0)});
    tracer_->add("serve.backend", t0, t1, -1, id);
    return out;
  }
  std::unique_ptr<serve::ModelBackend> clone() const override {
    return std::make_unique<TimedBackend>(inner_->clone(), tracer_);
  }
  std::vector<BatchRec> batches() const {
    std::lock_guard<std::mutex> lock(mu_);
    return batches_;
  }

 private:
  std::unique_ptr<serve::ModelBackend> inner_;
  Tracer* tracer_;
  mutable std::mutex mu_;
  std::vector<BatchRec> batches_;
};

serve::ServerConfig serve_config() {
  serve::ServerConfig cfg;
  cfg.num_workers = 1;
  cfg.intra_op_threads = kThreads;
  cfg.max_batch = kServeMaxBatch;
  return cfg;
}

struct RequestRec {
  std::int64_t submit_ns, done_ns;
  std::uint64_t sequence;
};

/// Closed loop from one submitter (this thread): kServeInFlight requests
/// outstanding, the next submitted as soon as the oldest resolves.
void serve_loop(serve::InferenceServer& srv, const std::vector<tensor::Tensor>& images,
                double seconds,
                Tracer& clock, std::vector<RequestRec>* recs,
                std::vector<int>& answers, Outcome& out) {
  struct InFlight {
    std::future<serve::InferenceResult> fut;
    Clock::time_point t0;
    std::size_t image;
  };
  std::deque<InFlight> q;
  std::size_t next = 0;
  WindowMeter meter(&out.window_ips);
  auto submit = [&] {
    const std::size_t i = next++ % images.size();
    q.push_back({srv.submit("shallowcaps", images[i]), Clock::now(), i});
  };
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  for (int i = 0; i < kServeInFlight; ++i) submit();
  while (!q.empty()) {
    InFlight f = std::move(q.front());
    q.pop_front();
    bool ok = true;
    serve::InferenceResult r;
    try {
      r = f.fut.get();
    } catch (const std::exception&) {
      ok = false;
    }
    const auto t1 = Clock::now();
    out.op_ms.push_back(ms_between(f.t0, t1));
    ok = ok && r.prediction.label >= 0;
    if (ok) {
      int& a = answers[f.image];
      ok = a < 0 || a == r.prediction.label;  // same image, same answer
      a = r.prediction.label;
      if (recs != nullptr) recs->push_back({clock.to_ns(f.t0), clock.to_ns(t1), r.sequence});
    }
    out.check(ok, "request for image " + std::to_string(f.image));
    meter.add(1);
    if (t1 < end) submit();
  }
}

// ---- qcapsnets-search -----------------------------------------------------

/// EvaluatorBase decorator handed to run_qcapsnets: times every accuracy
/// query (span "core.evaluate") and mirrors the inner evaluation count.
class TimedEvaluator final : public core::EvaluatorBase {
 public:
  TimedEvaluator(core::EvaluatorBase& inner, Tracer* tracer, int parent, std::uint64_t id)
      : inner_(inner), tracer_(tracer), parent_(parent), id_(id) {}
  float evaluate(const core::NetworkQuantSpec& spec) override {
    return timed([&] { return inner_.evaluate(spec); });
  }
  float evaluate_bounded(const core::NetworkQuantSpec& spec, float floor) override {
    return timed([&] { return inner_.evaluate_bounded(spec, floor); });
  }
  float evaluate_fp32() override {
    return timed([&] { return inner_.evaluate_fp32(); });
  }
  void calibrate_spec(core::NetworkQuantSpec& spec) const override {
    inner_.calibrate_spec(spec);
  }
  const core::MemoryModel& memory() const override { return inner_.memory(); }
  const std::vector<double>& call_ms() const { return call_ms_; }

 private:
  template <typename F>
  float timed(F&& f) {
    ScopedSpan span(tracer_, "core.evaluate", parent_, id_);
    const auto t0 = Clock::now();
    const float acc = f();
    call_ms_.push_back(ms_between(t0, Clock::now()));
    evals_ = inner_.num_evaluations();
    return acc;
  }
  core::EvaluatorBase& inner_;
  Tracer* tracer_;
  int parent_;
  std::uint64_t id_;
  std::vector<double> call_ms_;
};

const core::QuantizedModel* selected_model(const core::FrameworkResult& r) {
  if (r.model_satisfied) return &*r.model_satisfied;
  if (r.model_accuracy) return &*r.model_accuracy;
  if (r.model_memory) return &*r.model_memory;
  return nullptr;
}

struct SearchStats {
  std::vector<double> evaluations, compiled, memo_hits, truncated, fallbacks,
      wc_ratio, eval_ms, self_s, acc_loss_pp, sel_top1, wred, ared;
};

/// The fixed search eval subset, shuffled by `order_seed`.
data::Dataset search_subset(std::uint64_t order_seed) {
  const data::Dataset base = data::make_synth_cifar(kSearchEvalImages, kSearchDataSeed);
  std::vector<std::int64_t> idx(static_cast<std::size_t>(base.size()));
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<std::int64_t>(i);
  common::Rng rng(order_seed);
  for (std::size_t i = idx.size(); i > 1; --i)
    std::swap(idx[i - 1], idx[rng.uniform_index(i)]);
  data::Dataset out = base;
  out.images = base.batch(idx);
  for (std::size_t i = 0; i < idx.size(); ++i)
    out.labels[i] = base.labels[static_cast<std::size_t>(idx[i])];
  return out;
}

/// One full Algorithm 1 search with a fresh evaluator over `eval`.
void run_search(nn::Network& net, const data::Dataset& eval, std::uint64_t id,
                Tracer* tracer, SearchStats& st, Outcome& out) {
  ScopedSpan span(tracer, "core.search", -1, id);
  const auto t0 = Clock::now();
  core::QGraphEvalConfig qcfg;
  qcfg.eval_batch = 64;
  core::QGraphEvaluator qev(net, eval, kSearchEvalImages, 64, qcfg);
  TimedEvaluator tev(qev, tracer, span.index(), id);
  core::FrameworkConfig fcfg;
  fcfg.acc_tolerance = kSearchTolerance;
  fcfg.schemes = {fixed::RoundingScheme::kRoundToNearest};
  fcfg.eval_samples = kSearchEvalImages;
  fcfg.init_frac = kSearchInitFrac;
  fcfg.verbose = false;
  // Budget relative to the fp32 weight memory; memory() needs a forward,
  // which the evaluator's constructor has made.
  const double fp32_bits = static_cast<double>(tev.memory().weight_bits_fp32());
  fcfg.memory_budget_bits = static_cast<std::int64_t>(kSearchBudgetFrac * fp32_bits);
  core::FrameworkResult res;
  bool ran = true;
  try {
    res = core::run_qcapsnets(tev, fcfg);
  } catch (const std::exception& e) {
    ran = false;
    out.failures.push_back(std::string("search threw: ") + e.what());
  }
  const double wall_ms = ms_between(t0, Clock::now());
  net.clear_quantization();
  out.op_ms.push_back(wall_ms);
  const core::QuantizedModel* sel = ran ? selected_model(res) : nullptr;
  const bool ok = sel != nullptr && res.feasible && sel->feasible &&
                  sel->weight_bits <= fcfg.memory_budget_bits &&
                  sel->accuracy >= res.acc_target;
  out.check(ok, "search " + std::to_string(id) + " infeasible / over budget / below tolerance");
  const double evals = static_cast<double>(qev.num_evaluations());
  out.window_ips.push_back(evals * kSearchEvalImages / (wall_ms / 1e3));
  if (sel != nullptr) {
    st.wred.push_back(sel->weight_reduction);
    st.ared.push_back(sel->activation_reduction);
    st.acc_loss_pp.push_back(100.0 * (res.acc_fp32 - sel->accuracy));
    st.sel_top1.push_back(100.0 * sel->accuracy);
  }
  double eval_total = 0.0;
  for (double v : tev.call_ms()) {
    eval_total += v;
    st.eval_ms.push_back(v);
  }
  st.evaluations.push_back(evals);
  st.compiled.push_back(static_cast<double>(qev.graphs_compiled()));
  st.memo_hits.push_back(static_cast<double>(qev.memo_hits()));
  st.truncated.push_back(static_cast<double>(qev.truncated_evals()));
  st.fallbacks.push_back(static_cast<double>(qev.fake_quant_fallbacks()));
  const double hits = static_cast<double>(qev.weight_cache().hits());
  const double entries = static_cast<double>(qev.weight_cache().size());
  st.wc_ratio.push_back(hits + entries > 0 ? hits / (hits + entries) : 0.0);
  st.self_s.push_back((wall_ms - eval_total) / 1e3);
  std::printf("# search %llu: %.0f ms, %.0f evaluations, %.0f compiled, %.0f memo hits, "
              "W %.3fx A %.3fx, acc %.2f%% (fp32 %.2f%%), spec %s\n",
              static_cast<unsigned long long>(id), wall_ms, evals, st.compiled.back(),
              st.memo_hits.back(), sel ? sel->weight_reduction : 0.0,
              sel ? sel->activation_reduction : 0.0, sel ? 100.0 * sel->accuracy : 0.0,
              100.0 * res.acc_fp32, sel ? sel->spec.to_string().c_str() : "-");
}

// ---------------------------------------------------------------------------
// Workloads

enum class Workload { kInt8, kFp32, kServe, kSearch };

Workload parse_workload(const std::string& w) {
  if (w == "deepcaps-int8") return Workload::kInt8;
  if (w == "deepcaps-fp32") return Workload::kFp32;
  if (w == "shallowcaps-int8-serve") return Workload::kServe;
  if (w == "qcapsnets-search") return Workload::kSearch;
  die("unknown workload " + w);
}

/// What a measuring process loads before its first timed operation.
struct Loaded {
  std::string dir;
  Meta meta;
  qengine::QuantizedGraph graph;          // deepcaps-int8
  std::unique_ptr<nn::Network> net;       // deepcaps-fp32, qcapsnets-search
  std::unique_ptr<serve::InferenceServer> server;
  TimedBackend* timed = nullptr;          // serve, traced runs only
};

void setup(Workload w, Loaded& L, Tracer* tracer) {
  L.meta = read_meta(dir_file(L.dir, "meta.txt"));
  const data::Dataset warm = w == Workload::kServe ? data::make_synth_digits(kServeInFlight, kWarmSeed)
                                                   : data::make_synth_cifar(kBatch, kWarmSeed);
  switch (w) {
    case Workload::kInt8:
      L.graph = io::load_graph(dir_file(L.dir, "deepcaps_int8.qcg"));
      L.graph.predict_batch(warm.images);
      break;
    case Workload::kFp32:
      L.net = load_deepcaps(L.dir);
      L.net->predict_batch(warm.images);
      break;
    case Workload::kSearch:
      L.net = load_deepcaps(L.dir);
      break;
    case Workload::kServe: {
      L.server = std::make_unique<serve::InferenceServer>();
      const std::string qcg = dir_file(L.dir, "shallowcaps_int8.qcg");
      if (tracer == nullptr) {
        L.server->add_model("shallowcaps", qcg, serve_config());
      } else {
        auto timed = std::make_unique<TimedBackend>(
            std::make_unique<serve::QuantizedBackend>("shallowcaps", io::load_graph(qcg)),
            tracer);
        L.timed = timed.get();
        L.server->add_model("shallowcaps", std::move(timed), serve_config());
      }
      std::vector<std::future<serve::InferenceResult>> fs;
      for (std::int64_t i = 0; i < warm.size(); ++i)
        fs.push_back(L.server->submit("shallowcaps", warm.image(i)));
      for (auto& f : fs) f.get();
      break;
    }
  }
}

/// Serve measurement; traced runs alternate untraced / traced blocks and
/// derive serve.* layer metrics from the decorator's batch records.
Outcome measure_serve(Loaded& L, std::uint64_t seed, double seconds, Tracer* tracer,
                      double min_top1) {
  const data::Dataset ds = data::make_synth_digits(kPoolImages, seed);
  std::vector<tensor::Tensor> images;
  for (std::int64_t i = 0; i < ds.size(); ++i) images.push_back(ds.image(i));
  std::vector<int> answers(images.size(), -1);
  Outcome out;
  Tracer untimed(false);
  if (tracer == nullptr) {
    serve_loop(*L.server, images, seconds, untimed, nullptr, answers, out);
  } else {
    Outcome plain, traced;
    std::vector<RequestRec> recs;
    for (int blk = 0; blk < static_cast<int>(seconds); ++blk) {
      tracer->set_enabled(blk % 2 == 1);
      serve_loop(*L.server, images, 1.0, *tracer, blk % 2 ? &recs : nullptr, answers,
                 blk % 2 ? traced : plain);
    }
    tracer->set_enabled(true);
    out = plain;
    out.attempted += traced.attempted;
    out.failed += traced.failed;
    out.layer["trace.overhead_pct"] =
        100.0 * (plain.images_per_s() - traced.images_per_s()) / plain.images_per_s();
    // Map each traced request to its batch via FIFO sequence numbers.
    const auto batches = L.timed->batches();
    std::vector<std::int64_t> first_seq(batches.size() + 1, 0);
    for (std::size_t b = 0; b < batches.size(); ++b)
      first_seq[b + 1] = first_seq[b] + batches[b].size;
    std::vector<double> backend_ms, wait_ms;
    for (const auto& b : batches) backend_ms.push_back((b.end_ns - b.start_ns) / 1e6);
    for (const RequestRec& r : recs) {
      const auto it = std::upper_bound(first_seq.begin(), first_seq.end(),
                                       static_cast<std::int64_t>(r.sequence));
      const std::size_t b = static_cast<std::size_t>(it - first_seq.begin()) - 1;
      if (b >= batches.size()) continue;
      const int req = tracer->add("serve.request", r.submit_ns, r.done_ns, -1, r.sequence);
      tracer->add("serve.compute", batches[b].start_ns, batches[b].end_ns, req, r.sequence);
      wait_ms.push_back((r.done_ns - r.submit_ns) / 1e6 - backend_ms[b]);
    }
    out.layer["serve.backend_ms_p50"] = median(backend_ms);
    out.layer["serve.queue_wait_ms_p50"] = median(wait_ms);
  }
  out.rss_mb = peak_rss_mb();
  const serve::ModelStats stats = L.server->stats("shallowcaps");
  if (tracer != nullptr) {
    out.layer["serve.mean_batch"] = stats.mean_batch;
    out.layer["serve.failed"] =
        static_cast<double>(stats.shed + stats.expired + stats.worker_restarts + out.failed);
  }
  int correct = 0, answered = 0;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    answered += answers[i] >= 0;
    correct += answers[i] == ds.labels[i];
  }
  out.check(stats.shed + stats.expired + stats.worker_restarts == 0,
            "server shed, expired or restarted requests");
  out.top1_pct = 100.0 * correct / std::max(answered, 1);
  out.check(out.top1_pct >= min_top1, "served top-1 " + num(out.top1_pct) + "% below floor");
  out.weight_reduction = meta_num(L.meta, "shallowcaps.weight_reduction");
  out.act_reduction = meta_num(L.meta, "shallowcaps.act_reduction");
  return out;
}

Outcome measure_search(Loaded& L, std::uint64_t seed, double seconds, Tracer* tracer,
                       SearchStats& st) {
  Outcome out, traced;
  const auto t_start = Clock::now();
  // Every search scores the same fixed eval subset, in an order drawn from
  // the run seed: verdicts are order-independent, so the search path is the
  // same on every seed while the early-exit points move.
  for (std::uint64_t i = 0;; ++i) {
    const bool on = tracer != nullptr && i % 2 == 1;
    run_search(*L.net, search_subset(seed * 1000 + i), i, on ? tracer : nullptr, st,
               on ? traced : out);
    if (ms_between(t_start, Clock::now()) / 1e3 >= seconds && i >= (tracer ? 3u : 1u)) break;
  }
  if (tracer != nullptr) {
    out.layer["trace.overhead_pct"] =
        100.0 * (out.images_per_s() - traced.images_per_s()) / out.images_per_s();
    out.attempted += traced.attempted;
    out.failed += traced.failed;
    for (auto& f : traced.failures) out.failures.push_back(f);
  }
  out.rss_mb = peak_rss_mb();
  out.top1_pct = median(st.sel_top1);
  out.weight_reduction = median(st.wred);
  out.act_reduction = median(st.ared);
  return out;
}

// ---------------------------------------------------------------------------
// Per-layer probes (traced runs): each times the benchmark's own calls into
// one layer's public functions.

template <typename F>
double median_ms(int reps, F&& f) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    f();
    t.push_back(ms_between(t0, Clock::now()));
  }
  return median(t);
}

/// tensor::qgemm and tensor::gemm at the B2 entry conv's GEMM shape for one
/// batch: M = output channels, K = input channels x kernel^2, N = output
/// pixels x batch.
void probe_tensor(std::map<std::string, double>& m) {
  const auto cfg = models::DeepCapsConfig::experiment(32, 3);
  const std::int64_t M = cfg.block_types * cfg.block_dims[0];
  const std::int64_t K = cfg.conv_channels * cfg.kernel * cfg.kernel;
  const std::int64_t grid = (cfg.in_size - 1) / 2 + 1;
  const std::int64_t N = grid * grid * kBatch;
  common::Rng rng(5);
  std::vector<std::int8_t> qa(static_cast<std::size_t>(M * K)), qb(static_cast<std::size_t>(K * N));
  for (auto& v : qa) v = static_cast<std::int8_t>(static_cast<int>(rng.uniform_index(256)) - 128);
  for (auto& v : qb) v = static_cast<std::int8_t>(static_cast<int>(rng.uniform_index(256)) - 128);
  std::vector<std::int32_t> qc(static_cast<std::size_t>(M * N));
  tensor::QGemmRequant rq;
  rq.shift = 8;
  rq.qmin = -128;
  rq.qmax = 127;
  const double macs = static_cast<double>(M * N * K);
  const double tq = median_ms(25, [&] {
    tensor::qgemm(tensor::Trans::kN, tensor::Trans::kN, M, N, K, qa.data(), K, qb.data(), N,
                  qc.data(), N, rq);
  });
  const tensor::Tensor fa = tensor::Tensor::randn({M, K}, rng);
  const tensor::Tensor fb = tensor::Tensor::randn({K, N}, rng);
  tensor::Tensor fc({M, N});
  const double tf = median_ms(25, [&] { tensor::gemm(fa.data(), fb.data(), fc.data(), M, K, N, false); });
  m["tensor.qgemm_gmacs"] = macs / (tq * 1e6);
  m["tensor.gemm_gmacs"] = macs / (tf * 1e6);
}

/// Unit (L1, B2..B5, L6) of a layer or graph-node source name.
std::size_t unit_of(const std::string& source) {
  if (source.rfind("L1", 0) == 0) return 0;
  if (source.size() >= 2 && source[0] == 'B' && source[1] >= '2' && source[1] <= '5')
    return static_cast<std::size_t>(source[1] - '1');
  return 5;
}

struct UnitTable {
  double int8_ms[kNumUnits] = {}, int8_bytes[kNumUnits] = {}, fp32_ms[kNumUnits] = {};
};

/// qengine: whole-graph forward, and per-unit times by differencing the
/// forwards of prefix graphs cut at unit boundaries (from_ops + fuse).
void probe_qengine_units(const qengine::QuantizedGraph& g, const tensor::Tensor& x,
                         std::map<std::string, double>& m, UnitTable& tab, Outcome& out) {
  const auto& ops = g.ops();
  std::size_t ends[kNumUnits] = {};
  std::size_t prev = 0;
  bool monotone = true;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::size_t u = unit_of(ops[i].source);
    monotone = monotone && u >= prev;
    prev = u;
    ends[u] = i + 1;
  }
  for (std::size_t u = 0; u < kNumUnits; ++u) monotone = monotone && ends[u] > 0;
  out.check(monotone, "graph nodes are not grouped by unit L1, B2..B5, L6");
  if (!monotone) return;
  std::vector<qengine::QuantizedGraph> prefix;
  for (std::size_t u = 0; u < kNumUnits; ++u) {
    std::vector<qengine::QuantizedOp> cut(ops.begin(),
                                          ops.begin() + static_cast<std::ptrdiff_t>(ends[u]));
    auto p = qengine::QuantizedGraph::from_ops(std::move(cut), g.input_format(), false);
    if (qengine::QuantizedGraph::fuse_enabled()) p.fuse();
    const qengine::QTensor y = p.forward(x);
    tab.int8_bytes[u] = static_cast<double>(y.raw.size() * sizeof(y.raw[0]));
    prefix.push_back(std::move(p));
  }
  std::vector<std::vector<double>> t(kNumUnits);
  for (int rep = 0; rep < 15; ++rep)
    for (std::size_t u = 0; u < kNumUnits; ++u) {
      const auto t0 = Clock::now();
      prefix[u].forward(x);
      t[u].push_back(ms_between(t0, Clock::now()));
    }
  double before = 0.0;
  for (std::size_t u = 0; u < kNumUnits; ++u) {
    const double cum = median(t[u]);
    tab.int8_ms[u] = cum - before;
    before = cum;
    m[std::string("qengine.unit_ms.") + kUnits[u]] = tab.int8_ms[u];
    m[std::string("qengine.unit_bytes.") + kUnits[u]] = tab.int8_bytes[u];
  }
  m["qengine.forward_ms"] = median_ms(15, [&] { g.forward(x); });
}

/// nn: whole-network forward and per-unit times from timing each
/// Network::layer(i).forward in sequence.
void probe_nn_units(nn::Network& net, const tensor::Tensor& x, std::map<std::string, double>& m,
                    UnitTable& tab) {
  std::vector<std::vector<double>> t(kNumUnits);
  for (int rep = 0; rep < 15; ++rep) {
    double acc[kNumUnits] = {};
    tensor::Tensor h = x;
    for (std::size_t i = 0; i < net.num_layers(); ++i) {
      const auto t0 = Clock::now();
      h = net.layer(i).forward(h, nn::Phase::kEval);
      acc[unit_of(net.layer(i).name())] += ms_between(t0, Clock::now());
    }
    for (std::size_t u = 0; u < kNumUnits; ++u) t[u].push_back(acc[u]);
  }
  for (std::size_t u = 0; u < kNumUnits; ++u) {
    tab.fp32_ms[u] = median(t[u]);
    m[std::string("nn.unit_ms.") + kUnits[u]] = tab.fp32_ms[u];
  }
  m["nn.forward_ms"] = median_ms(15, [&] { net.forward(x, nn::Phase::kEval); });
}

/// Every per-layer probe not already produced by the workload's own traced
/// blocks. Serving and search sections run briefly when the workload is
/// another one.
void run_probes(Workload w, Loaded& L, std::uint64_t seed, Tracer& tracer, Outcome& out,
                SearchStats& st) {
  auto& m = out.layer;
  probe_tensor(m);

  const std::string deep_qcg = dir_file(L.dir, "deepcaps_int8.qcg");
  m["io.load_graph_ms"] = median_ms(15, [&] { io::load_graph(deep_qcg); });
  const qengine::QuantizedGraph g = io::load_graph(deep_qcg);
  auto net = load_deepcaps(L.dir);
  const data::Dataset ds = data::make_synth_cifar(kPoolImages, seed);
  const auto batches = make_batches(ds, kBatch);
  UnitTable tab;
  probe_qengine_units(g, batches[0], m, tab, out);
  probe_nn_units(*net, batches[0], m, tab);

  const qengine::QuantizedGraph sg = io::load_graph(dir_file(L.dir, "shallowcaps_int8.qcg"));
  const data::Dataset digits = data::make_synth_digits(kServeMaxBatch, seed);
  m["qengine.forward_ms_b8"] = median_ms(25, [&] { sg.forward(digits.images); });

  const auto spec = read_spec(L.meta, "deepcaps.spec.", kNumUnits);
  m["qengine.compile_ms"] = median_ms(5, [&] {
    qengine::QuantizedGraph::compile(*net, spec, nullptr, false);
  });
  qengine::QGraphWeightCache cache;
  qengine::QuantizedGraph::compile(*net, spec, &cache, false);
  m["qengine.compile_ms_warm"] = median_ms(5, [&] {
    qengine::QuantizedGraph::compile(*net, spec, &cache, false);
  });

  int fp32_ok = 0, int8_ok = 0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    fp32_ok += count_correct(net->predict_batch(batches[b]), ds.labels, b * kBatch);
    int8_ok += count_correct(g.predict_batch(batches[b]), ds.labels, b * kBatch);
  }
  m["qengine.acc_loss_pp"] = 100.0 * (fp32_ok - int8_ok) / static_cast<double>(ds.size());

  for (int t : {1, 2, 4}) {
    omp_set_num_threads(t);
    m["qengine.forward_ms_t" + std::to_string(t)] = median_ms(9, [&] { g.forward(batches[0]); });
    m["nn.forward_ms_t" + std::to_string(t)] =
        median_ms(9, [&] { net->forward(batches[0], nn::Phase::kEval); });
  }
  omp_set_num_threads(kThreads);

  if (w != Workload::kServe) {
    Loaded S;
    S.dir = L.dir;
    setup(Workload::kServe, S, &tracer);
    Outcome so = measure_serve(S, seed, 2.0, &tracer, 0.0);
    for (const char* k : {"serve.backend_ms_p50", "serve.queue_wait_ms_p50", "serve.mean_batch",
                          "serve.failed"})
      m[k] = so.layer[k];
  }
  if (w != Workload::kSearch) {
    Outcome so;
    run_search(*net, search_subset(seed * 1000), 0, &tracer, st, so);
  }
  m["core.evaluations"] = median(st.evaluations);
  m["core.graphs_compiled"] = median(st.compiled);
  m["core.memo_hits"] = median(st.memo_hits);
  m["core.truncated_evals"] = median(st.truncated);
  m["core.fake_quant_fallbacks"] = median(st.fallbacks);
  m["core.weight_cache_hit_ratio"] = median(st.wc_ratio);
  m["core.eval_ms_p50"] = median(st.eval_ms);
  m["core.search_self_s"] = median(st.self_s);
  m["core.acc_loss_pp"] = median(st.acc_loss_pp);
  m["core.param_digest"] = param_digest(*net);

  std::printf("# unit  int8_ms  int8_bytes(b%lld)  fp32_ms\n", static_cast<long long>(kBatch));
  for (std::size_t u = 0; u < kNumUnits; ++u)
    std::printf("# %-4s %8.3f %12.0f %8.3f\n", kUnits[u], tab.int8_ms[u], tab.int8_bytes[u],
                tab.fp32_ms[u]);
}

void write_trace(const std::string& path, const std::string& workload, std::uint64_t seed,
                 const Tracer& tracer) {
  const auto spans = tracer.spans();
  const auto self = perfbench::self_times(spans);
  std::printf("# span                      count   total_ms    self_ms\n");
  for (const auto& [name, s] : self)
    std::printf("# %-24s %6lld %10.2f %10.2f\n", name.c_str(), static_cast<long long>(s.count),
                s.total_ms, s.self_ms);
  if (path.empty()) return;
  std::ofstream f(path);
  f << "{\"workload\": " << json_str(workload) << ", \"seed\": " << seed
    << ", \"host\": " << host_stamp() << ",\n \"self_times\": {";
  bool firstk = true;
  for (const auto& [name, s] : self) {
    f << (firstk ? "" : ", ") << json_str(name) << ": {\"count\": " << s.count
      << ", \"total_ms\": " << num(s.total_ms) << ", \"self_ms\": " << num(s.self_ms) << "}";
    firstk = false;
  }
  f << "},\n \"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i)
    f << (i ? ",\n  " : "\n  ") << "[" << json_str(spans[i].name) << ", " << spans[i].start_ns
      << ", " << spans[i].end_ns << ", " << spans[i].parent << ", " << spans[i].id << "]";
  f << "]}\n";
}

// ---------------------------------------------------------------------------
// Commands

int cmd_setup(const Args& args) {
  Loaded L;
  L.dir = args.need("dir");
  setup(parse_workload(args.need("workload")), L, nullptr);
  std::printf("@ready\n");
  std::fflush(stdout);
  return 0;
}

int cmd_measure(const Args& args) {
  const std::string wname = args.need("workload");
  const Workload w = parse_workload(wname);
  const std::uint64_t seed = std::stoull(args.need("seed"));
  const double seconds = std::stod(args.need("seconds"));
  const bool trace = args.get("trace", "0") == "1";
  const double min_top1 = std::stod(args.get("min-top1", "0"));
  Tracer tracer(trace);
  Loaded L;
  L.dir = args.need("dir");
  setup(w, L, trace ? &tracer : nullptr);
  std::printf("@ready\n");
  std::printf("# host %s\n", host_stamp().c_str());
  std::fflush(stdout);

  Tracer* tr = trace ? &tracer : nullptr;
  Outcome out;
  SearchStats st;
  switch (w) {
    case Workload::kInt8: {
      const Predictor p = [&](const tensor::Tensor& x) { return L.graph.predict_batch(x); };
      out = measure_batched(p, "qengine.predict_batch", seed, seconds, tr, min_top1);
      out.weight_reduction = meta_num(L.meta, "deepcaps.weight_reduction");
      out.act_reduction = meta_num(L.meta, "deepcaps.act_reduction");
      break;
    }
    case Workload::kFp32: {
      const Predictor p = [&](const tensor::Tensor& x) { return L.net->predict_batch(x); };
      out = measure_batched(p, "nn.predict_batch", seed, seconds, tr, min_top1);
      break;
    }
    case Workload::kServe:
      out = measure_serve(L, seed, seconds, tr, min_top1);
      break;
    case Workload::kSearch:
      out = measure_search(L, seed, seconds, tr, st);
      std::printf("# search param digest %.0f\n", param_digest(*L.net));
      break;
  }
  std::map<std::string, double> metrics;
  if (trace) {
    run_probes(w, L, seed, tracer, out, st);
    write_trace(args.get("trace-out"), wname, seed, tracer);
    metrics = out.layer;
  } else {
    metrics["images_per_s"] = out.images_per_s();
    metrics["latency_p50_ms"] = quantile(out.op_ms, 0.5);
    metrics["latency_p90_ms"] = out.latency_p90_ms();
    metrics["peak_rss_mb"] = out.rss_mb;
    metrics["ok_share"] = 1.0 - static_cast<double>(out.failed) /
                                    static_cast<double>(std::max<std::int64_t>(out.attempted, 1));
    metrics["top1_pct"] = out.top1_pct;
    metrics["weight_mem_reduction_x"] = out.weight_reduction;
    metrics["act_mem_reduction_x"] = out.act_reduction;
  }
  std::printf("# %s: %zu timed operations, %zu throughput windows (img/s):", wname.c_str(),
              out.op_ms.size(), out.window_ips.size());
  for (double v : out.window_ips) std::printf(" %.0f", v);
  std::printf("\n");
  for (const auto& f : out.failures) std::printf("# FAILED: %s\n", f.c_str());
  std::string js = "{\"correct\": " + std::string(out.failed == 0 ? "true" : "false") +
                   ", \"attempted\": " + std::to_string(std::max<std::int64_t>(out.attempted, 1)) +
                   ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  bool firstk = true;
  for (const auto& [k, v] : metrics) {
    js += (firstk ? "" : ", ") + json_str(k) + ": " + num(v);
    firstk = false;
  }
  std::printf("%s}}\n", js.c_str());
  return out.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const char* env = std::getenv("OMP_NUM_THREADS");
  if (env == nullptr || std::string(env) != std::to_string(kThreads)) {
    setenv("OMP_NUM_THREADS", std::to_string(kThreads).c_str(), 1);
    execv("/proc/self/exe", argv);
    die("re-exec failed");
  }
  omp_set_num_threads(kThreads);
  if (argc < 2) die("usage: qbench prepare|setup|measure --dir D ...");
  const std::string cmd = argv[1];
  const Args args = parse_args(argc, argv);
  try {
    if (cmd == "prepare") return cmd_prepare(args);
    if (cmd == "setup") return cmd_setup(args);
    if (cmd == "measure") return cmd_measure(args);
  } catch (const std::exception& e) {
    die(std::string("error: ") + e.what());
  }
  die("unknown command " + cmd);
}
