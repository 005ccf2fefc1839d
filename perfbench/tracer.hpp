// In-memory span recorder and small statistics helpers for qbench.
//
// Spans are recorded from the benchmark's own code, around its calls into
// the library's public functions; nothing inside src/ is instrumented. A
// span has a name, start and end (ns since the tracer was created), the
// index of the span that caused it (-1 for a root) and an id shared by the
// spans of one request, batch or search. Spans stay in memory and are
// written out once, when the run ends.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Quantile q in [0, 1] of `v` by linear interpolation (NaN-free: 0 if
/// empty).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t id = 0;
};

/// Thread-safe span store. Disabled tracers record nothing and cost one
/// branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  std::int64_t to_ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  /// Record a finished span; returns its index (-1 when disabled).
  int add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, std::uint64_t id) {
    if (!enabled()) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), start_ns, end_ns, parent, id});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Open a span whose end is filled in by close(); returns its index.
  int open(std::string name, int parent, std::uint64_t id) {
    const std::int64_t t = now_ns();
    return add(std::move(name), t, t, parent, id);
  }
  void close(int index) {
    if (index < 0) return;
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(index)].end_ns = t;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  std::atomic<bool> enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Scoped span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int parent, std::uint64_t id)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->open(std::move(name), parent, id)
                                 : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }

 private:
  Tracer* tracer_;
  int index_;
};

struct SelfTime {
  std::int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// Per span name: count, total duration and self time — the duration minus
/// the part of the span's interval covered by its children.
inline std::map<std::string, SelfTime> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      kids[static_cast<std::size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    SelfTime& st = out[s.name];
    ++st.count;
    st.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    st.self_ms += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return out;
}

}  // namespace perfbench
