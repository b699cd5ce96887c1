// Telemetry primitives: a registry of named counters, gauges, and
// fixed-bucket histograms.
//
// The registry is pull-based and post-hoc by design: executors expose a
// collect_metrics(Registry&) that derives every value from state they
// already keep (trace spans, PipelineStats, engine busy times, allocator
// peaks), so nothing on the per-chunk execution path allocates or touches a
// registry. The only always-on instrumentation is a handful of rare-event
// counters (chunk shrinks, adaptive re-chunks) behind metrics_enabled() —
// a single branch when telemetry is off.
//
// Iteration order is the lexicographic name order of a std::map, so JSON
// snapshots and summary tables are deterministic and diffable.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace gpupipe::telemetry {

/// A monotonically increasing integer (events, bytes moved). Updates are
/// atomic: the ambient rare-event counters fire from the autotuner's dry-run
/// worker threads, which may solve the same spec concurrently.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter& other) : value_(other.value()) {}
  Counter& operator=(const Counter& other) {
    value_.store(other.value(), std::memory_order_relaxed);
    return *this;
  }

  void add(std::int64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// A point-in-time double (busy seconds, high-water marks, ratios).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void set_max(double v) {
    if (v > value_) value_ = v;
  }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// A histogram over fixed upper-bound buckets (an implicit +inf bucket
/// catches the tail). Bounds are set on first registration of the name.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds = {})
      : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1, 0) {}

  void observe(double v) {
    std::size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i]) ++i;
    ++buckets_[i];
    ++count_;
    sum_ += v;
  }

  std::int64_t count() const { return count_; }
  double sum() const { return sum_; }
  const std::vector<double>& bounds() const { return bounds_; }
  /// Bucket i counts observations in (bounds[i-1], bounds[i]]; the last
  /// bucket is (bounds.back(), +inf).
  const std::vector<std::int64_t>& buckets() const { return buckets_; }

  /// Linear-interpolated quantile (q in [0,1]) over the fixed buckets — the
  /// shared percentile math behind serve summaries, watchdog thresholds, and
  /// bench tables. The +inf tail bucket reports its lower bound (there is no
  /// upper edge to interpolate toward); an empty histogram reports 0.
  double quantile(double q) const {
    if (count_ == 0) return 0.0;
    const double rank = q * static_cast<double>(count_);
    double seen = 0.0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      const double n = static_cast<double>(buckets_[i]);
      if (seen + n < rank || n == 0.0) {
        seen += n;
        continue;
      }
      const double lo = i == 0 ? 0.0 : bounds_[i - 1];
      if (i >= bounds_.size()) return lo;
      const double hi = bounds_[i];
      return lo + (hi - lo) * ((rank - seen) / n);
    }
    return bounds_.empty() ? 0.0 : bounds_.back();
  }

 private:
  std::vector<double> bounds_;
  std::vector<std::int64_t> buckets_;
  std::int64_t count_ = 0;
  double sum_ = 0.0;
};

/// Exact quantile (q in [0,1]) of a sample: linear interpolation between the
/// two nearest order statistics. There are no buckets, so nothing clamps —
/// summaries of recorded values (gpupipe_serve's job latencies) use this
/// rather than Histogram::quantile. An empty sample reports 0.
inline double sample_quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// A named collection of metrics with deterministic (sorted) iteration.
/// Name lookup/registration is mutex-guarded and std::map nodes are stable,
/// so handing out Counter references to concurrent writers is safe (Counter
/// updates are atomic). Gauges, histograms, and the iteration/snapshot
/// accessors remain post-hoc: call them from one thread at a time.
class Registry {
 public:
  Registry() = default;
  // Moves are post-hoc (benchmark plumbing); the mutex itself is not moved.
  Registry(Registry&& other) noexcept
      : counters_(std::move(other.counters_)),
        gauges_(std::move(other.gauges_)),
        histograms_(std::move(other.histograms_)) {}
  Registry& operator=(Registry&& other) noexcept {
    counters_ = std::move(other.counters_);
    gauges_ = std::move(other.gauges_);
    histograms_ = std::move(other.histograms_);
    return *this;
  }

  Counter& counter(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    return counters_[name];
  }
  Gauge& gauge(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    return gauges_[name];
  }
  Histogram& histogram(const std::string& name, std::vector<double> bounds) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = histograms_.find(name);
    if (it == histograms_.end())
      it = histograms_.emplace(name, Histogram(std::move(bounds))).first;
    return it->second;
  }

  /// Counter value by name (0 when absent) — convenient in tests.
  std::int64_t counter_value(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
  }
  double gauge_value(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second.value();
  }

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const { return histograms_; }

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }
  void clear() {
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
  }

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  void to_json(std::ostream& os) const {
    const auto flags = os.flags();
    const auto precision = os.precision();
    os << std::setprecision(17);
    os << "{\"counters\":{";
    bool first = true;
    for (const auto& [name, c] : counters_) {
      if (!first) os << ",";
      first = false;
      os << "\"" << name << "\":" << c.value();
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto& [name, g] : gauges_) {
      if (!first) os << ",";
      first = false;
      os << "\"" << name << "\":" << g.value();
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto& [name, h] : histograms_) {
      if (!first) os << ",";
      first = false;
      os << "\"" << name << "\":{\"count\":" << h.count() << ",\"sum\":" << h.sum()
         << ",\"buckets\":[";
      for (std::size_t i = 0; i < h.buckets().size(); ++i) {
        if (i > 0) os << ",";
        os << "{\"le\":";
        if (i < h.bounds().size())
          os << h.bounds()[i];
        else
          os << "\"inf\"";
        os << ",\"count\":" << h.buckets()[i] << "}";
      }
      os << "]}";
    }
    os << "}}";
    os.flags(flags);
    os.precision(precision);
  }

  /// Human-readable summary, one metric per line.
  void print(std::ostream& os) const {
    for (const auto& [name, c] : counters_) os << name << " = " << c.value() << "\n";
    for (const auto& [name, g] : gauges_) os << name << " = " << g.value() << "\n";
    for (const auto& [name, h] : histograms_) {
      os << name << " = count " << h.count() << ", sum " << h.sum() << ", buckets [";
      for (std::size_t i = 0; i < h.buckets().size(); ++i) {
        if (i > 0) os << " ";
        os << "le(";
        if (i < h.bounds().size())
          os << h.bounds()[i];
        else
          os << "inf";
        os << ")=" << h.buckets()[i];
      }
      os << "]\n";
    }
  }

 private:
  mutable std::mutex mu_;  ///< guards name lookup/registration only
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

namespace detail {
struct MetricsState {
  // Off by default: the rare-event counters in the runtime only touch the
  // global registry when explicitly enabled (or via GPUPIPE_METRICS=1), so
  // the disabled path is one branch and zero allocations.
  bool enabled = std::getenv("GPUPIPE_METRICS") != nullptr &&
                 std::string(std::getenv("GPUPIPE_METRICS")) != "0";
  Registry registry;
};
inline MetricsState& metrics_state() {
  static MetricsState state;
  return state;
}
}  // namespace detail

/// Whether the runtime's ambient rare-event counters record into the global
/// registry. Explicit collect_metrics() calls work regardless.
inline bool metrics_enabled() { return detail::metrics_state().enabled; }
inline void set_metrics_enabled(bool on) { detail::metrics_state().enabled = on; }

/// The process-global registry fed by the ambient counters.
inline Registry& global_metrics() { return detail::metrics_state().registry; }

}  // namespace gpupipe::telemetry
