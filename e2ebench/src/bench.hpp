// Shared pieces of the end-to-end benchmark driver: the host clock, the
// in-memory span log, exact quantiles, the seeded job-mix generator, and the
// per-iteration result every workload returns.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sched/workloads.hpp"

namespace e2ebench {

/// Host wall clock in seconds (steady, arbitrary epoch).
inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One benchmark span: a call into a layer, timed on the host clock.
struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int parent = -1;           ///< index of the enclosing span, -1 at the root
  std::int64_t trace = -1;   ///< job or region id the call served, -1 if none
  int iteration = 0;
};

/// Spans kept in memory for the whole run; disabled logs record nothing.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}

  bool on() const { return on_; }
  void set_iteration(int it) { iteration_ = it; }
  std::size_t size() const { return spans_.size(); }

  int begin(const char* name, std::int64_t trace = -1) {
    if (!on_) return -1;
    const int idx = static_cast<int>(spans_.size());
    spans_.push_back({name, now_s(), 0.0, stack_.empty() ? -1 : stack_.back(), trace,
                      iteration_});
    stack_.push_back(idx);
    return idx;
  }
  void end(int idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end = now_s();
    stack_.pop_back();
  }

  /// Summed duration and self time (duration minus the time its child spans
  /// cover) per span name, over spans [from, size()).
  struct Totals {
    std::map<std::string, double> total;
    std::map<std::string, double> self;
  };
  Totals totals(std::size_t from) const;

  /// Writes spans as JSON lines (one object per span).
  void write_jsonl(const std::string& path) const;

 private:
  bool on_;
  int iteration_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span around one call.
class Scope {
 public:
  Scope(SpanLog& log, const char* name, std::int64_t trace = -1)
      : log_(log), idx_(log.begin(name, trace)) {}
  ~Scope() { log_.end(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  int idx_;
};

/// Exact nearest-rank quantile of `v` (sorted in place). 0 when empty.
double quantile(std::vector<double>& v, double q);

/// The tail percentile rule: p99 with >= 1000 samples, otherwise the
/// highest whole percentile that still has >= 10 samples beyond it.
struct Tail {
  double value = 0.0;
  double q = 0.0;
  std::size_t n = 0;
};
Tail tail_quantile(std::vector<double>& v);

/// Deterministic 64-bit generator (splitmix64); the only randomness source.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

/// Open-loop serve mix: `jobs` arrivals every `spacing` virtual seconds, in
/// a seeded order over a fixed app x size composition (each cell spread
/// evenly over the schedule). Every `deadline_every`-th job carries a
/// deadline drawn from [lo, hi) seconds after its arrival.
struct MixSpec {
  int jobs = 0;
  double spacing = 0.0;
  std::vector<std::pair<std::string, double>> sizes;  ///< size -> weight
  int deadline_every = 0;                             ///< 0 = no deadlines
  double deadline_lo = 0.0;
  double deadline_hi = 0.0;
};
std::vector<gpupipe::sched::JobMixLine> make_mix(const MixSpec& spec, std::uint64_t seed);

/// What one iteration of a workload produced.
struct IterResult {
  double setup_s = 0.0;
  double wall_s = 0.0;
  // Simulated end-to-end metrics.
  double makespan = 0.0;
  double p50 = 0.0;
  Tail tail;
  double complete_frac = 0.0;
  double deadline_met_frac = 0.0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;  ///< units that errored or failed verification
  /// Bit patterns of every simulated result (metrics and per-unit records);
  /// must match across iterations of one seed and across traced/untraced.
  std::vector<std::uint64_t> sim_sig;
  /// Per-layer counts the workload read from the program's counters.
  std::map<std::string, double> layer;
  /// Span whose total time is the sim layer's host time (events/s base).
  const char* sim_span = "";
  /// Regions only: the serialized corpus bundle.
  std::string bundle;
  std::vector<std::string> errors;
};

/// Folds a double's bit pattern (or an integer) into a signature.
void sig_add(std::vector<std::uint64_t>& sig, double v);
void sig_add(std::vector<std::uint64_t>& sig, std::int64_t v);

/// Simulated end-to-end metrics shared by all workloads: turnaround p50 and
/// tail from exact per-unit values.
void fill_turnaround(IterResult& r, std::vector<double> turnaround);

constexpr double kMiB = 1024.0 * 1024.0;

/// plan_cache.* (stats since the last reset) and plan.* / plan_opt.* (summed
/// over the compiled plans the cache holds) into `layer`.
void plan_cache_layer(std::map<std::string, double>& layer, std::int64_t units);

/// Workloads. `small` shrinks every size for the self-test.
IterResult run_serve(const std::string& workload, std::uint64_t seed, bool small,
                     SpanLog& log);
IterResult run_regions(std::uint64_t seed, bool small, SpanLog& log);

}  // namespace e2ebench
