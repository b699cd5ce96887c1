// e2ebench — end-to-end and per-layer benchmark of gpupipe's serve and
// compile paths.
//
// Usage:
//   e2ebench --workload fleet|overload|chains|regions --seed N --seconds S
//            --trace 0|1 [--small]
//
// The driver repeats the workload (fresh inputs from one of four mixes
// generated from the seed, a cold plan cache, fresh devices) until S seconds
// have passed, then prints a human summary and, as its last stdout line, one
// JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics as means over the four mixes (of
// each mix's median over its iterations for the host clock; of each mix's
// exactly repeating value for the simulated clock).
// --trace 1 alternates untraced and traced iterations: traced iterations
// record the benchmark's spans around every call into a layer and switch on
// the program's flight recorder and sampler, and the per-layer metrics come
// from them. Spans are written to .bench_out/spans-<workload>-<seed>.jsonl.
//
// A run is correct when every simulated result repeats exactly across
// iterations of one mix and between traced and untraced iterations, every
// job ends completed or rejected, and every verified output matches.
// Exit status: 0 with a result line; 1 on bad usage or an exception.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/plan_cache.hpp"

namespace {

using namespace e2ebench;

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"wall_s", "s"},
    {"peak_rss_mib", "MiB"},    {"sim_makespan_s", "s"},
    {"turnaround_p50_s", "s"},  {"turnaround_tail_s", "s"},
    {"complete_frac", "ratio"}, {"deadline_met_frac", "ratio"},
};

const MetricDef kPerLayer[] = {
    {"sched.submit_s", "s"},
    {"sched.run_s", "s"},
    {"sched.run_ns_per_event", "ns"},
    {"sched.retries_per_job", "1/job"},
    {"sched.shrinks", "count"},
    {"sched.rejected.retry_budget", "count"},
    {"sched.rejected.impossible", "count"},
    {"sched.rejected.lineage", "count"},
    {"sched.rejected.other", "count"},
    {"sched.enqueue_delay_p50_s", "s"},
    {"sched.enqueue_delay_tail_s", "s"},
    {"sched.queue_depth_peak", "count"},
    {"shard.jobs", "count"},
    {"shard.rounds", "count"},
    {"shard.p2p_mib", "MiB"},
    {"stitch.jobs", "count"},
    {"stitch.mib", "MiB"},
    {"stitch.fallbacks", "count"},
    {"plan_cache.lookups_per_job", "1/job"},
    {"plan_cache.hit_rate", "ratio"},
    {"plan_cache.misses", "count"},
    {"pipeline.construct_s", "s"},
    {"plan.nodes", "count"},
    {"autotune.tune_s", "s"},
    {"autotune.candidates", "count"},
    {"plan_opt.h2d_mib_saved", "MiB"},
    {"plan_opt.nodes_removed", "count"},
    {"plan_opt.fused_kernels", "count"},
    {"serialize.bundle_s", "s"},
    {"serialize.bundle_kib", "KiB"},
    {"serialize.unstable_bytes", "bytes"},
    {"dsl.compile_s", "s"},
    {"dsl.regions", "count"},
    {"sim.events", "count"},
    {"sim.events_per_host_s", "1/s"},
    {"sim.events_high_water", "count"},
    {"sim.dropped_spans", "count"},
    {"gpu.compute_busy_frac", "ratio"},
    {"gpu.h2d_busy_frac", "ratio"},
    {"gpu.d2h_busy_frac", "ratio"},
    {"gpu.h2d_mib", "MiB"},
    {"gpu.d2h_mib", "MiB"},
    {"gpu.peak_committed_mib", "MiB"},
    {"apps.speedup_vs_naive", "x"},
    {"apps.device_mem_saving", "ratio"},
    {"apps.verified", "count"},
    {"apps.verify_failed", "count"},
    {"apps.verify_s", "s"},
    {"obs.collect_s", "s"},
    {"obs.export_s", "s"},
    {"obs.recorder_events", "count"},
    {"obs.recorder_dropped", "count"},
    {"obs.turnaround_overflow", "count"},
    {"obs.trace_overhead", "x"},
    {"turnaround_tail_q", "ratio"},
    {"turnaround_n", "count"},
    {"self.iteration_s", "s"},
    {"self.setup_s", "s"},
    {"self.sched.submit_s", "s"},
    {"self.sched.run_s", "s"},
    {"self.verify_s", "s"},
    {"self.dsl.compile_s", "s"},
    {"self.autotune_s", "s"},
    {"self.pipeline.construct_s", "s"},
    {"self.execute_s", "s"},
    {"self.serialize_s", "s"},
    {"self.obs.collect_s", "s"},
    {"self.obs.export_s", "s"},
};

/// Per-layer timings read from span totals: metric name -> span name.
const std::pair<const char*, const char*> kSpanTimings[] = {
    {"sched.submit_s", "sched.submit"}, {"sched.run_s", "sched.run"},
    {"pipeline.construct_s", "pipeline.construct"}, {"autotune.tune_s", "autotune"},
    {"serialize.bundle_s", "serialize"}, {"dsl.compile_s", "dsl.compile"},
    {"apps.verify_s", "verify"}, {"obs.collect_s", "obs.collect"},
    {"obs.export_s", "obs.export"},
};

constexpr int kMixes = 4;

const char* const kSpanNames[] = {"iteration", "setup", "sched.submit", "sched.run",
                                  "verify", "dsl.compile", "autotune",
                                  "pipeline.construct", "execute", "serialize",
                                  "obs.collect", "obs.export"};

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload fleet|overload|chains|regions --seed N\n"
               "                --seconds S --trace 0|1 [--small]\n");
  return 1;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Bytes that differ between two serializations (positions plus length gap).
double differing_bytes(const std::string& a, const std::string& b) {
  const std::size_t n = std::min(a.size(), b.size());
  double diff = static_cast<double>(std::max(a.size(), b.size()) - n);
  for (std::size_t i = 0; i < n; ++i) diff += a[i] != b[i];
  return diff;
}

/// Shortest round-trip formatting, so values keep all their digits.
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool small = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
        return argv[++i];
      };
      if (a == "--workload") workload = next();
      else if (a == "--seed") seed = std::stoull(next());
      else if (a == "--seconds") seconds = std::stod(next());
      else if (a == "--trace") trace = std::stoi(next());
      else if (a == "--small") small = true;
      else throw std::invalid_argument("unknown option '" + a + "'");
    }
    if (workload != "fleet" && workload != "overload" && workload != "chains" &&
        workload != "regions")
      throw std::invalid_argument("unknown workload '" + workload + "'");
    if (trace != 0 && trace != 1) throw std::invalid_argument("--trace must be 0 or 1");
    if (!(seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return usage();
  }

  try {
    // No disk tier, default capacity: every workload starts from an empty
    // in-memory plan cache (each iteration clears it again).
    gpupipe::core::PlanCache& cache = gpupipe::core::PlanCache::instance();
    cache.set_disk_dir("");
    cache.set_capacity(gpupipe::core::PlanCache::kDefaultCapacity);
    // A run measures kMixes inputs generated from --seed, iteration i using
    // mix i % kMixes: one mix's simulated results swing with its order (the
    // overload admission dynamics are chaotic), their mean much less.
    auto run_once = [&](SpanLog& log, int it) {
      const std::uint64_t mix = seed * kMixes + static_cast<std::uint64_t>(it % kMixes);
      return workload == "regions" ? run_regions(mix, small, log)
                                   : run_serve(workload, mix, small, log);
    };

    // Iterate until the time budget is spent: every mix at least twice
    // untraced (trace 0) or once as an untraced/traced pair (trace 1), and
    // never past ~150 s so the run ends well inside its limit.
    SpanLog off(false), on(true);
    std::vector<IterResult> plain, traced;
    std::vector<SpanLog::Totals> totals;
    std::vector<std::string> errors;
    double unstable = 0.0;
    double rss_mib = 0.0;
    const double t0 = now_s();
    const int min_iters = trace ? kMixes : 2 * kMixes;
    for (int it = 0;; ++it) {
      plain.push_back(run_once(off, it));
      // The footprint of one run: later iterations reuse (and fragment) the
      // same heap, so the high-water mark is read after the first.
      if (it == 0) rss_mib = peak_rss_mib();
      if (trace) {
        on.set_iteration(it);
        const std::size_t from = on.size();
        traced.push_back(run_once(on, it));
        totals.push_back(on.totals(from));
        unstable =
            std::max(unstable, differing_bytes(plain.back().bundle, traced.back().bundle));
        traced.back().bundle = std::string();
      }
      plain.back().bundle = std::string();  // release the capacity too
      const double elapsed = now_s() - t0;
      const int done = it + 1;
      if (done >= min_iters && (elapsed >= seconds || elapsed * (done + 1) / done > 150.0))
        break;
    }

    // --- Correctness: every iteration clean; simulated results repeat
    // exactly for one mix, traced or not.
    std::int64_t attempted = 0, failed = 0;
    auto check = [&](const std::vector<IterResult>& runs, const char* what) {
      for (std::size_t i = 0; i < runs.size(); ++i) {
        const IterResult& r = runs[i];
        attempted += r.attempted;
        failed += r.failed;
        for (const std::string& e : r.errors) errors.push_back(e);
        if (r.sim_sig != plain[i % kMixes].sim_sig)
          errors.push_back(std::string("simulated results differ between ") + what);
        if (r.layer.at("sim.events") != runs[i % kMixes].layer.at("sim.events"))
          errors.push_back(std::string("simulator event counts differ between ") + what);
      }
    };
    check(plain, "runs of one mix");
    check(traced, "traced runs of one mix, or between traced and untraced runs");
    const bool correct = errors.empty() && failed == 0;

    const IterResult& first = plain.front();
    std::printf("e2ebench %s seed %llu: %zu untraced + %zu traced iterations in %.1f s\n",
                workload.c_str(), static_cast<unsigned long long>(seed), plain.size(),
                traced.size(), now_s() - t0);
    for (const std::string& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());

    std::vector<std::pair<const MetricDef*, double>> out;
    if (!trace) {
      // Every metric is a mean over the run's mixes: of each mix's median
      // over its iterations for host times, of its one (repeating) value
      // for simulated results. Iteration 0 warms the process (its heap is
      // cold), so its host times are left out; mix 0 still ran again.
      auto mean = [&](double IterResult::*field) {
        double sum = 0.0;
        for (int m = 0; m < kMixes; ++m) sum += plain[static_cast<std::size_t>(m)].*field;
        return sum / kMixes;
      };
      auto mean_of_medians = [&](double IterResult::*field) {
        double sum = 0.0;
        for (int m = 0; m < kMixes; ++m) {
          std::vector<double> v;
          const auto from = static_cast<std::size_t>(m > 0 ? m : kMixes);
          for (std::size_t i = from; i < plain.size(); i += kMixes)
            v.push_back(plain[i].*field);
          sum += median(v);
        }
        return sum / kMixes;
      };
      double tail = 0.0;
      for (int m = 0; m < kMixes; ++m) tail += plain[static_cast<std::size_t>(m)].tail.value;
      std::printf("wall_s per iteration:");
      for (const IterResult& r : plain) std::printf(" %.4f", r.wall_s);
      std::printf("\n");
      const double values[] = {mean_of_medians(&IterResult::setup_s),
                               mean_of_medians(&IterResult::wall_s),
                               rss_mib,
                               mean(&IterResult::makespan),
                               mean(&IterResult::p50),
                               tail / kMixes,
                               mean(&IterResult::complete_frac),
                               mean(&IterResult::deadline_met_frac)};
      for (std::size_t i = 0; i < std::size(kEndToEnd); ++i)
        out.emplace_back(&kEndToEnd[i], values[i]);
      std::printf("turnaround_tail_s is p%.0f of n=%zu units\n", first.tail.q * 100.0,
                  first.tail.n);
    } else {
      // Medians over traced iterations (counts repeat exactly for one mix).
      // A metric missing from `layer` belongs to a layer this workload does
      // not exercise.
      std::map<std::string, double> layer;
      for (const auto& [name, v] : traced.front().layer) {
        std::vector<double> all;
        for (const IterResult& r : traced) all.push_back(r.layer.at(name));
        layer[name] = median(all);
      }
      auto span_median = [&](const char* span, bool self) {
        std::vector<double> v;
        for (const SpanLog::Totals& t : totals) {
          const auto& m = self ? t.self : t.total;
          auto it = m.find(span);
          if (it == m.end()) return -1.0;  // span absent: layer not exercised
          v.push_back(it->second);
        }
        return median(v);
      };
      for (const auto& [metric, span] : kSpanTimings)
        if (const double v = span_median(span, false); v >= 0.0) layer[metric] = v;
      for (const char* span : kSpanNames)
        if (const double v = span_median(span, true); v >= 0.0)
          layer[std::string("self.") + span + "_s"] = v;
      const double events = layer.at("sim.events");
      if (const double host = span_median(first.sim_span, false); events > 0 && host > 0)
        layer["sim.events_per_host_s"] = events / host;
      if (auto run = layer.find("sched.run_s"); run != layer.end() && events > 0)
        layer["sched.run_ns_per_event"] = run->second / events * 1e9;
      if (workload == "regions") layer["serialize.unstable_bytes"] = unstable;
      std::vector<double> wall_on, wall_off;
      for (const IterResult& r : traced) wall_on.push_back(r.wall_s);
      for (const IterResult& r : plain) wall_off.push_back(r.wall_s);
      layer["obs.trace_overhead"] = median(wall_on) / median(wall_off);
      layer["turnaround_tail_q"] = first.tail.q;
      layer["turnaround_n"] = static_cast<double>(first.tail.n);
      for (const MetricDef& m : kPerLayer) {
        auto it = layer.find(m.name);
        out.emplace_back(&m, it == layer.end() ? 0.0 : it->second);
        if (it == layer.end())
          std::printf("%-30s n/a (layer not exercised; 0 in JSON)\n", m.name);
      }
      // Where a traced iteration's host time went: self time per span name,
      // as a share of the whole iteration (set-up and verification included).
      const double iteration = span_median("iteration", false);
      std::printf("traced wall_s %.4f s, iteration %.4f s; self time by layer:\n",
                  median(wall_on), iteration);
      for (const char* span : kSpanNames) {
        const double v = span_median(span, true);
        if (v >= 0.0)
          std::printf("  %-20s %10.4f s  %5.1f%%\n", span, v, 100.0 * v / iteration);
      }
      std::filesystem::create_directories(".bench_out");
      const std::string path = ".bench_out/spans-" + workload + "-" + std::to_string(seed) +
                               ".jsonl";
      on.write_jsonl(path);
      std::printf("wrote %zu spans to %s\n", on.size(), path.c_str());
    }

    for (const auto& [m, v] : out) std::printf("%-30s %.6g %s\n", m->name, v, m->unit);
    std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (i > 0) json += ", ";
      json += "\"" + std::string(out[i].first->name) + "\": {\"value\": " +
              num(out[i].second) + ", \"unit\": \"" + out[i].first->unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
