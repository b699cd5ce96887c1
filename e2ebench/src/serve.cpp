// Serve workloads: fleet, overload and chains. One iteration generates the
// seeded mix, builds devices and jobs (set-up), submits every job and runs
// the scheduler once (the measured path), then verifies completed jobs and,
// when traced, collects and exports the program's telemetry.
#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "common/export.hpp"
#include "common/flight_recorder.hpp"
#include "core/plan_cache.hpp"
#include "core/plan_serialize.hpp"
#include "core/timeseries.hpp"
#include "gpu/device_profile.hpp"
#include "sched/scheduler.hpp"

namespace e2ebench {
namespace {

using namespace gpupipe;

struct ServeConfig {
  MixSpec mix;
  bool synthetic = true;  ///< Modeled-mode tenants without host arrays
  int devices = 2;
  sched::SchedulerOptions sched;
  int chains = 0;
  int chain_stages = 4;
  SimTime sample_every = 0.0;  ///< traced runs: sampler cadence
};

ServeConfig serve_config(const std::string& workload, bool small) {
  ServeConfig c;
  if (workload == "fleet" || workload == "overload") {
    c.mix.jobs = small ? 150 : 2000;
    c.mix.spacing = 50e-6;
    c.mix.sizes = {{"small", 1.0}, {"medium", 1.0}, {"large", 1.0}};
    // The backlog drains at roughly 21 ms (fleet) or 42 ms (overload) of
    // simulated time per tenant on two K40m, so deadlines scale with the
    // fleet size.
    const double scale = c.mix.jobs / 2000.0 * (workload == "overload" ? 2.0 : 1.0);
    c.mix.deadline_every = 1;
    c.mix.deadline_lo = 20.0 * scale;
    c.mix.deadline_hi = 45.0 * scale;
    c.devices = 2;
    if (workload == "overload") c.sched.device_mem_cap = 64 * MiB;
    c.sample_every = 0.02 * scale;
    return c;
  }
  if (workload == "chains") {
    c.mix.jobs = small ? 24 : 120;
    c.mix.spacing = 0.8e-3;
    c.mix.sizes = {{"small", 0.55}, {"medium", 0.35}, {"large", 0.10}};
    c.mix.deadline_every = 1;
    c.mix.deadline_lo = 0.2;
    c.mix.deadline_hi = 0.8;
    c.synthetic = false;
    c.devices = 3;
    c.sched.device_mem_cap = 256 * MiB;
    c.sched.shard_threshold = 8 * MiB;
    c.sched.device_events = {{0.05, 2, false}, {0.2, 2, true}};
    c.chains = small ? 8 : 80;
    c.sample_every = 1e-3;
    return c;
  }
  throw std::invalid_argument("unknown serve workload '" + workload + "'");
}

const char* reject_class(const std::string& reason) {
  if (reason.rfind("admission retry budget", 0) == 0) return "sched.rejected.retry_budget";
  if (reason.rfind("does not fit an idle device", 0) == 0) return "sched.rejected.impossible";
  if (reason.rfind("a lineage producer", 0) == 0) return "sched.rejected.lineage";
  return "sched.rejected.other";
}

/// plan.nodes and plan_opt.* summed over the compiled plans the plan cache
/// holds after the run.
void plan_layer(std::map<std::string, double>& layer, const core::PlanBundle& bundle) {
  double nodes = 0, removed = 0, saved = 0, fused = 0;
  for (const core::PlanArtifact& a : bundle.artifacts) {
    if (a.kind != core::ArtifactKind::Plan) continue;
    nodes += static_cast<double>(a.plan.nodes.size());
    removed += static_cast<double>(a.report.nodes_before - a.report.nodes_after);
    saved += static_cast<double>(a.report.h2d_bytes_before) -
             static_cast<double>(a.report.h2d_bytes_after);
    fused += static_cast<double>(a.report.fused_kernels);
  }
  layer["plan.nodes"] = nodes;
  layer["plan_opt.nodes_removed"] = removed;
  layer["plan_opt.h2d_mib_saved"] = saved / kMiB;
  layer["plan_opt.fused_kernels"] = fused;
}

}  // namespace

void plan_cache_layer(std::map<std::string, double>& layer, std::int64_t units) {
  const core::PlanCacheStats pc = core::PlanCache::instance().stats();
  const double lookups = static_cast<double>(pc.hits + pc.misses);
  layer["plan_cache.lookups_per_job"] = units > 0 ? lookups / static_cast<double>(units) : 0;
  layer["plan_cache.hit_rate"] = pc.hit_rate();
  layer["plan_cache.misses"] = static_cast<double>(pc.misses);
  core::PlanBundle bundle;
  core::PlanCache::instance().export_bundle(bundle);
  plan_layer(layer, bundle);
}

IterResult run_serve(const std::string& workload, std::uint64_t seed, bool small,
                     SpanLog& log) {
  const ServeConfig c = serve_config(workload, small);
  core::PlanCache& cache = core::PlanCache::instance();
  cache.clear();
  cache.reset_stats();

  IterResult r;
  r.sim_span = "sched.run";
  Scope iteration(log, "iteration");

  // --- Set-up: inputs, host arrays, devices.
  const double s0 = now_s();
  const int setup_span = log.begin("setup");
  const std::vector<sched::JobMixLine> mix = make_mix(c.mix, seed);
  std::vector<sched::ServeJob> jobs;
  jobs.reserve(mix.size() + static_cast<std::size_t>(c.chains * c.chain_stages));
  for (std::size_t i = 0; i < mix.size(); ++i)
    jobs.push_back(c.synthetic ? sched::make_synthetic_job(mix[i], static_cast<int>(i))
                               : sched::make_serve_job(mix[i], static_cast<int>(i)));
  // Chain stages carry deadlines from the mix's range, drawn from their own
  // seeded stream.
  Rng chain_rng(seed ^ 0x636861696e73ull);
  if (c.chains > 0)
    for (sched::ServeJob& cj : sched::make_chain_jobs(c.chains, c.chain_stages, "small",
                                                       static_cast<int>(jobs.size()))) {
      cj.job.deadline = cj.job.arrival + c.mix.deadline_lo +
                        (c.mix.deadline_hi - c.mix.deadline_lo) * chain_rng.uniform();
      jobs.push_back(std::move(cj));
    }
  const gpu::ExecMode mode = c.synthetic ? gpu::ExecMode::Modeled : gpu::ExecMode::Functional;
  auto ctx = gpu::make_shared_context();
  std::vector<std::unique_ptr<gpu::Gpu>> gpus;
  std::vector<gpu::Gpu*> devices;
  for (int d = 0; d < c.devices; ++d) {
    gpus.push_back(std::make_unique<gpu::Gpu>(gpu::nvidia_k40m(), mode, ctx));
    devices.push_back(gpus.back().get());
  }
  telemetry::FlightRecorder recorder(1 << 16);
  telemetry::TimeSeriesStore series;
  sched::SchedulerOptions opts = c.sched;
  if (log.on()) {
    recorder.set_clock([ctx] { return ctx->host_time; });
    opts.recorder = &recorder;
    opts.series = &series;
    opts.sample_every = c.sample_every;
  }
  log.end(setup_span);
  r.setup_s = now_s() - s0;

  // --- Measured path: submit everything, then run once.
  const double w0 = now_s();
  sched::Scheduler scheduler(devices, opts);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    Scope s(log, "sched.submit", static_cast<std::int64_t>(i));
    scheduler.submit(jobs[i].job);
  }
  sched::ScheduleReport rep;
  {
    Scope s(log, "sched.run");
    rep = scheduler.run();
  }
  r.wall_s = now_s() - w0;

  // --- Verification (functional jobs only; synthetic jobs have no output).
  auto& L = r.layer;
  std::int64_t verified = 0;
  for (std::size_t i = 0; i < jobs.size() && !c.synthetic; ++i) {
    if (rep.jobs[i].state != sched::JobState::Completed) continue;
    Scope s(log, "verify", static_cast<std::int64_t>(i));
    if (jobs[i].verify()) {
      ++verified;
    } else {
      ++r.failed;
      r.errors.push_back("job " + std::to_string(i) + " (" + rep.jobs[i].name +
                         ") failed host verification");
    }
  }
  L["apps.verified"] = static_cast<double>(verified);
  L["apps.verify_failed"] = static_cast<double>(r.failed);

  // --- End-to-end simulated metrics from the job records.
  r.attempted = static_cast<std::int64_t>(jobs.size());
  r.makespan = rep.makespan;
  r.complete_frac = static_cast<double>(rep.completed) / static_cast<double>(r.attempted);
  std::vector<double> turnaround, enqueue_delay;
  std::int64_t with_deadline = 0, met = 0;
  for (const char* reason : {"sched.rejected.retry_budget", "sched.rejected.impossible",
                             "sched.rejected.lineage", "sched.rejected.other"})
    L[reason] = 0;
  for (std::size_t i = 0; i < rep.jobs.size(); ++i) {
    const sched::JobRecord& j = rep.jobs[i];
    const bool done = j.state == sched::JobState::Completed;
    if (j.state != sched::JobState::Completed && j.state != sched::JobState::Rejected)
      r.errors.push_back("job " + std::to_string(i) + " ended non-terminal");
    if (done) {
      turnaround.push_back(j.finish - j.arrival);
      enqueue_delay.push_back(j.enqueue_time - j.arrival);
    } else {
      L[reject_class(j.reject_reason)] += 1;
    }
    if (jobs[i].job.deadline) {
      ++with_deadline;
      if (done && !j.deadline_missed) ++met;
    }
    sig_add(r.sim_sig, static_cast<std::int64_t>(j.state));
    sig_add(r.sim_sig, static_cast<std::int64_t>(j.device));
    sig_add(r.sim_sig, j.start);
    sig_add(r.sim_sig, j.finish);
    sig_add(r.sim_sig, j.chunk_size);
  }
  r.deadline_met_frac =
      with_deadline > 0 ? static_cast<double>(met) / static_cast<double>(with_deadline) : 1.0;
  fill_turnaround(r, turnaround);
  Tail delay_tail = tail_quantile(enqueue_delay);
  L["sched.enqueue_delay_tail_s"] = delay_tail.value;
  L["sched.enqueue_delay_p50_s"] = quantile(enqueue_delay, 0.5);
  for (double v : {r.makespan, r.p50, r.tail.value, r.complete_frac, r.deadline_met_frac})
    sig_add(r.sim_sig, v);
  for (std::int64_t v : {rep.admission_retries, rep.admission_shrinks, rep.stitched_jobs,
                         static_cast<std::int64_t>(rep.stitched_bytes),
                         rep.handoff_fallbacks, rep.deadline_misses})
    sig_add(r.sim_sig, v);

  // --- Per-layer counters the program exposes.
  const double jobs_n = static_cast<double>(r.attempted);
  L["sched.retries_per_job"] = static_cast<double>(rep.admission_retries) / jobs_n;
  L["sched.shrinks"] = static_cast<double>(rep.admission_shrinks);
  L["stitch.jobs"] = static_cast<double>(rep.stitched_jobs);
  L["stitch.mib"] = static_cast<double>(rep.stitched_bytes) / kMiB;
  L["stitch.fallbacks"] = static_cast<double>(rep.handoff_fallbacks);
  const sim::Simulator& simulator = ctx->sim;
  L["sim.events"] = static_cast<double>(simulator.events_executed());
  L["sim.events_high_water"] = static_cast<double>(simulator.events_high_water());
  double compute = 0, h2d = 0, d2h = 0, h2d_bytes = 0, d2h_bytes = 0, dropped = 0, peak = 0;
  for (int d = 0; d < c.devices; ++d) {
    gpu::Gpu& g = *devices[static_cast<std::size_t>(d)];
    compute += g.compute_busy_time();
    h2d += g.h2d_busy_time();
    d2h += g.d2h_busy_time();
    dropped += static_cast<double>(g.trace().dropped_spans());
    for (const sim::Span& s : g.trace().spans()) {
      if (s.kind == sim::SpanKind::H2D) h2d_bytes += static_cast<double>(s.bytes);
      if (s.kind == sim::SpanKind::D2H) d2h_bytes += static_cast<double>(s.bytes);
    }
    peak = std::max(peak, static_cast<double>(scheduler.admission().committed_peak(d)));
  }
  const double denom = rep.makespan * c.devices;
  L["gpu.compute_busy_frac"] = denom > 0 ? compute / denom : 0;
  L["gpu.h2d_busy_frac"] = denom > 0 ? h2d / denom : 0;
  L["gpu.d2h_busy_frac"] = denom > 0 ? d2h / denom : 0;
  L["gpu.h2d_mib"] = h2d_bytes / kMiB;
  L["gpu.d2h_mib"] = d2h_bytes / kMiB;
  L["gpu.peak_committed_mib"] = peak / kMiB;
  L["sim.dropped_spans"] = dropped;
  sig_add(r.sim_sig, h2d_bytes);
  sig_add(r.sim_sig, d2h_bytes);

  // --- Observability: collect and export the program's telemetry (traced
  // runs only; the registry also carries counters read below).
  if (log.on()) {
    telemetry::Registry reg;
    {
      Scope s(log, "obs.collect");
      scheduler.collect_metrics(reg);
    }
    {
      Scope s(log, "obs.export");
      std::ostringstream os;
      telemetry::export_prometheus(os, reg);
      telemetry::export_events_jsonl(os, recorder);
      telemetry::export_series_jsonl(os, series);
    }
    L["obs.recorder_events"] = static_cast<double>(recorder.total_recorded());
    L["obs.recorder_dropped"] = static_cast<double>(recorder.dropped());
    const auto& hist = reg.histograms();
    if (auto it = hist.find("sched.turnaround_s"); it != hist.end())
      L["obs.turnaround_overflow"] = static_cast<double>(it->second.buckets().back());
    L["sched.queue_depth_peak"] = reg.gauge_value("sched.queue_depth_peak");
    L["shard.jobs"] = static_cast<double>(reg.counter_value("sched.sharded_jobs"));
    L["shard.rounds"] = static_cast<double>(reg.counter_value("sched.shard_rounds"));
    L["shard.p2p_mib"] =
        static_cast<double>(reg.counter_value("sched.p2p_halo_bytes")) / kMiB;
    plan_cache_layer(L, r.attempted);
  }
  return r;
}

}  // namespace e2ebench
