// Multi-tenant scheduler tests: queue policies, admission control,
// backpressure/retry, the 2-device consolidation criterion, determinism,
// completion notification (order, hooks, teardown after a fault), and the
// sched. telemetry namespace.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "common/flight_recorder.hpp"
#include "common/metrics.hpp"
#include "core/plan.hpp"
#include "core/plan_cache.hpp"
#include "gpu/device_profile.hpp"
#include "sched/scheduler.hpp"
#include "sched/workloads.hpp"

namespace gpupipe {
namespace {

// --- Fixtures -------------------------------------------------------------

struct Machine {
  std::shared_ptr<gpu::SharedContext> ctx = gpu::make_shared_context();
  std::vector<std::unique_ptr<gpu::Gpu>> gpus;
  std::vector<gpu::Gpu*> devices;

  explicit Machine(int n, const gpu::DeviceProfile& profile = gpu::nvidia_k40m()) {
    for (int i = 0; i < n; ++i) {
      gpus.push_back(std::make_unique<gpu::Gpu>(profile, gpu::ExecMode::Functional, ctx));
      devices.push_back(gpus.back().get());
    }
  }
};

SimTime solo_runtime(const sched::JobMixLine& line, int index) {
  sched::ServeJob sj = sched::make_serve_job(line, index);
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Functional);
  core::Pipeline p(g, sj.job.spec);
  const SimTime t0 = g.host_now();
  p.run(sj.job.kernel);
  return g.host_now() - t0;
}

struct MixRun {
  sched::ScheduleReport report;
  std::vector<double> checksums;
};

MixRun run_mix(const std::vector<sched::JobMixLine>& mix, sched::SchedulerOptions opts,
               int num_devices = 2) {
  Machine m(num_devices);
  sched::Scheduler s(m.devices, opts);
  std::vector<sched::ServeJob> jobs;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    jobs.push_back(sched::make_serve_job(mix[i], static_cast<int>(i)));
    s.submit(jobs.back().job);
  }
  MixRun r;
  r.report = s.run();
  for (const auto& j : jobs) {
    EXPECT_TRUE(j.verify()) << j.job.name;
    r.checksums.push_back(j.output_checksum());
  }
  return r;
}

// The predicted footprint of a serve job's spec at a given shape, on a
// scratch device with the test profile.
Bytes footprint_at(const core::PipelineSpec& spec, std::int64_t c, int s) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  return core::predicted_pipeline_footprint(g, spec, c, s);
}

// --- JobQueue -------------------------------------------------------------

sched::JobQueue::Item item(int job, int priority, SimTime estimate,
                           SimTime not_before = 0.0) {
  sched::JobQueue::Item it;
  it.job = job;
  it.seq = static_cast<std::uint64_t>(job);
  it.priority = priority;
  it.estimate = estimate;
  it.not_before = not_before;
  return it;
}

TEST(JobQueue, FifoPicksSubmissionOrder) {
  sched::JobQueue q(sched::QueuePolicy::Fifo, 8);
  ASSERT_TRUE(q.push(item(2, 5, 0.1)));
  ASSERT_TRUE(q.push(item(0, 1, 9.0)));
  ASSERT_TRUE(q.push(item(1, 9, 0.5)));
  EXPECT_EQ(q.pick(0.0)->job, 0);
}

TEST(JobQueue, PriorityPicksHighestThenFifo) {
  sched::JobQueue q(sched::QueuePolicy::Priority, 8);
  ASSERT_TRUE(q.push(item(0, 1, 1.0)));
  ASSERT_TRUE(q.push(item(1, 3, 1.0)));
  ASSERT_TRUE(q.push(item(2, 3, 0.1)));  // ties with job 1; loses on seq
  EXPECT_EQ(q.pick(0.0)->job, 1);
  q.remove(1);
  EXPECT_EQ(q.pick(0.0)->job, 2);
}

TEST(JobQueue, SjfPicksSmallestEstimate) {
  sched::JobQueue q(sched::QueuePolicy::Sjf, 8);
  ASSERT_TRUE(q.push(item(0, 0, 3.0)));
  ASSERT_TRUE(q.push(item(1, 0, 1.0)));
  ASSERT_TRUE(q.push(item(2, 0, 1.0)));  // ties with job 1; loses on seq
  EXPECT_EQ(q.pick(0.0)->job, 1);
}

TEST(JobQueue, RetryGateSkipsUntilDue) {
  sched::JobQueue q(sched::QueuePolicy::Fifo, 8);
  ASSERT_TRUE(q.push(item(0, 0, 1.0, 5.0)));
  ASSERT_TRUE(q.push(item(1, 0, 1.0)));
  EXPECT_EQ(q.pick(0.0)->job, 1);  // job 0 gated
  q.remove(1);
  EXPECT_EQ(q.pick(0.0), nullptr);
  EXPECT_EQ(q.next_retry(0.0), 5.0);
  EXPECT_EQ(q.pick(5.0)->job, 0);
}

TEST(JobQueue, BoundedCapacity) {
  sched::JobQueue q(sched::QueuePolicy::Fifo, 1);
  EXPECT_TRUE(q.push(item(0, 0, 1.0)));
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.push(item(1, 0, 1.0)));
}

// --- AdmissionController --------------------------------------------------

TEST(Admission, ShrinksOversizedJobToFitCap) {
  sched::ServeJob sj = sched::make_serve_job({"stream", "large", 0, 0.0, {}}, 0);
  const Bytes full = footprint_at(sj.job.spec, sj.job.spec.chunk_size,
                                  sj.job.spec.num_streams);
  Machine m(1);
  sched::AdmissionController ac(m.devices, full / 2);
  const sched::AdmissionDecision d = ac.try_admit(0, sj.job.spec);
  ASSERT_TRUE(d.admitted);
  EXPECT_TRUE(d.shrunk);
  EXPECT_LE(d.footprint, full / 2);
  EXPECT_LT(d.chunk_size, sj.job.spec.chunk_size);
}

TEST(Admission, RejectsWhenMinimalShapeExceedsCap) {
  sched::ServeJob sj = sched::make_serve_job({"stream", "small", 0, 0.0, {}}, 0);
  const Bytes min_fp = footprint_at(sj.job.spec, 1, 1);
  Machine m(1);
  sched::AdmissionController ac(m.devices, min_fp - 1);
  EXPECT_FALSE(ac.try_admit(0, sj.job.spec).admitted);
  EXPECT_TRUE(ac.impossible(0, sj.job.spec));
}

TEST(Admission, CommitReducesBudgetAndReleaseRestoresIt) {
  sched::ServeJob sj = sched::make_serve_job({"stream", "small", 0, 0.0, {}}, 0);
  const Bytes full = footprint_at(sj.job.spec, sj.job.spec.chunk_size,
                                  sj.job.spec.num_streams);
  const Bytes min_fp = footprint_at(sj.job.spec, 1, 1);
  Machine m(1);
  sched::AdmissionController ac(m.devices, full + min_fp / 2);
  const auto d = ac.try_admit(0, sj.job.spec);
  ASSERT_TRUE(d.admitted);
  EXPECT_FALSE(d.shrunk);
  ac.commit(0, d.footprint);
  // Remaining budget is below even the minimal shape: not admissible now,
  // but not impossible — a retry after release must succeed.
  EXPECT_FALSE(ac.try_admit(0, sj.job.spec).admitted);
  EXPECT_FALSE(ac.impossible(0, sj.job.spec));
  ac.release(0, d.footprint);
  EXPECT_TRUE(ac.try_admit(0, sj.job.spec).admitted);
  EXPECT_EQ(ac.committed(0), 0u);
  EXPECT_EQ(ac.committed_peak(0), d.footprint);
}

// --- Scheduler: consolidation acceptance ----------------------------------

TEST(Scheduler, EightJobMixOnTwoDevicesBeatsSoloRuns) {
  const auto mix = sched::default_job_mix(8);
  SimTime sum_solo = 0.0;
  for (std::size_t i = 0; i < mix.size(); ++i)
    sum_solo += solo_runtime(mix[i], static_cast<int>(i));

  const Bytes cap = 64 * MiB;
  Machine m(2);
  sched::SchedulerOptions opts;
  opts.device_mem_cap = cap;
  sched::Scheduler s(m.devices, opts);
  std::vector<sched::ServeJob> jobs;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    jobs.push_back(sched::make_serve_job(mix[i], static_cast<int>(i)));
    s.submit(jobs.back().job);
  }
  const sched::ScheduleReport rep = s.run();

  EXPECT_EQ(rep.completed, 8);
  EXPECT_EQ(rep.rejected, 0);
  // The acceptance criterion: consolidation must beat back-to-back solo
  // runs by a clear margin.
  EXPECT_LT(rep.makespan, 0.8 * sum_solo);
  // Every job ran on some device, results are correct.
  for (const auto& j : jobs) EXPECT_TRUE(j.verify()) << j.job.name;
  // Committed footprints bound the real allocations: device peak memory
  // never exceeds the configured cap.
  for (const auto& g : m.gpus) EXPECT_LE(g->device_mem_stats().peak, cap);
  for (int d = 0; d < 2; ++d) EXPECT_LE(s.admission().committed_peak(d), cap);
  // Both devices actually served jobs.
  int dev0 = 0, dev1 = 0;
  for (const auto& r : rep.jobs) (r.device == 0 ? dev0 : dev1)++;
  EXPECT_GT(dev0, 0);
  EXPECT_GT(dev1, 0);
}

// --- Scheduler: admission retry and backpressure --------------------------

// Cap sized so one small job at full shape fits but a second does not even
// at (chunk 1, stream 1): the second job must retry until the first
// releases its footprint.
TEST(Scheduler, AdmissionFailureRetriesWithBackoffUntilMemoryFrees) {
  const sched::JobMixLine line{"stream", "small", 0, 0.0, {}};
  sched::ServeJob probe = sched::make_serve_job(line, 0);
  const Bytes full = footprint_at(probe.job.spec, probe.job.spec.chunk_size,
                                  probe.job.spec.num_streams);
  const Bytes min_fp = footprint_at(probe.job.spec, 1, 1);

  Machine m(1);
  sched::SchedulerOptions opts;
  opts.device_mem_cap = full + min_fp - 1;
  opts.max_admission_attempts = 64;  // never reject in this test
  sched::Scheduler s(m.devices, opts);
  std::vector<sched::ServeJob> jobs;
  for (int i = 0; i < 2; ++i) {
    jobs.push_back(sched::make_serve_job(line, i));
    s.submit(jobs.back().job);
  }
  const sched::ScheduleReport rep = s.run();

  EXPECT_EQ(rep.completed, 2);
  EXPECT_GT(rep.admission_retries, 0);
  EXPECT_GT(rep.jobs[1].admission_attempts, 1);
  // The second job could only start after the first finished.
  EXPECT_GE(rep.jobs[1].start, rep.jobs[0].finish);
  for (const auto& j : jobs) EXPECT_TRUE(j.verify());
}

TEST(Scheduler, FullQueueBackpressuresArrivals) {
  const sched::JobMixLine line{"stream", "small", 0, 0.0, {}};
  sched::ServeJob probe = sched::make_serve_job(line, 0);
  const Bytes full = footprint_at(probe.job.spec, probe.job.spec.chunk_size,
                                  probe.job.spec.num_streams);
  const Bytes min_fp = footprint_at(probe.job.spec, 1, 1);

  Machine m(1);
  sched::SchedulerOptions opts;
  opts.device_mem_cap = full + min_fp - 1;  // one job at a time
  opts.queue_capacity = 1;
  opts.max_admission_attempts = 64;
  sched::Scheduler s(m.devices, opts);
  std::vector<sched::ServeJob> jobs;
  for (int i = 0; i < 3; ++i) {
    jobs.push_back(sched::make_serve_job(line, i));
    s.submit(jobs.back().job);
  }
  const sched::ScheduleReport rep = s.run();

  // Job 0 admits instantly; job 1 occupies the single queue slot; job 2's
  // arrival finds the queue full.
  EXPECT_EQ(rep.completed, 3);
  EXPECT_GT(rep.backpressure_events, 0);
  EXPECT_GT(rep.jobs[2].enqueue_time, rep.jobs[2].arrival);
}

TEST(Scheduler, RejectsJobThatCannotFitAnIdleDevice) {
  const sched::JobMixLine line{"stream", "small", 0, 0.0, {}};
  sched::ServeJob probe = sched::make_serve_job(line, 0);
  const Bytes min_fp = footprint_at(probe.job.spec, 1, 1);

  Machine m(1);
  sched::SchedulerOptions opts;
  opts.device_mem_cap = min_fp - 1;
  sched::Scheduler s(m.devices, opts);
  sched::ServeJob sj = sched::make_serve_job(line, 0);
  s.submit(sj.job);
  const sched::ScheduleReport rep = s.run();
  EXPECT_EQ(rep.completed, 0);
  EXPECT_EQ(rep.rejected, 1);
  EXPECT_EQ(rep.jobs[0].state, sched::JobState::Rejected);
  EXPECT_FALSE(rep.jobs[0].reject_reason.empty());
}

// --- Scheduler: policy behavior under contention --------------------------

// One slot of device memory, a burst of three jobs: the policy decides who
// gets the slot when it frees.
TEST(Scheduler, PriorityPolicyOvertakesFifoOrderUnderContention) {
  const sched::JobMixLine line{"stream", "small", 0, 0.0, {}};
  sched::ServeJob probe = sched::make_serve_job(line, 0);
  const Bytes full = footprint_at(probe.job.spec, probe.job.spec.chunk_size,
                                  probe.job.spec.num_streams);
  const Bytes min_fp = footprint_at(probe.job.spec, 1, 1);

  auto run_policy = [&](sched::QueuePolicy policy) {
    Machine m(1);
    sched::SchedulerOptions opts;
    opts.queue_policy = policy;
    opts.device_mem_cap = full + min_fp - 1;
    opts.max_admission_attempts = 64;
    sched::Scheduler s(m.devices, opts);
    std::vector<sched::ServeJob> jobs;
    for (int i = 0; i < 3; ++i) {
      jobs.push_back(sched::make_serve_job(line, i));
      jobs.back().job.priority = i;  // job 2 most urgent, submitted last
      s.submit(jobs.back().job);
    }
    return s.run();
  };

  const auto fifo = run_policy(sched::QueuePolicy::Fifo);
  ASSERT_EQ(fifo.completed, 3);
  EXPECT_LT(fifo.jobs[1].start, fifo.jobs[2].start);

  const auto prio = run_policy(sched::QueuePolicy::Priority);
  ASSERT_EQ(prio.completed, 3);
  EXPECT_LT(prio.jobs[2].start, prio.jobs[1].start);
}

// --- Scheduler: determinism ----------------------------------------------

void expect_identical(const MixRun& a, const MixRun& b) {
  ASSERT_EQ(a.report.jobs.size(), b.report.jobs.size());
  EXPECT_EQ(a.report.makespan, b.report.makespan);
  EXPECT_EQ(a.report.admission_retries, b.report.admission_retries);
  EXPECT_EQ(a.report.backpressure_events, b.report.backpressure_events);
  for (std::size_t i = 0; i < a.report.jobs.size(); ++i) {
    const auto& x = a.report.jobs[i];
    const auto& y = b.report.jobs[i];
    EXPECT_EQ(x.state, y.state) << i;
    EXPECT_EQ(x.device, y.device) << i;
    EXPECT_EQ(x.start, y.start) << i;
    EXPECT_EQ(x.finish, y.finish) << i;
    EXPECT_EQ(x.chunk_size, y.chunk_size) << i;
    EXPECT_EQ(x.num_streams, y.num_streams) << i;
    EXPECT_EQ(x.admission_attempts, y.admission_attempts) << i;
  }
  EXPECT_EQ(a.checksums, b.checksums);
}

TEST(Scheduler, SameMixTwiceIsBitIdentical) {
  const auto mix = sched::default_job_mix(9);
  sched::SchedulerOptions opts;
  opts.queue_policy = sched::QueuePolicy::Sjf;
  expect_identical(run_mix(mix, opts), run_mix(mix, opts));
}

TEST(Scheduler, PlanCacheToggleDoesNotChangeTheSchedule) {
  const auto mix = sched::default_job_mix(9);
  sched::SchedulerOptions opts;
  opts.queue_policy = sched::QueuePolicy::Sjf;
  core::PlanCache& cache = core::PlanCache::instance();
  cache.set_capacity(0);  // every planning call computes directly
  const MixRun off = run_mix(mix, opts);
  cache.set_capacity(core::PlanCache::kDefaultCapacity);
  cache.clear();
  const MixRun cold = run_mix(mix, opts);
  const MixRun warm = run_mix(mix, opts);  // all-hit replay
  expect_identical(off, cold);
  expect_identical(off, warm);
}

// The bytes the admission controller commits are the bytes the solver
// checked against the budget: the device's real allocation peak must stay
// under the per-device committed peak.
TEST(Scheduler, CommittedFootprintsBoundRealDevicePeaks) {
  const auto mix = sched::default_job_mix(8);
  Machine m(2);
  sched::SchedulerOptions opts;
  opts.device_mem_cap = 64 * MiB;
  sched::Scheduler s(m.devices, opts);
  std::vector<sched::ServeJob> jobs;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    jobs.push_back(sched::make_serve_job(mix[i], static_cast<int>(i)));
    s.submit(jobs.back().job);
  }
  const sched::ScheduleReport rep = s.run();
  EXPECT_EQ(rep.completed, 8);
  for (int d = 0; d < 2; ++d) {
    EXPECT_GT(s.admission().committed_peak(d), 0u);
    EXPECT_LE(m.gpus[d]->device_mem_stats().peak, s.admission().committed_peak(d))
        << "device " << d;
  }
}

TEST(Scheduler, MetricsToggleDoesNotChangeTheSchedule) {
  const auto mix = sched::default_job_mix(8);
  const bool was = telemetry::metrics_enabled();
  telemetry::set_metrics_enabled(false);
  const MixRun off = run_mix(mix, {});
  telemetry::set_metrics_enabled(true);
  const MixRun on = run_mix(mix, {});
  telemetry::set_metrics_enabled(was);
  expect_identical(off, on);
}

// --- Scheduler: deadlines and telemetry ----------------------------------

TEST(Scheduler, ImpossibleDeadlineIsRecordedNotEnforced) {
  Machine m(1);
  sched::Scheduler s(m.devices, {});
  sched::ServeJob sj = sched::make_serve_job({"stream", "small", 0, 0.0, {}}, 0);
  sj.job.deadline = 1e-9;  // before the first transfer can finish
  s.submit(sj.job);
  const sched::ScheduleReport rep = s.run();
  EXPECT_EQ(rep.completed, 1);
  EXPECT_TRUE(rep.jobs[0].deadline_missed);
  EXPECT_EQ(rep.deadline_misses, 1);
  EXPECT_TRUE(sj.verify());
}

TEST(Scheduler, CollectMetricsPopulatesSchedNamespace) {
  const auto mix = sched::default_job_mix(8);
  Machine m(2);
  sched::Scheduler s(m.devices, {});
  std::vector<sched::ServeJob> jobs;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    jobs.push_back(sched::make_serve_job(mix[i], static_cast<int>(i)));
    s.submit(jobs.back().job);
  }
  const sched::ScheduleReport rep = s.run();

  telemetry::Registry reg;
  s.collect_metrics(reg, "serve.");
  EXPECT_EQ(reg.counter_value("serve.sched.jobs_submitted"), 8);
  EXPECT_EQ(reg.counter_value("serve.sched.jobs_completed"), 8);
  EXPECT_EQ(reg.counter_value("serve.sched.jobs_rejected"), 0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("serve.sched.makespan_s"), rep.makespan);
  EXPECT_GT(reg.gauge_value("serve.sched.dev0.mem_cap_bytes"), 0.0);
  EXPECT_GT(reg.gauge_value("serve.sched.dev0.utilization"), 0.0);
  EXPECT_GT(reg.gauge_value("serve.sched.dev0.committed_peak_bytes"), 0.0);
  // Utilization is busy time over makespan with in-flight work pro-rated to
  // the sampling clock; it can never exceed 1.0 per device. (A regression
  // here means Engine::busy_time is crediting in-flight tasks their full
  // duration again.)
  for (int dev = 0; dev < 2; ++dev) {
    const double util =
        reg.gauge_value("serve.sched.dev" + std::to_string(dev) + ".utilization");
    EXPECT_GE(util, 0.0);
    EXPECT_LE(util, 1.0);
  }
  // The scheduler's snapshot includes the plan-cache namespace (the cache
  // serves every admission estimate; see docs/observability.md).
  EXPECT_GT(reg.gauge_value("serve.plan_cache.capacity"), 0.0);
  EXPECT_GT(reg.gauge_value("serve.plan_cache.entries"), 0.0);
  EXPECT_GT(reg.counter_value("serve.plan_cache.hits"), 0);
  const auto& hist = reg.histograms();
  ASSERT_TRUE(hist.count("serve.sched.wait_s"));
  ASSERT_TRUE(hist.count("serve.sched.turnaround_s"));
  EXPECT_EQ(hist.at("serve.sched.wait_s").count(), 8);
  EXPECT_EQ(hist.at("serve.sched.turnaround_s").count(), 8);
  // The snapshot is reproducible: two collections print identically.
  telemetry::Registry reg2;
  s.collect_metrics(reg2, "serve.");
  std::ostringstream a, b;
  reg.to_json(a);
  reg2.to_json(b);
  EXPECT_EQ(a.str(), b.str());
}

// --- Scheduler: completion notification ---------------------------------

// A kernel that throws aborts run() with jobs in flight. Tearing the
// scheduler down then drains their pipelines, which fires their completion
// hooks while the scheduler is being destroyed; the faulted job's stream
// must not wedge that drain, and the devices stay usable afterwards.
TEST(Scheduler, ThrowingKernelLeavesTeardownSafe) {
  const auto mix = sched::default_job_mix(6);
  Machine m(2);
  std::vector<sched::ServeJob> jobs;  // host arrays outlive the drain
  {
    sched::Scheduler s(m.devices, {});
    for (std::size_t i = 0; i < mix.size(); ++i) {
      jobs.push_back(sched::make_serve_job(mix[i], static_cast<int>(i)));
      if (i == 2) {
        // The first chunk's body faults; the rest run normally.
        core::KernelFactory inner = jobs.back().job.kernel;
        auto armed = std::make_shared<bool>(true);
        jobs.back().job.kernel = [inner, armed](const core::ChunkContext& c) {
          gpu::KernelDesc k = inner(c);
          if (*armed) {
            *armed = false;
            k.body = [] { throw Error("kernel fault"); };
          }
          return k;
        };
      }
      s.submit(jobs.back().job);
    }
    EXPECT_THROW(s.run(), Error);
  }
  for (const auto& g : m.gpus) g->synchronize();
}

// Identical jobs on identical idle devices with no host API overhead start
// together and finish at one instant; the completion pass must then take
// them in admission order (the priority order here, not submission order).
TEST(Scheduler, SimultaneousCompletionsFollowAdmissionOrder) {
  gpu::DeviceProfile profile = gpu::nvidia_k40m();
  profile.api_call_host_overhead = 0.0;
  Machine m(3, profile);
  telemetry::FlightRecorder rec;
  sched::SchedulerOptions opts;
  opts.queue_policy = sched::QueuePolicy::Priority;
  opts.recorder = &rec;
  sched::Scheduler s(m.devices, opts);
  std::vector<sched::ServeJob> jobs;
  const int priority[] = {1, 3, 2};
  for (int i = 0; i < 3; ++i) {
    jobs.push_back(sched::make_serve_job({"stream", "small", priority[i], 0.0, {}}, i));
    s.submit(jobs.back().job);
  }
  const sched::ScheduleReport rep = s.run();
  ASSERT_EQ(rep.completed, 3);
  EXPECT_EQ(rep.jobs[1].finish, rep.jobs[0].finish);
  EXPECT_EQ(rep.jobs[2].finish, rep.jobs[0].finish);
  std::vector<int> admitted, completed;
  for (const auto& ev : rec.events()) {
    if (ev.kind == telemetry::FlightEventKind::Admit) admitted.push_back(ev.job);
    if (ev.kind == telemetry::FlightEventKind::Complete) completed.push_back(ev.job);
  }
  EXPECT_EQ(admitted, (std::vector<int>{1, 2, 0}));
  EXPECT_EQ(completed, admitted);
  for (const auto& j : jobs) EXPECT_TRUE(j.verify());
}

// A job holds one pending hook, on the first of its stream events that has
// not fired. Three chunks over two streams put the last chunk on the first
// stream, so by the time that event fires the other stream's event already
// has: the hook must find it complete and announce the job right away.
TEST(Scheduler, JobWhoseOtherStreamsFinishedFirstStillCompletes) {
  Machine m(1);
  m.gpus[0]->trace().set_enabled(true);
  sched::Scheduler s(m.devices, {});
  sched::ServeJob sj = sched::make_serve_job({"stream", "small", 0, 0.0, {}}, 0);
  sj.job.spec.num_streams = 2;
  sj.job.spec.chunk_size = (sj.job.spec.iterations() + 2) / 3;
  s.submit(sj.job);
  const sched::ScheduleReport rep = s.run();
  ASSERT_EQ(rep.completed, 1);
  EXPECT_TRUE(sj.verify());

  const sim::Trace& trace = m.gpus[0]->trace();
  SimTime first = -1.0, other = -1.0;
  for (const sim::Span& sp : trace.spans()) {
    if (sp.kind != sim::SpanKind::Sync || sp.trace != 0) continue;
    if (trace.label(sp) == "event(pipe0)") first = sp.end;
    if (trace.label(sp) == "event(pipe1)") other = sp.end;
  }
  ASSERT_GE(other, 0.0);
  EXPECT_GT(first, other);
  EXPECT_EQ(rep.jobs[0].finish, first);
}

// Sharded and solo jobs interleave in the completion pass, and a sharded
// job whose round drains while every device is gone waits at the round
// boundary until one rejoins. Two runs must agree on every record and on
// every flight event.
TEST(Scheduler, ShardedAndSoloMixWithLeaveRejoinIsBitIdentical) {
  std::vector<sched::JobMixLine> mix = {{"stream", "small", 0, 0.0, {}},
                                        {"stencil", "small", 1, 0.0001, {}},
                                        {"compute", "small", 2, 0.0002, {}},
                                        {"stream", "small", 0, 0.0003, {}}};
  mix.push_back({"stencil", "medium", 0, 0.0, {}});
  const int big_id = static_cast<int>(mix.size()) - 1;
  const sched::ServeJob big = sched::make_serve_job(mix.back(), big_id);
  sched::SchedulerOptions opts;
  opts.shard_threshold = footprint_at(big.job.spec, big.job.spec.chunk_size,
                                      big.job.spec.num_streams);
  opts.reshard_interval = big.job.spec.iterations() / 8;

  auto run = [&](const sched::SchedulerOptions& o) {
    telemetry::FlightRecorder rec;
    sched::SchedulerOptions with = o;
    with.recorder = &rec;
    MixRun r = run_mix(mix, with);
    return std::make_pair(r, rec.events());
  };
  const auto ref = run(opts);
  const SimTime span = ref.first.report.makespan;
  const SimTime rejoin = ref.first.report.start + 0.5 * span;
  for (int d = 0; d < 2; ++d) {
    opts.device_events.push_back({ref.first.report.start + 0.3 * span, d, false});
    opts.device_events.push_back({rejoin, d, true});
  }
  const auto a = run(opts);
  const auto b = run(opts);
  ASSERT_EQ(a.first.report.completed, static_cast<int>(mix.size()));
  EXPECT_EQ(a.first.report.jobs[static_cast<std::size_t>(big_id)].state,
            sched::JobState::Completed);
  expect_identical(a.first, b.first);
  ASSERT_EQ(a.second.size(), b.second.size());
  int reshards = 0;
  bool resumed_at_rejoin = false;
  for (std::size_t i = 0; i < a.second.size(); ++i) {
    const telemetry::FlightEvent& x = a.second[i];
    const telemetry::FlightEvent& y = b.second[i];
    EXPECT_EQ(x.time, y.time) << i;
    EXPECT_EQ(x.kind, y.kind) << i;
    EXPECT_EQ(x.job, y.job) << i;
    EXPECT_EQ(x.device, y.device) << i;
    EXPECT_EQ(x.a, y.a) << i;
    EXPECT_EQ(x.b, y.b) << i;
    if (x.kind == telemetry::FlightEventKind::Reshard) {
      ++reshards;
      if (x.job == big_id && x.time >= rejoin) resumed_at_rejoin = true;
    }
  }
  EXPECT_GT(reshards, 0);
  // The stalled round boundary was retried when the devices came back.
  EXPECT_TRUE(resumed_at_rejoin);
}

// --- Workloads ------------------------------------------------------------

TEST(Workloads, ParsesJobMixWithCommentsAndDeadlines) {
  std::istringstream is(
      "# a comment line\n"
      "stream medium 1 0.000\n"
      "\n"
      "stencil large 0 0.002 0.05  # trailing comment\n");
  const auto mix = sched::parse_job_mix(is);
  ASSERT_EQ(mix.size(), 2u);
  EXPECT_EQ(mix[0].app, "stream");
  EXPECT_EQ(mix[0].size, "medium");
  EXPECT_EQ(mix[0].priority, 1);
  EXPECT_FALSE(mix[0].deadline.has_value());
  EXPECT_EQ(mix[1].app, "stencil");
  ASSERT_TRUE(mix[1].deadline.has_value());
  EXPECT_DOUBLE_EQ(*mix[1].deadline, 0.05);
}

TEST(Workloads, RejectsMalformedMixLines) {
  std::istringstream bad_app("warp medium 0 0.0\n");
  EXPECT_THROW(sched::parse_job_mix(bad_app), Error);
  std::istringstream missing("stream medium\n");
  EXPECT_THROW(sched::parse_job_mix(missing), Error);
  std::istringstream trailing("stream medium 0 0.0 0.1 junk\n");
  EXPECT_THROW(sched::parse_job_mix(trailing), Error);
}

TEST(Workloads, DefaultMixIsDeterministicAndSubmittable) {
  const auto a = sched::default_job_mix(6);
  const auto b = sched::default_job_mix(6);
  ASSERT_EQ(a.size(), 6u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].app, b[i].app);
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    sched::ServeJob sj = sched::make_serve_job(a[i], static_cast<int>(i));
    EXPECT_NO_THROW(sj.job.spec.validate());
  }
}

}  // namespace
}  // namespace gpupipe
