#include "sched/shard.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"

namespace gpupipe::sched {

namespace {
constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();
}

bool shardable(const core::PipelineSpec& spec) {
  if (spec.schedule != core::ScheduleKind::Static) return false;
  if (!spec.halos.empty()) return false;
  if (spec.num_chunks() < 2) return false;
  for (const core::ArraySpec& a : spec.arrays)
    if (a.split.dim != 0 || a.split.window_fn) return false;
  return true;
}

std::vector<double> shard_weights(const std::vector<int>& devices,
                                  const std::vector<SimTime>& solo_estimate,
                                  const std::vector<SimTime>& outstanding) {
  std::vector<double> w;
  w.reserve(devices.size());
  for (int d : devices) {
    const std::size_t di = static_cast<std::size_t>(d);
    const SimTime est = di < solo_estimate.size() ? solo_estimate[di] : kInf;
    const SimTime load = di < outstanding.size() ? outstanding[di] : 0.0;
    w.push_back(std::isfinite(est) && est > 0.0 ? 1.0 / (est + load) : 0.0);
  }
  return w;
}

// --- ShardRun ---

ShardRun::ShardRun(const Job& job, std::vector<gpu::Gpu*> devices,
                   AdmissionController& admission, ShardRunOptions opts)
    : job_(job),
      devices_(std::move(devices)),
      admission_(admission),
      opts_(std::move(opts)),
      cursor_(job.spec.loop_begin),
      end_(job.spec.loop_end) {
  require(shardable(job_.spec), "job spec is not shardable");
  require(opts_.max_shards >= 1, "max_shards must be >= 1");
}

ShardRun::~ShardRun() {
  // Abnormal teardown with a round still live: drain, then release.
  if (round_) round_->wait();
  round_.reset();
  for (const Shard& sh : shards_) admission_.release(sh.device, sh.footprint);
}

bool ShardRun::start_round(const std::vector<int>& devices,
                           const std::vector<double>& weights) {
  require(!live(), "ShardRun::start_round while a round is live");
  require(!finished(), "ShardRun::start_round after the loop completed");
  require(devices.size() == weights.size(), "devices/weights size mismatch");

  // Candidate set: positive-weight devices, the max_shards heaviest (ties
  // break to the lower device index), restored to device order so shard s
  // sits on a lower device index than shard s+1 — deterministic.
  std::vector<int> devs;
  std::vector<double> w;
  {
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < devices.size(); ++i)
      if (weights[i] > 0.0) order.push_back(i);
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (weights[a] != weights[b]) return weights[a] > weights[b];
      return devices[a] < devices[b];
    });
    if (order.size() > static_cast<std::size_t>(opts_.max_shards))
      order.resize(static_cast<std::size_t>(opts_.max_shards));
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return devices[a] < devices[b]; });
    for (std::size_t i : order) {
      devs.push_back(devices[i]);
      w.push_back(weights[i]);
    }
  }

  core::PipelineSpec base = job_.spec;
  base.loop_begin = cursor_;
  base.loop_end = opts_.reshard_interval > 0
                      ? std::min(end_, cursor_ + opts_.reshard_interval)
                      : end_;

  // Partition, admit every shard, drop refused devices, repeat until the
  // whole round admits (or no device is left). try_admit commits nothing,
  // so a failed attempt leaves the controller untouched.
  std::vector<core::ShardSlice> slices;
  std::vector<AdmissionDecision> dec;
  for (;;) {
    if (devs.empty()) return false;
    slices = core::shard_pipeline_specs(base, w);
    dec.clear();
    std::vector<char> refuse(devs.size(), 0);
    bool refused = false;
    for (core::ShardSlice& sl : slices) {
      // Re-point the slice at the scheduler's device vector.
      const std::size_t j = static_cast<std::size_t>(sl.source);
      sl.source = devs[j];
      const AdmissionDecision d = admission_.try_admit(sl.source, sl.spec);
      if (!d.admitted) {
        refused = true;
        refuse[j] = 1;
      }
      dec.push_back(d);
    }
    if (!refused) break;
    std::vector<int> nd;
    std::vector<double> nw;
    for (std::size_t j = 0; j < devs.size(); ++j) {
      if (refuse[j]) continue;
      nd.push_back(devs[j]);
      nw.push_back(w[j]);
    }
    devs.swap(nd);
    w.swap(nw);
  }

  round_end_ = base.loop_end;
  if (rounds_ == 0) {
    chunk0_ = dec[0].chunk_size;
    streams0_ = dec[0].num_streams;
  }
  shards_.clear();
  for (std::size_t i = 0; i < slices.size(); ++i) {
    core::ShardSlice& sl = slices[i];
    shards_.push_back({sl.source, dec[i].footprint});
    admission_.commit(sl.source, dec[i].footprint);
    if (dec[i].shrunk) shrunk_ = true;
    // Freeze the admitted shape, exactly like the scheduler's solo path.
    sl.spec.chunk_size = dec[i].chunk_size;
    sl.spec.num_streams = dec[i].num_streams;
    sl.spec.mem_limit = dec[i].footprint;
    log_debug("shard: round ", rounds_, " shard ", i, " -> dev", sl.source, " [", sl.begin,
              ", ", sl.end, "), chunk ", dec[i].chunk_size, ", ", dec[i].num_streams,
              " streams");
  }

  // Each shard device hosts exactly one slice, so publishing the trace id on
  // all of them for the enqueue tags exactly this job's submissions.
  round_ = std::make_unique<core::MultiPipeline>(devices_, std::move(slices));
  for (const Shard& sh : shards_)
    devices_[static_cast<std::size_t>(sh.device)]->trace().set_trace_id(opts_.trace_id);
  round_->enqueue(job_.kernel);
  for (const Shard& sh : shards_)
    devices_[static_cast<std::size_t>(sh.device)]->trace().set_trace_id(-1);

  if (opts_.flight) {
    for (const auto& t : round_->halo_transfers())
      if (t.bytes > 0)
        opts_.flight(telemetry::FlightEventKind::P2pXfer, static_cast<std::int64_t>(t.bytes),
                     t.from, t.to);
  }
  return true;
}

void ShardRun::finish_round() {
  require(live(), "ShardRun::finish_round without a live round");
  finish_time_ = std::max(finish_time_, round_->finish_time());
  // All events already fired; the drain is bookkeeping, and destroying the
  // round releases its ring buffers, streams and halo stages.
  round_->wait();
  const core::PipelineStats st = round_->stats();
  p2p_bytes_ += st.p2p_bytes;
  h2d_bytes_ += st.h2d_bytes;
  d2h_bytes_ += st.d2h_bytes;
  round_.reset();
  for (const Shard& sh : shards_) admission_.release(sh.device, sh.footprint);
  shards_.clear();
  cursor_ = round_end_;
  ++rounds_;
}

std::int64_t ShardRun::device_mask() const {
  std::int64_t mask = 0;
  for (const Shard& sh : shards_)
    if (sh.device >= 0 && sh.device < 63) mask |= std::int64_t{1} << sh.device;
  return mask;
}

std::vector<int> ShardRun::shard_devices() const {
  std::vector<int> out;
  out.reserve(shards_.size());
  for (const Shard& sh : shards_) out.push_back(sh.device);
  return out;
}

Bytes ShardRun::round_footprint() const {
  Bytes total = 0;
  for (const Shard& sh : shards_) total += sh.footprint;
  return total;
}

int ShardRun::first_device() const {
  return shards_.empty() ? -1 : shards_.front().device;
}

}  // namespace gpupipe::sched
