// Elastic multi-device sharding (extension).
//
// The scheduler hands a single oversized job to a ShardRun, which slices the
// outer loop across the devices that are available *right now*, weighted by
// live load, and keeps re-deciding at round boundaries — devices can join or
// leave between rounds and the remaining iterations are re-balanced each
// time. ShardRun is only the policy: candidate devices, per-shard admission
// (refused devices are dropped and the rest re-sliced), memory commits and
// releases, the round cursor, totals and flight events. Each round runs on
// one core::MultiPipeline (core/multi.hpp), the multi-device executor, which
// also moves boundary halos device-to-device, so a sharded run's host H2D
// traffic equals a solo run's.
//
// Determinism: shard outputs are disjoint per iteration and halo slices are
// copies of data the sender uploaded from the same host array, so results
// are bit-identical for ANY partitioning — including a mid-run reshard
// after a device leaves. The run-twice checksum gates in tests/shard_test
// rely on this.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/flight_recorder.hpp"
#include "core/multi.hpp"
#include "sched/admission.hpp"
#include "sched/job.hpp"

namespace gpupipe::sched {

/// Whether `spec` can be sharded: static schedule, dim-0 affine splits, no
/// pre-existing halo wiring, and at least two chunks to split. (The kernel
/// factory must also be range-agnostic — true of factories that address
/// exclusively through ChunkContext, which the executor already requires.)
bool shardable(const core::PipelineSpec& spec);

/// Load-aware shard weights for `devices` (indices into the scheduler's
/// device vector): w_d = 1 / (est_d + outstanding_d) — the reciprocal of
/// when device d could finish this job solo after draining its current
/// work, so faster and idler devices take proportionally more iterations.
/// A device whose estimate is unknown/infinite gets weight 0 (dropped).
std::vector<double> shard_weights(const std::vector<int>& devices,
                                  const std::vector<SimTime>& solo_estimate,
                                  const std::vector<SimTime>& outstanding);

/// ShardRun knobs and observability hooks.
struct ShardRunOptions {
  /// Devices one sharded job may span per round.
  int max_shards = 4;
  /// Loop iterations per round; round boundaries are the reshard points.
  /// 0 = a single round covering the whole loop (no mid-job resharding).
  std::int64_t reshard_interval = 0;
  /// Trace id stamped on every task the shards submit.
  std::int32_t trace_id = -1;
  /// Flight hook for P2pXfer events: (kind, a, b, device). Null = off.
  std::function<void(telemetry::FlightEventKind, std::int64_t, std::int64_t, int)>
      flight;
};

/// One sharded job execution: a sequence of rounds, each an admission-
/// checked MultiPipeline over a partition of the remaining iterations.
/// Driven by the Scheduler through start_round / round_events / finish_round.
class ShardRun {
 public:
  /// `job` and `admission` must outlive the run; `devices` is the
  /// scheduler's full device vector (rounds use subsets of it).
  ShardRun(const Job& job, std::vector<gpu::Gpu*> devices,
           AdmissionController& admission, ShardRunOptions opts);
  ~ShardRun();
  ShardRun(const ShardRun&) = delete;
  ShardRun& operator=(const ShardRun&) = delete;

  /// Partitions the next round over `devices` by `weights` (parallel
  /// vectors), admits every shard, commits its memory, and enqueues the
  /// round's MultiPipeline. Devices whose shard fails admission are dropped
  /// and the rest re-partitioned. Returns false — with nothing committed
  /// or enqueued — when no device can admit a shard.
  bool start_round(const std::vector<int>& devices, const std::vector<double>& weights);

  /// The live round's stream events; the round is done once all fired.
  std::vector<gpu::EventPtr> round_events() const { return round_->events(); }
  /// Whether a round is currently enqueued.
  bool live() const { return round_ != nullptr; }
  /// Drains the finished round, tears down its MultiPipeline, releases its
  /// admission commits, folds its transfer stats into the run totals, and
  /// advances the iteration cursor.
  void finish_round();

  /// All iterations produced?
  bool finished() const { return cursor_ >= end_; }
  /// Iterations not yet covered by a finished round.
  std::int64_t remaining() const { return end_ - cursor_; }

  // --- live-round accounting (valid while live()) ---
  int num_shards() const { return static_cast<int>(shards_.size()); }
  /// Bitmask of the live round's device indices (bit d = device d).
  std::int64_t device_mask() const;
  /// The live round's device indices, shard order.
  std::vector<int> shard_devices() const;
  /// Committed ring-buffer bytes of the live round, all shards.
  Bytes round_footprint() const;
  /// Halo bytes the live round pushed device-to-device at enqueue.
  Bytes round_p2p_bytes() const { return round_->stats().p2p_bytes; }
  /// First shard's admitted shape (what the scheduler reports for the job).
  int first_device() const;
  std::int64_t first_chunk_size() const { return chunk0_; }
  int first_num_streams() const { return streams0_; }
  bool shrunk() const { return shrunk_; }

  // --- run totals (accumulated by finish_round) ---
  int rounds() const { return rounds_; }
  Bytes p2p_bytes() const { return p2p_bytes_; }
  Bytes h2d_bytes() const { return h2d_bytes_; }
  Bytes d2h_bytes() const { return d2h_bytes_; }
  /// Timestamp of the last stream event across all finished rounds.
  SimTime finish_time() const { return finish_time_; }

 private:
  /// A live-round shard: its device (scheduler index) and committed bytes.
  struct Shard {
    int device = -1;
    Bytes footprint = 0;
  };

  const Job& job_;
  std::vector<gpu::Gpu*> devices_;
  AdmissionController& admission_;
  ShardRunOptions opts_;

  std::int64_t cursor_ = 0;
  std::int64_t end_ = 0;
  std::int64_t round_end_ = 0;  ///< where the live round's slice stops
  std::vector<Shard> shards_;  ///< live round, ascending shard order
  std::unique_ptr<core::MultiPipeline> round_;  ///< the live round

  std::int64_t chunk0_ = 0;
  int streams0_ = 0;
  bool shrunk_ = false;
  int rounds_ = 0;
  Bytes p2p_bytes_ = 0;
  Bytes h2d_bytes_ = 0;
  Bytes d2h_bytes_ = 0;
  SimTime finish_time_ = 0.0;
};

}  // namespace gpupipe::sched
