// Multi-device execution (extension): the paper's future work on
// "multi-nodes with different accelerators", CoreTSAR-style. One region's
// split loop is sliced by weight (core::shard_pipeline_specs), each slice
// runs as its own pipeline on its own device, and all devices execute
// concurrently under one shared simulation context. Input windows that
// overhang a slice boundary travel device-to-device: the slicer wires
// ShardHalo entries, the plan builder lowers them to P2pSend/P2pRecv nodes,
// and MultiPipeline implements those with a P2P copy into a staging buffer
// on the receiver, ordered by a cross-device event. Host H2D traffic
// therefore equals a one-device run's.
//
// A one-shot region passes DeviceShares and calls run(); the scheduler's
// elastic sharding (sched::ShardRun, docs/sharding.md) drives one
// MultiPipeline per round split-phase. Every Gpu must share one
// SharedContext, the schedule must be static, and every split dim-0 affine.
#pragma once

#include <memory>
#include <vector>

#include "core/pipeline.hpp"

namespace gpupipe::core {

/// How MultiPipeline divides the split loop across devices.
struct DeviceShare {
  gpu::Gpu* device = nullptr;
  /// Relative share of iterations; <= 0 means "derive from peak_flops".
  double weight = 0.0;
};

/// One pipelined region fanned out over several devices.
class MultiPipeline {
 public:
  /// Slices `spec` across `devices` by their shares and builds every
  /// slice's pipeline and halo staging up front, like Pipeline's own
  /// constructor, so run() times only the region.
  MultiPipeline(const std::vector<DeviceShare>& devices, const PipelineSpec& spec);
  /// Runs precomputed slices (core::shard_pipeline_specs output, possibly
  /// with per-slice shapes frozen); slice.source indexes `devices`. Each
  /// slice is built by the first enqueue(), just before it is issued.
  MultiPipeline(std::vector<gpu::Gpu*> devices, std::vector<ShardSlice> slices);
  ~MultiPipeline();
  MultiPipeline(const MultiPipeline&) = delete;
  MultiPipeline& operator=(const MultiPipeline&) = delete;

  /// Issues every slice without blocking, one slice at a time in
  /// descending order so a halo sender is issued before its receiver waits
  /// on it, and records an event on each of the slice's streams.
  void enqueue(const KernelFactory& make_kernel);
  /// The stream events of the last enqueue(), every slice (ascending); the
  /// round is done once all of them fired.
  std::vector<gpu::EventPtr> events() const;
  /// Drains every slice (ascending order).
  void wait();
  /// The synchronous region: issues like enqueue(), minus the completion
  /// events it does not need, then wait()s.
  void run(const KernelFactory& make_kernel) {
    issue(make_kernel, false);
    wait();
  }

  int device_count() const { return static_cast<int>(devices_.size()); }
  /// The loop sub-range assigned to device `i` ({0, 0} if it got none).
  std::pair<std::int64_t, std::int64_t> slice(int i) const;
  /// Transfer statistics summed over every slice.
  PipelineStats stats() const;
  /// Timestamp of the last stream event of the last enqueue().
  SimTime finish_time() const;

  /// Bytes one halo link pushed device-to-device in the last enqueue()
  /// (devices as indices into the constructor's device vector).
  struct HaloTransfer {
    int from = -1;
    int to = -1;
    Bytes bytes = 0;
  };
  /// One entry per halo link, in creation (descending sender) order.
  std::vector<HaloTransfer> halo_transfers() const;

  /// Collects every slice's pipeline metrics into `reg` under
  /// `prefix` + "dev<i>." namespaces (devices without a slice are skipped).
  void collect_metrics(telemetry::Registry& reg, const std::string& prefix = {}) const;

 private:
  /// One staged halo channel between neighbouring slices, per array: the
  /// sender P2P-copies its overhanging window head into `stage` (on the
  /// receiver's device) and records `sent`; the receiver waits on `sent`
  /// and lands the slice into its own ring slots with an on-device copy.
  struct HaloLink {
    int from = -1;  ///< device indices (halo_transfers)
    int to = -1;
    gpu::Gpu* peer = nullptr;  ///< the receiving device, which holds `stage`
    std::byte* stage = nullptr;
    std::int64_t lo = 0;  ///< first staged split index (the slice boundary)
    Bytes unit = 0;       ///< bytes per split index (the array's slab size)
    gpu::EventPtr sent;
    Bytes moved = 0;  ///< bytes pushed through this link (last enqueue)
  };

  /// One slice, and the PlanExchange its P2pSend/P2pRecv nodes dispatch to.
  struct Part final : PlanExchange {
    void issue(gpu::Gpu& g, gpu::Stream& s, const PlanNode& n) override;
    ShardSlice slice;
    std::unique_ptr<Pipeline> pipeline;  ///< null until build()
    std::vector<HaloLink*> send;         ///< by array index; null = no halo
    std::vector<HaloLink*> recv;
    std::vector<gpu::EventPtr> events;
  };

  /// Builds part `s`'s pipeline and the halo links it sends on.
  void build(std::size_t s);
  /// Builds any unbuilt slice, issues every slice (descending), and
  /// optionally records per-stream completion events.
  void issue(const KernelFactory& make_kernel, bool record_events);

  std::vector<gpu::Gpu*> devices_;
  std::vector<Part> parts_;  ///< ascending slice order
  std::vector<std::unique_ptr<HaloLink>> links_;
};

}  // namespace gpupipe::core
