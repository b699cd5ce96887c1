#include "core/multi.hpp"

#include <algorithm>

#include "core/telemetry.hpp"

namespace gpupipe::core {

namespace {

std::vector<ShardSlice> share_slices(const std::vector<DeviceShare>& shares,
                                     const PipelineSpec& spec) {
  std::vector<double> weights;
  for (const DeviceShare& d : shares) {
    require(d.device != nullptr, "MultiPipeline device pointer is null");
    weights.push_back(d.weight > 0.0 ? d.weight : d.device->profile().peak_flops);
  }
  return shard_pipeline_specs(spec, weights);
}

std::vector<gpu::Gpu*> share_devices(const std::vector<DeviceShare>& shares) {
  std::vector<gpu::Gpu*> out;
  for (const DeviceShare& d : shares) out.push_back(d.device);
  return out;
}

}  // namespace

MultiPipeline::MultiPipeline(const std::vector<DeviceShare>& devices, const PipelineSpec& spec)
    : MultiPipeline(share_devices(devices), share_slices(devices, spec)) {
  for (std::size_t s = parts_.size(); s-- > 0;) build(s);
}

MultiPipeline::MultiPipeline(std::vector<gpu::Gpu*> devices, std::vector<ShardSlice> slices)
    : devices_(std::move(devices)) {
  require(!devices_.empty(), "MultiPipeline needs at least one device");
  require(!slices.empty(), "MultiPipeline needs at least one slice");
  for (const gpu::Gpu* d : devices_) {
    require(d != nullptr, "MultiPipeline device pointer is null");
    require(d->context() == devices_[0]->context(),
            "all MultiPipeline devices must share one SharedContext");
  }
  parts_.resize(slices.size());
  for (std::size_t s = 0; s < slices.size(); ++s) {
    require(slices[s].source >= 0 && slices[s].source < device_count(),
            "MultiPipeline slice source is not a device index");
    parts_[s].slice = std::move(slices[s]);
    parts_[s].send.assign(parts_[s].slice.spec.arrays.size(), nullptr);
    parts_[s].recv.assign(parts_[s].slice.spec.arrays.size(), nullptr);
  }
}

MultiPipeline::~MultiPipeline() {
  // Pipelines first (each drains its own streams before freeing its rings),
  // then the halo stages their P2P copies wrote into.
  for (Part& p : parts_) p.pipeline.reset();
  for (auto& l : links_) l->peer->device_free(l->stage);
}

void MultiPipeline::Part::issue(gpu::Gpu& g, gpu::Stream& s, const PlanNode& n) {
  const std::size_t ai = static_cast<std::size_t>(n.array);
  const BufferView& v = pipeline->array_view(ai);
  if (n.op == PlanOp::P2pSend) {
    HaloLink* link = ai < send.size() ? send[ai] : nullptr;
    require(link != nullptr, "p2p-send node has no halo link for its array");
    // Push the overhanging window head from this slice's ring slots into
    // the staging buffer on the receiving device — the copy rides this
    // device's DMA engine, never the host.
    for (const PlanSegment& seg : n.segments) {
      std::byte* src = v.base + static_cast<Bytes>(seg.slot) * link->unit;
      std::byte* dst = link->stage + static_cast<Bytes>(seg.index - link->lo) * link->unit;
      g.memcpy_p2p_async(*link->peer, dst, src, seg.bytes(), s);
      link->moved += seg.bytes();
    }
    link->sent = g.record_event(s);
  } else {
    require(n.op == PlanOp::P2pRecv, "exchange issued for a non-P2P node");
    HaloLink* link = ai < recv.size() ? recv[ai] : nullptr;
    require(link != nullptr, "p2p-recv node has no halo link for its array");
    require(link->sent != nullptr, "p2p-recv enqueued before its peer's send");
    g.wait_event(s, link->sent);
    for (const PlanSegment& seg : n.segments) {
      std::byte* dst = v.base + static_cast<Bytes>(seg.slot) * link->unit;
      const std::byte* src =
          link->stage + static_cast<Bytes>(seg.index - link->lo) * link->unit;
      g.memcpy_d2d_async(dst, src, seg.bytes(), s);
    }
  }
}

void MultiPipeline::build(std::size_t s) {
  Part& p = parts_[s];
  gpu::Gpu& dev = *devices_[static_cast<std::size_t>(p.slice.source)];
  p.pipeline = std::make_unique<Pipeline>(dev, p.slice.spec);
  for (const ShardHalo& h : p.slice.spec.halos) {
    const std::size_t ai = static_cast<std::size_t>(h.array);
    if (h.send_peer >= 0) {
      require(static_cast<std::size_t>(h.send_peer) < s,
              "slice halo must send to a lower slice");
      Part& peer = parts_[static_cast<std::size_t>(h.send_peer)];
      auto link = std::make_unique<HaloLink>();
      link->from = p.slice.source;
      link->to = peer.slice.source;
      link->peer = devices_[static_cast<std::size_t>(link->to)];
      link->lo = p.slice.spec.arrays[ai].split.start(p.slice.begin);  // the boundary
      link->unit = p.pipeline->array_view(ai).slab;
      link->stage =
          link->peer->device_malloc(static_cast<Bytes>(h.send_hi - link->lo) * link->unit);
      p.send[ai] = link.get();
      peer.recv[ai] = link.get();
      links_.push_back(std::move(link));
    }
    if (h.recv_peer >= 0)
      ensure(p.recv[ai] != nullptr, "slice recv halo has no link from its peer");
  }
  p.pipeline->set_exchange(&p);
}

void MultiPipeline::enqueue(const KernelFactory& make_kernel) { issue(make_kernel, true); }

void MultiPipeline::issue(const KernelFactory& make_kernel, bool record_events) {
  for (auto& l : links_) l->moved = 0;
  // Descending order: slice s+1 sends the halo to slice s, and the
  // receiver's P2pRecv can only wait on an event that exists once the
  // sender is issued.
  for (std::size_t s = parts_.size(); s-- > 0;) {
    Part& p = parts_[s];
    if (!p.pipeline) build(s);
    p.pipeline->enqueue(make_kernel);
    p.events.clear();
    if (!record_events) continue;
    for (gpu::Stream* st : p.pipeline->streams())
      p.events.push_back(p.pipeline->device().record_event(*st));
  }
}

bool MultiPipeline::done() const {
  for (const Part& p : parts_)
    for (const auto& ev : p.events)
      if (!ev->complete()) return false;
  return true;
}

void MultiPipeline::wait() {
  for (Part& p : parts_)
    if (p.pipeline) p.pipeline->wait();
}

std::pair<std::int64_t, std::int64_t> MultiPipeline::slice(int i) const {
  for (const Part& p : parts_)
    if (p.slice.source == i) return {p.slice.begin, p.slice.end};
  return {0, 0};
}

PipelineStats MultiPipeline::stats() const {
  PipelineStats t;
  for (const Part& p : parts_) {
    if (!p.pipeline) continue;
    const PipelineStats& s = p.pipeline->stats();
    t.chunks += s.chunks;
    t.h2d_copies += s.h2d_copies;
    t.d2h_copies += s.d2h_copies;
    t.h2d_bytes += s.h2d_bytes;
    t.d2h_bytes += s.d2h_bytes;
    t.kernels += s.kernels;
    t.events += s.events;
    t.stream_waits += s.stream_waits;
    t.p2p_copies += s.p2p_copies;
    t.p2p_bytes += s.p2p_bytes;
    t.handoff_copies += s.handoff_copies;
    t.handoff_bytes += s.handoff_bytes;
  }
  return t;
}

SimTime MultiPipeline::finish_time() const {
  SimTime t = 0.0;
  for (const Part& p : parts_)
    for (const auto& ev : p.events) t = std::max(t, ev->timestamp());
  return t;
}

std::vector<MultiPipeline::HaloTransfer> MultiPipeline::halo_transfers() const {
  std::vector<HaloTransfer> out;
  out.reserve(links_.size());
  for (const auto& l : links_) out.push_back({l->from, l->to, l->moved});
  return out;
}

void MultiPipeline::collect_metrics(telemetry::Registry& reg,
                                    const std::string& prefix) const {
  for (const Part& p : parts_) {
    if (!p.pipeline) continue;
    p.pipeline->collect_metrics(reg,
                                prefix + "dev" + std::to_string(p.slice.source) + ".");
  }
  // The devices share one SharedContext (class invariant), so the event
  // queue / task arena capacity counters are machine-wide: collect them once
  // under the base prefix.
  collect_sim_metrics(reg, devices_.front()->context()->sim, prefix);
}

}  // namespace gpupipe::core
