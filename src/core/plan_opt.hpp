// Plan optimization passes — plan-to-plan transforms over ExecutionPlan.
//
// PlanBuilder emits the naive schedule: every chunk (or tile) uploads its
// full input window, even when most of it is still resident in the ring
// from the previous chunk. The passes here recover the paper's intended
// transfer volume — and a little more — as pure IR rewrites:
//
//   1. halo-reuse H2D elimination (opt_level >= 1): replays the plan with a
//      per-ring-cell residency table and shrinks or drops H2D nodes whose
//      slots already hold the same host indices, rewiring kernel
//      dependencies to the producing transfer of the resident slice and
//      regenerating the slot-reuse guards for the cells actually
//      overwritten;
//   2. segment coalescing (opt_level >= 1): merges adjacent non-wrapping
//      transfer segments of one node into a single contiguous (or single
//      pitched 2-D) copy, cutting per-copy launch latency;
//   3. stream rebalance (opt_level >= 2): greedily re-assigns transfer
//      nodes (with their guarding SlotReuse nodes) to the least-loaded
//      stream by byte cost. Not on by default: it reshapes the schedule
//      beyond the paper's round-robin placement;
//   4. kernel fusion (opt_level >= 2): merges adjacent same-stream kernel
//      nodes with contiguous iteration ranges and compatible access shapes
//      into one launch, when no intervening transfer or drain hazard orders
//      between them. Cost-gated: when a device profile is supplied the pass
//      keeps the fused plan only if a dry run predicts it faster (fusing
//      can erase launch rounds but also delay drains past long kernels);
//   0. inter-job stitching (any opt level, whenever the spec wired
//      ArrayHandoff entries): rewrites the D2H tail (produce side) or H2D
//      head (consume side) of handoff arrays into DeviceHandoff nodes, so
//      lineage bytes stay device-resident instead of round-tripping the
//      host. Runs first — it is a lowering of the scheduler's placement
//      decision, not an optional optimization.
//
// Every pass preserves ExecutionPlan::validate() — the optimizer runs it
// would be cheating to skip the guards the builder proved necessary.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/plan.hpp"

namespace gpupipe::core {

/// What one pass did to the plan.
struct PassStats {
  std::string pass;
  std::int64_t nodes_removed = 0;  ///< nodes dropped from the plan
  std::int64_t nodes_changed = 0;  ///< nodes shrunk / merged / re-assigned
  Bytes bytes_saved = 0;           ///< transfer bytes eliminated
  /// Per-array share of bytes_saved (plan array order, zero entries kept).
  std::vector<std::pair<std::string, Bytes>> bytes_saved_by_array;
  double elapsed_s = 0.0;  ///< wall time of the pass (in memory only; never serialized)
};

/// Before/after accounting of one optimize_plan call.
struct OptReport {
  std::vector<PassStats> passes;
  Bytes h2d_bytes_before = 0;
  Bytes h2d_bytes_after = 0;
  Bytes d2h_bytes_before = 0;
  Bytes d2h_bytes_after = 0;
  std::int64_t nodes_before = 0;
  std::int64_t nodes_after = 0;
  /// Host transfer bytes the stitch pass turned into device-resident
  /// handoffs (both directions; counted once per rewritten node).
  Bytes stitched_bytes = 0;
  /// Kernel launches erased by the fusion pass.
  std::int64_t fused_kernels = 0;
};

/// Runs the passes enabled by `opt_level` (0 = none, 1 = halo-reuse +
/// coalescing, 2 = + stream rebalance and kernel fusion) over `plan` in
/// place, plus the stitch lowering at any level when the plan carries
/// ArrayHandoff wiring. `profile`/`cost` (optional) let the fusion pass
/// arbitrate with a cost-model dry run — without a profile fusion is gated
/// on launch-overhead savings alone. Idempotent: re-optimizing an optimized
/// plan changes nothing.
OptReport optimize_plan(ExecutionPlan& plan, int opt_level,
                        const gpu::DeviceProfile* profile = nullptr,
                        const DryRunCost& cost = {});

}  // namespace gpupipe::core
