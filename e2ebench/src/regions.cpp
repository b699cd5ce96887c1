// Regions workload: the paper's offload regions compiled and run cold.
//
// Two kinds of region share one iteration:
//   * app regions — the Fig. 3-10 applications and datasets on the three
//     device profiles. Each is tuned by a measured chunk x stream sweep of
//     its Pipelined-buffer version, then its tuned shape and its naive
//     offload run side by side;
//   * directive regions — two `.pipe`-style directives (a pointwise copy and
//     a 3-plane stencil) bound at seeded extents through dsl::compile, tuned
//     by a dry-run core::autotune, constructed as core::Pipeline and run,
//     next to a naive single-chunk offload of the same spec.
// Everything runs on Modeled-mode devices; small functional copies of every
// region are verified against host references afterwards. The plan cache's
// contents (the compiled corpus) are serialized into one bundle at the end.
#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>

#include "apps/conv3d.hpp"
#include "apps/matmul.hpp"
#include "apps/qcd.hpp"
#include "apps/stencil.hpp"
#include "bench.hpp"
#include "common/checksum.hpp"
#include "core/autotune.hpp"
#include "core/plan_cache.hpp"
#include "core/plan_serialize.hpp"
#include "dsl/bind.hpp"
#include "gpu/device_profile.hpp"

namespace e2ebench {
namespace {

using namespace gpupipe;

using ShapeFn = std::function<apps::Measurement(gpu::Gpu&, std::int64_t, int)>;
using FixedFn = std::function<apps::Measurement(gpu::Gpu&)>;

/// One application dataset on one device profile.
struct AppRegion {
  std::string name;
  gpu::DeviceProfile profile;
  ShapeFn buffer;  ///< Pipelined-buffer version at (chunk, streams)
  FixedFn naive;
  std::vector<std::int64_t> chunks;
  std::vector<int> streams;
  /// Fig. 5 / Fig. 6 workloads: the paper's configuration and the
  /// hand-coded Pipelined version feed apps.speedup_vs_naive and
  /// apps.device_mem_saving.
  bool fig5 = false;
  std::int64_t paper_chunk = 1;  ///< the paper runs every app on 2 streams
  FixedFn handcoded;
};

// Datasets of the paper's figures (see bench/workloads.hpp for their
// derivation); copied here so the benchmark's inputs stay fixed.
apps::Conv3dConfig conv3d(std::int64_t n) {
  apps::Conv3dConfig c;
  c.ni = c.nj = c.nk = n;
  c.passes = 1;
  return c;
}
apps::StencilConfig stencil(std::int64_t nx, std::int64_t ny, std::int64_t nz, int sweeps) {
  apps::StencilConfig c;
  c.nx = nx;
  c.ny = ny;
  c.nz = nz;
  c.sweeps = sweeps;
  return c;
}
apps::QcdConfig qcd(std::int64_t n) {
  apps::QcdConfig c;
  c.n = n;
  c.passes = 2;
  return c;
}

AppRegion conv3d_region(std::string name, gpu::DeviceProfile p, apps::Conv3dConfig cfg) {
  AppRegion r;
  r.name = std::move(name);
  r.profile = std::move(p);
  r.buffer = [cfg](gpu::Gpu& g, std::int64_t chunk, int streams) {
    apps::Conv3dConfig c = cfg;
    c.chunk_size = chunk;
    c.num_streams = streams;
    return apps::conv3d_pipelined_buffer(g, c);
  };
  r.naive = [cfg](gpu::Gpu& g) { return apps::conv3d_naive(g, cfg); };
  r.handcoded = [cfg](gpu::Gpu& g) { return apps::conv3d_pipelined(g, cfg); };
  return r;
}

AppRegion stencil_region(std::string name, gpu::DeviceProfile p, apps::StencilConfig cfg) {
  AppRegion r;
  r.name = std::move(name);
  r.profile = std::move(p);
  r.buffer = [cfg](gpu::Gpu& g, std::int64_t chunk, int streams) {
    apps::StencilConfig c = cfg;
    c.chunk_size = chunk;
    c.num_streams = streams;
    return apps::stencil_pipelined_buffer(g, c);
  };
  r.naive = [cfg](gpu::Gpu& g) { return apps::stencil_naive(g, cfg); };
  // The hand-coded pipeline uses the OpenACC default of one queue per
  // subtask (8 streams) and two planes per chunk.
  r.handcoded = [cfg](gpu::Gpu& g) {
    apps::StencilConfig c = cfg;
    c.chunk_size = 2;
    c.num_streams = 8;
    return apps::stencil_pipelined(g, c);
  };
  r.paper_chunk = 4;
  return r;
}

AppRegion qcd_region(std::string name, gpu::DeviceProfile p, apps::QcdConfig cfg) {
  AppRegion r;
  r.name = std::move(name);
  r.profile = std::move(p);
  r.buffer = [cfg](gpu::Gpu& g, std::int64_t chunk, int streams) {
    apps::QcdConfig c = cfg;
    c.chunk_size = chunk;
    c.num_streams = streams;
    return apps::qcd_pipelined_buffer(g, c);
  };
  r.naive = [cfg](gpu::Gpu& g) { return apps::qcd_naive(g, cfg); };
  r.handcoded = [cfg](gpu::Gpu& g) { return apps::qcd_pipelined(g, cfg); };
  return r;
}

AppRegion matmul_region(std::string name, gpu::DeviceProfile p, std::int64_t n) {
  AppRegion r;
  r.name = std::move(name);
  r.profile = std::move(p);
  r.buffer = [n](gpu::Gpu& g, std::int64_t chunk, int streams) {
    apps::MatmulConfig c;
    c.n = n;
    c.chunk_cols = chunk;
    c.num_streams = streams;
    return apps::matmul_pipeline_buffer(g, c);
  };
  r.naive = [n](gpu::Gpu& g) {
    apps::MatmulConfig c;
    c.n = n;
    return apps::matmul_baseline(g, c);
  };
  r.chunks = {256, 512, 1024};
  r.streams = {1, 2, 4};
  return r;
}

/// The app corpus. The five Fig. 5 workloads keep the paper's datasets; the
/// others get seeded extents a few percent above their figure's, so every
/// simulated result moves with the seed.
std::vector<AppRegion> app_corpus(bool small, Rng& rng) {
  const gpu::DeviceProfile k40m = gpu::nvidia_k40m();
  const gpu::DeviceProfile hd7970 = gpu::amd_hd7970();
  const gpu::DeviceProfile phi = gpu::intel_xeonphi();
  auto jitter = [&rng](std::int64_t n, std::int64_t step) {
    return n + step * static_cast<std::int64_t>(rng.below(5));
  };
  std::vector<AppRegion> c;
  // Fig. 3-6 on the K40m: the five workloads of Fig. 5.
  c.push_back(conv3d_region("3dconv/k40m", k40m, conv3d(small ? 64 : 608)));
  c.push_back(stencil_region("stencil/k40m", k40m, stencil(256, 256, 64, small ? 2 : 50)));
  c.push_back(qcd_region("qcd-small/k40m", k40m, qcd(12)));
  c.push_back(qcd_region("qcd-medium/k40m", k40m, qcd(small ? 12 : 24)));
  c.push_back(qcd_region("qcd-large/k40m", k40m, qcd(small ? 12 : 36)));
  for (AppRegion& r : c) r.fig5 = true;
  if (!small) {
    // Fig. 7's larger convolution volume, Figs. 9-10 matrix sizes, Fig. 8's
    // AMD datasets, and the Xeon Phi extension.
    c.push_back(conv3d_region("3dconv-320/k40m", k40m, conv3d(jitter(320, 2))));
    for (std::int64_t n : {2048, 8192, 14336})
      c.push_back(matmul_region("matmul-" + std::to_string(n) + "/k40m", k40m, jitter(n, 32)));
    c.push_back(conv3d_region("3dconv/hd7970", hd7970, conv3d(jitter(256, 2))));
    c.push_back(stencil_region("stencil/hd7970", hd7970, stencil(jitter(320, 2), 320, 128, 10)));
    c.push_back(stencil_region("stencil/xeonphi", phi, stencil(jitter(256, 2), 256, 64, 10)));
    c.push_back(qcd_region("qcd-medium/xeonphi", phi, qcd(24)));
  }
  for (AppRegion& r : c) {
    if (r.chunks.empty()) r.chunks = {1, 2, 4, 8, 16};
    if (r.streams.empty())
      r.streams = small ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
    if (small) r.chunks.resize(2);
  }
  return c;
}

/// A `.pipe`-style directive region: `in` has `halo` extra planes.
struct DirectiveRegion {
  const char* name;
  const char* directive;
  std::int64_t halo;
  double flops_per_elem;
  double bytes_per_elem;
};

const DirectiveRegion kDirectives[] = {
    {"scale2", "pipeline(static[2,2]) pipeline_map(to: A0[k:1][0:ny][0:nx]) "
               "pipeline_map(from: Anext[k:1][0:ny][0:nx])",
     0, 1.0, 16.0},
    {"avg3", "pipeline(static[4,2]) pipeline_map(to: A0[k:3][0:ny][0:nx]) "
             "pipeline_map(from: Anext[k:1][0:ny][0:nx])",
     2, 3.0, 32.0},
};

/// Binds `d` at nz x ny x nx. Host pointers are placeholders for Modeled
/// devices unless `in`/`out` are given.
core::PipelineSpec bind_directive(const DirectiveRegion& d, std::int64_t nz, std::int64_t ny,
                                  std::int64_t nx, std::byte* in, std::byte* out) {
  dsl::Bindings arrays;
  arrays["A0"] = dsl::HostArray{in, sizeof(double), {nz + d.halo, ny, nx}};
  arrays["Anext"] = dsl::HostArray{out, sizeof(double), {nz, ny, nx}};
  return dsl::compile(d.directive, "k", 0, nz, arrays, {{"ny", ny}, {"nx", nx}});
}

core::KernelFactory modeled_kernel(const DirectiveRegion& d, std::int64_t plane) {
  const double flops = d.flops_per_elem * static_cast<double>(plane);
  const double bytes = d.bytes_per_elem * static_cast<double>(plane);
  return [name = d.name, flops, bytes](const core::ChunkContext& ctx) {
    gpu::KernelDesc k;
    k.name = name;
    k.flops = flops * static_cast<double>(ctx.iterations());
    k.bytes = static_cast<Bytes>(bytes * static_cast<double>(ctx.iterations()));
    return k;
  };
}

double directive_value(const DirectiveRegion& d, const std::vector<double>& in,
                       std::int64_t plane, std::int64_t k, std::int64_t p) {
  const auto at = [&](std::int64_t kk) { return in[static_cast<std::size_t>(kk * plane + p)]; };
  return d.halo == 0 ? 2.0 * at(k) : (at(k) + at(k + 1) + at(k + 2)) / 3.0;
}

/// Functional run of `d` at a small extent against the host computation.
bool verify_directive(const DirectiveRegion& d) {
  const std::int64_t nz = 12, ny = 6, nx = 5, plane = ny * nx;
  std::vector<double> in(static_cast<std::size_t>((nz + d.halo) * plane));
  std::vector<double> out(static_cast<std::size_t>(nz * plane), 0.0);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = 0.5 + static_cast<double>(i % 17);
  core::PipelineSpec spec = bind_directive(d, nz, ny, nx, reinterpret_cast<std::byte*>(in.data()),
                                           reinterpret_cast<std::byte*>(out.data()));
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Functional);
  core::Pipeline p(g, spec);
  p.run([&d, plane](const core::ChunkContext& ctx) {
    gpu::KernelDesc k;
    k.name = d.name;
    k.flops = d.flops_per_elem * static_cast<double>(ctx.iterations() * plane);
    const core::BufferView a = ctx.view("A0");
    const core::BufferView o = ctx.view("Anext");
    const std::int64_t lo = ctx.begin(), hi = ctx.end();
    const bool stencil3 = d.halo > 0;
    k.body = [a, o, lo, hi, plane, stencil3] {
      for (std::int64_t kk = lo; kk < hi; ++kk) {
        const double* s = a.slab_ptr(kk);
        double* t = o.slab_ptr(kk);
        if (!stencil3) {
          for (std::int64_t q = 0; q < plane; ++q) t[q] = 2.0 * s[q];
          continue;
        }
        const double* s1 = a.slab_ptr(kk + 1);
        const double* s2 = a.slab_ptr(kk + 2);
        for (std::int64_t q = 0; q < plane; ++q) t[q] = (s[q] + s1[q] + s2[q]) / 3.0;
      }
    };
    return k;
  });
  for (std::int64_t k = 0; k < nz; ++k)
    for (std::int64_t q = 0; q < plane; ++q)
      if (out[static_cast<std::size_t>(k * plane + q)] != directive_value(d, in, plane, k, q))
        return false;
  return true;
}

/// Small functional datasets of each application with their host
/// references (built during set-up).
struct AppCheck {
  std::string name;
  std::function<std::vector<double>(gpu::Gpu&)> run;
  std::vector<double> expected;
  double tol = 0.0;
};

std::vector<AppCheck> app_checks() {
  std::vector<AppCheck> v;
  apps::StencilConfig s = stencil(24, 20, 32, 3);
  s.chunk_size = 2;
  v.push_back({"stencil", [s](gpu::Gpu& g) {
                 std::vector<double> out;
                 apps::stencil_pipelined_buffer(g, s, &out);
                 return out;
               },
               apps::stencil_reference(s)});
  apps::QcdConfig q = qcd(6);
  q.passes = 1;
  v.push_back({"qcd", [q](gpu::Gpu& g) {
                 std::vector<double> out;
                 apps::qcd_pipelined_buffer(g, q, &out);
                 return out;
               },
               apps::qcd_reference(q)});
  apps::Conv3dConfig c = conv3d(20);
  c.chunk_size = 2;
  v.push_back({"3dconv", [c](gpu::Gpu& g) {
                 std::vector<double> out;
                 apps::conv3d_pipelined_buffer(g, c, &out);
                 return out;
               },
               apps::conv3d_reference(c)});
  apps::MatmulConfig m;
  m.n = 48;
  m.chunk_cols = 7;
  v.push_back({"matmul", [m](gpu::Gpu& g) {
                 std::vector<double> out;
                 apps::matmul_pipeline_buffer(g, m, &out);
                 return out;
               },
               apps::matmul_reference(m), 1e-12});
  return v;
}

/// Per-region outcome (region time = the tuned shape's measured time).
struct Outcome {
  apps::Measurement tuned;
  apps::Measurement naive;
  std::int64_t chunk = 0;
  int streams = 0;
};

}  // namespace

IterResult run_regions(std::uint64_t seed, bool small, SpanLog& log) {
  core::PlanCache& cache = core::PlanCache::instance();
  cache.clear();
  cache.reset_stats();

  IterResult r;
  r.sim_span = "execute";
  auto& L = r.layer;
  Scope iteration(log, "iteration");

  // --- Set-up: corpus, seeded directive extents, verification references.
  const double s0 = now_s();
  const int setup_span = log.begin("setup");
  Rng rng(seed);
  std::vector<AppRegion> corpus = app_corpus(small, rng);
  struct DirectiveInstance {
    const DirectiveRegion* region;
    std::int64_t nz, ny, nx;
  };
  std::vector<DirectiveInstance> instances;
  for (const DirectiveRegion& d : kDirectives)
    for (int k = 0; k < 3; ++k) {
      // The seed moves only the row length: simulated times change, the
      // plan (and so the host work of tuning it) does not.
      const std::int64_t nx = small ? 32 : 250 + static_cast<std::int64_t>(rng.below(13));
      instances.push_back({&d, small ? 64 : 256, small ? 32 : 256, nx});
    }
  const std::vector<gpu::DeviceProfile> profiles = {gpu::nvidia_k40m(), gpu::amd_hd7970(),
                                                    gpu::intel_xeonphi()};
  const std::vector<AppCheck> checks = app_checks();
  log.end(setup_span);
  r.setup_s = now_s() - s0;

  // --- Measured path.
  const double w0 = now_s();
  std::vector<Outcome> outcomes;
  double events = 0, high_water = 0, dropped = 0, candidates = 0;
  double speedup_log = 0, mem_saving = 0;
  int fig5 = 0;
  auto execute = [&](const gpu::DeviceProfile& p, std::int64_t id, const FixedFn& fn) {
    Scope s(log, "execute", id);
    gpu::Gpu g(p, gpu::ExecMode::Modeled);
    apps::Measurement m = fn(g);
    events += static_cast<double>(g.simulator().events_executed());
    high_water = std::max(high_water, static_cast<double>(g.simulator().events_high_water()));
    dropped += static_cast<double>(g.trace().dropped_spans());
    return m;
  };
  std::int64_t id = 0;
  for (const AppRegion& a : corpus) {
    Outcome o;
    double best = std::numeric_limits<double>::infinity();
    {
      Scope s(log, "autotune", id);
      for (std::int64_t chunk : a.chunks)
        for (int streams : a.streams) {
          ++candidates;
          gpu::Gpu g(a.profile, gpu::ExecMode::Modeled);
          double t = 0;
          try {
            t = a.buffer(g, chunk, streams).seconds;
          } catch (const gpu::OomError&) {
            continue;  // the shape does not fit this device
          }
          if (t < best) {
            best = t;
            o.chunk = chunk;
            o.streams = streams;
          }
        }
    }
    if (o.chunk == 0) {
      r.errors.push_back("region " + a.name + ": no feasible shape");
      ++id;
      continue;
    }
    o.tuned = execute(a.profile, id, [&](gpu::Gpu& g) { return a.buffer(g, o.chunk, o.streams); });
    o.naive = execute(a.profile, id, a.naive);
    if (a.fig5) {
      const apps::Measurement paper = execute(a.profile, id, [&](gpu::Gpu& g) {
        return a.buffer(g, a.paper_chunk, 2);
      });
      const apps::Measurement hand = execute(a.profile, id, a.handcoded);
      speedup_log += std::log(o.naive.seconds / paper.seconds);
      mem_saving += 1.0 - static_cast<double>(paper.reported_device_mem) /
                              static_cast<double>(hand.reported_device_mem);
      ++fig5;
    }
    outcomes.push_back(o);
    ++id;
  }

  for (const DirectiveInstance& in : instances) {
    core::PipelineSpec spec;
    {
      Scope s(log, "dsl.compile", id);
      // Placeholder host ranges (2 GiB per region, Anext 1 GiB above A0);
      // Modeled devices never dereference them.
      const std::uintptr_t base = 0x500000000000ull + (static_cast<std::uintptr_t>(id) << 31);
      spec = bind_directive(*in.region, in.nz, in.ny, in.nx, reinterpret_cast<std::byte*>(base),
                            reinterpret_cast<std::byte*>(base + (1ull << 30)));
    }
    const std::int64_t plane = in.ny * in.nx;
    const core::KernelFactory kernel = modeled_kernel(*in.region, plane);
    for (const gpu::DeviceProfile& p : profiles) {
      Outcome o;
      gpu::Gpu g(p, gpu::ExecMode::Modeled);
      core::TuneResult tr;
      {
        Scope s(log, "autotune", id);
        core::TuneOptions topt;
        topt.dry_run = true;
        topt.kernel_cost = core::KernelCostHint{in.region->flops_per_elem * plane,
                                                in.region->bytes_per_elem * plane};
        tr = core::autotune(g, spec, kernel, topt);
      }
      candidates += static_cast<double>(tr.explored.size());
      o.chunk = tr.chunk_size;
      o.streams = tr.num_streams;
      auto run_shape = [&](core::PipelineSpec shape) {
        return execute(p, id, [&](gpu::Gpu& dev) {
          std::unique_ptr<core::Pipeline> pipeline;
          {
            Scope c(log, "pipeline.construct", id);
            pipeline = std::make_unique<core::Pipeline>(dev, std::move(shape));
          }
          return apps::measure(dev, [&] { pipeline->run(kernel); });
        });
      };
      core::PipelineSpec tuned = spec;
      tuned.chunk_size = tr.chunk_size;
      tuned.num_streams = tr.num_streams;
      o.tuned = run_shape(tuned);
      // Naive offload: the whole loop as one chunk on one stream, unoptimized.
      core::PipelineSpec naive = spec;
      naive.chunk_size = spec.loop_end - spec.loop_begin;
      naive.num_streams = 1;
      naive.opt_level = 0;
      o.naive = run_shape(naive);
      outcomes.push_back(o);
      ++id;
    }
  }

  core::PlanBundle bundle;
  {
    Scope s(log, "serialize");
    cache.export_bundle(bundle);
    r.bundle = core::serialize_bundle(bundle);
  }
  r.wall_s = now_s() - w0;
  L["serialize.bundle_kib"] = static_cast<double>(r.bundle.size()) / 1024.0;

  // --- Verification.
  std::int64_t verified = 0;
  for (const AppCheck& c : checks) {
    Scope s(log, "verify");
    gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Functional);
    const std::vector<double> out = c.run(g);
    if (c.tol > 0 ? approx_equal(out, c.expected, c.tol) : out == c.expected) {
      ++verified;
    } else {
      ++r.failed;
      r.errors.push_back("app " + c.name + " does not match its host reference");
    }
  }
  for (const DirectiveRegion& d : kDirectives) {
    Scope s(log, "verify");
    if (verify_directive(d)) {
      ++verified;
    } else {
      ++r.failed;
      r.errors.push_back(std::string("directive region ") + d.name + " failed verification");
    }
  }
  L["apps.verified"] = static_cast<double>(verified);
  L["apps.verify_failed"] = static_cast<double>(r.failed);

  // --- End-to-end simulated metrics: one unit per region.
  r.attempted = static_cast<std::int64_t>(corpus.size() + instances.size() * profiles.size());
  std::vector<double> times;
  double met = 0, busy_c = 0, busy_h = 0, busy_d = 0, h2d = 0, d2h = 0, peak = 0;
  for (const Outcome& o : outcomes) {
    times.push_back(o.tuned.seconds);
    r.makespan += o.tuned.seconds;
    if (o.tuned.seconds <= o.naive.seconds) ++met;
    busy_c += o.tuned.kernel_time;
    busy_h += o.tuned.h2d_time;
    busy_d += o.tuned.d2h_time;
    h2d += static_cast<double>(o.tuned.h2d_bytes);
    d2h += static_cast<double>(o.tuned.d2h_bytes);
    peak = std::max(peak, static_cast<double>(o.tuned.peak_device_mem));
    for (double v : {o.tuned.seconds, o.naive.seconds, static_cast<double>(o.tuned.h2d_bytes),
                     static_cast<double>(o.tuned.reported_device_mem)})
      sig_add(r.sim_sig, v);
    sig_add(r.sim_sig, o.chunk);
    sig_add(r.sim_sig, static_cast<std::int64_t>(o.streams));
  }
  r.complete_frac = static_cast<double>(outcomes.size()) / static_cast<double>(r.attempted);
  r.deadline_met_frac = met / static_cast<double>(r.attempted);
  fill_turnaround(r, times);
  for (double v : {r.makespan, r.p50, r.tail.value, r.complete_frac, r.deadline_met_frac})
    sig_add(r.sim_sig, v);

  L["dsl.regions"] = static_cast<double>(instances.size());
  L["autotune.candidates"] = candidates;
  L["sim.events"] = events;
  L["sim.events_high_water"] = high_water;
  L["sim.dropped_spans"] = dropped;
  L["gpu.compute_busy_frac"] = r.makespan > 0 ? busy_c / r.makespan : 0;
  L["gpu.h2d_busy_frac"] = r.makespan > 0 ? busy_h / r.makespan : 0;
  L["gpu.d2h_busy_frac"] = r.makespan > 0 ? busy_d / r.makespan : 0;
  L["gpu.h2d_mib"] = h2d / kMiB;
  L["gpu.d2h_mib"] = d2h / kMiB;
  L["gpu.peak_committed_mib"] = peak / kMiB;
  L["apps.speedup_vs_naive"] = fig5 > 0 ? std::exp(speedup_log / fig5) : 0;
  L["apps.device_mem_saving"] = fig5 > 0 ? mem_saving / fig5 : 0;
  plan_cache_layer(L, r.attempted);
  return r;
}

}  // namespace e2ebench
