#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"

namespace e2ebench {

SpanLog::Totals SpanLog::totals(std::size_t from) const {
  Totals t;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double d = s.end - s.start;
    t.total[s.name] += d;
    t.self[s.name] += d;
    // Spans are strictly nested on one thread, so a child's duration is
    // exactly the part of its parent's interval it covers.
    if (s.parent >= static_cast<int>(from))
      t.self[spans_[static_cast<std::size_t>(s.parent)].name] -= d;
  }
  return t;
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("cannot write span file '" + path + "'");
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,"
                  "\"parent\":%d,\"trace\":%lld,\"iteration\":%d}\n",
                  i, s.name, s.start, s.end, s.parent, static_cast<long long>(s.trace),
                  s.iteration);
    os << buf;
  }
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

Tail tail_quantile(std::vector<double>& v) {
  Tail t;
  t.n = v.size();
  if (t.n >= 1000) {
    t.q = 0.99;
  } else if (t.n > 20) {
    t.q = std::floor(100.0 * static_cast<double>(t.n - 10) / static_cast<double>(t.n)) /
          100.0;
  } else {
    t.q = 0.5;  // too few samples for a tail above the median: report the median
  }
  t.value = quantile(v, t.q);
  return t;
}

std::vector<gpupipe::sched::JobMixLine> make_mix(const MixSpec& spec, std::uint64_t seed) {
  static const char* apps[] = {"stream", "stencil", "compute"};
  Rng rng(seed);
  // Fixed composition: each (app, size) cell gets its weight's share of the
  // jobs (largest remainder), so seeds differ only in order, priorities and
  // deadlines.
  double wsum = 0.0;
  for (const auto& s : spec.sizes) wsum += s.second;
  struct Cell {
    const char* app;
    std::string size;
    double exact;
    int count;
  };
  std::vector<Cell> cells;
  int assigned = 0;
  for (const char* app : apps)
    for (const auto& [size, w] : spec.sizes) {
      const double exact = spec.jobs * w / wsum / 3.0;
      cells.push_back({app, size, exact, static_cast<int>(exact)});
      assigned += cells.back().count;
    }
  std::vector<std::size_t> by_rem(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) by_rem[i] = i;
  std::stable_sort(by_rem.begin(), by_rem.end(), [&](std::size_t a, std::size_t b) {
    return cells[a].exact - cells[a].count > cells[b].exact - cells[b].count;
  });
  for (std::size_t k = 0; assigned < spec.jobs; ++k, ++assigned)
    ++cells[by_rem[k % by_rem.size()]].count;

  // Jittered systematic order: the k-th of a cell's c jobs lands at
  // (k + u) / c on a unit timeline, u uniform in [0, 1). Every cell is spread
  // evenly over the whole arrival schedule and a seed only reorders jobs
  // locally, so the load a seed produces stays close to every other seed's.
  std::vector<std::pair<double, gpupipe::sched::JobMixLine>> keyed;
  keyed.reserve(static_cast<std::size_t>(spec.jobs));
  for (const Cell& c : cells)
    for (int k = 0; k < c.count; ++k) {
      gpupipe::sched::JobMixLine l;
      l.app = c.app;
      l.size = c.size;
      keyed.emplace_back((k + rng.uniform()) / c.count, std::move(l));
    }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<gpupipe::sched::JobMixLine> mix;
  mix.reserve(keyed.size());
  for (auto& [key, l] : keyed) mix.push_back(std::move(l));
  for (std::size_t i = 0; i < mix.size(); ++i) {
    gpupipe::sched::JobMixLine& l = mix[i];
    l.priority = static_cast<int>(rng.below(3));
    l.arrival = spec.spacing * static_cast<double>(i);
    if (spec.deadline_every > 0 && i % static_cast<std::size_t>(spec.deadline_every) == 0)
      l.deadline = spec.deadline_lo + (spec.deadline_hi - spec.deadline_lo) * rng.uniform();
  }
  return mix;
}

void sig_add(std::vector<std::uint64_t>& sig, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  sig.push_back(bits);
}

void sig_add(std::vector<std::uint64_t>& sig, std::int64_t v) {
  sig.push_back(static_cast<std::uint64_t>(v));
}

void fill_turnaround(IterResult& r, std::vector<double> turnaround) {
  r.tail = tail_quantile(turnaround);
  r.p50 = quantile(turnaround, 0.5);
}

}  // namespace e2ebench
