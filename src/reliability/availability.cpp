#include "reliability/availability.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>

#include "graph/shortest_path.hpp"
#include "obs/metrics.hpp"
#include "reliability/events.hpp"

namespace iris::reliability {

using graph::EdgeId;
using graph::NodeId;

PairUpFn any_path_criterion(const fibermap::FiberMap& map) {
  return [&map](const graph::EdgeMask& mask, NodeId a, NodeId b) {
    const auto tree = graph::dijkstra(map.graph(), a, mask);
    return tree.reachable(b);
  };
}

PairUpFn via_hub_criterion(const fibermap::FiberMap& map,
                           std::vector<NodeId> hubs) {
  if (hubs.empty()) {
    throw std::invalid_argument("via_hub_criterion: need at least one hub");
  }
  return [&map, hubs = std::move(hubs)](const graph::EdgeMask& mask, NodeId a,
                                        NodeId b) {
    const auto tree_a = graph::dijkstra(map.graph(), a, mask);
    const auto tree_b = graph::dijkstra(map.graph(), b, mask);
    return std::any_of(hubs.begin(), hubs.end(), [&](NodeId hub) {
      return tree_a.reachable(hub) && tree_b.reachable(hub);
    });
  };
}

namespace {

/// The effective failed-duct set, one bit per EdgeId, 64 to a word.
using MaskKey = std::vector<std::uint64_t>;

struct MaskKeyHash {
  std::size_t operator()(const MaskKey& key) const noexcept {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (std::uint64_t word : key) {
      h ^= word + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return static_cast<std::size_t>(h);
  }
};

/// The one event-driven simulation loop: pulls the failure timeline from
/// EventStream (the shared sampling engine) and integrates per-pair
/// downtime. simulate_availability and simulate_availability_correlated are
/// both thin wrappers, so the legacy and correlated models can never drift
/// in how failures are drawn or downtime is accounted. It records
/// `reliability.criterion.evaluations` (criterion calls made) and
/// `reliability.criterion.memo_hits` (asks answered from the memo).
CorrelatedAvailabilityReport run_event_sim(const fibermap::FiberMap& map,
                                           const CorrelatedFailureModel& model,
                                           const PairUpFn& pair_up) {
  const graph::Graph& g = map.graph();
  EventStream stream(map, model);
  const double horizon_h = stream.horizon_hours();
  const auto& dcs = map.dcs();

  CorrelatedAvailabilityReport out;
  AvailabilityReport& report = out.summary;
  std::vector<double> down_hours(dcs.size() * dcs.size(), 0.0);
  const auto pair_index = [&](std::size_t i, std::size_t j) {
    return i * dcs.size() + j;
  };

  // Batch-means scaffolding for the confidence intervals: the horizon is
  // split into `ci_batches` equal windows and every downtime interval is
  // apportioned to the windows it overlaps. The point estimate keeps the
  // exact single-accumulator arithmetic (down_hours above) so availability
  // values are byte-identical whether or not CIs are requested.
  const int batches = model.ci_batches >= 2 ? model.ci_batches : 0;
  const double batch_h =
      batches > 0 ? horizon_h / static_cast<double>(batches) : 0.0;
  std::vector<double> batch_down;
  if (batches > 0) {
    batch_down.assign(static_cast<std::size_t>(batches) * dcs.size() *
                          dcs.size(),
                      0.0);
  }
  const auto close_interval = [&](std::size_t idx, double from_h, double to_h) {
    down_hours[idx] += to_h - from_h;
    if (batches == 0) return;
    const auto first = static_cast<int>(from_h / batch_h);
    for (int b = first; b < batches; ++b) {
      const double lo = std::max(from_h, static_cast<double>(b) * batch_h);
      const double hi =
          std::min(to_h, static_cast<double>(b + 1) * batch_h);
      if (hi <= lo) {
        if (static_cast<double>(b) * batch_h >= to_h) break;
        continue;
      }
      batch_down[static_cast<std::size_t>(b) * dcs.size() * dcs.size() + idx] +=
          hi - lo;
    }
  };

  // Duct state: down while any active event (cut, trench hit, hut outage,
  // maintenance) covers it, or implicitly dead because an endpoint site is
  // down. The mask handed to the criterion reflects both; `key` packs the
  // same bits 64 to a word and names the mask in the verdict memo. Both are
  // updated only for the ducts an event touches.
  std::vector<int> duct_down_count(g.edge_count(), 0);
  std::vector<int> site_down_count(g.node_count(), 0);
  graph::EdgeMask mask(g.edge_count());
  MaskKey key((static_cast<std::size_t>(g.edge_count()) + 63) / 64, 0);
  const auto refresh_duct = [&](EdgeId e) {
    const graph::Edge& edge = g.edge(e);
    const std::uint64_t bit = std::uint64_t{1} << (e % 64);
    if (duct_down_count[e] > 0 || site_down_count[edge.u] > 0 ||
        site_down_count[edge.v] > 0) {
      mask.fail(e);
      key[e / 64] |= bit;
    } else {
      mask.restore(e);
      key[e / 64] &= ~bit;
    }
  };
  std::vector<bool> pair_down(dcs.size() * dcs.size(), false);
  std::vector<double> down_since(dcs.size() * dcs.size(), 0.0);

  // Verdict memo: the criterion is a pure function of (mask, a, b), so a
  // pair asked again under a mask it has already been asked about gets the
  // recorded answer. Masks are interned to dense ids; verdicts[id * n^2 +
  // pair] is -1 until that pair is first asked under that mask.
  std::unordered_map<MaskKey, std::size_t, MaskKeyHash> mask_ids;
  std::vector<signed char> verdicts;
  std::size_t mask_base = 0;  // offset of the current mask's verdict row
  long long evaluations = 0;
  long long memo_hits = 0;
  const auto intern_mask = [&] {
    const auto [it, fresh] = mask_ids.try_emplace(key, mask_ids.size());
    mask_base = it->second * dcs.size() * dcs.size();
    if (fresh) verdicts.resize(verdicts.size() + dcs.size() * dcs.size(), -1);
  };
  const auto memo_pair_up = [&](std::size_t idx, NodeId a, NodeId b) {
    signed char& verdict = verdicts[mask_base + idx];
    if (verdict < 0) {
      verdict = pair_up(mask, a, b) ? 1 : 0;
      ++evaluations;
    } else {
      ++memo_hits;
    }
    return verdict == 1;
  };

  const auto refresh_pairs = [&](double now_h) {
    for (std::size_t i = 0; i < dcs.size(); ++i) {
      for (std::size_t j = i + 1; j < dcs.size(); ++j) {
        const auto idx = pair_index(i, j);
        // A destroyed endpoint DC is not the *network's* downtime: the SLA
        // between a pair only applies while both ends exist. Such intervals
        // count as up so the designs are compared on connectivity alone.
        const bool endpoint_down =
            site_down_count[dcs[i]] > 0 || site_down_count[dcs[j]] > 0;
        const bool up = endpoint_down || memo_pair_up(idx, dcs[i], dcs[j]);
        if (!up && !pair_down[idx]) {
          pair_down[idx] = true;
          down_since[idx] = now_h;
        } else if (up && pair_down[idx]) {
          pair_down[idx] = false;
          close_interval(idx, down_since[idx], now_h);
        }
      }
    }
  };

  while (const auto ev = stream.next()) {
    const int delta = event_is_failure(ev->kind) ? 1 : -1;
    for (EdgeId e : ev->ducts) duct_down_count[e] += delta;
    for (NodeId n : ev->sites) site_down_count[n] += delta;
    for (EdgeId e : ev->ducts) refresh_duct(e);
    for (NodeId n : ev->sites) {
      for (EdgeId e : g.incident(n)) refresh_duct(e);
    }
    switch (ev->kind) {
      case EventKind::kDuctCut:
        ++report.cut_events;
        ++out.duct_cut_events;
        break;
      case EventKind::kTrenchHit:
        ++report.cut_events;
        ++out.trench_events;
        break;
      case EventKind::kHutOutage:
        ++report.cut_events;
        ++out.hut_events;
        break;
      case EventKind::kMaintenanceStart:
        ++report.cut_events;
        ++out.maintenance_events;
        break;
      case EventKind::kDisaster:
        ++report.cut_events;
        ++out.disaster_events;
        break;
      default:
        break;
    }
    intern_mask();
    refresh_pairs(ev->at_h);
  }
  auto& reg = obs::registry();
  if (evaluations > 0) reg.add("reliability.criterion.evaluations", evaluations);
  if (memo_hits > 0) reg.add("reliability.criterion.memo_hits", memo_hits);
  // Close any open downtime intervals at the horizon.
  for (std::size_t i = 0; i < dcs.size(); ++i) {
    for (std::size_t j = i + 1; j < dcs.size(); ++j) {
      const auto idx = pair_index(i, j);
      if (pair_down[idx]) close_interval(idx, down_since[idx], horizon_h);
    }
  }

  double sum = 0.0;
  for (std::size_t i = 0; i < dcs.size(); ++i) {
    for (std::size_t j = i + 1; j < dcs.size(); ++j) {
      const auto idx = pair_index(i, j);
      PairAvailability pa;
      pa.a = dcs[i];
      pa.b = dcs[j];
      pa.availability = 1.0 - down_hours[idx] / horizon_h;
      if (batches > 0) {
        // 95% batch-means CI, centered on the exact point estimate.
        double mean = 0.0;
        for (int b = 0; b < batches; ++b) {
          mean += 1.0 - batch_down[static_cast<std::size_t>(b) * dcs.size() *
                                       dcs.size() +
                                   idx] /
                            batch_h;
        }
        mean /= static_cast<double>(batches);
        double var = 0.0;
        for (int b = 0; b < batches; ++b) {
          const double a_b =
              1.0 - batch_down[static_cast<std::size_t>(b) * dcs.size() *
                                   dcs.size() +
                               idx] /
                        batch_h;
          var += (a_b - mean) * (a_b - mean);
        }
        var /= static_cast<double>(batches - 1);
        const double half =
            1.96 * std::sqrt(var / static_cast<double>(batches));
        pa.ci_low = std::max(0.0, pa.availability - half);
        pa.ci_high = std::min(1.0, pa.availability + half);
      } else {
        pa.ci_low = pa.availability;
        pa.ci_high = pa.availability;
      }
      report.worst_availability =
          std::min(report.worst_availability, pa.availability);
      sum += pa.availability;
      report.pairs.push_back(pa);
    }
  }
  report.mean_availability =
      report.pairs.empty() ? 1.0 : sum / static_cast<double>(report.pairs.size());
  return out;
}

}  // namespace

AvailabilityReport simulate_availability(const fibermap::FiberMap& map,
                                         const FailureModel& model,
                                         const PairUpFn& pair_up) {
  if (model.horizon_years <= 0.0 || model.cuts_per_km_year < 0.0 ||
      model.mean_repair_hours <= 0.0) {
    throw std::invalid_argument("simulate_availability: bad failure model");
  }
  CorrelatedFailureModel cm;
  cm.base = model;
  cm.ci_batches = 0;  // the legacy entry point reports point estimates only
  return run_event_sim(map, cm, pair_up).summary;
}

CorrelatedAvailabilityReport simulate_availability_correlated(
    const fibermap::FiberMap& map, const CorrelatedFailureModel& model,
    const PairUpFn& pair_up) {
  CorrelatedAvailabilityReport out = run_event_sim(map, model, pair_up);
  auto& reg = obs::registry();
  reg.add("reliability.correlated.runs");
  const auto record = [&](const char* kind, long long n) {
    if (n > 0) reg.add(obs::key("reliability.events", {{"kind", kind}}), n);
  };
  record("cut", out.duct_cut_events);
  record("trench", out.trench_events);
  record("hut", out.hut_events);
  record("maintenance", out.maintenance_events);
  record("disaster", out.disaster_events);
  return out;
}

double series_chain_availability(const std::vector<double>& duct_lengths_km,
                                 const FailureModel& model) {
  const double hours_per_year = 365.25 * 24.0;
  const double mu = 1.0 / model.mean_repair_hours;
  double availability = 1.0;
  for (double km : duct_lengths_km) {
    const double lambda = model.cuts_per_km_year * km / hours_per_year;
    availability *= mu / (mu + lambda);
  }
  return availability;
}

}  // namespace iris::reliability
