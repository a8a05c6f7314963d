#include "reliability/availability.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

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

CorrelatedAvailabilityReport integrate_timeline(const FailureTimeline& timeline,
                                                const StateVerdictFn& pair_up) {
  const std::size_t n = timeline.dcs.size();
  // Pair p is the p-th (i, j), i < j, in (i, j) order.
  const std::size_t pairs = n < 2 ? 0 : n * (n - 1) / 2;
  const double horizon_h = timeline.horizon_h;
  CorrelatedAvailabilityReport out;
  static_cast<EventTallies&>(out) = timeline.tallies;
  AvailabilityReport& report = out.summary;
  const EventTallies& t = timeline.tallies;
  report.cut_events = t.duct_cut_events + t.trench_events + t.hut_events +
                      t.maintenance_events + t.disaster_events;
  std::vector<double> down_hours(pairs, 0.0);

  // Batch-means scaffolding for the confidence intervals: the horizon is
  // split into `ci_batches` equal windows and every downtime interval is
  // apportioned to the windows it overlaps. The point estimate keeps the
  // exact single-accumulator arithmetic (down_hours above) so availability
  // values are byte-identical whether or not CIs are requested.
  const int batches = timeline.ci_batches;
  const double batch_h =
      batches > 0 ? horizon_h / static_cast<double>(batches) : 0.0;
  std::vector<double> batch_down(static_cast<std::size_t>(batches) * pairs,
                                 0.0);
  const auto close_interval = [&](std::size_t p, double from_h, double to_h) {
    down_hours[p] += to_h - from_h;
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
      batch_down[static_cast<std::size_t>(b) * pairs + p] += hi - lo;
    }
  };

  // One down-pair bit row per state. A destroyed endpoint DC is not the
  // *network's* downtime: the SLA between a pair only applies while both
  // ends exist. Such pairs count as up so the designs are compared on
  // connectivity alone.
  const std::size_t words = (pairs + 63) / 64;
  std::vector<std::uint64_t> rows(
      static_cast<std::size_t>(timeline.state_count()) * words, 0);
  long long asks = 0;
  for (int state = 0; state < timeline.state_count(); ++state) {
    std::uint64_t* row = rows.data() + static_cast<std::size_t>(state) * words;
    std::size_t p = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j, ++p) {
        if (timeline.dc_down(state, i) || timeline.dc_down(state, j)) continue;
        ++asks;
        if (!pair_up(state, i, j)) row[p / 64] |= std::uint64_t{1} << (p % 64);
      }
    }
  }
  if (asks > 0) obs::registry().add("reliability.timeline.verdict_asks", asks);

  // A pair's verdict changes exactly where its bit differs from the row of
  // the step before (all up before the first step).
  std::vector<std::uint64_t> down(words, 0);
  std::vector<double> down_since(pairs, 0.0);
  for (const FailureTimeline::Step& step : timeline.steps) {
    const std::uint64_t* row =
        rows.data() + static_cast<std::size_t>(step.state) * words;
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t flips = down[w] ^ row[w]; flips != 0;
           flips &= flips - 1) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(flips));
        const std::size_t p = w * 64 + bit;
        if (((row[w] >> bit) & 1U) != 0) {
          down_since[p] = step.at_h;
        } else {
          close_interval(p, down_since[p], step.at_h);
        }
      }
      down[w] = row[w];
    }
  }
  // Close any open downtime intervals at the horizon.
  for (std::size_t p = 0; p < pairs; ++p) {
    if (((down[p / 64] >> (p % 64)) & 1U) != 0) {
      close_interval(p, down_since[p], horizon_h);
    }
  }

  double sum = 0.0;
  std::size_t p = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j, ++p) {
      PairAvailability pa;
      pa.a = timeline.dcs[i];
      pa.b = timeline.dcs[j];
      pa.availability = 1.0 - down_hours[p] / horizon_h;
      if (batches > 0) {
        // 95% batch-means CI, centered on the exact point estimate.
        const auto batch_availability = [&](int b) {
          return 1.0 -
                 batch_down[static_cast<std::size_t>(b) * pairs + p] / batch_h;
        };
        double mean = 0.0;
        for (int b = 0; b < batches; ++b) mean += batch_availability(b);
        mean /= static_cast<double>(batches);
        double var = 0.0;
        for (int b = 0; b < batches; ++b) {
          const double a_b = batch_availability(b);
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

void record_run_metrics(const EventTallies& tallies) {
  auto& reg = obs::registry();
  reg.add("reliability.correlated.runs");
  const auto record = [&](const char* kind, long long n) {
    if (n > 0) reg.add(obs::key("reliability.events", {{"kind", kind}}), n);
  };
  record("cut", tallies.duct_cut_events);
  record("trench", tallies.trench_events);
  record("hut", tallies.hut_events);
  record("maintenance", tallies.maintenance_events);
  record("disaster", tallies.disaster_events);
}

CorrelatedAvailabilityReport simulate_availability_correlated(
    const fibermap::FiberMap& map, const CorrelatedFailureModel& model,
    const PairUpFn& pair_up) {
  const FailureTimeline timeline = record_timeline(map, model);
  // integrate_timeline asks state by state, so each state's mask is built
  // once.
  graph::EdgeMask mask;
  int mask_state = -1;  // the state `mask` was built from
  CorrelatedAvailabilityReport out = integrate_timeline(
      timeline, [&](int state, std::size_t i, std::size_t j) {
        if (mask_state != state) {
          mask = timeline.failed_mask(state);
          mask_state = state;
        }
        return pair_up(mask, timeline.dcs[i], timeline.dcs[j]);
      });
  record_run_metrics(out);
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
