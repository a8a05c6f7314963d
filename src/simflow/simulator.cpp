#include "simflow/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace iris::simflow {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Most change intervals, and most expected flow arrivals, one run may
/// simulate. A finite but huge duration would otherwise overflow the
/// interval count or exhaust memory on demand rows and flow records.
constexpr double kMaxIntervals = 1e6;
constexpr double kMaxExpectedArrivals = 1e7;

/// Every floating-point field of `p`, nested ones included, is finite.
bool all_finite(const SimParams& p) {
  for (const CutEvent& cut : p.cuts) {
    if (!std::isfinite(cut.at_s) || !std::isfinite(cut.affected_fraction) ||
        !std::isfinite(cut.reroute_s)) {
      return false;
    }
  }
  return std::isfinite(p.duration_s) && std::isfinite(p.utilization) &&
         std::isfinite(p.change_interval_s) &&
         std::isfinite(p.reconfig_outage_s) &&
         std::isfinite(p.fiber_granularity_gbps) &&
         std::isfinite(p.traffic.total_gbps) &&
         std::isfinite(p.traffic.pareto_alpha) &&
         std::isfinite(p.traffic.change_fraction);
}

/// A capacity change point for one pair.
struct CapacityEvent {
  double at_s;
  double capacity_gbps;
};

/// Processor-sharing simulation of one pair, exact via virtual service time:
/// each active flow receives service at c(t)/n(t); a flow arriving at time a
/// with B bytes completes when the cumulative per-flow service passes
/// S(a) + B.
void simulate_pair(const FlowSizeDistribution& workload,
                   const std::vector<CapacityEvent>& capacity,
                   const std::vector<double>& demand_per_interval,
                   double change_interval_s, double duration_s,
                   std::mt19937_64& rng, std::vector<FlowRecord>& out) {
  struct ActiveFlow {
    double finish_service;  // virtual service level at which it completes
    double arrival_s;
    double bytes;
    bool operator>(const ActiveFlow& o) const {
      return finish_service > o.finish_service;
    }
  };
  std::priority_queue<ActiveFlow, std::vector<ActiveFlow>, std::greater<>> active;

  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  const double mean_bytes = workload.mean_bytes();

  double t = 0.0;
  double service = 0.0;  // cumulative per-flow service, in bytes
  std::size_t cap_idx = 0;
  double cap_bps = capacity.empty() ? 0.0 : capacity[0].capacity_gbps * 1e9 / 8.0;

  auto interval_demand_bps = [&](double at) {
    const auto k = static_cast<std::size_t>(at / change_interval_s);
    const double gbps =
        demand_per_interval[std::min(k, demand_per_interval.size() - 1)];
    return gbps * 1e9 / 8.0;
  };

  // Next arrival-process event after `from`: a real Poisson arrival when the
  // current interval has demand, or a rate-redraw at the next interval
  // boundary when it does not (the boundary itself must not inject a flow).
  // Infinity once past the window.
  struct ArrivalEvent {
    double at_s;
    bool is_arrival;  // false: just re-draw the rate at this time
  };
  auto draw_next_arrival = [&](double from) -> ArrivalEvent {
    if (from >= duration_s) return {kInf, false};
    const double rate = interval_demand_bps(from) / mean_bytes;  // flows/s
    if (rate <= 0.0) {
      // Jump to the next interval boundary and retry from there.
      const double boundary =
          (std::floor(from / change_interval_s) + 1.0) * change_interval_s;
      return {std::min(boundary, duration_s) + 1e-12, false};
    }
    std::exponential_distribution<double> exp_dist(rate);
    return {from + exp_dist(rng), true};
  };

  ArrivalEvent next_arrival = draw_next_arrival(0.0);
  // Re-draw arrivals that cross an interval boundary so the rate tracks the
  // piecewise-constant demand (thinning-free approximation: boundaries are
  // also events).
  while (true) {
    const double n = static_cast<double>(active.size());
    const double next_cap = cap_idx + 1 < capacity.size()
                                ? capacity[cap_idx + 1].at_s
                                : kInf;
    double next_completion = kInf;
    if (!active.empty() && cap_bps > 0.0) {
      next_completion =
          t + (active.top().finish_service - service) * n / cap_bps;
    }
    const double next_t = std::min({next_arrival.at_s, next_cap, next_completion});
    if (next_t == kInf) break;

    if (!active.empty() && cap_bps > 0.0) {
      service += (next_t - t) * cap_bps / n;
    }
    t = next_t;

    if (t == next_completion && !active.empty()) {
      const ActiveFlow flow = active.top();
      active.pop();
      out.push_back(FlowRecord{flow.bytes, t - flow.arrival_s});
      continue;
    }
    if (t == next_cap) {
      ++cap_idx;
      cap_bps = capacity[cap_idx].capacity_gbps * 1e9 / 8.0;
      continue;
    }
    // Arrival (or a zero-demand boundary: re-draw the rate, inject nothing).
    if (next_arrival.is_arrival && t <= duration_s) {
      const double bytes = workload.sample(rng);
      active.push(ActiveFlow{service + bytes, t, bytes});
    }
    next_arrival = draw_next_arrival(t);
  }
}

}  // namespace

SimResult simulate(const FlowSizeDistribution& workload,
                   const SimParams& params) {
  if (!all_finite(params)) {
    throw std::invalid_argument("simulate: non-finite parameter");
  }
  if (params.duration_s <= 0.0 || params.utilization <= 0.0 ||
      params.utilization >= 1.0 || params.change_interval_s <= 0.0) {
    throw std::invalid_argument("simulate: bad parameters");
  }
  const double interval_count =
      std::ceil(params.duration_s / params.change_interval_s);
  if (!(interval_count <= kMaxIntervals)) {
    throw std::invalid_argument(
        "simulate: more than 1e6 change intervals in the arrival window");
  }
  // Demand rows sum to about total_gbps, so this is the window's expected
  // Poisson arrivals over all pairs.
  const double expected_arrivals = params.duration_s *
                                   params.traffic.total_gbps * 1e9 / 8.0 /
                                   workload.mean_bytes();
  if (!(expected_arrivals <= kMaxExpectedArrivals)) {
    throw std::invalid_argument(
        "simulate: more than 1e7 expected flow arrivals");
  }
  const obs::Span span("simflow.simulate");
  SimResult result;

  // Pre-compute the demand trajectory: one row per change interval.
  const int intervals = static_cast<int>(interval_count) + 1;
  TrafficModel traffic(params.traffic);
  std::vector<std::vector<double>> demand_rows;
  demand_rows.reserve(intervals);
  demand_rows.push_back(traffic.demands_gbps());
  for (int k = 1; k < intervals; ++k) {
    traffic.shift();
    demand_rows.push_back(traffic.demands_gbps());
  }

  // Both fabrics get the identical provisioned-capacity trajectory (the
  // paper assumes sufficient provisioning on both sides); the only
  // difference is that Iris takes a reconfiguration outage whenever a
  // pair's fiber allocation changes, while EPS adapts instantly.
  const auto circuit_gbps = [&](double demand) {
    const double needed = demand / params.utilization;
    const double unit = params.fiber_granularity_gbps;
    return std::max(unit, std::ceil(needed / unit) * unit);
  };

  for (int p = 0; p < params.traffic.pair_count; ++p) {
    // Per-pair capacity trajectory with Iris reconfiguration outages.
    std::vector<CapacityEvent> capacity;
    std::vector<double> demands(intervals);
    double prev_cap = -1.0;
    for (int k = 0; k < intervals; ++k) {
      demands[k] = demand_rows[k][p];
      const double cap = circuit_gbps(demands[k]);
      const double at = k * params.change_interval_s;
      if (k == 0) {
        capacity.push_back({0.0, cap});
      } else if (cap != prev_cap) {
        if (params.fabric == Fabric::kIris) {
          // Only the moved fibers go dark during the switch: when growing,
          // the new fiber lights after the outage; when shrinking, the
          // departing fiber is drained first. Surviving fibers keep
          // carrying traffic, so the window runs at min(old, new).
          capacity.push_back({at, std::min(prev_cap, cap)});
          capacity.push_back({at + params.reconfig_outage_s, cap});
          ++result.reconfigurations;
        } else {
          capacity.push_back({at, cap});
        }
      }
      prev_cap = cap;
    }

    // Inject fiber cuts: the affected pairs lose all capacity until the
    // controller reroutes them. Splice the outage into the (time-sorted)
    // capacity trajectory.
    for (const CutEvent& cut : params.cuts) {
      if (p >= static_cast<int>(cut.affected_fraction *
                                params.traffic.pair_count)) {
        continue;
      }
      std::vector<CapacityEvent> spliced;
      double cap_at_restore = capacity.front().capacity_gbps;
      for (const CapacityEvent& ev : capacity) {
        if (ev.at_s < cut.at_s) {
          spliced.push_back(ev);
          cap_at_restore = ev.capacity_gbps;
        } else if (ev.at_s < cut.at_s + cut.reroute_s) {
          cap_at_restore = ev.capacity_gbps;  // swallowed by the outage
        } else {
          spliced.push_back(ev);
        }
      }
      spliced.push_back({cut.at_s, 0.0});
      spliced.push_back({cut.at_s + cut.reroute_s, cap_at_restore});
      std::sort(spliced.begin(), spliced.end(),
                [](const CapacityEvent& a, const CapacityEvent& b) {
                  return a.at_s < b.at_s;
                });
      capacity = std::move(spliced);
    }

    // Derive a per-pair RNG stream so both fabrics see identical arrivals.
    std::mt19937_64 pair_rng(params.seed ^ (0x9e3779b97f4a7c15ULL *
                                            static_cast<std::uint64_t>(p + 1)));
    simulate_pair(workload, capacity, demands, params.change_interval_s,
                  params.duration_s, pair_rng, result.flows);
  }

  auto& reg = obs::registry();
  reg.add("simflow.runs.total");
  reg.add("simflow.pairs.simulated", params.traffic.pair_count);
  reg.add("simflow.flows.completed",
          static_cast<long long>(result.flows.size()));
  reg.add("simflow.reconfigurations", result.reconfigurations);
  return result;
}

FctSummary summarize(const SimResult& result) {
  FctSummary out;
  out.flows = result.flows.size();
  if (out.flows == 0) return out;
  double sum = 0.0;
  for (const FlowRecord& f : result.flows) {
    sum += f.fct_s;
    if (f.bytes < kShortFlowBytes) ++out.short_flows;
  }
  out.mean_s = sum / static_cast<double>(out.flows);
  out.p50_s = fct_percentile(result, 0.50);
  out.p90_s = fct_percentile(result, 0.90);
  out.p99_s = fct_percentile(result, 0.99);
  out.p999_s = fct_percentile(result, 0.999);
  out.short_p99_s = fct_percentile(result, 0.99, kShortFlowBytes);
  return out;
}

double iris_vs_eps_p99_slowdown(const FlowSizeDistribution& workload,
                                SimParams params, double max_bytes) {
  params.fabric = Fabric::kIris;
  const auto iris = simulate(workload, params);
  params.fabric = Fabric::kEps;
  const auto eps = simulate(workload, params);
  const double denom = fct_percentile(eps, 0.99, max_bytes);
  return denom > 0.0 ? fct_percentile(iris, 0.99, max_bytes) / denom : 1.0;
}

double fct_percentile(const SimResult& result, double p, double max_bytes) {
  std::vector<double> fcts;
  fcts.reserve(result.flows.size());
  for (const FlowRecord& f : result.flows) {
    if (max_bytes > 0.0 && f.bytes >= max_bytes) continue;
    fcts.push_back(f.fct_s);
  }
  if (fcts.empty()) return 0.0;
  std::sort(fcts.begin(), fcts.end());
  const double idx = p * (static_cast<double>(fcts.size()) - 1.0);
  const auto lo = static_cast<std::size_t>(idx);
  const auto hi = std::min(lo + 1, fcts.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return fcts[lo] * (1.0 - frac) + fcts[hi] * frac;
}

}  // namespace iris::simflow
