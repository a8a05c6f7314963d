#include "core/slo.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/maxflow.hpp"
#include "obs/metrics.hpp"

namespace iris::core {

using graph::EdgeId;
using graph::NodeId;

reliability::PairUpFn planned_capacity_criterion(const fibermap::FiberMap& map,
                                                const ProvisionedNetwork& net,
                                                long long demand_waves) {
  if (demand_waves < 1) {
    throw std::invalid_argument(
        "planned_capacity_criterion: demand_waves must be >= 1");
  }
  std::vector<long long> caps = net.edge_capacity_wavelengths;
  return [&map, caps = std::move(caps), demand_waves](
             const graph::EdgeMask& mask, NodeId a, NodeId b) {
    // Undirected capacity = one arc each way; the plan never zeroes a used
    // duct under oversubscription, but its capacity shrinks -- which is what
    // makes this criterion sensitive where plain connectivity is not.
    graph::MaxFlow flow(map.graph().node_count());
    for (EdgeId e = 0; e < map.graph().edge_count(); ++e) {
      const long long cap = caps[static_cast<std::size_t>(e)];
      if (cap <= 0 || mask.failed(e)) continue;
      const graph::Edge& edge = map.graph().edge(e);
      flow.add_edge(edge.u, edge.v, cap);
      flow.add_edge(edge.v, edge.u, cap);
    }
    return flow.solve(a, b) >= demand_waves;
  };
}

namespace {

void validate_slo_params(const PlannerParams& params) {
  if (params.availability_slo <= 0.0 || params.availability_slo > 1.0) {
    throw std::invalid_argument(
        "provision_to_availability_slo: availability_slo must be in (0, 1]");
  }
  if (params.slo_max_tolerance < params.failure_tolerance) {
    throw std::invalid_argument(
        "provision_to_availability_slo: empty tolerance range");
  }
}

}  // namespace

SloProvisionReport provision_to_availability_slo(
    const fibermap::FiberMap& map, const PlannerParams& params,
    const reliability::CorrelatedFailureModel& model,
    const SloCostOptions& cost) {
  validate_slo_params(params);
  if (cost.demand_waves < 1) {
    throw std::invalid_argument(
        "provision_to_availability_slo: demand_waves must be >= 1");
  }
  if (cost.bisect_iters < 0) {
    throw std::invalid_argument(
        "provision_to_availability_slo: bisect_iters must be >= 0");
  }

  SloProvisionReport report;
  for (int k = params.failure_tolerance; k <= params.slo_max_tolerance; ++k) {
    PlannerParams candidate = params;
    candidate.failure_tolerance = k;
    report.network = provision(map, candidate);
    report.availability = reliability::simulate_availability_correlated(
        map, model,
        planned_capacity_criterion(map, report.network, cost.demand_waves));
    report.tolerance = k;
    ++report.search_steps;
    if (report.availability.summary.worst_availability >=
        params.availability_slo) {
      report.met = true;
      break;
    }
  }

  // Cost pass: inside the accepted tolerance, find the largest (cheapest)
  // oversubscription still meeting the SLO. The accepted plan itself is the
  // known-feasible lower endpoint, so the report can only get cheaper.
  if (report.met && cost.max_oversubscription > params.oversubscription) {
    PlannerParams candidate = params;
    candidate.failure_tolerance = report.tolerance;
    const auto feasible_at = [&](double oversub) {
      candidate.oversubscription = oversub;
      ProvisionedNetwork net = provision(map, candidate);
      auto avail = reliability::simulate_availability_correlated(
          map, model, planned_capacity_criterion(map, net, cost.demand_waves));
      ++report.bisect_steps;
      const bool ok = avail.summary.worst_availability >=
                      params.availability_slo;
      if (ok) {
        report.network = std::move(net);
        report.availability = std::move(avail);
      }
      return ok;
    };
    if (!feasible_at(cost.max_oversubscription)) {
      double lo = params.oversubscription;  // feasible (the accepted plan)
      double hi = cost.max_oversubscription;
      for (int i = 0; i < cost.bisect_iters; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (feasible_at(mid)) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
    }
    obs::registry().add("planner.slo.bisect_steps", report.bisect_steps);
  }

  report.oversubscription = report.network.params.oversubscription;
  report.cost_fibers = report.network.total_base_fibers();
  obs::registry().add("planner.slo.search_steps", report.search_steps);
  if (report.met) obs::registry().add("planner.slo.met");
  return report;
}

}  // namespace iris::core
