#include "core/slo.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/maxflow.hpp"
#include "obs/metrics.hpp"

namespace iris::core {

using graph::EdgeId;
using graph::NodeId;

namespace {

/// The plan's used ducts as one flow network: one arc each way per used
/// duct. A failure state only zeroes its failed ducts' arcs (set_failed),
/// so a candidate plan builds the network once however many states it is
/// judged under. The plan never zeroes a used duct under oversubscription,
/// but its capacity shrinks -- which is what makes the capacity criterion
/// sensitive where plain connectivity is not.
class PlannedFlow {
 public:
  PlannedFlow(const graph::Graph& g, const std::vector<long long>& caps)
      : g_(g), flow_(g.node_count()) {
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      const long long cap = caps[static_cast<std::size_t>(e)];
      if (cap <= 0) continue;
      const graph::Edge& edge = g.edge(e);
      ducts_.push_back({e, cap, flow_.add_edge(edge.u, edge.v, cap), true});
      flow_.add_edge(edge.v, edge.u, cap);
    }
  }

  /// Marks exactly the used ducts with `failed(e)` down.
  template <typename Failed>
  void set_failed(const Failed& failed) {
    for (Duct& d : ducts_) {
      const bool up = !failed(d.id);
      if (up == d.up) continue;
      d.up = up;
      flow_.set_capacity(d.arc, up ? d.cap : 0);
      flow_.set_capacity(d.arc + 1, up ? d.cap : 0);
    }
  }

  [[nodiscard]] long long solve(NodeId a, NodeId b) {
    return flow_.solve(a, b);
  }

  /// planned_capacity_classes under the current failures.
  std::vector<int> classes(const std::vector<NodeId>& dcs,
                           long long demand_waves, long long* maxflows) {
    // Union-find over the surviving planned ducts: DCs in different
    // components carry nothing between them.
    std::vector<NodeId> parent(static_cast<std::size_t>(g_.node_count()));
    std::iota(parent.begin(), parent.end(), NodeId{0});
    const auto find = [&](NodeId n) {
      while (parent[static_cast<std::size_t>(n)] != n) {
        auto& up = parent[static_cast<std::size_t>(n)];
        up = parent[static_cast<std::size_t>(up)];
        n = up;
      }
      return n;
    };
    for (const Duct& d : ducts_) {
      if (!d.up) continue;
      parent[static_cast<std::size_t>(find(g_.edge(d.id).u))] =
          find(g_.edge(d.id).v);
    }

    std::vector<int> label(dcs.size(), -1);
    for (std::size_t i = 0; i < dcs.size(); ++i) {
      if (label[i] >= 0) continue;
      label[i] = static_cast<int>(i);  // i represents a new class
      for (std::size_t j = i + 1; j < dcs.size(); ++j) {
        if (label[j] >= 0 || find(dcs[j]) != find(dcs[i])) continue;
        if (maxflows != nullptr) ++*maxflows;
        if (flow_.solve(dcs[i], dcs[j], demand_waves) >= demand_waves) {
          label[j] = static_cast<int>(i);
        }
      }
    }
    return label;
  }

 private:
  struct Duct {
    EdgeId id;
    long long cap;
    int arc;  // the u -> v edge; v -> u is arc + 1
    bool up;
  };
  const graph::Graph& g_;
  graph::MaxFlow flow_;
  std::vector<Duct> ducts_;
};

void check_demand(long long demand_waves, const char* message) {
  if (demand_waves < 1) throw std::invalid_argument(message);
}

/// One candidate plan integrated over the search's recorded timeline:
/// states that agree on every planned duct share one class pass, and every
/// pass runs on the candidate's one flow network.
reliability::CorrelatedAvailabilityReport evaluate_plan(
    const fibermap::FiberMap& map, const reliability::FailureTimeline& timeline,
    const ProvisionedNetwork& net, long long demand_waves,
    long long& maxflows) {
  std::vector<bool> planned;
  for (long long cap : net.edge_capacity_wavelengths) {
    planned.push_back(cap > 0);
  }
  const std::vector<int> projected = timeline.project_states(planned);
  const std::size_t k = timeline.dcs.size();
  PlannedFlow flow(map.graph(), net.edge_capacity_wavelengths);
  std::vector<int> labels;  // projected state p at [p * k, +k)
  for (std::size_t s = 0; s < projected.size(); ++s) {
    // Ids are dense in first-seen order, so a new id is the next block.
    if (static_cast<std::size_t>(projected[s]) * k < labels.size()) continue;
    const int state = static_cast<int>(s);
    flow.set_failed(
        [&](EdgeId e) { return timeline.duct_failed(state, e); });
    const std::vector<int> classes =
        flow.classes(timeline.dcs, demand_waves, &maxflows);
    labels.insert(labels.end(), classes.begin(), classes.end());
  }
  reliability::CorrelatedAvailabilityReport report =
      reliability::integrate_timeline(
          timeline, [&](int state, std::size_t i, std::size_t j) {
            const int* row =
                labels.data() +
                static_cast<std::size_t>(
                    projected[static_cast<std::size_t>(state)]) *
                    k;
            return row[i] == row[j];
          });
  reliability::record_run_metrics(report);
  return report;
}

}  // namespace

reliability::PairUpFn planned_capacity_criterion(const fibermap::FiberMap& map,
                                                const ProvisionedNetwork& net,
                                                long long demand_waves) {
  check_demand(demand_waves,
               "planned_capacity_criterion: demand_waves must be >= 1");
  std::vector<long long> caps = net.edge_capacity_wavelengths;
  return [&map, caps = std::move(caps), demand_waves](
             const graph::EdgeMask& mask, NodeId a, NodeId b) {
    PlannedFlow flow(map.graph(), caps);
    flow.set_failed([&](EdgeId e) { return mask.failed(e); });
    return flow.solve(a, b) >= demand_waves;
  };
}

std::vector<int> planned_capacity_classes(const fibermap::FiberMap& map,
                                          const ProvisionedNetwork& net,
                                          const graph::EdgeMask& mask,
                                          long long demand_waves,
                                          long long* maxflows) {
  check_demand(demand_waves,
               "planned_capacity_classes: demand_waves must be >= 1");
  PlannedFlow flow(map.graph(), net.edge_capacity_wavelengths);
  flow.set_failed([&](EdgeId e) { return mask.failed(e); });
  return flow.classes(map.dcs(), demand_waves, maxflows);
}

const char* slo_argument_error(const PlannerParams& params,
                               const SloCostOptions& cost) {
  // Written so NaN fails every range check.
  if (!(params.availability_slo > 0.0 && params.availability_slo <= 1.0)) {
    return "provision_to_availability_slo: availability_slo must be in (0, 1]";
  }
  if (params.slo_max_tolerance < params.failure_tolerance) {
    return "provision_to_availability_slo: empty tolerance range";
  }
  if (cost.demand_waves < 1) {
    return "provision_to_availability_slo: demand_waves must be >= 1";
  }
  if (cost.bisect_iters < 0) {
    return "provision_to_availability_slo: bisect_iters must be >= 0";
  }
  if (!std::isfinite(cost.max_oversubscription)) {
    return "provision_to_availability_slo: max_oversubscription must be "
           "finite";
  }
  return nullptr;
}

SloProvisionReport provision_to_availability_slo(
    const fibermap::FiberMap& map, const PlannerParams& params,
    const reliability::CorrelatedFailureModel& model,
    const SloCostOptions& cost) {
  if (const char* error = slo_argument_error(params, cost)) {
    throw std::invalid_argument(error);
  }
  return provision_to_availability_slo(
      map, params, reliability::record_timeline(map, model), cost);
}

SloProvisionReport provision_to_availability_slo(
    const fibermap::FiberMap& map, const PlannerParams& params,
    const reliability::FailureTimeline& timeline, const SloCostOptions& cost) {
  if (const char* error = slo_argument_error(params, cost)) {
    throw std::invalid_argument(error);
  }
  if (timeline.dcs != map.dcs() ||
      timeline.edge_count != map.graph().edge_count()) {
    throw std::invalid_argument(
        "provision_to_availability_slo: timeline recorded on another map");
  }
  long long maxflows = 0;
  SloProvisionReport report;
  for (int k = params.failure_tolerance; k <= params.slo_max_tolerance; ++k) {
    PlannerParams candidate = params;
    candidate.failure_tolerance = k;
    report.network = provision(map, candidate);
    report.availability = evaluate_plan(map, timeline, report.network,
                                        cost.demand_waves, maxflows);
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
      auto avail =
          evaluate_plan(map, timeline, net, cost.demand_waves, maxflows);
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
  obs::registry().add("planner.slo.maxflows", maxflows);
  if (report.met) obs::registry().add("planner.slo.met");
  return report;
}

}  // namespace iris::core
