#include "core/expansion.hpp"

#include <algorithm>

namespace iris::core {

using graph::NodeId;

namespace {

/// Hut ids sorted by distance from the candidate position.
std::vector<NodeId> huts_by_distance(const fibermap::FiberMap& map,
                                     geo::Point position) {
  std::vector<NodeId> huts = map.huts();
  std::sort(huts.begin(), huts.end(), [&](NodeId a, NodeId b) {
    return geo::distance_sq(position, map.site(a).position) <
           geo::distance_sq(position, map.site(b).position);
  });
  return huts;
}

/// The new DC's attach duct length: straight line with a conservative metro
/// detour, floored so co-located sites still get a physical run.
double attach_length_km(geo::Point from, geo::Point to) {
  return std::max(geo::distance(from, to), 0.05) * 1.6;
}

}  // namespace

ExpandedRegion expand_region(const fibermap::FiberMap& map,
                             const ExpansionRequest& request) {
  ExpandedRegion out{map, std::nullopt};
  const NodeId dc =
      out.map.add_dc(request.name, request.position, request.capacity_fibers);
  const auto huts = huts_by_distance(map, request.position);
  const int attach = std::min<int>(request.attach_huts,
                                   static_cast<int>(huts.size()));
  for (int a = 0; a < attach; ++a) {
    out.map.add_duct_with_length(
        dc, huts[a],
        attach_length_km(request.position, map.site(huts[a]).position));
  }
  const auto tree = graph::dijkstra(out.map.graph(), dc);
  double worst = 0.0;
  for (NodeId existing : map.dcs()) {
    if (!tree.reachable(existing)) return out;
    worst = std::max(worst, tree.dist_km[existing]);
  }
  out.reach_km = worst;
  return out;
}

std::optional<double> expansion_fiber_reach_km(const fibermap::FiberMap& map,
                                               const PlannerParams& params,
                                               const ExpansionRequest& request) {
  (void)params;
  return expand_region(map, request).reach_km;
}

ExpansionReport plan_expansion(const fibermap::FiberMap& map,
                               const PlannerParams& params,
                               const ExpansionRequest& request) {
  ExpandedRegion expanded = expand_region(map, request);
  if (!expanded.within_sla(params)) {
    throw std::invalid_argument(
        "plan_expansion: candidate site violates the siting SLA");
  }

  const RegionalPlan before = plan_region(map, params);

  ExpansionReport report;
  report.expanded_map = std::move(expanded.map);
  report.plan = plan_region(report.expanded_map, params);
  report.max_fiber_km_to_existing = *expanded.reach_km;
  report.iris_delta = report.plan.iris.total - before.iris.total;
  report.eps_delta = report.plan.eps.total - before.eps.total;
  return report;
}

}  // namespace iris::core
