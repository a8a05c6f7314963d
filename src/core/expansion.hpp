// Region expansion planning (paper SS2.3).
//
// Regions grow over time: "the first DCs can be built in a relatively
// unconstrained manner, but later DCs must be within a fiber distance
// threshold of each existing DC." These helpers add a DC to an existing
// region, re-run the planner, and report the incremental equipment needed --
// the expansion workflow where Iris's small switching points shine compared
// to pre-provisioned mega-hubs.
#pragma once

#include <optional>

#include "core/plan_region.hpp"

namespace iris::core {

struct ExpansionRequest {
  geo::Point position;
  int capacity_fibers = 8;
  int attach_huts = 3;        ///< ducts from the new DC into the backbone
  std::string name = "dc-new";
};

struct ExpansionReport {
  fibermap::FiberMap expanded_map;
  RegionalPlan plan;                       ///< plan of the expanded region
  cost::BillOfMaterials iris_delta;        ///< added Iris equipment
  cost::BillOfMaterials eps_delta;         ///< what EPS would have added
  double max_fiber_km_to_existing = 0.0;   ///< worst new-DC pair distance

  [[nodiscard]] double iris_delta_cost(const cost::PriceBook& p) const {
    return iris_delta.total_cost(p);
  }
  [[nodiscard]] double eps_delta_cost(const cost::PriceBook& p) const {
    return eps_delta.total_cost(p);
  }
};

/// The region with a candidate DC attached: the new DC (last in dcs()) and
/// its ducts into the nearest backbone huts.
struct ExpandedRegion {
  fibermap::FiberMap map;
  /// Worst fiber distance from the new DC to an existing DC, or nullopt if
  /// some existing DC is unreachable from it.
  std::optional<double> reach_km;

  /// The siting SLA: every existing DC within the planner's max path length.
  [[nodiscard]] bool within_sla(const PlannerParams& params) const {
    return reach_km.has_value() && *reach_km <= params.spec.max_path_km;
  }
};

/// Attaches the candidate DC and measures its reach. The one way to build
/// an expanded map: growth studies provision `map`, and plan_expansion
/// plans it.
ExpandedRegion expand_region(const fibermap::FiberMap& map,
                             const ExpansionRequest& request);

/// The reach of expand_region(map, request), for siting checks that need
/// nothing else.
std::optional<double> expansion_fiber_reach_km(const fibermap::FiberMap& map,
                                               const PlannerParams& params,
                                               const ExpansionRequest& request);

/// Adds the DC, replans the whole region, and reports the equipment deltas.
/// Throws std::invalid_argument if the position violates the siting SLA.
ExpansionReport plan_expansion(const fibermap::FiberMap& map,
                               const PlannerParams& params,
                               const ExpansionRequest& request);

}  // namespace iris::core
