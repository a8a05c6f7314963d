// Monte-Carlo availability analysis of regional DCI designs (paper SS2.2,
// OC4).
//
// The operator's resilience goal is phrased as "tolerate k fiber cuts", but
// what a customer experiences is availability: the fraction of time every
// DC pair stays connected. This module holds the failure model (duct cuts
// as Poisson processes, rate proportional to duct length -- backhoes hit
// long ducts more -- with exponential repairs), the report types and the
// pluggable connectivity criteria, so centralized (must transit a hub) and
// distributed (any surviving path) designs can be compared on equal terms.
// The simulator, simulate_availability_correlated, is in
// reliability/events.hpp.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "fibermap/fibermap.hpp"

namespace iris::reliability {

struct FailureModel {
  /// Metro duct cut rate per km-year. Industry folklore puts a metro fiber
  /// cut at roughly one per few hundred km-years.
  double cuts_per_km_year = 0.005;
  double mean_repair_hours = 12.0;

  /// Regional catastrophes (flood, earthquake; paper SS1, SS2.2): every
  /// event has a random epicenter in the region and takes down every *site*
  /// (hut or DC) within the radius -- which is exactly why placing both
  /// hubs close together couples their failure domains (Fig. 4).
  double disasters_per_year = 0.0;
  double disaster_radius_km = 8.0;
  double disaster_repair_days = 30.0;

  double horizon_years = 200.0;  ///< long horizon shrinks estimator variance
  std::uint64_t seed = 1;
};

struct PairAvailability {
  graph::NodeId a = graph::kInvalidNode;
  graph::NodeId b = graph::kInvalidNode;
  double availability = 1.0;

  /// 95% batch-means confidence interval around `availability`, clamped to
  /// [0, 1]. Filled by simulate_availability_correlated when the model asks
  /// for batches; otherwise both equal `availability`.
  double ci_low = 1.0;
  double ci_high = 1.0;

  [[nodiscard]] double downtime_minutes_per_year() const {
    return (1.0 - availability) * 365.25 * 24.0 * 60.0;
  }
};

struct AvailabilityReport {
  std::vector<PairAvailability> pairs;
  long long cut_events = 0;
  double worst_availability = 1.0;
  double mean_availability = 1.0;
};

/// Connectivity criterion: given the set of currently failed ducts, is the
/// pair up? Defaults cover the two interesting designs below.
///
/// Contract: a criterion must be a pure function of (mask, a, b) -- no
/// state that changes its answer between calls. The simulator relies on
/// this: it asks once per recorded failure state and pair, and reuses the
/// answer at every later step that returns to that state.
using PairUpFn = std::function<bool(const graph::EdgeMask&, graph::NodeId,
                                    graph::NodeId)>;

/// Distributed / Iris criterion: the pair is up while any surviving path
/// connects it (the planner provisioned capacity for up to k cuts; beyond
/// that, reachability is what is left).
PairUpFn any_path_criterion(const fibermap::FiberMap& map);

/// Centralized criterion: traffic must transit one of the hub sites, so the
/// pair is up only if both DCs can reach a common hub on surviving ducts.
PairUpFn via_hub_criterion(const fibermap::FiberMap& map,
                           std::vector<graph::NodeId> hubs);

/// Analytic check for a chain of ducts in series (used by tests): the pair
/// is up only when every duct works, so
/// A = prod_e mu_e / (mu_e + lambda_e) with per-duct failure rate lambda_e
/// and repair rate mu_e.
double series_chain_availability(const std::vector<double>& duct_lengths_km,
                                 const FailureModel& model);

}  // namespace iris::reliability
