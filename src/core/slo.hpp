// Availability-SLO-driven provisioning (paper SS2.2 meets SS4.1).
//
// "Tolerate k cuts" is the planner's knob, but the contract an operator
// signs is an availability target per DC pair (e.g. 99.99%). This module
// closes the loop: provision at increasing failure tolerance and simulate
// each candidate plan under the correlated failure model (trench SRLGs, hut
// outages, maintenance calendars — reliability/events) until every pair
// meets the SLO or the search ceiling is hit. Pairs are judged on *planned*
// ducts only: capacity the plan did not buy cannot carry the recovery path.
#pragma once

#include "core/provision.hpp"
#include "reliability/events.hpp"

namespace iris::core {

/// Outcome of the SLO search. `network` and `availability` describe the last
/// candidate evaluated — the accepted plan when `met`, the slo_max_tolerance
/// plan otherwise (callers can inspect how far short it fell).
struct SloProvisionReport {
  ProvisionedNetwork network;
  reliability::CorrelatedAvailabilityReport availability;
  int tolerance = 0;     ///< failure_tolerance of `network`
  int search_steps = 0;  ///< candidate plans provisioned and simulated
  bool met = false;      ///< every pair's availability >= the SLO

  // Cost co-optimization outcome (defaults when it was disabled).
  double oversubscription = 1.0;  ///< the accepted plan's oversubscription
  long long cost_fibers = 0;      ///< network.total_base_fibers()
  int bisect_steps = 0;           ///< extra plans evaluated by the bisection
};

/// Knobs for provision_to_availability_slo's cost co-optimization pass.
struct SloCostOptions {
  /// Upper end of the oversubscription bisection. Values <=
  /// params.oversubscription disable cost co-optimization entirely.
  double max_oversubscription = 1.0;
  /// Wavelengths a DC pair must be able to push through surviving *planned*
  /// capacity to count as up (max-flow criterion). 1 degenerates to plain
  /// connectivity over used ducts — oversubscription shrinks capacities but
  /// never zeroes a used duct, so a capacity-aware criterion is what makes
  /// the bisection non-vacuous. Must be >= 1.
  long long demand_waves = 1;
  /// Fixed bisection depth, so the search cost is deterministic. Must be
  /// >= 0 (0 = only probe max_oversubscription itself).
  int bisect_iters = 10;
};

/// Capacity-aware criterion: a pair is up while `demand_waves` wavelengths
/// fit through the surviving planned capacity (integer max-flow over used
/// ducts, capacities = edge_capacity_wavelengths). Pairs are judged on
/// planned ducts only -- raw reachability over unbuilt fiber would flatter
/// every design equally. demand_waves == 1 is plain connectivity over the
/// surviving used ducts; larger demands make availability sensitive to how
/// much capacity the plan bought, which is what lets the SLO search trade
/// oversubscription against availability. Throws std::invalid_argument
/// when demand_waves < 1.
reliability::PairUpFn planned_capacity_criterion(const fibermap::FiberMap& map,
                                                const ProvisionedNetwork& net,
                                                long long demand_waves);

/// All pairs of planned_capacity_criterion under one failure mask, as
/// classes. On an undirected graph the max-flow obeys
/// lambda(a, c) >= min(lambda(a, b), lambda(b, c)), so "the pair carries >=
/// demand_waves" is an equivalence relation on DCs. Returns one label per
/// DC (index into map.dcs()); for i != j, labels[i] == labels[j] exactly
/// when planned_capacity_criterion(map, net, demand_waves)(mask, dcs[i],
/// dcs[j]) holds. A union-find pass splits the DCs into components; inside
/// a component each DC not yet placed runs one max-flow (stopped at
/// demand_waves) against each class representative before it, so a fully
/// connected mask costs k - 1 flows for k DCs. Adds the flows run to
/// `*maxflows` when given. Throws std::invalid_argument when demand_waves <
/// 1.
std::vector<int> planned_capacity_classes(const fibermap::FiberMap& map,
                                          const ProvisionedNetwork& net,
                                          const graph::EdgeMask& mask,
                                          long long demand_waves,
                                          long long* maxflows = nullptr);

/// The argument rule of provision_to_availability_slo: nullptr when the
/// search would run, else the message it throws. Rejects an
/// params.availability_slo outside (0, 1] (NaN included), an empty
/// tolerance range, demand_waves < 1, bisect_iters < 0 and a non-finite
/// max_oversubscription.
[[nodiscard]] const char* slo_argument_error(const PlannerParams& params,
                                             const SloCostOptions& cost);

/// Searches failure_tolerance in [params.failure_tolerance,
/// params.slo_max_tolerance] for the cheapest plan whose worst simulated
/// pair availability meets params.availability_slo under `model`, judging
/// pairs with planned_capacity_criterion(·, cost.demand_waves). When the SLO
/// was met and cost.max_oversubscription > params.oversubscription, it then
/// bisects on oversubscription inside the accepted tolerance for the
/// cheapest (fewest base fibers) plan still meeting the SLO. Availability is
/// monotone non-increasing in oversubscription (it only shrinks
/// capacities), so the fixed-depth bisection is exact up to its resolution.
/// With default SloCostOptions this is the plain tolerance search
/// (demand_waves = 1 is plain connectivity; bisection disabled).
///
/// The failure timeline is recorded once per search and every candidate is
/// integrated over it (reliability::record_timeline / integrate_timeline).
/// Per candidate, recorded states are projected onto the planned ducts and
/// each projected state gets one planned_capacity_classes pass on the
/// candidate's one flow network, so every report double equals
/// simulate_availability_correlated with planned_capacity_criterion.
/// Records `planner.slo.maxflows` (flows run) and, per candidate, the run
/// metrics of a correlated simulation. Deterministic: same map, params,
/// model and options give the same report. Throws std::invalid_argument
/// with slo_argument_error's message when that rejects the arguments
/// (before recording anything), or like EventStream on a malformed model.
SloProvisionReport provision_to_availability_slo(
    const fibermap::FiberMap& map, const PlannerParams& params,
    const reliability::CorrelatedFailureModel& model,
    const SloCostOptions& cost = {});

/// The same search over a timeline recorded beforehand with
/// reliability::record_timeline(map, model): it gives the model form's
/// report, so a caller probing one map under one model many times records
/// the timeline once. Throws std::invalid_argument with slo_argument_error's
/// message, or when the timeline's DCs or duct count are not the map's.
SloProvisionReport provision_to_availability_slo(
    const fibermap::FiberMap& map, const PlannerParams& params,
    const reliability::FailureTimeline& timeline,
    const SloCostOptions& cost = {});

}  // namespace iris::core
