// Algorithm 1: topology & capacity planning (paper SS4.1).
//
// Exhaustively enumerates fiber-cut scenarios up to the configured tolerance
// (OC4); in each scenario routes every DC pair on its shortest surviving path
// (OC1, OC3) and provisions each duct for the worst hose-model load it sees
// across scenarios (OC2). Ducts longer than the maximum point-to-point span
// are excluded up front (TC1): no switching technology can use them.
#pragma once

#include <map>
#include <utility>
#include <vector>

#include "fibermap/fibermap.hpp"
#include "graph/failures.hpp"
#include "graph/shortest_path.hpp"
#include "optical/spec.hpp"

namespace iris::core {

struct PlannerParams {
  int failure_tolerance = 2;  ///< OC4: fiber-duct cuts to survive
  optical::OpticalSpec spec{};
  optical::ChannelPlan channels{};

  /// OC2 relaxation (SS2: "or is an oversubscribed fabric acceptable?").
  /// 1.0 provisions non-blocking hose capacity; k > 1 provisions 1/k of the
  /// worst-case load on every duct, trading cost for admission risk.
  double oversubscription = 1.0;

  /// Workers for the parallel failure-scenario sweeps in provision() and
  /// validate_plan() (placement's greedy sweep is always serial);
  /// 0 = hardware_concurrency. Results are bit-identical for every thread
  /// count.
  int threads = 0;

  /// provision()'s sweep mode. true: dominance pruning of scenarios that
  /// only fail demand-free ducts, and scenario records
  /// (core/scenario_record) patched from the parent scenario's by
  /// re-routing only the pairs that crossed the new ducts, with hose loads
  /// memoized per duct. false: the full from-scratch sweep, kept as the
  /// oracle (see planner_oracle_enabled()). Exact -- the plan, including
  /// diagnostics, is bit-identical either way. Only provision() reads this;
  /// placement and validate_plan() always sweep scenario records.
  bool incremental = true;

  /// Ducts already lost (for replans after real cuts): permanently failed in
  /// every scenario and excluded from the failure-eligible set. Must not
  /// contain duplicates.
  std::vector<graph::EdgeId> cut_ducts;

  /// Availability target for provision_to_availability_slo (core/slo): the
  /// search raises failure_tolerance until every DC pair's simulated
  /// availability meets this. 0 disables SLO-driven provisioning; provision()
  /// itself never reads these two fields.
  double availability_slo = 0.0;
  int slo_max_tolerance = 4;  ///< search ceiling on failure_tolerance
};

/// Unordered DC pair, normalized so a < b.
struct DcPair {
  graph::NodeId a = graph::kInvalidNode;
  graph::NodeId b = graph::kInvalidNode;

  DcPair() = default;
  DcPair(graph::NodeId x, graph::NodeId y) : a(std::min(x, y)), b(std::max(x, y)) {}
  friend auto operator<=>(const DcPair&, const DcPair&) = default;
};

/// Output of Algorithm 1.
struct ProvisionedNetwork {
  PlannerParams params;

  /// Worst-case hose load per duct, in wavelengths; 0 = duct unused.
  std::vector<long long> edge_capacity_wavelengths;

  /// Base fiber pairs per duct: capacity rounded up to whole fibers.
  std::vector<int> base_fibers;

  /// No-failure shortest path for every connected DC pair; used by the
  /// switching-layer designs, control plane and simulator.
  std::map<DcPair, graph::Path> baseline_paths;

  // Diagnostics. The incremental sweep folds a dominated scenario's tallies
  // from its parent instead of routing it, so every field below matches the
  // full sweep exactly; `scenarios_pruned` reports how many of the evaluated
  // scenarios were folded that way (always 0 for `incremental = false`).
  long long scenarios_evaluated = 0;
  long long scenarios_pruned = 0;
  long long pair_paths_skipped_unreachable = 0;  ///< pair cut off in a scenario
  long long pair_paths_beyond_sla = 0;  ///< surviving path exceeded OC1 bound

  [[nodiscard]] bool edge_used(graph::EdgeId e) const {
    return edge_capacity_wavelengths.at(e) > 0;
  }
  /// A hut is used iff some incident duct carries capacity (SS4.1).
  [[nodiscard]] bool hut_used(const fibermap::FiberMap& map,
                              graph::NodeId hut) const;
  [[nodiscard]] int total_base_fibers() const;
};

/// Runs Algorithm 1 on the region. With `params.incremental` (the default)
/// the sweep warm-starts routing and prunes dominated scenarios; when the
/// IRIS_PLANNER_ORACLE environment variable is set (non-empty, not "0") the
/// full from-scratch sweep also runs and a std::logic_error is thrown if the
/// plans diverge in any way.
ProvisionedNetwork provision(const fibermap::FiberMap& map,
                             const PlannerParams& params);

/// True when IRIS_PLANNER_ORACLE requests incremental results be
/// cross-checked against the full from-scratch sweep (tests, CI, bench).
bool planner_oracle_enabled();

/// True if the two plans agree on every capacity, fiber count, baseline
/// path and diagnostic (params and scenarios_pruned — which legitimately
/// differ between sweep modes — are not compared).
bool same_plan(const ProvisionedNetwork& a, const ProvisionedNetwork& b);

/// Throws std::logic_error naming `what` if !same_plan(a, b).
void require_same_plan(const ProvisionedNetwork& a,
                       const ProvisionedNetwork& b, const char* what);

/// Fast path for uniform-capacity regions (the SS6.1 evaluation grid): when
/// every DC has the same capacity, hose-model max flows scale linearly with
/// that capacity, so a plan computed at capacity 1 fiber and lambda = 1
/// ("unit plan") converts to any (capacity_fibers, lambda) by pure
/// arithmetic: wavelength loads scale by capacity_fibers * lambda and fiber
/// counts by capacity_fibers. Exact -- see ProvisionScalingMatchesDirect in
/// the tests.
ProvisionedNetwork scale_uniform_provision(const ProvisionedNetwork& unit,
                                           int capacity_fibers, int lambda);

/// The planner's scenario domain: every duct within the point-to-point span
/// limit is eligible to fail; over-long ducts are permanently excluded in
/// the base mask (TC1). Shared by Algorithm 1, amplifier placement and the
/// design validators.
graph::ScenarioSet planner_scenarios(const fibermap::FiberMap& map,
                                     const PlannerParams& params);

}  // namespace iris::core
