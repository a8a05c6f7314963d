// Incremental replanning around live duct cuts and repairs.
//
// IncrementalPlanner owns the current plan for a region and replans after
// each physical duct cut or repair, emitting the PlanDiff a controller
// applies. Replans reuse a persistent scenario cache instead of re-routing
// the whole failure sweep: every scenario record (core/scenario_record) is
// remembered keyed by its effective failed-duct set K (enumerated failures
// plus live cuts), so a repair -- whose scenarios were all planned before
// the cut -- folds cached per-duct loads without touching the router. On a
// cache miss for K the sweep first looks for the cached record of any
// K \ {x} that routes no demand over x: removing a duct no pair path
// crosses leaves every path canonical, so K's routing, loads and tallies
// are that record's, whatever events formed K (the dominance rule, applied
// to every cached sub-scenario and not only the depth-first parent). Only
// when none exists is K's record patched, from the cached K \ {x} whose
// paths cross x least, by re-routing the DC pairs that crossed x, with hose
// max-flows memoized per duct -- the kernel provision()'s incremental sweep
// runs too. The result is bit-identical to provision() on the same cut set;
// when IRIS_PLANNER_ORACLE is set every replan is cross-checked against
// provision() (which in turn cross-checks the full from-scratch sweep) and
// divergence throws.
//
// The cache grows with the set of distinct scenarios ever planned -- about
// 1.5 KB per scenario on a 20-DC region. A long-lived planner cycling
// through many distinct cut ducts accumulates one scenario family per duct;
// destroy and rebuild the planner to shed the cache.
//
// Copies are independent planners over the same map. A copy deep-copies
// the cache's indexes (interned paths, hose-load memo, the record map) but
// shares the routed scenario records themselves, which are immutable once
// built; from then on each copy grows its own cache and replans exactly as
// the original would. Copying a few hundred scenarios costs well under a
// millisecond, against a full sweep to build a planner, so a caller that
// asks many one-off questions of one plan keeps a pristine planner and
// cuts copies of it. A copy's first cut shares most of its scenarios with
// the pristine records that never routed over the cut duct. Copying reads
// the source only, so several threads may copy one const planner at once.
#pragma once

#include <memory>

#include "core/plan_diff.hpp"
#include "core/provision.hpp"
#include "fibermap/fibermap.hpp"

namespace iris::core {

/// Work tallies for the most recent replan.
struct ReplanStats {
  long long scenarios = 0;  ///< scenarios in the replan's sweep
  long long pruned = 0;     ///< scenarios served from cache or a sub-scenario
  double replan_ms = 0.0;   ///< wall time of the replan sweep + diff
};

class IncrementalPlanner {
 public:
  /// Plans the region immediately; `params.cut_ducts` seeds the live cut
  /// set. The map is referenced, not copied, and must outlive the planner.
  IncrementalPlanner(const fibermap::FiberMap& map,
                     const PlannerParams& params);
  /// An independent planner in the same state, sharing the scenario
  /// records (see the file comment). It references the same map.
  IncrementalPlanner(const IncrementalPlanner& other);
  IncrementalPlanner(IncrementalPlanner&&) noexcept;
  ~IncrementalPlanner();

  [[nodiscard]] const ProvisionedNetwork& current() const noexcept {
    return current_;
  }
  [[nodiscard]] const std::vector<graph::EdgeId>& cut_ducts() const noexcept {
    return cuts_;
  }
  [[nodiscard]] const ReplanStats& last_stats() const noexcept {
    return stats_;
  }

  /// Records duct `e` as physically lost and replans. Throws
  /// std::invalid_argument if `e` is out of range or already cut.
  PlanDiff cut_duct(graph::EdgeId e);

  /// Records duct `e` as repaired and replans. Throws std::invalid_argument
  /// if `e` is not currently cut.
  PlanDiff repair_duct(graph::EdgeId e);

 private:
  struct Cache;  // scenario records, interned paths, hose-load memo

  ProvisionedNetwork sweep_plan();
  PlanDiff replan();
  void maybe_check_oracle(const char* what);

  const fibermap::FiberMap& map_;
  PlannerParams params_;  // cut_ducts stripped; cuts_ is authoritative
  std::vector<graph::EdgeId> cuts_;
  ProvisionedNetwork current_;
  ReplanStats stats_;
  std::unique_ptr<Cache> cache_;
};

}  // namespace iris::core
