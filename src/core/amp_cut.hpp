// Greedy amplifier and cut-through placement (paper SS4.3 and Appendix A).
//
// Stage 1 places in-line amplifiers so every DC-DC path, in every failure
// scenario, can be split into fiber spans within the amplifier gain (TC1,
// TC2: at most one in-line amplifier per path). Locations are scored by
// constraints resolved per amplifier added; amplifier counts per site are
// sized with the same hose-model max computation as duct capacities, since
// one amplifier amplifies exactly one fiber.
//
// Stage 2 adds cut-through links -- uninterrupted fiber runs that bypass the
// OSS at intermediate sites -- until every path also closes its per-segment
// power budget (TC4). Candidates are scored by paths resolved per unit of
// additional fiber leased.
//
// Both stages walk the planner's failure scenarios in the sweep's serial
// depth-first order; the greedy choices depend on that order. Each scenario
// is routed once, as a scenario record (core/scenario_record) patched from
// its parent's: a region's scenarios repeat a few hundred distinct paths
// tens of thousands of times, so the plan-independent facts about a path
// (unaided feasibility, amplifier sites) are computed once per id of the
// recorder's path pool. The recorder lives only as long as one placement
// run.
#pragma once

#include <vector>

#include "core/path_physics.hpp"
#include "core/provision.hpp"

namespace iris::core {

/// An uninterrupted fiber run covering consecutive ducts; the OSS at the
/// interior sites is bypassed for traffic riding the cut-through.
struct CutThrough {
  std::vector<graph::NodeId> nodes;  ///< site sequence, >= 3 nodes
  std::vector<graph::EdgeId> ducts;  ///< covered ducts, nodes.size()-1 of them
  int fiber_pairs = 0;               ///< leased on every covered duct
};

struct AmpCutPlan {
  /// In-line amplifiers per site (each amplifies one fiber, loopback on the
  /// site's OSS).
  std::vector<int> amps_at_node;
  std::vector<CutThrough> cut_throughs;

  /// In-SLA paths (across all scenarios) that no single in-line amplifier
  /// and no cut-through could fix; nonzero values indicate the fiber map
  /// itself violates the paper's planning assumptions.
  long long unresolved_paths = 0;

  /// Failure-scenario detours longer than the SLA bound (OC1). These cannot
  /// be carried optically within TC2's one-in-line-amplifier budget, and the
  /// latency contract would already be void on them; the planner records
  /// them instead of provisioning for them.
  long long beyond_sla_paths = 0;

  [[nodiscard]] long long total_amplifiers() const;
  /// Fiber-pair lease units added by cut-throughs (pairs x covered spans).
  [[nodiscard]] long long cut_through_fiber_spans() const;
  /// Sites the given path may bypass (union over matching cut-throughs).
  [[nodiscard]] SiteSet bypassed_sites(const graph::Path& path) const;
};

/// Work counters of one placement run; deterministic for a given input.
struct AmpCutStats {
  long long scenarios = 0;       ///< failure scenarios routed
  long long pair_paths = 0;      ///< reachable DC-pair paths over scenarios
  long long distinct_paths = 0;  ///< distinct paths among them
};

/// Runs both placement stages over every failure scenario. `stats`, when
/// given, receives the run's work counters.
AmpCutPlan place_amplifiers_and_cutthroughs(const fibermap::FiberMap& map,
                                            const ProvisionedNetwork& network,
                                            AmpCutStats* stats = nullptr);

/// True if the path closes its power budget given the plan: either unaided,
/// or with one in-line amplifier at a site where the plan placed amplifiers.
/// `extra_bypassed` adds hypothetical cut-through sites on top of the plan's
/// (used when scoring cut-through candidates).
bool path_feasible_with_plan(const graph::Graph& g, const graph::Path& path,
                             const AmpCutPlan& plan,
                             const optical::OpticalSpec& spec,
                             const SiteSet* extra_bypassed = nullptr);

/// Uniform-capacity fast path (see scale_uniform_provision): scales a plan
/// computed at 1 fiber per DC. Amplifier and cut-through fiber counts are
/// hose loads, which scale linearly; the half-integral rounding in site
/// loads makes this an upper bound that is tight in practice.
AmpCutPlan scale_uniform_amp_cut(const AmpCutPlan& unit, int capacity_fibers);

}  // namespace iris::core
