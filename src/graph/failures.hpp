// Exhaustive failure-scenario enumeration (paper OC4 / SS4.1), generalized
// to shared-risk link groups.
//
// A failure *event* destroys a set of fiber ducts atomically: a lone duct
// cut is a singleton event, and an SRLG (shared trench, shared hut) is a
// multi-duct event. A failure scenario is a set of at most `tolerance`
// simultaneous events; all fibers in every destroyed duct are lost.
// Algorithm 1 enumerates every scenario, including the no-failure scenario.
// With only singleton events this is exactly the classic per-duct sweep.
//
// ScenarioSet is the one enumeration engine shared by the planner, the
// validators and amplifier placement: it owns the event list, a base mask of
// permanently excluded ducts, and both a serial and a parallel sweep. Every
// sweep passes each scenario's failed-event depth, which lets callers keep
// per-depth state (the planner's scenario-record stacks). The parallel
// sweep partitions the subset tree by first-failed-event prefix and hands
// each worker its own mask + visitor, so per-thread scratch (recorders,
// accumulators) never crosses threads; callers merge the per-worker results
// deterministically at the end.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace iris::graph {

/// One atomic failure event: the ducts it destroys, ascending and unique.
/// Singleton events model independent duct cuts; larger events model SRLGs.
/// Events may overlap (a duct can sit in a trench group and a hut group);
/// the sweep fails each duct once no matter how many active events cover it.
struct FailureEvent {
  std::vector<EdgeId> edges;

  friend bool operator==(const FailureEvent&, const FailureEvent&) = default;
};

/// Visitor for one failure scenario: the full edge mask (base exclusions plus
/// the failed ducts), the failed ducts themselves in the order the sweep
/// failed them, each duct exactly once even when covered by several events,
/// and the number of failed events (the scenario's depth in the subset
/// tree). The list is empty exactly for the no-failure scenario. With
/// singleton events `depth == failed.size()`; with SRLGs the flattened duct
/// list is longer than the event count.
using ScenarioVisitor = std::function<void(
    const EdgeMask&, std::span<const EdgeId> failed, int depth)>;

/// Tallies from a dominance-pruned sweep: scenarios routed by the visitor
/// and scenarios skipped because their parent dominates them.
struct SweepStats {
  long long visited = 0;
  long long pruned = 0;
};

/// Visitor pair for a dominance-pruned sweep (for_each_pruned_parallel).
///
/// `evaluate` routes one scenario (same arguments as ScenarioVisitor) and
/// returns a per-edge bitmap, indexed by EdgeId and
/// sized to edge_count, marking ducts that carry demand under that scenario.
/// The reference only needs to stay valid until the sweep copies it, i.e.
/// until the next call on the same worker; an empty bitmap disables pruning
/// below that scenario.
///
/// `pruned` announces a skipped scenario: no duct of its newly failed event
/// carried demand in its parent (the scenario minus that event), so its
/// routing, loads and per-pair outcomes are exactly the parent's — removing
/// ducts no demand path crosses leaves every demand path both available and
/// still canonically optimal (distances only grow when edges fail, and the
/// canonical (dist, hops, parent-id) choice among surviving candidates is
/// unchanged when only non-chosen candidates disappear). Event members that
/// were already failed by an ancestor event are unreachable in the parent's
/// routing and therefore automatically demand-free, so the sweep soundly
/// checks every member. Implementations re-fold the parent's per-scenario
/// tallies so pruned sweeps stay bit-identical to full sweeps in every
/// aggregate; `depth` gives the depth to re-fold from.
struct PrunedScenarioVisitor {
  std::function<const std::vector<char>&(
      const EdgeMask&, std::span<const EdgeId>, int depth)>
      evaluate;
  std::function<void(std::span<const EdgeId>, int depth)> pruned;
};

/// The set of failure scenarios over a chosen event list: every subset of
/// `events` with size <= tolerance, on top of a base mask of permanently
/// excluded ducts (e.g. over-long spans, TC1).
class ScenarioSet {
 public:
  /// Independent-cut domain: each eligible edge is its own singleton event.
  /// `base_mask` must either be empty (nothing pre-failed) or sized to
  /// `edge_count`; eligible edges must not be failed in it.
  ScenarioSet(EdgeId edge_count, std::vector<EdgeId> eligible_edges,
              int tolerance, EdgeMask base_mask = {});

  /// Event domain: scenarios are subsets of `events` (singletons, SRLGs, or
  /// a mix). Event member lists are sorted and deduplicated; every member
  /// must be in range and not pre-failed in `base_mask`. Events must be
  /// non-empty.
  ScenarioSet(EdgeId edge_count, std::vector<FailureEvent> events,
              int tolerance, EdgeMask base_mask = {});

  /// Every duct of `g` its own singleton event, nothing pre-failed.
  static ScenarioSet all_edges(const Graph& g, int tolerance);

  [[nodiscard]] int tolerance() const noexcept { return tolerance_; }

  /// The failure events scenarios are drawn from, in enumeration order.
  [[nodiscard]] const std::vector<FailureEvent>& events() const noexcept {
    return events_;
  }

  /// Union of all event members, ascending and unique.
  [[nodiscard]] const std::vector<EdgeId>& eligible_edges() const noexcept {
    return eligible_;
  }

  /// Number of scenarios a sweep visits: sum_k C(|events|, k), k=0..tol.
  [[nodiscard]] long long scenario_count() const;

  /// Serial sweep in deterministic depth-first prefix order: the no-failure
  /// scenario first, then {ev0}, {ev0,ev1}, ... One mask allocation is
  /// reused. Same as for_each_parallel on one worker.
  void for_each(const ScenarioVisitor& visit) const;

  /// Parallel sweep over `threads` workers (1 is the serial sweep, on the
  /// calling thread).
  /// `make_visitor(w)` is called once per worker w in [0, threads) from the
  /// main thread before the sweep starts; the returned visitor then runs on
  /// that worker's thread only. Work is dealt by first-failed-event prefix:
  /// the subtree of scenarios whose first failed event is events()[i] is
  /// one task, claimed dynamically, and runs depth-first. So for d >= 2 the
  /// parent of a depth-d scenario is the last depth-(d - 1) scenario its
  /// worker visited; the no-failure scenario, every depth-1 scenario's
  /// parent, is a task of its own. Every scenario is visited exactly once;
  /// which worker sees
  /// which scenario is nondeterministic, so visitors must accumulate into
  /// per-worker state that merges order-independently (max/sum over
  /// integers) for bit-identical results vs the serial sweep. The first
  /// exception thrown by any visitor is rethrown on the caller's thread
  /// after all workers have stopped.
  void for_each_parallel(
      int threads,
      const std::function<ScenarioVisitor(int worker)>& make_visitor) const;

  /// Dominance-pruned parallel sweep, same worker/task contract and
  /// depth-first order within a task as for_each_parallel, except the
  /// no-failure scenario is evaluated by worker 0's visitor on the calling
  /// thread before the pool starts (its demand bitmap seeds every worker's
  /// pruning stack). A child scenario whose newly failed event only
  /// destroys demand-free ducts is dominated: the sweep skips `evaluate`,
  /// calls `pruned`, and reuses the parent's demand bitmap for the skipped
  /// subtree root. Exact by construction -- every pruned scenario's loads
  /// equal its parent's, which the sweep already folded -- so results are
  /// bit-identical to for_each with the same per-scenario work. Per-worker
  /// tallies are folded in worker order.
  SweepStats for_each_pruned_parallel(
      int threads,
      const std::function<PrunedScenarioVisitor(int worker)>& make_visitor)
      const;

  /// The permanently excluded ducts every scenario starts from.
  [[nodiscard]] const EdgeMask& base_mask() const noexcept {
    return base_mask_;
  }

 private:
  void validate_events();
  [[nodiscard]] int sweep_workers(int threads) const;

  EdgeId edge_count_ = 0;
  std::vector<FailureEvent> events_;
  std::vector<EdgeId> eligible_;
  int tolerance_ = 0;
  EdgeMask base_mask_;
};

/// Worker count for a parallel sweep: `requested` if positive, otherwise
/// std::thread::hardware_concurrency (at least 1).
int resolve_thread_count(int requested);

/// Number of subsets of `edge_count` events with size <= tolerance:
/// sum_k C(edge_count, k), k = 0..tolerance.
long long failure_scenario_count(EdgeId edge_count, int tolerance);

}  // namespace iris::graph
