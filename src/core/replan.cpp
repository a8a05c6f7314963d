#include "core/replan.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <iterator>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/scenario_record.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace iris::core {

using graph::EdgeId;

struct IncrementalPlanner::Cache {
  explicit Cache(ScenarioRecorder r) : recorder(std::move(r)) {}
  // A copy shares the immutable records and copies the recorder's pool and
  // memo, which the records index into.
  Cache(const Cache& o) = default;

  ScenarioRecorder recorder;
  // Scenario records keyed by effective failed-duct set (enumerated failures
  // merged with live cuts), ascending. TC1-excluded ducts never appear: they
  // are failed in every base mask, so cutting one changes nothing.
  std::unordered_map<std::vector<EdgeId>, RecordPtr, IdListHash> records;
};

IncrementalPlanner::IncrementalPlanner(const fibermap::FiberMap& map,
                                       const PlannerParams& params)
    : map_(map),
      params_(params),
      cuts_(params.cut_ducts),
      cache_(std::make_unique<Cache>(ScenarioRecorder(map, params))) {
  if (params_.oversubscription < 1.0) {
    throw std::invalid_argument(
        "IncrementalPlanner: oversubscription must be >= 1");
  }
  std::sort(cuts_.begin(), cuts_.end());
  params_.cut_ducts.clear();
  current_ = sweep_plan();
  maybe_check_oracle("IncrementalPlanner initial plan vs provision() oracle");
}

IncrementalPlanner::IncrementalPlanner(const IncrementalPlanner& other)
    : map_(other.map_),
      params_(other.params_),
      cuts_(other.cuts_),
      current_(other.current_),
      stats_(other.stats_),
      cache_(std::make_unique<Cache>(*other.cache_)) {}

IncrementalPlanner::IncrementalPlanner(IncrementalPlanner&&) noexcept = default;
IncrementalPlanner::~IncrementalPlanner() = default;

PlanDiff IncrementalPlanner::cut_duct(EdgeId e) {
  if (e < 0 || e >= map_.graph().edge_count()) {
    throw std::invalid_argument("cut_duct: duct out of range");
  }
  const auto it = std::lower_bound(cuts_.begin(), cuts_.end(), e);
  if (it != cuts_.end() && *it == e) {
    throw std::invalid_argument("cut_duct: duct already cut");
  }
  cuts_.insert(it, e);
  return replan();
}

PlanDiff IncrementalPlanner::repair_duct(EdgeId e) {
  const auto it = std::lower_bound(cuts_.begin(), cuts_.end(), e);
  if (it == cuts_.end() || *it != e) {
    throw std::invalid_argument("repair_duct: duct is not cut");
  }
  cuts_.erase(it);
  return replan();
}

/// One cache-backed sweep over the current cut set. Produces the exact plan
/// provision() computes for the same cuts. A scenario's record is reused
/// verbatim on a cache hit; on a miss for effective failed set K it is
/// shared with the cached record of any K \ {x} that routes no demand over
/// x (the dominance rule of the pruned sweep, applied to every cached
/// sub-scenario, not only the depth-first parent); failing that it is
/// patched from the cached K \ {x} whose paths cross x least, by
/// re-routing only the DC pairs whose path crossed x.
ProvisionedNetwork IncrementalPlanner::sweep_plan() {
  const obs::Span span("planner.replan.sweep");
  const graph::Graph& g = map_.graph();
  Cache& c = *cache_;

  PlannerParams p = params_;
  p.cut_ducts = cuts_;
  const graph::ScenarioSet scenarios = planner_scenarios(map_, p);
  c.recorder.begin_sweep(scenarios.base_mask());

  std::vector<EdgeId> key_cuts;
  for (EdgeId e : cuts_) {
    if (g.edge(e).length_km <= params_.spec.max_span_km) key_cuts.push_back(e);
  }

  // The cached record of some K \ {x} to build K's record from: one that
  // routes no demand over x (K's routing is then identical), else the one
  // whose patch re-routes the fewest pairs.
  struct SubRecord {
    RecordPtr rec;
    EdgeId removed = graph::kInvalidEdge;
    std::size_t crossing = 0;  // pairs of `rec` routed over `removed`
  };
  std::vector<EdgeId> sub_key;
  const auto cached_sub_record =
      [&](const std::vector<EdgeId>& key) -> SubRecord {
    SubRecord best;
    for (std::size_t i = 0; i < key.size(); ++i) {
      sub_key.assign(key.begin(), key.end());
      sub_key.erase(sub_key.begin() + static_cast<std::ptrdiff_t>(i));
      const auto it = c.records.find(sub_key);
      if (it == c.records.end()) continue;
      const RecordPtr& rec = it->second;
      if (!rec->uses(key[i])) return {rec, key[i], 0};
      const std::size_t crossing = c.recorder.pairs_crossing(*rec, key[i]);
      if (!best.rec || crossing < best.crossing) best = {rec, key[i], crossing};
    }
    return best;
  };

  std::vector<long long> maxima(static_cast<std::size_t>(g.edge_count()), 0);
  long long unreachable = 0;
  long long beyond_sla = 0;
  long long cache_hits = 0;
  long long copies = 0;
  long long computed = 0;
  std::vector<EdgeId> key;
  std::vector<EdgeId> sorted_failed;
  scenarios.for_each([&](const graph::EdgeMask&, std::span<const EdgeId> failed,
                         int depth) {
    // Records are keyed by the effective failed-duct *set*: SRLG events
    // flatten in event order, so sort before merging with the live cuts.
    // Two event subsets destroying the same ducts share one record — their
    // masks, and therefore their routing, are identical.
    sorted_failed.assign(failed.begin(), failed.end());
    std::sort(sorted_failed.begin(), sorted_failed.end());
    key.clear();
    std::merge(sorted_failed.begin(), sorted_failed.end(), key_cuts.begin(),
               key_cuts.end(), std::back_inserter(key));
    const auto it = c.records.find(key);
    RecordPtr rec;
    if (it != c.records.end()) {
      rec = it->second;
      ++cache_hits;
    } else {
      const SubRecord sub = cached_sub_record(key);
      if (sub.rec && sub.crossing == 0) {
        rec = sub.rec;  // demand-free duct: routing identical to K \ {x}
        ++copies;
      } else {
        ++computed;
        if (sub.rec) {
          rec = c.recorder.patch(*sub.rec, std::span(&sub.removed, 1), failed);
        }
      }
    }
    // A single-duct event's parent is one of the K \ {x} candidates; a
    // multi-duct SRLG event may leave none cached, so the record is patched
    // from the depth-first parent (or, at depth 0, routed from scratch).
    if (rec) {
      c.recorder.stack(failed, depth, rec);
    } else {
      rec = c.recorder.descend(failed, depth);
    }
    if (it == c.records.end()) c.records.emplace(key, rec);
    unreachable += rec->unreachable;
    beyond_sla += rec->beyond_sla;
    for (const auto& [e, load] : rec->loads) {
      auto& max = maxima[static_cast<std::size_t>(e)];
      max = std::max(max, load);
    }
  });

  ProvisionedNetwork out;
  out.params = p;
  out.scenarios_evaluated = scenarios.scenario_count();
  out.scenarios_pruned = cache_hits + copies;
  out.pair_paths_skipped_unreachable = unreachable;
  out.pair_paths_beyond_sla = beyond_sla;
  finish_capacities(out, std::move(maxima));
  out.baseline_paths = c.recorder.paths_of(*c.recorder.stacked(0));

  auto& reg = obs::registry();
  reg.add("planner.replan.cache_hits", cache_hits);
  reg.add("planner.replan.scenarios_copied", copies);
  reg.add("planner.replan.scenarios_computed", computed);
  reg.add("planner.scenarios.visited", computed);
  reg.add("planner.scenarios.pruned", cache_hits + copies);
  return out;
}

PlanDiff IncrementalPlanner::replan() {
  const obs::Span span("planner.replan");
  const auto start = std::chrono::steady_clock::now();

  ProvisionedNetwork next = sweep_plan();
  PlanDiff diff = diff_plans(current_, next);

  stats_.scenarios = next.scenarios_evaluated;
  stats_.pruned = next.scenarios_pruned;
  stats_.replan_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  current_ = std::move(next);

  auto& reg = obs::registry();
  reg.add("planner.replan.calls");
  reg.add("planner.replan.capacity_changes",
          static_cast<long long>(diff.capacity_changes.size()));
  reg.add("planner.replan.path_changes",
          static_cast<long long>(diff.path_changes.size()));
  maybe_check_oracle("replan vs provision() oracle");
  return diff;
}

void IncrementalPlanner::maybe_check_oracle(const char* what) {
  if (!planner_oracle_enabled()) return;
  PlannerParams p = params_;
  p.cut_ducts = cuts_;
  // provision() itself cross-checks the incremental sweep against the full
  // from-scratch oracle, so this transitively ties the cache to both.
  require_same_plan(current_, provision(map_, p), what);
}

}  // namespace iris::core
