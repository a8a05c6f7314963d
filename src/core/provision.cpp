#include "core/provision.hpp"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/scenario_record.hpp"
#include "graph/hose.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace iris::core {

using graph::EdgeId;
using graph::NodeId;

bool ProvisionedNetwork::hut_used(const fibermap::FiberMap& map,
                                  NodeId hut) const {
  for (EdgeId e : map.graph().incident(hut)) {
    if (edge_used(e)) return true;
  }
  return false;
}

int ProvisionedNetwork::total_base_fibers() const {
  int total = 0;
  for (int f : base_fibers) total += f;
  return total;
}

ProvisionedNetwork scale_uniform_provision(const ProvisionedNetwork& unit,
                                           int capacity_fibers, int lambda) {
  if (capacity_fibers <= 0 || lambda <= 0) {
    throw std::invalid_argument("scale_uniform_provision: bad scale factors");
  }
  ProvisionedNetwork out = unit;
  out.params.channels.wavelengths_per_fiber = lambda;
  const long long scale =
      static_cast<long long>(capacity_fibers) * static_cast<long long>(lambda);
  for (std::size_t e = 0; e < out.edge_capacity_wavelengths.size(); ++e) {
    out.edge_capacity_wavelengths[e] = unit.edge_capacity_wavelengths[e] * scale;
    // ceil(f * lambda * u / lambda) = f * u exactly.
    out.base_fibers[e] = unit.base_fibers[e] * capacity_fibers;
  }
  return out;
}

graph::ScenarioSet planner_scenarios(const fibermap::FiberMap& map,
                                     const PlannerParams& params) {
  const graph::Graph& g = map.graph();
  std::vector<char> cut(static_cast<std::size_t>(g.edge_count()), 0);
  for (EdgeId e : params.cut_ducts) {
    if (e < 0 || e >= g.edge_count()) {
      throw std::out_of_range("planner_scenarios: cut duct out of range");
    }
    if (cut[static_cast<std::size_t>(e)]) {
      throw std::invalid_argument("planner_scenarios: duplicate cut duct");
    }
    cut[static_cast<std::size_t>(e)] = 1;
  }
  graph::EdgeMask base(g.edge_count());
  std::vector<EdgeId> eligible;
  std::vector<char> is_eligible(static_cast<std::size_t>(g.edge_count()), 0);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (g.edge(e).length_km > params.spec.max_span_km ||
        cut[static_cast<std::size_t>(e)]) {
      base.fail(e);  // TC1 exclusion, or a duct already physically lost
    } else {
      eligible.push_back(e);
      is_eligible[static_cast<std::size_t>(e)] = 1;
    }
  }

  // SRLG events: each declared group fails its member ducts atomically, on
  // top of the per-duct singleton events. Members that are TC1-excluded or
  // already cut are dropped (they are failed in every scenario anyway); a
  // group left with fewer than two members duplicates a singleton event and
  // is dropped, as are exact duplicate member sets — so a map declaring
  // every duct its own singleton SRLG enumerates exactly the independent
  // per-duct domain.
  std::vector<graph::FailureEvent> group_events;
  std::set<std::vector<EdgeId>> group_sets;
  for (const fibermap::Srlg& s : map.srlgs()) {
    std::vector<EdgeId> members;
    for (EdgeId e : s.ducts) {
      if (e >= 0 && e < g.edge_count() && is_eligible[static_cast<std::size_t>(e)]) {
        members.push_back(e);
      }
    }
    std::sort(members.begin(), members.end());
    if (members.size() < 2) continue;
    if (!group_sets.insert(members).second) continue;
    group_events.push_back(graph::FailureEvent{std::move(members)});
  }
  if (group_events.empty()) {
    return graph::ScenarioSet(g.edge_count(), std::move(eligible),
                              params.failure_tolerance, std::move(base));
  }
  obs::registry().add("planner.srlg.events",
                      static_cast<long long>(group_events.size()));
  std::vector<graph::FailureEvent> events;
  events.reserve(eligible.size() + group_events.size());
  for (EdgeId e : eligible) events.push_back(graph::FailureEvent{{e}});
  for (auto& ev : group_events) events.push_back(std::move(ev));
  return graph::ScenarioSet(g.edge_count(), std::move(events),
                            params.failure_tolerance, std::move(base));
}

namespace {

/// Per-worker state for the provisioning sweep. Every field merges
/// order-independently (integer max/sum), so the merged result is
/// bit-identical to a serial sweep.
struct ProvisionAccumulator {
  std::vector<long long> edge_max_wavelengths;
  long long scenarios = 0;
  long long unreachable = 0;
  long long beyond_sla = 0;

  // Incremental sweep: this worker's recorder and the demand bitmap handed
  // back to the pruned sweep.
  std::optional<ScenarioRecorder> recorder;
  std::vector<char> used;

  // Full sweep: one Dijkstra workspace per DC, per-duct pair lists, and the
  // no-failure paths (filled by whichever worker visits that scenario).
  std::vector<graph::DijkstraWorkspace> dijkstra;
  std::vector<std::vector<graph::OrientedPair>> pairs_on_edge;
  std::map<DcPair, graph::Path> baseline_paths;

  /// Folds one scenario's tallies, and its loads unless they are its
  /// parent's (already folded).
  void fold(const ScenarioRecord& rec, bool loads) {
    ++scenarios;
    unreachable += rec.unreachable;
    beyond_sla += rec.beyond_sla;
    if (!loads) return;
    for (const auto& [e, load] : rec.loads) {
      auto& max = edge_max_wavelengths[static_cast<std::size_t>(e)];
      max = std::max(max, load);
    }
  }
};

/// The full sweep's scenario step, kept as the oracle the record kernel is
/// checked against: routes every DC pair of one scenario through the
/// worker's fresh Dijkstra trees and folds per-duct hose loads into its
/// maxima and the scenario's tallies into its sums.
template <typename CapacityOf>
void route_scenario(ProvisionAccumulator& a, const graph::Graph& g,
                    std::span<const NodeId> dcs, const PlannerParams& params,
                    bool is_baseline, const CapacityOf& capacity_of) {
  for (auto& bucket : a.pairs_on_edge) bucket.clear();
  ++a.scenarios;
  for (std::size_t i = 0; i < dcs.size(); ++i) {
    for (std::size_t j = i + 1; j < dcs.size(); ++j) {
      const auto path = graph::extract_path(a.dijkstra[i].tree, dcs[j]);
      if (!path) {
        ++a.unreachable;
        continue;
      }
      if (path->length_km > params.spec.max_path_km) {
        ++a.beyond_sla;
      }
      for (EdgeId e : path->edges) {
        a.pairs_on_edge[e].push_back(
            graph::orient_pair(g, e, dcs[i], dcs[j], *path));
      }
      if (is_baseline) {
        a.baseline_paths.emplace(DcPair(dcs[i], dcs[j]), *path);
      }
    }
  }
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (a.pairs_on_edge[e].empty()) continue;
    const graph::Capacity load =
        graph::hose_edge_load(a.pairs_on_edge[e], capacity_of);
    a.edge_max_wavelengths[e] =
        std::max(a.edge_max_wavelengths[e], static_cast<long long>(load));
  }
}

/// One full planning sweep, honoring params.incremental; the oracle
/// cross-check in provision() calls this twice.
ProvisionedNetwork run_provision(const fibermap::FiberMap& map,
                                 const PlannerParams& params) {
  if (params.oversubscription < 1.0) {
    throw std::invalid_argument("provision: oversubscription must be >= 1");
  }
  const obs::Span span("planner.provision");
  const graph::Graph& g = map.graph();
  const auto& dcs = map.dcs();
  const auto edge_count = static_cast<std::size_t>(g.edge_count());

  ProvisionedNetwork out;
  out.params = params;

  const graph::ScenarioSet scenarios = planner_scenarios(map, params);
  const int workers = graph::resolve_thread_count(params.threads);
  std::vector<ProvisionAccumulator> acc(static_cast<std::size_t>(workers));
  for (auto& a : acc) a.edge_max_wavelengths.assign(edge_count, 0);

  if (params.incremental) {
    // The record kernel (core/scenario_record): an evaluated scenario is
    // patched from its parent's record, re-routing only the pairs that
    // crossed the newly failed event, with hose loads memoized per duct.
    // The baseline record is built here on the calling thread before the
    // pool spawns; every worker's recorder is a copy of this one, so each
    // starts its depth stack from the baseline and its path ids read back
    // the same in each.
    ScenarioRecorder root(map, params);
    root.begin_sweep(scenarios.base_mask());
    out.baseline_paths = root.paths_of(*root.descend({}, 0));
    for (auto& a : acc) a.recorder.emplace(root);
    const graph::SweepStats stats = scenarios.for_each_pruned_parallel(
        workers, [&](int worker) -> graph::PrunedScenarioVisitor {
          ProvisionAccumulator& a = acc[static_cast<std::size_t>(worker)];
          graph::PrunedScenarioVisitor v;
          v.evaluate = [&](const graph::EdgeMask&,
                           std::span<const EdgeId> failed, int depth)
              -> const std::vector<char>& {
            const ScenarioRecord& rec = *a.recorder->descend(failed, depth);
            a.fold(rec, /*loads=*/true);
            a.used.assign(edge_count, 0);
            for (std::size_t e = 0; e < edge_count; ++e) {
              a.used[e] = rec.uses(static_cast<EdgeId>(e)) ? 1 : 0;
            }
            return a.used;
          };
          v.pruned = [&](std::span<const EdgeId> failed, int depth) {
            // Identical routing to the parent: fold its tallies again so
            // diagnostics match the full sweep exactly. The stack is keyed
            // on failed-event depth, not duct count — an SRLG event fails
            // several ducts but is one step down the subset tree.
            const RecordPtr& parent = a.recorder->stacked(depth - 1);
            a.fold(*parent, /*loads=*/false);
            a.recorder->stack(failed, depth, parent);
          };
          return v;
        });
    out.scenarios_pruned = stats.pruned;
  } else {
    const int lambda = params.channels.wavelengths_per_fiber;
    const auto capacity_of = [&](NodeId dc) -> graph::Capacity {
      return map.dc_capacity_wavelengths(dc, lambda);
    };
    for (auto& a : acc) {
      a.dijkstra.resize(dcs.size());
      a.pairs_on_edge.resize(edge_count);
    }
    scenarios.for_each_parallel(
        workers, [&](int worker) -> graph::ScenarioVisitor {
          return [&, worker](const graph::EdgeMask& mask,
                             std::span<const EdgeId> failed, int) {
            ProvisionAccumulator& a = acc[static_cast<std::size_t>(worker)];
            // One Dijkstra per DC covers all pairs.
            for (std::size_t i = 0; i < dcs.size(); ++i) {
              graph::dijkstra(g, dcs[i], mask, a.dijkstra[i]);
            }
            route_scenario(a, g, dcs, params, failed.empty(), capacity_of);
          };
        });
  }

  // Deterministic merge: max/sum over integers is independent of which
  // worker evaluated which scenario.
  std::vector<long long> maxima(edge_count, 0);
  for (const ProvisionAccumulator& a : acc) {
    out.scenarios_evaluated += a.scenarios;
    out.pair_paths_skipped_unreachable += a.unreachable;
    out.pair_paths_beyond_sla += a.beyond_sla;
    for (std::size_t e = 0; e < edge_count; ++e) {
      maxima[e] = std::max(maxima[e], a.edge_max_wavelengths[e]);
    }
    for (const auto& [pair, path] : a.baseline_paths) {
      out.baseline_paths.emplace(pair, path);
    }
  }
  finish_capacities(out, std::move(maxima));

  // Merged per-worker sums only -- never per-worker series, which would
  // vary with thread count.
  auto& reg = obs::registry();
  reg.add("planner.provision.calls");
  reg.add("planner.provision.scenarios", out.scenarios_evaluated);
  reg.add("planner.provision.pairs_unreachable",
          out.pair_paths_skipped_unreachable);
  reg.add("planner.provision.pairs_beyond_sla", out.pair_paths_beyond_sla);
  reg.add("planner.scenarios.visited",
          out.scenarios_evaluated - out.scenarios_pruned);
  reg.add("planner.scenarios.pruned", out.scenarios_pruned);
  return out;
}

}  // namespace

bool planner_oracle_enabled() {
  const char* v = std::getenv("IRIS_PLANNER_ORACLE");
  return v != nullptr && *v != '\0' && std::string_view(v) != "0";
}

bool same_plan(const ProvisionedNetwork& a, const ProvisionedNetwork& b) {
  return a.edge_capacity_wavelengths == b.edge_capacity_wavelengths &&
         a.base_fibers == b.base_fibers &&
         a.baseline_paths == b.baseline_paths &&
         a.scenarios_evaluated == b.scenarios_evaluated &&
         a.pair_paths_skipped_unreachable == b.pair_paths_skipped_unreachable &&
         a.pair_paths_beyond_sla == b.pair_paths_beyond_sla;
}

void require_same_plan(const ProvisionedNetwork& a,
                       const ProvisionedNetwork& b, const char* what) {
  if (!same_plan(a, b)) {
    throw std::logic_error(std::string("planner oracle divergence: ") + what);
  }
}

ProvisionedNetwork provision(const fibermap::FiberMap& map,
                             const PlannerParams& params) {
  ProvisionedNetwork out = run_provision(map, params);
  if (params.incremental && planner_oracle_enabled()) {
    PlannerParams oracle = params;
    oracle.incremental = false;
    require_same_plan(out, run_provision(map, oracle),
                      "provision() incremental vs full-sweep oracle");
  }
  return out;
}

}  // namespace iris::core
