#include "core/provision.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>

#include "graph/hose.hpp"
#include "graph/incremental.hpp"
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
/// order-independently (integer max/sum; the baseline map is filled by
/// exactly one worker -- whichever visits the no-failure scenario), so the
/// merged result is bit-identical to a serial sweep.
struct ProvisionAccumulator {
  std::vector<long long> edge_max_wavelengths;
  long long scenarios = 0;
  long long unreachable = 0;
  long long beyond_sla = 0;
  std::map<DcPair, graph::Path> baseline_paths;

  // Scratch, reused across this worker's scenarios.
  std::vector<graph::DijkstraWorkspace> dijkstra;           // one per DC
  std::vector<std::vector<graph::OrientedPair>> pairs_on_edge;

  // Incremental-sweep state: warm-started per-DC routing, the demand bitmap
  // returned to the pruned sweep, and a per-depth stack of each ancestor
  // scenario's (unreachable, beyond_sla) tallies so dominated scenarios can
  // re-fold their parent's counts without routing.
  graph::PrefixRouter router;
  std::vector<char> used;
  std::vector<std::pair<long long, long long>> tally_stack;
};

/// Routes every DC pair of one scenario through `tree_of(i)` (the shortest
/// path tree rooted at dcs[i]), folds per-duct hose loads into the worker's
/// maxima, and returns this scenario's (unreachable, beyond_sla) tallies.
/// When `used` is non-null it is sized to the edge count and marks ducts
/// some pair path crosses.
template <typename TreeOf, typename CapacityOf>
std::pair<long long, long long> route_scenario(
    ProvisionAccumulator& a, const graph::Graph& g,
    std::span<const NodeId> dcs, const PlannerParams& params,
    bool is_baseline, std::vector<char>* used, const TreeOf& tree_of,
    const CapacityOf& capacity_of) {
  for (auto& bucket : a.pairs_on_edge) bucket.clear();
  if (used != nullptr) {
    used->assign(static_cast<std::size_t>(g.edge_count()), 0);
  }
  long long unreachable = 0;
  long long beyond_sla = 0;
  for (std::size_t i = 0; i < dcs.size(); ++i) {
    for (std::size_t j = i + 1; j < dcs.size(); ++j) {
      const auto path = graph::extract_path(tree_of(i), dcs[j]);
      if (!path) {
        ++unreachable;
        continue;
      }
      if (path->length_km > params.spec.max_path_km) {
        ++beyond_sla;
      }
      for (EdgeId e : path->edges) {
        a.pairs_on_edge[e].push_back(
            graph::orient_pair(g, e, dcs[i], dcs[j], *path));
        if (used != nullptr) (*used)[static_cast<std::size_t>(e)] = 1;
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
  return {unreachable, beyond_sla};
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
  const int lambda = params.channels.wavelengths_per_fiber;

  ProvisionedNetwork out;
  out.params = params;
  out.edge_capacity_wavelengths.assign(g.edge_count(), 0);

  const auto capacity_of = [&](NodeId dc) -> graph::Capacity {
    return map.dc_capacity_wavelengths(dc, lambda);
  };

  const graph::ScenarioSet scenarios = planner_scenarios(map, params);
  const int workers = graph::resolve_thread_count(params.threads);
  std::vector<ProvisionAccumulator> acc(static_cast<std::size_t>(workers));
  for (auto& a : acc) {
    a.edge_max_wavelengths.assign(g.edge_count(), 0);
    a.pairs_on_edge.resize(g.edge_count());
  }

  if (params.incremental) {
    // The no-failure tallies seed every worker's stack: a depth-1 pruned
    // scenario's parent is the baseline, which only worker 0 routed.
    // Written once on the calling thread before the pool spawns.
    std::pair<long long, long long> baseline_tally{0, 0};
    for (auto& a : acc) {
      a.router = graph::PrefixRouter(g, dcs, scenarios.base_mask());
      a.tally_stack.assign(
          static_cast<std::size_t>(params.failure_tolerance) + 1, {0, 0});
    }
    const graph::SweepStats stats = scenarios.for_each_pruned_parallel(
        workers, [&](int worker) -> graph::PrunedScenarioVisitor {
          graph::PrunedScenarioVisitor v;
          v.evaluate = [&, worker](const graph::EdgeMask&,
                                   std::span<const EdgeId> failed, int depth)
              -> const std::vector<char>& {
            ProvisionAccumulator& a = acc[static_cast<std::size_t>(worker)];
            ++a.scenarios;
            a.router.sync(failed);
            const auto tally = route_scenario(
                a, g, dcs, params, depth == 0, &a.used,
                [&](std::size_t i) -> const graph::ShortestPathTree& {
                  return a.router.tree(i);
                },
                capacity_of);
            a.unreachable += tally.first;
            a.beyond_sla += tally.second;
            if (depth == 0) baseline_tally = tally;
            a.tally_stack[static_cast<std::size_t>(depth)] = tally;
            return a.used;
          };
          v.pruned = [&, worker](std::span<const EdgeId>, int depth) {
            // Identical routing to the parent: fold its tallies again so
            // diagnostics match the full sweep exactly. The stack is keyed
            // on failed-event depth, not duct count — an SRLG event fails
            // several ducts but is one step down the subset tree.
            ProvisionAccumulator& a = acc[static_cast<std::size_t>(worker)];
            ++a.scenarios;
            const auto tally =
                depth >= 2 ? a.tally_stack[static_cast<std::size_t>(depth) - 1]
                           : baseline_tally;
            a.unreachable += tally.first;
            a.beyond_sla += tally.second;
            a.tally_stack[static_cast<std::size_t>(depth)] = tally;
          };
          return v;
        });
    out.scenarios_pruned = stats.pruned;
  } else {
    for (auto& a : acc) a.dijkstra.resize(dcs.size());
    scenarios.for_each_parallel(
        workers, [&](int worker) -> graph::ScenarioVisitor {
          return [&, worker](const graph::EdgeMask& mask,
                             std::span<const EdgeId> failed) {
            ProvisionAccumulator& a = acc[static_cast<std::size_t>(worker)];
            ++a.scenarios;
            // One Dijkstra per DC covers all pairs.
            for (std::size_t i = 0; i < dcs.size(); ++i) {
              graph::dijkstra(g, dcs[i], mask, a.dijkstra[i]);
            }
            const auto tally = route_scenario(
                a, g, dcs, params, failed.empty(), nullptr,
                [&](std::size_t i) -> const graph::ShortestPathTree& {
                  return a.dijkstra[i].tree;
                },
                capacity_of);
            a.unreachable += tally.first;
            a.beyond_sla += tally.second;
          };
        });
  }

  // Deterministic merge: max/sum over integers is independent of which
  // worker evaluated which scenario.
  for (const ProvisionAccumulator& a : acc) {
    out.scenarios_evaluated += a.scenarios;
    out.pair_paths_skipped_unreachable += a.unreachable;
    out.pair_paths_beyond_sla += a.beyond_sla;
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      out.edge_capacity_wavelengths[e] = std::max(
          out.edge_capacity_wavelengths[e], a.edge_max_wavelengths[e]);
    }
    for (const auto& [pair, path] : a.baseline_paths) {
      out.baseline_paths.emplace(pair, path);
    }
  }

  // OC2 relaxation: an oversubscribed fabric provisions a fraction of the
  // worst-case hose load (ceil so a used duct never rounds to zero -- an
  // invariant, not an assumption: verify it).
  if (params.oversubscription > 1.0) {
    for (auto& waves : out.edge_capacity_wavelengths) {
      if (waves > 0) {
        waves = static_cast<long long>(
            std::ceil(static_cast<double>(waves) / params.oversubscription));
        if (waves <= 0) {
          throw std::logic_error(
              "provision: oversubscription rounded a used duct to zero");
        }
      }
    }
  }

  out.base_fibers.assign(g.edge_count(), 0);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const long long waves = out.edge_capacity_wavelengths[e];
    const long long fibers = (waves + lambda - 1) / lambda;
    if (fibers > std::numeric_limits<int>::max()) {
      throw std::overflow_error(
          "provision: base fiber count exceeds INT_MAX for a duct; demand "
          "too large for the fiber-count representation");
    }
    if (waves > 0 && fibers <= 0) {
      throw std::logic_error(
          "provision: a used duct rounded to zero base fibers");
    }
    out.base_fibers[e] = static_cast<int>(fibers);
  }

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
