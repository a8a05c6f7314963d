#include "core/replan.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/hose.hpp"
#include "graph/incremental.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace iris::core {

namespace {

using graph::EdgeId;
using graph::NodeId;

bool bit(const std::vector<std::uint64_t>& mask, EdgeId e) {
  const auto i = static_cast<std::size_t>(e);
  return ((mask[i >> 6] >> (i & 63)) & 1) != 0;
}

void set_bit(std::vector<std::uint64_t>& mask, EdgeId e) {
  const auto i = static_cast<std::size_t>(e);
  mask[i >> 6] |= std::uint64_t{1} << (i & 63);
}

/// One routed failure scenario, shared across sweeps. Paths live in the
/// planner-wide interning pool; `loads` holds only ducts with nonzero
/// worst-case hose load, ascending by duct.
struct ScenarioRecord {
  std::vector<std::int32_t> path_id;  // per DC pair; -1 = unreachable
  std::vector<std::pair<EdgeId, long long>> loads;
  std::vector<std::uint64_t> used;  // ducts some pair path crosses
  long long unreachable = 0;
  long long beyond_sla = 0;
};

}  // namespace

struct IncrementalPlanner::Cache {
  Cache() = default;
  // A copy shares the immutable records and starts with empty scratch;
  // sweep_plan() sizes the scratch on first use.
  Cache(const Cache& o)
      : pairs(o.pairs),
        paths(o.paths),
        path_ids(o.path_ids),
        records(o.records),
        hose_memo(o.hose_memo) {}

  std::vector<std::pair<std::size_t, std::size_t>> pairs;  // dc indices, i < j
  std::vector<graph::Path> paths;                      // interning pool
  std::map<std::vector<EdgeId>, std::int32_t> path_ids;  // keyed by edge seq
  // Scenario records keyed by effective failed-duct set (enumerated failures
  // merged with live cuts), ascending. TC1-excluded ducts never appear: they
  // are failed in every base mask, so cutting one changes nothing.
  std::map<std::vector<EdgeId>, std::shared_ptr<const ScenarioRecord>> records;
  // Per duct: worst-case hose load memoized on the flattened oriented pair
  // list [l0, r0, l1, r1, ...]. The sweep re-derives the same few lists per
  // duct across hundreds of scenarios (96% hit rate on the 20-DC bench).
  std::vector<std::map<std::vector<NodeId>, long long>> hose_memo;

  // Scratch reused across scenarios: per-duct flattened pair lists and the
  // ducts whose list is nonempty this scenario.
  std::vector<std::vector<NodeId>> bucket;
  std::vector<EdgeId> touched;
};

IncrementalPlanner::IncrementalPlanner(const fibermap::FiberMap& map,
                                       const PlannerParams& params)
    : map_(map),
      params_(params),
      cuts_(params.cut_ducts),
      cache_(std::make_unique<Cache>()) {
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
/// provision() computes for the same cuts: scenario records are either
/// reused verbatim (cache hit), shared with their parent scenario when the
/// newly failed duct carried no demand (the dominance rule of the pruned
/// sweep), or patched from the parent by re-routing only the DC pairs whose
/// path crossed the new duct (the canonical-tree invalidation lemma).
ProvisionedNetwork IncrementalPlanner::sweep_plan() {
  const obs::Span span("planner.replan.sweep");
  const graph::Graph& g = map_.graph();
  const auto& dcs = map_.dcs();
  const int lambda = params_.channels.wavelengths_per_fiber;
  const double max_path_km = params_.spec.max_path_km;
  Cache& c = *cache_;

  PlannerParams p = params_;
  p.cut_ducts = cuts_;
  const graph::ScenarioSet scenarios = planner_scenarios(map_, p);

  const auto edge_count = static_cast<std::size_t>(g.edge_count());
  const std::size_t words = (edge_count + 63) / 64;
  if (c.pairs.empty()) {
    for (std::size_t i = 0; i < dcs.size(); ++i) {
      for (std::size_t j = i + 1; j < dcs.size(); ++j) {
        c.pairs.emplace_back(i, j);
      }
    }
    c.hose_memo.resize(edge_count);
  }
  c.bucket.resize(edge_count);  // no-op after the first sweep of this copy

  std::vector<EdgeId> key_cuts;
  for (EdgeId e : cuts_) {
    if (g.edge(e).length_km <= params_.spec.max_span_km) key_cuts.push_back(e);
  }

  const auto capacity_of = [&](NodeId dc) -> graph::Capacity {
    return map_.dc_capacity_wavelengths(dc, lambda);
  };

  std::optional<graph::PrefixRouter> router;  // built on first cache miss
  const auto synced_router =
      [&](std::span<const EdgeId> failed) -> graph::PrefixRouter& {
    if (!router) router.emplace(g, dcs, scenarios.base_mask());
    router->sync(failed);
    return *router;
  };

  const auto intern = [&](const graph::Path& path) -> std::int32_t {
    const auto [it, fresh] = c.path_ids.emplace(
        path.edges, static_cast<std::int32_t>(c.paths.size()));
    if (fresh) c.paths.push_back(path);
    return it->second;
  };

  const auto hose_load = [&](EdgeId e, std::vector<NodeId>&& key) -> long long {
    auto& memo = c.hose_memo[static_cast<std::size_t>(e)];
    if (const auto it = memo.find(key); it != memo.end()) return it->second;
    std::vector<graph::OrientedPair> pairs;
    pairs.reserve(key.size() / 2);
    for (std::size_t k = 0; k + 1 < key.size(); k += 2) {
      pairs.push_back({key[k], key[k + 1]});
    }
    const auto load =
        static_cast<long long>(graph::hose_edge_load(pairs, capacity_of));
    memo.emplace(std::move(key), load);
    return load;
  };

  // Rebuilds rec.used from its pair paths and recomputes hose loads for the
  // ducts selected by `want` (nullptr = every used duct), keeping
  // `parent_loads` on unselected ducts. Pairs are walked in (i, j) order so
  // the oriented lists match the full sweep's bucket order exactly.
  const auto finish_record =
      [&](ScenarioRecord& rec, const std::vector<std::uint64_t>* want,
          const std::vector<std::pair<EdgeId, long long>>* parent_loads) {
        std::fill(rec.used.begin(), rec.used.end(), 0);
        for (std::size_t pidx = 0; pidx < c.pairs.size(); ++pidx) {
          const std::int32_t id = rec.path_id[pidx];
          if (id < 0) continue;
          const graph::Path& path = c.paths[static_cast<std::size_t>(id)];
          const NodeId a = dcs[c.pairs[pidx].first];
          const NodeId b = dcs[c.pairs[pidx].second];
          for (EdgeId e : path.edges) {
            set_bit(rec.used, e);
            if (want != nullptr && !bit(*want, e)) continue;
            auto& bucket = c.bucket[static_cast<std::size_t>(e)];
            if (bucket.empty()) c.touched.push_back(e);
            const graph::OrientedPair op = graph::orient_pair(g, e, a, b, path);
            bucket.push_back(op.left);
            bucket.push_back(op.right);
          }
        }
        std::sort(c.touched.begin(), c.touched.end());
        std::size_t t = 0;
        std::vector<std::pair<EdgeId, long long>> loads;
        const auto fold_touched_below = [&](EdgeId bound) {
          for (; t < c.touched.size() && c.touched[t] < bound; ++t) {
            const EdgeId e = c.touched[t];
            auto& bucket = c.bucket[static_cast<std::size_t>(e)];
            const long long load = hose_load(e, std::move(bucket));
            bucket.clear();
            if (load > 0) loads.emplace_back(e, load);
          }
        };
        if (parent_loads != nullptr) {
          for (const auto& [e, load] : *parent_loads) {
            // Selected ducts are recomputed (or dropped, if no pair routes
            // over them any more) from the touched list instead.
            if (bit(*want, e)) continue;
            fold_touched_below(e);
            loads.emplace_back(e, load);
          }
        }
        fold_touched_below(g.edge_count());
        c.touched.clear();
        rec.loads = std::move(loads);
      };

  const auto full_record = [&](std::span<const EdgeId> failed) {
    auto rec = std::make_shared<ScenarioRecord>();
    rec->path_id.assign(c.pairs.size(), -1);
    rec->used.assign(words, 0);
    graph::PrefixRouter& r = synced_router(failed);
    for (std::size_t pidx = 0; pidx < c.pairs.size(); ++pidx) {
      const auto [i, j] = c.pairs[pidx];
      const auto path = graph::extract_path(r.tree(i), dcs[j]);
      if (!path) {
        ++rec->unreachable;
        continue;
      }
      if (path->length_km > max_path_km) ++rec->beyond_sla;
      rec->path_id[pidx] = intern(*path);
    }
    finish_record(*rec, nullptr, nullptr);
    return std::shared_ptr<const ScenarioRecord>(std::move(rec));
  };

  const auto uses_any = [](const graph::Path& path,
                           std::span<const EdgeId> cuts) {
    for (EdgeId cut : cuts) {
      if (path.uses_edge(cut)) return true;
    }
    return false;
  };

  const auto patched_record = [&](const ScenarioRecord& parent,
                                  std::span<const EdgeId> cuts,
                                  std::span<const EdgeId> failed) {
    auto rec = std::make_shared<ScenarioRecord>(parent);
    std::vector<std::uint64_t> affected(words, 0);
    graph::PrefixRouter* r = nullptr;
    for (std::size_t pidx = 0; pidx < c.pairs.size(); ++pidx) {
      const std::int32_t id = rec->path_id[pidx];
      if (id < 0) continue;  // fewer ducts never revive a pair
      // Invalidation lemma: a pair whose canonical path avoids every newly
      // cut duct keeps that exact path; only pairs routed over a cut change.
      // (Mind the interning pool: intern() may reallocate c.paths, so the
      // old path must not be referenced after the new one is interned.)
      if (!uses_any(c.paths[static_cast<std::size_t>(id)], cuts)) continue;
      const graph::Path& old_path = c.paths[static_cast<std::size_t>(id)];
      if (old_path.length_km > max_path_km) --rec->beyond_sla;
      for (EdgeId e : old_path.edges) set_bit(affected, e);
      if (r == nullptr) r = &synced_router(failed);
      const auto [i, j] = c.pairs[pidx];
      const auto path = graph::extract_path(r->tree(i), dcs[j]);
      if (!path) {
        rec->path_id[pidx] = -1;
        ++rec->unreachable;
        continue;
      }
      if (path->length_km > max_path_km) ++rec->beyond_sla;
      rec->path_id[pidx] = intern(*path);
      for (EdgeId e : path->edges) set_bit(affected, e);
    }
    finish_record(*rec, &affected, &parent.loads);
    return std::shared_ptr<const ScenarioRecord>(std::move(rec));
  };

  const auto tol = static_cast<std::size_t>(params_.failure_tolerance);
  std::vector<long long> maxima(edge_count, 0);
  long long unreachable = 0;
  long long beyond_sla = 0;
  long long cache_hits = 0;
  long long copies = 0;
  long long computed = 0;
  std::vector<std::shared_ptr<const ScenarioRecord>> stack(tol + 1);
  // Flattened failed-duct count at each event depth: the tail of `failed`
  // past the parent's count is exactly what the newest event added (members
  // an ancestor event already failed are flattened away by the sweep).
  std::vector<std::size_t> flat_size(tol + 1, 0);
  std::vector<EdgeId> key;
  std::vector<EdgeId> sorted_failed;
  scenarios.for_each_events([&](const graph::EdgeMask&,
                                std::span<const EdgeId> failed, int depth) {
    const auto d = static_cast<std::size_t>(depth);
    flat_size[d] = failed.size();
    // Records are keyed by the effective failed-duct *set*: SRLG events
    // flatten in event order, so sort before merging with the live cuts.
    // Two event subsets destroying the same ducts share one record — their
    // masks, and therefore their routing, are identical.
    sorted_failed.assign(failed.begin(), failed.end());
    std::sort(sorted_failed.begin(), sorted_failed.end());
    key.clear();
    std::merge(sorted_failed.begin(), sorted_failed.end(), key_cuts.begin(),
               key_cuts.end(), std::back_inserter(key));
    std::shared_ptr<const ScenarioRecord> rec;
    if (const auto it = c.records.find(key); it != c.records.end()) {
      rec = it->second;
      ++cache_hits;
    } else {
      if (depth == 0) {
        rec = full_record(failed);
        ++computed;
      } else {
        const auto& parent = stack[d - 1];
        const auto cuts = failed.subspan(flat_size[d - 1]);
        bool demand_free = true;
        for (EdgeId cut : cuts) {
          if (bit(parent->used, cut)) {
            demand_free = false;
            break;
          }
        }
        if (demand_free) {
          rec = parent;  // demand-free ducts: routing identical to the parent
          ++copies;
        } else {
          rec = patched_record(*parent, cuts, failed);
          ++computed;
        }
      }
      c.records.emplace(key, rec);
    }
    stack[d] = rec;
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
  out.edge_capacity_wavelengths = std::move(maxima);

  // Same OC2 rounding and fiber conversion as provision(); the oracle
  // identity checks keep the two in lockstep.
  if (params_.oversubscription > 1.0) {
    for (auto& waves : out.edge_capacity_wavelengths) {
      if (waves > 0) {
        waves = static_cast<long long>(
            std::ceil(static_cast<double>(waves) / params_.oversubscription));
        if (waves <= 0) {
          throw std::logic_error(
              "replan: oversubscription rounded a used duct to zero");
        }
      }
    }
  }
  out.base_fibers.assign(edge_count, 0);
  for (std::size_t e = 0; e < edge_count; ++e) {
    const long long waves = out.edge_capacity_wavelengths[e];
    const long long fibers = (waves + lambda - 1) / lambda;
    if (fibers > std::numeric_limits<int>::max()) {
      throw std::overflow_error(
          "replan: base fiber count exceeds INT_MAX for a duct; demand too "
          "large for the fiber-count representation");
    }
    if (waves > 0 && fibers <= 0) {
      throw std::logic_error("replan: a used duct rounded to zero base fibers");
    }
    out.base_fibers[e] = static_cast<int>(fibers);
  }

  const auto& baseline = stack[0];
  for (std::size_t pidx = 0; pidx < c.pairs.size(); ++pidx) {
    const std::int32_t id = baseline->path_id[pidx];
    if (id < 0) continue;
    out.baseline_paths.emplace(
        DcPair(dcs[c.pairs[pidx].first], dcs[c.pairs[pidx].second]),
        c.paths[static_cast<std::size_t>(id)]);
  }

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
