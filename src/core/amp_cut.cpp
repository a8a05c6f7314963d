#include "core/amp_cut.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <span>
#include <unordered_map>

#include "core/scenario_record.hpp"
#include "graph/hose.hpp"

namespace iris::core {

using graph::EdgeId;
using graph::NodeId;

long long AmpCutPlan::total_amplifiers() const {
  long long total = 0;
  for (int a : amps_at_node) total += a;
  return total;
}

long long AmpCutPlan::cut_through_fiber_spans() const {
  long long total = 0;
  for (const CutThrough& ct : cut_throughs) {
    total += static_cast<long long>(ct.fiber_pairs) *
             static_cast<long long>(ct.ducts.size());
  }
  return total;
}

namespace {

/// True if `needle` appears as a contiguous run in `hay`, forward or reverse.
bool contains_run(const std::vector<NodeId>& hay,
                  const std::vector<NodeId>& needle) {
  if (needle.size() > hay.size()) return false;
  const auto matches = [&](std::size_t start, bool reversed) {
    for (std::size_t k = 0; k < needle.size(); ++k) {
      const NodeId want = reversed ? needle[needle.size() - 1 - k] : needle[k];
      if (hay[start + k] != want) return false;
    }
    return true;
  };
  for (std::size_t s = 0; s + needle.size() <= hay.size(); ++s) {
    if (matches(s, false) || matches(s, true)) return true;
  }
  return false;
}

}  // namespace

SiteSet AmpCutPlan::bypassed_sites(const graph::Path& path) const {
  SiteSet out;
  for (const CutThrough& ct : cut_throughs) {
    if (!contains_run(path.nodes, ct.nodes)) continue;
    for (std::size_t i = 1; i + 1 < ct.nodes.size(); ++i) {
      out.insert(ct.nodes[i]);
    }
  }
  return out;
}

bool path_feasible_with_plan(const graph::Graph& g, const graph::Path& path,
                             const AmpCutPlan& plan,
                             const optical::OpticalSpec& spec,
                             const SiteSet* extra_bypassed) {
  // A path *may* ride any subset of the cut-throughs matching its route --
  // riding one bypasses that corridor's OSS but also forfeits amplification
  // inside it (the fiber is uninterrupted). Try every subset; corridors are
  // few per path. `extra_bypassed` models a mandatory hypothetical corridor.
  std::vector<SiteSet> corridors;
  for (const CutThrough& ct : plan.cut_throughs) {
    if (!contains_run(path.nodes, ct.nodes)) continue;
    SiteSet& interiors = corridors.emplace_back();
    for (std::size_t i = 1; i + 1 < ct.nodes.size(); ++i) {
      interiors.insert(ct.nodes[i]);
    }
    if (corridors.size() >= 8) break;  // 2^8 subsets is plenty
  }
  const std::size_t subsets = std::size_t{1} << corridors.size();
  SiteSet bypassed;
  for (std::size_t mask = 0; mask < subsets; ++mask) {
    bypassed.clear();
    if (extra_bypassed) bypassed |= *extra_bypassed;
    for (std::size_t c = 0; c < corridors.size(); ++c) {
      if (mask & (std::size_t{1} << c)) bypassed |= corridors[c];
    }
    if (path_feasible(g, path, std::nullopt, bypassed, spec)) return true;
    for (int m : feasible_amp_indices(g, path, bypassed, spec)) {
      if (plan.amps_at_node[path.nodes[m]] > 0) return true;
    }
  }
  return false;
}

namespace {

/// Plan-independent facts about one pooled DC-pair route, plus stage 2's
/// feasibility memo.
struct RoutedPath {
  std::int32_t id = -1;        ///< index in the recorder's path pool
  DcPair pair;
  std::size_t pair_index = 0;  ///< position of `pair` in (i, j) DC order

  bool beyond_sla = false;  ///< longer than the SLA bound (OC1)
  bool unaided = false;     ///< closes its power budget with no help
  /// Sites where one amplifier closes the budget with nothing bypassed.
  std::vector<NodeId> amp_sites;

  // Stage 2 memo. The plan only gains amplifiers and corridors, so a path
  // feasible once stays feasible; an infeasible verdict holds until the
  // plan's next change (see Placer::revision_).
  bool feasible = false;
  long long infeasible_at = -1;
};

/// Both greedy stages over one region. Stage 1 runs scenario by scenario
/// inside the recorded sweep, which also lists each scenario's paths that
/// stage 2 may have to fix; stage 2 replays those lists in a second sweep
/// over the same scenarios, in the same order.
class Placer {
 public:
  Placer(const fibermap::FiberMap& map, const ProvisionedNetwork& net,
         AmpCutPlan& plan)
      : map_(map),
        g_(map.graph()),
        params_(net.params),
        spec_(net.params.spec),
        plan_(plan),
        recorder_(map, net.params, /*hose_loads=*/false) {
    const std::size_t n = map.dcs().size();
    pair_words_ = (n * (n - 1) / 2 + 63) / 64;
  }

  AmpCutStats run();

 private:
  graph::Capacity cap_fibers(NodeId dc) const {
    return map_.site(dc).capacity_fibers;
  }
  const graph::Path& route_of(const RoutedPath& p) const {
    return recorder_.path(p.id);
  }
  void learn(std::int32_t id, std::size_t pair_index);
  graph::Capacity site_load(const std::vector<RoutedPath*>& pool,
                            const std::vector<std::size_t>& members);
  void amplify(std::span<const int> ids);
  void cut_through(std::span<const int> ids);
  bool feasible(RoutedPath& p);

  const fibermap::FiberMap& map_;
  const graph::Graph& g_;
  const PlannerParams& params_;
  const optical::OpticalSpec& spec_;
  AmpCutPlan& plan_;
  /// Bumped on every stage 2 change to the plan; stamps infeasible verdicts.
  long long revision_ = 0;
  ScenarioRecorder recorder_;
  std::vector<RoutedPath> paths_;  ///< by pool id
  /// Hose loads by DC-pair set (a bitset over pair indices).
  std::unordered_map<std::vector<std::uint64_t>, graph::Capacity, IdListHash>
      loads_;
  std::size_t pair_words_ = 0;
  std::vector<std::uint64_t> load_key_;  ///< scratch for site_load()
  /// Corridor key -> index into plan.cut_throughs, to grow rather than
  /// duplicate a cut-through that later scenarios need at higher capacity.
  std::map<std::vector<NodeId>, std::size_t> corridor_index_;
};

/// Fills in the facts of pooled path `id` on first sight.
void Placer::learn(std::int32_t id, std::size_t pair_index) {
  RoutedPath& p = paths_[static_cast<std::size_t>(id)];
  const graph::Path& route = recorder_.path(id);
  p.id = id;
  p.pair = DcPair(route.nodes.front(), route.nodes.back());
  p.pair_index = pair_index;
  p.beyond_sla = route.length_km > spec_.max_path_km;
  p.unaided = path_feasible(g_, route, std::nullopt, {}, spec_);
  for (int m : feasible_amp_indices(g_, route, {}, spec_)) {
    p.amp_sites.push_back(route.nodes[m]);
  }
}

AmpCutStats Placer::run() {
  const graph::ScenarioSet scenarios = planner_scenarios(map_, params_);
  recorder_.begin_sweep(scenarios.base_mask());
  AmpCutStats stats;
  std::vector<int> ids;
  std::vector<int> hard;          // stage 2's paths, scenario by scenario
  std::vector<std::size_t> ends;  // end of each scenario's run in `hard`
  scenarios.for_each([&](const graph::EdgeMask&, std::span<const EdgeId> failed,
                         int depth) {
    const ScenarioRecord& rec = *recorder_.descend(failed, depth);
    paths_.resize(recorder_.path_count());
    ids.clear();
    for (std::size_t pair_index = 0; pair_index < rec.path_id.size();
         ++pair_index) {
      const std::int32_t id = rec.path_id[pair_index];
      if (id < 0) continue;
      if (paths_[static_cast<std::size_t>(id)].id < 0) learn(id, pair_index);
      ids.push_back(id);
    }
    ++stats.scenarios;
    stats.pair_paths += static_cast<long long>(ids.size());
    amplify(ids);
    // Paths over the SLA bound are counted by stage 1 and feasible ones
    // stay feasible: neither can leave stage 2 anything to do.
    for (int id : ids) {
      const RoutedPath& p = paths_[static_cast<std::size_t>(id)];
      if (!p.beyond_sla && !p.unaided) hard.push_back(id);
    }
    ends.push_back(hard.size());
  });
  // Stage 2 is a second sweep over the same scenarios in the same order
  // (the sweep.* metrics count it), replaying the recorded paths instead of
  // routing again.
  std::size_t scenario = 0;
  scenarios.for_each([&](const graph::EdgeMask&, std::span<const EdgeId>, int) {
    const std::size_t from = scenario == 0 ? 0 : ends[scenario - 1];
    cut_through(std::span<const int>(hard).subspan(from, ends[scenario] - from));
    ++scenario;
  });
  stats.distinct_paths = static_cast<long long>(recorder_.path_count());
  return stats;
}

/// hose_site_load over the DC pairs of `pool[members]`. The load is a pure
/// function of the pair set, and scenarios keep asking for the same sets,
/// so it is memoized by that set.
graph::Capacity Placer::site_load(const std::vector<RoutedPath*>& pool,
                                  const std::vector<std::size_t>& members) {
  load_key_.assign(pair_words_, 0);
  for (std::size_t i : members) {
    const std::size_t k = pool[i]->pair_index;
    load_key_[k / 64] |= std::uint64_t{1} << (k % 64);
  }
  auto [it, inserted] = loads_.try_emplace(load_key_, 0);
  if (inserted) {
    std::vector<graph::OrientedPair> pairs;
    pairs.reserve(members.size());
    for (std::size_t i : members) {
      pairs.push_back({pool[i]->pair.a, pool[i]->pair.b});
    }
    it->second = graph::hose_site_load(
        pairs, [this](NodeId dc) { return cap_fibers(dc); });
  }
  return it->second;
}

// --- Stage 1: amplifiers (Appendix A, Algorithm 2) -------------------------
//
// A path is "needy" if its power budget does not close unaided. Candidate
// amplifier locations are the interior sites where one loopback amplifier
// closes the whole budget. Locations are scored by paths resolved per
// amplifier that would have to be added; the amplifier count per site is the
// hose-model worst case over the paths amplified there, in fibers.
void Placer::amplify(std::span<const int> ids) {
  std::vector<RoutedPath*> needy;
  for (int id : ids) {
    RoutedPath& p = paths_[static_cast<std::size_t>(id)];
    // Detours beyond the SLA bound are out of contract (OC1) and out of
    // reach for one in-line amplifier (TC2): record, don't provision.
    if (p.beyond_sla) {
      ++plan_.beyond_sla_paths;
      continue;
    }
    // Paths no single amplifier can fix are left to the cut-through stage.
    if (p.unaided || p.amp_sites.empty()) continue;
    needy.push_back(&p);
  }

  while (!needy.empty()) {
    std::map<NodeId, std::vector<std::size_t>> candidates;
    for (std::size_t i = 0; i < needy.size(); ++i) {
      for (NodeId loc : needy[i]->amp_sites) candidates[loc].push_back(i);
    }

    NodeId best_loc = graph::kInvalidNode;
    double best_score = -1.0;
    graph::Capacity best_noa = 0;
    for (const auto& [loc, resolved] : candidates) {
      // One amplifier amplifies one fiber: size the site by the hose-model
      // worst case over the paths amplified here.
      const graph::Capacity noa = site_load(needy, resolved);
      const graph::Capacity ntbp =
          std::max<graph::Capacity>(0, noa - plan_.amps_at_node[loc]);
      const double score =
          ntbp == 0 ? std::numeric_limits<double>::max()
                    : static_cast<double>(resolved.size()) /
                          static_cast<double>(ntbp);
      if (score > best_score || (score == best_score && loc < best_loc)) {
        best_score = score;
        best_loc = loc;
        best_noa = noa;
      }
    }

    plan_.amps_at_node[best_loc] = std::max<int>(
        plan_.amps_at_node[best_loc], static_cast<int>(best_noa));
    std::erase_if(needy, [&](const RoutedPath* p) {
      return std::find(p->amp_sites.begin(), p->amp_sites.end(), best_loc) !=
             p->amp_sites.end();
    });
  }
}

// --- Stage 2: cut-through links (Appendix A) -------------------------------
//
// Any path still infeasible given the placed amplifiers gets OSS traversals
// removed by leasing uninterrupted fiber across a corridor of its route.
// Candidates are scored by paths resolved per fiber-span leased.

/// path_feasible_with_plan, memoized across scenarios.
bool Placer::feasible(RoutedPath& p) {
  if (p.feasible) return true;
  if (p.infeasible_at == revision_) return false;
  p.feasible = path_feasible_with_plan(g_, route_of(p), plan_, spec_);
  p.infeasible_at = revision_;
  return p.feasible;
}

void Placer::cut_through(std::span<const int> ids) {
  std::vector<RoutedPath*> open;
  for (int id : ids) {
    RoutedPath& p = paths_[static_cast<std::size_t>(id)];
    if (!feasible(p)) open.push_back(&p);
  }

  while (!open.empty()) {
    struct Candidate {
      std::vector<EdgeId> ducts;
      std::vector<std::size_t> resolves;
    };
    // A corridor candidate resolves a path if, once its interior OSS are
    // bypassed, the budget closes -- possibly with a *new* amplifier at a
    // surviving interior site (amplifiers are placed below as needed).
    SiteSet extra;
    SiteSet combined;
    const auto resolvable = [&](const graph::Path& path) {
      if (path_feasible_with_plan(g_, path, plan_, spec_, &extra)) return true;
      combined = plan_.bypassed_sites(path);
      combined |= extra;
      return !feasible_amp_indices(g_, path, combined, spec_).empty();
    };
    std::map<std::vector<NodeId>, Candidate> candidates;
    for (std::size_t i = 0; i < open.size(); ++i) {
      const graph::Path& path = route_of(*open[i]);
      const int last = static_cast<int>(path.nodes.size()) - 1;
      for (int a = 0; a <= last - 2; ++a) {
        for (int b = a + 2; b <= last; ++b) {
          extra.clear();
          for (int k = a + 1; k < b; ++k) extra.insert(path.nodes[k]);
          if (!resolvable(path)) continue;
          std::vector<NodeId> key(path.nodes.begin() + a,
                                  path.nodes.begin() + b + 1);
          std::vector<EdgeId> ducts(path.edges.begin() + a,
                                    path.edges.begin() + b);
          if (key.back() < key.front()) {
            std::reverse(key.begin(), key.end());
            std::reverse(ducts.begin(), ducts.end());
          }
          auto [it, inserted] =
              candidates.try_emplace(std::move(key), Candidate{});
          if (inserted) it->second.ducts = std::move(ducts);
          it->second.resolves.push_back(i);
        }
      }
    }
    if (candidates.empty()) {
      plan_.unresolved_paths += static_cast<long long>(open.size());
      break;
    }

    const std::vector<NodeId>* best_key = nullptr;
    const Candidate* best_cand = nullptr;
    double best_score = -1.0;
    graph::Capacity best_fibers = 0;
    for (const auto& [key, cand] : candidates) {
      const graph::Capacity fibers = site_load(open, cand.resolves);
      const double fiber_spans = static_cast<double>(fibers) *
                                 static_cast<double>(cand.ducts.size());
      const double score = static_cast<double>(cand.resolves.size()) /
                           std::max(1.0, fiber_spans);
      if (score > best_score) {
        best_score = score;
        best_key = &key;
        best_cand = &cand;
        best_fibers = fibers;
      }
    }

    auto [it, inserted] =
        corridor_index_.try_emplace(*best_key, plan_.cut_throughs.size());
    if (inserted) {
      plan_.cut_throughs.push_back(CutThrough{
          *best_key, best_cand->ducts, static_cast<int>(best_fibers)});
    } else {
      CutThrough& existing = plan_.cut_throughs[it->second];
      existing.fiber_pairs =
          std::max(existing.fiber_pairs, static_cast<int>(best_fibers));
    }
    ++revision_;

    // Top up amplifiers for paths the new corridor unlocked: feasible only
    // with an amplifier at a site that has none yet.
    for (RoutedPath* p : open) {
      if (feasible(*p)) continue;
      const graph::Path& path = route_of(*p);
      const auto sites =
          feasible_amp_indices(g_, path, plan_.bypassed_sites(path), spec_);
      if (sites.empty()) continue;
      const NodeId loc = path.nodes[sites.front()];
      const int need = static_cast<int>(
          std::min(cap_fibers(p->pair.a), cap_fibers(p->pair.b)));
      if (need > plan_.amps_at_node[loc]) {
        plan_.amps_at_node[loc] = need;
        ++revision_;
      }
    }

    std::erase_if(open, [&](RoutedPath* p) { return feasible(*p); });
  }
}

}  // namespace

AmpCutPlan place_amplifiers_and_cutthroughs(const fibermap::FiberMap& map,
                                            const ProvisionedNetwork& net,
                                            AmpCutStats* stats) {
  AmpCutPlan plan;
  plan.amps_at_node.assign(map.graph().node_count(), 0);
  const AmpCutStats run = Placer(map, net, plan).run();
  if (stats) *stats = run;
  return plan;
}

AmpCutPlan scale_uniform_amp_cut(const AmpCutPlan& unit, int capacity_fibers) {
  if (capacity_fibers <= 0) {
    throw std::invalid_argument("scale_uniform_amp_cut: bad scale factor");
  }
  AmpCutPlan out = unit;
  for (int& amps : out.amps_at_node) amps *= capacity_fibers;
  for (CutThrough& ct : out.cut_throughs) ct.fiber_pairs *= capacity_fibers;
  return out;
}

}  // namespace iris::core
