// Incremental planner: warm-started routing, dominance pruning, plan diffs
// and cached replans, all held bit-identical to the from-scratch sweep.
#include <cstdlib>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/plan_diff.hpp"
#include "core/provision.hpp"
#include "core/replan.hpp"
#include "fibermap/generator.hpp"
#include "fibermap/srlg.hpp"
#include "graph/incremental.hpp"
#include "graph/shortest_path.hpp"

namespace iris {
namespace {

using graph::EdgeId;
using graph::NodeId;

/// Random connected-ish multigraph: a spanning chain plus extra random
/// edges (parallel edges allowed, as in real duct maps).
graph::Graph random_graph(std::mt19937& rng, int nodes, int extra_edges) {
  graph::Graph g(nodes);
  std::uniform_real_distribution<double> km(1.0, 20.0);
  std::uniform_int_distribution<NodeId> node(0, nodes - 1);
  for (NodeId i = 0; i + 1 < nodes; ++i) g.add_edge(i, i + 1, km(rng));
  for (int k = 0; k < extra_edges; ++k) {
    const NodeId u = node(rng);
    const NodeId v = node(rng);
    if (u != v) g.add_edge(u, v, km(rng));
  }
  return g;
}

void expect_same_tree(const graph::ShortestPathTree& got,
                      const graph::ShortestPathTree& want) {
  EXPECT_EQ(got.source, want.source);
  EXPECT_EQ(got.dist_km, want.dist_km);
  EXPECT_EQ(got.parent_edge, want.parent_edge);
  EXPECT_EQ(got.parent_node, want.parent_node);
}

TEST(PrefixDijkstra, MatchesFromScratchOnRandomPushPopSequences) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 25; ++trial) {
    const graph::Graph g = random_graph(rng, 4 + trial % 9, 6);
    graph::EdgeMask base(g.edge_count());
    if (trial % 3 == 0) base.fail(0);  // some trials have a pre-failed base

    graph::PrefixDijkstra pd;
    pd.reset(g, 0, base);
    expect_same_tree(pd.tree(), graph::dijkstra(g, 0, base));

    // Random jump sequence: arbitrary failed-prefix vectors, exercising
    // pops, pushes and full restarts against the canonical oracle.
    std::uniform_int_distribution<EdgeId> edge(base.failed(0) ? 1 : 0,
                                               g.edge_count() - 1);
    for (int step = 0; step < 20; ++step) {
      std::vector<EdgeId> failed;
      for (int d = std::uniform_int_distribution<int>(0, 3)(rng); d > 0; --d) {
        const EdgeId e = edge(rng);
        if (std::find(failed.begin(), failed.end(), e) == failed.end()) {
          failed.push_back(e);
        }
      }
      graph::EdgeMask mask = base;
      for (EdgeId e : failed) mask.fail(e);
      expect_same_tree(pd.route(failed), graph::dijkstra(g, 0, mask));
    }
  }
}

TEST(PrefixDijkstra, WarmStartRecomputesFewerNodesThanRestart) {
  std::mt19937 rng(3);
  const graph::Graph g = random_graph(rng, 30, 40);
  graph::PrefixDijkstra pd;
  pd.reset(g, 0, graph::EdgeMask(g.edge_count()));
  long long full_cost = 0;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const std::vector<EdgeId> failed{e};
    pd.route(failed);
    full_cost += g.node_count();  // a restart re-relaxes every node
  }
  EXPECT_GT(pd.pushes(), 0);
  EXPECT_LT(pd.nodes_recomputed(), full_cost);
}

fibermap::FiberMap small_region(std::uint64_t seed) {
  fibermap::RegionParams rp;
  rp.extent_km = 30.0;
  rp.hut_count = 5;
  rp.dc_count = 3;
  rp.capacity_fibers = 4;
  rp.seed = seed;
  return fibermap::generate_region(rp);
}

core::PlannerParams small_params(int tolerance) {
  core::PlannerParams params;
  params.failure_tolerance = tolerance;
  params.channels.wavelengths_per_fiber = 40;
  params.threads = 1;
  return params;
}

TEST(IncrementalProvision, MatchesOracleOnRandomRegions) {
  // Property: for random small fibermaps the pruned warm-started sweep is
  // bit-identical to the full from-scratch sweep, at every tolerance
  // including tolerance >= the eligible duct count (all-subsets sweep).
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto map = small_region(seed);
    for (const int tolerance : {0, 1, 2, 3}) {
      auto params = small_params(tolerance);
      const auto inc = core::provision(map, params);
      params.incremental = false;
      const auto full = core::provision(map, params);
      EXPECT_TRUE(core::same_plan(inc, full))
          << "seed " << seed << " tolerance " << tolerance;
      EXPECT_EQ(full.scenarios_pruned, 0);
    }
  }
  // Tolerance beyond every duct: the deepest scenarios cut all of them.
  const auto map = small_region(2);
  auto params = small_params(10 + map.graph().edge_count());
  const auto inc = core::provision(map, params);
  params.incremental = false;
  EXPECT_TRUE(core::same_plan(inc, core::provision(map, params)));
  EXPECT_GT(inc.scenarios_pruned, 0);  // fully-cut subtrees are demand-free
}

TEST(IncrementalProvision, BitIdenticalAcrossThreadCounts) {
  const auto map = small_region(5);
  auto params = small_params(2);
  const auto reference = core::provision(map, params);
  for (const int threads : {2, 8}) {
    params.threads = threads;
    const auto got = core::provision(map, params);
    EXPECT_TRUE(core::same_plan(got, reference)) << "threads " << threads;
    EXPECT_EQ(got.scenarios_pruned, reference.scenarios_pruned);
  }
}

/// First duct the plan actually routes demand over.
EdgeId busiest_duct(const core::ProvisionedNetwork& net) {
  EdgeId best = 0;
  for (EdgeId e = 1;
       e < static_cast<EdgeId>(net.edge_capacity_wavelengths.size()); ++e) {
    if (net.edge_capacity_wavelengths[e] >
        net.edge_capacity_wavelengths[best]) {
      best = e;
    }
  }
  return best;
}

TEST(Replan, CutAndRepairMatchFreshProvisionAndDiffRoundTrips) {
  const auto map = small_region(4);
  const auto params = small_params(2);
  core::IncrementalPlanner planner(map, params);
  const core::ProvisionedNetwork initial = planner.current();
  EXPECT_TRUE(core::same_plan(initial, core::provision(map, params)));

  const EdgeId duct = busiest_duct(initial);
  const core::PlanDiff cut = planner.cut_duct(duct);
  EXPECT_FALSE(cut.empty());

  // The replanned network equals a fresh provision with the duct cut...
  auto cut_params = params;
  cut_params.cut_ducts = {duct};
  EXPECT_TRUE(
      core::same_plan(planner.current(), core::provision(map, cut_params)));
  // ...and applying the diff to the old plan reproduces it exactly.
  EXPECT_TRUE(core::same_plan(core::apply_diff(initial, cut),
                              planner.current()));
  EXPECT_GT(planner.last_stats().scenarios, 0);

  const core::PlanDiff repair = planner.repair_duct(duct);
  EXPECT_TRUE(core::same_plan(planner.current(), initial));
  EXPECT_TRUE(core::same_plan(
      core::apply_diff(core::apply_diff(initial, cut), repair), initial));
  // The repair sweep's scenarios were all planned before the cut, so every
  // one folds from the cache.
  EXPECT_EQ(planner.last_stats().pruned, planner.last_stats().scenarios);
  EXPECT_TRUE(planner.cut_ducts().empty());
}

TEST(Replan, MultiCutSequenceTracksFreshProvision) {
  const auto map = small_region(6);
  const auto params = small_params(1);
  core::IncrementalPlanner planner(map, params);

  std::vector<EdgeId> cuts;
  std::mt19937 rng(11);
  std::uniform_int_distribution<EdgeId> edge(0, map.graph().edge_count() - 1);
  for (int step = 0; step < 4; ++step) {
    EdgeId e = edge(rng);
    while (std::find(cuts.begin(), cuts.end(), e) != cuts.end()) e = edge(rng);
    cuts.push_back(e);
    const core::ProvisionedNetwork before = planner.current();
    const core::PlanDiff diff = planner.cut_duct(e);
    auto fresh = params;
    fresh.cut_ducts = cuts;
    EXPECT_TRUE(
        core::same_plan(planner.current(), core::provision(map, fresh)));
    EXPECT_TRUE(
        core::same_plan(core::apply_diff(before, diff), planner.current()));
  }
}

TEST(Replan, RejectsInvalidCutAndRepair) {
  const auto map = small_region(4);
  core::IncrementalPlanner planner(map, small_params(1));
  EXPECT_THROW((void)planner.cut_duct(-1), std::invalid_argument);
  EXPECT_THROW((void)planner.cut_duct(map.graph().edge_count()),
               std::invalid_argument);
  EXPECT_THROW((void)planner.repair_duct(0), std::invalid_argument);
  (void)planner.cut_duct(0);
  EXPECT_THROW((void)planner.cut_duct(0), std::invalid_argument);
}

TEST(Replan, OracleModeCrossChecksEveryReplan) {
  ASSERT_EQ(setenv("IRIS_PLANNER_ORACLE", "1", 1), 0);
  struct Restore {
    ~Restore() { unsetenv("IRIS_PLANNER_ORACLE"); }
  } restore;
  ASSERT_TRUE(core::planner_oracle_enabled());

  const auto map = small_region(4);
  const auto params = small_params(2);
  core::IncrementalPlanner planner(map, params);
  const core::ProvisionedNetwork initial = planner.current();
  const EdgeId duct = busiest_duct(initial);
  // Under the oracle every replan re-runs provision() -- which itself
  // re-runs the full from-scratch sweep -- and throws on any divergence.
  EXPECT_NO_THROW((void)planner.cut_duct(duct));
  EXPECT_NO_THROW((void)planner.repair_duct(duct));
  EXPECT_TRUE(core::same_plan(planner.current(), initial));
}

void expect_same_diff(const core::PlanDiff& got, const core::PlanDiff& want) {
  EXPECT_EQ(got.capacity_changes, want.capacity_changes);
  EXPECT_EQ(got.path_changes, want.path_changes);
  EXPECT_EQ(got.new_scenarios_evaluated, want.new_scenarios_evaluated);
  EXPECT_EQ(got.new_scenarios_pruned, want.new_scenarios_pruned);
  EXPECT_EQ(got.new_pairs_unreachable, want.new_pairs_unreachable);
  EXPECT_EQ(got.new_pairs_beyond_sla, want.new_pairs_beyond_sla);
}

TEST(Replan, CopyIsIndependentAndBitIdentical) {
  const auto map = small_region(4);
  const auto params = small_params(2);
  core::IncrementalPlanner original(map, params);
  const core::ProvisionedNetwork initial = original.current();
  const EdgeId first = busiest_duct(initial);
  const EdgeId second = first == 0 ? 1 : 0;
  const auto provision_with = [&](std::vector<EdgeId> cuts) {
    auto p = params;
    p.cut_ducts = std::move(cuts);
    return core::provision(map, p);
  };

  // A copy of the pristine planner answers a cut exactly as the original.
  core::IncrementalPlanner pristine_copy(original);
  EXPECT_TRUE(core::same_plan(pristine_copy.current(), initial));
  const core::PlanDiff copy_cut = pristine_copy.cut_duct(first);
  const core::PlanDiff orig_cut = original.cut_duct(first);
  expect_same_diff(copy_cut, orig_cut);
  EXPECT_TRUE(core::same_plan(pristine_copy.current(), original.current()));
  EXPECT_TRUE(core::same_plan(original.current(), provision_with({first})));
  EXPECT_EQ(pristine_copy.cut_ducts(), original.cut_ducts());

  // A copy made after a live cut carries it, and the next cut agrees too.
  core::IncrementalPlanner cut_copy(original);
  EXPECT_EQ(cut_copy.cut_ducts(), std::vector<EdgeId>{first});
  expect_same_diff(cut_copy.cut_duct(second), original.cut_duct(second));
  EXPECT_TRUE(core::same_plan(cut_copy.current(), original.current()));
  EXPECT_TRUE(
      core::same_plan(original.current(), provision_with({first, second})));

  // Cutting and repairing a copy leaves the original untouched.
  const core::ProvisionedNetwork held = original.current();
  const std::vector<EdgeId> held_cuts = original.cut_ducts();
  core::IncrementalPlanner scratch(original);
  (void)scratch.repair_duct(first);
  EdgeId third = 0;
  while (third == first || third == second) ++third;
  (void)scratch.cut_duct(third);
  EXPECT_TRUE(core::same_plan(scratch.current(), provision_with({second, third})));
  EXPECT_TRUE(core::same_plan(original.current(), held));
  EXPECT_EQ(original.cut_ducts(), held_cuts);

  // And the original still replans exactly after its copies diverged.
  (void)original.repair_duct(second);
  (void)original.repair_duct(first);
  EXPECT_TRUE(core::same_plan(original.current(), initial));
  EXPECT_TRUE(original.cut_ducts().empty());
}

/// small_region(seed) with its inferred trench and hut SRLGs plus one
/// trench group over the first DC's first two ducts.
fibermap::FiberMap small_region_with_srlgs(std::uint64_t seed) {
  fibermap::FiberMap map = small_region(seed);
  fibermap::infer_and_add_srlgs(map);
  const auto dc0 = map.graph().incident(map.dcs()[0]);
  if (dc0.size() >= 2) {
    map.add_srlg(
        {"dc0-trench", fibermap::SrlgKind::kTrench, {dc0[0], dc0[1]}, 1.0});
  }
  return map;
}

// Property: a cut made on a copy of a pristine planner, and a second cut on
// top of it, reproduce provision() with those cuts and the exact diffs a
// cold planner emits, whichever cached sub-scenario each record was shared
// with or patched from.
TEST(Replan, SubScenarioSharingMatchesProvisionAndColdPlanner) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const bool srlgs : {false, true}) {
      const auto map = srlgs ? small_region_with_srlgs(seed)
                             : small_region(seed);
      const EdgeId ducts = map.graph().edge_count();
      for (const int tolerance : {1, 2, 3}) {
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << " srlgs " << srlgs << " k "
                     << tolerance);
        const auto params = small_params(tolerance);
        if (srlgs) {  // some group event fails several ducts at once
          EXPECT_GT(core::planner_scenarios(map, params).events().size(),
                    static_cast<std::size_t>(ducts));
        }
        const core::IncrementalPlanner base(map, params);
        for (EdgeId first = 0; first < ducts; ++first) {
          const EdgeId second = (first + 1) % ducts;
          auto cut_params = params;
          cut_params.cut_ducts = {first};
          core::IncrementalPlanner clone(base);
          core::IncrementalPlanner cold(map, params);
          expect_same_diff(clone.cut_duct(first), cold.cut_duct(first));
          EXPECT_TRUE(core::same_plan(clone.current(),
                                      core::provision(map, cut_params)))
              << "first cut " << first;
          cut_params.cut_ducts.push_back(second);
          expect_same_diff(clone.cut_duct(second), cold.cut_duct(second));
          EXPECT_TRUE(core::same_plan(clone.current(),
                                      core::provision(map, cut_params)))
              << "cuts " << first << ", " << second;
        }
      }
    }
  }
}

// A clone's first cut finds most of its scenarios already planned without
// the cut duct: every cached record that routes no demand over that duct
// is shared outright. The depth-first-parent-only rule shared far fewer.
TEST(Replan, CloneCutSharesAnyCachedSubScenario) {
  const auto map = small_region(4);
  const auto params = small_params(3);
  const core::IncrementalPlanner base(map, params);
  core::IncrementalPlanner clone(base);
  (void)clone.cut_duct(busiest_duct(base.current()));
  // The parent-only rule pruned 198 of this cut's 470 scenarios.
  EXPECT_EQ(clone.last_stats().scenarios, 470);
  EXPECT_GT(clone.last_stats().pruned, 198);
}

TEST(PlanDiff, RejectsDiffAgainstWrongBase) {
  const auto map = small_region(4);
  const auto params = small_params(1);
  core::IncrementalPlanner planner(map, params);
  const core::ProvisionedNetwork initial = planner.current();
  const core::PlanDiff cut = planner.cut_duct(busiest_duct(initial));
  // Applying the cut diff to the post-cut plan (not its base) must throw:
  // the old-side values no longer match.
  EXPECT_THROW((void)core::apply_diff(planner.current(), cut),
               std::invalid_argument);
}

}  // namespace
}  // namespace iris
