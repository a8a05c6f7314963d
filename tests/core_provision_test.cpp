#include <limits>
#include <stdexcept>

#include <gtest/gtest.h>

#include "core/path_physics.hpp"
#include "core/provision.hpp"
#include "fibermap/generator.hpp"

namespace iris::core {
namespace {

PlannerParams toy_params(int tolerance = 0) {
  PlannerParams params;
  params.failure_tolerance = tolerance;
  params.channels.wavelengths_per_fiber = 40;
  return params;
}

TEST(Provision, ToyExampleEdgeCapacitiesMatchPaper) {
  const auto map = fibermap::toy_example_fig10();
  const auto ids = fibermap::toy_example_ids();
  const auto net = provision(map, toy_params());

  // SS3.4: L1-L4 carry each DC's full 10-fiber capacity; L5 carries 20.
  for (auto leg : {ids.l1, ids.l2, ids.l3, ids.l4}) {
    EXPECT_EQ(net.edge_capacity_wavelengths[leg], 400);
    EXPECT_EQ(net.base_fibers[leg], 10);
  }
  EXPECT_EQ(net.edge_capacity_wavelengths[ids.l5], 800);
  EXPECT_EQ(net.base_fibers[ids.l5], 20);
  EXPECT_EQ(net.total_base_fibers(), 60);  // F_E = 60
}

TEST(Provision, ToyExampleBaselinePathsComplete) {
  const auto map = fibermap::toy_example_fig10();
  const auto net = provision(map, toy_params());
  EXPECT_EQ(net.baseline_paths.size(), 6u);  // C(4,2)
  const auto ids = fibermap::toy_example_ids();
  const auto& inter = net.baseline_paths.at(DcPair(ids.dc1, ids.dc3));
  EXPECT_EQ(inter.hop_count(), 3);  // L1, L5, L3
  EXPECT_DOUBLE_EQ(inter.length_km, 50.0);
}

TEST(Provision, HutsAreUsedOnlyWhenCarryingCapacity) {
  const auto map = fibermap::toy_example_fig10();
  const auto ids = fibermap::toy_example_ids();
  const auto net = provision(map, toy_params());
  EXPECT_TRUE(net.hut_used(map, ids.hub_a));
  EXPECT_TRUE(net.hut_used(map, ids.hub_b));
}

TEST(Provision, HoseModelAvoidsDoubleCounting) {
  // Three DCs homed on one hut: the duct from DC A carries pairs (A,B) and
  // (A,C), but its capacity is A's hose capacity once -- not twice.
  fibermap::FiberMap map;
  const auto hut = map.add_hut("h", {0, 0});
  const auto a = map.add_dc("a", {5, 0}, 8);
  const auto b = map.add_dc("b", {-5, 0}, 8);
  const auto c = map.add_dc("c", {0, 5}, 8);
  const auto duct_a = map.add_duct_with_length(a, hut, 10.0);
  map.add_duct_with_length(b, hut, 10.0);
  map.add_duct_with_length(c, hut, 10.0);

  const auto net = provision(map, toy_params());
  EXPECT_EQ(net.edge_capacity_wavelengths[duct_a], 8 * 40);
  EXPECT_EQ(net.base_fibers[duct_a], 8);
}

TEST(Provision, AsymmetricCapacitiesBoundPairDemand) {
  fibermap::FiberMap map;
  const auto hut = map.add_hut("h", {0, 0});
  const auto small = map.add_dc("small", {5, 0}, 2);
  const auto big = map.add_dc("big", {-5, 0}, 32);
  const auto duct_small = map.add_duct_with_length(small, hut, 10.0);
  const auto duct_big = map.add_duct_with_length(big, hut, 10.0);

  const auto net = provision(map, toy_params());
  // The pair demand is min(2, 32) fibers of wavelengths on both legs.
  EXPECT_EQ(net.edge_capacity_wavelengths[duct_small], 80);
  EXPECT_EQ(net.edge_capacity_wavelengths[duct_big], 80);
}

TEST(Provision, FailureToleranceRaisesBackupCapacity) {
  // Square: two DCs with two hut routes; failing the short route forces the
  // long one, which must then carry the whole pair demand.
  fibermap::FiberMap map;
  const auto a = map.add_dc("a", {0, 0}, 4);
  const auto b = map.add_dc("b", {10, 0}, 4);
  const auto top = map.add_hut("top", {5, 5});
  const auto bottom = map.add_hut("bottom", {5, -5});
  const auto a_top = map.add_duct_with_length(a, top, 7.0);
  const auto top_b = map.add_duct_with_length(top, b, 7.0);
  const auto a_bot = map.add_duct_with_length(a, bottom, 8.0);
  const auto bot_b = map.add_duct_with_length(bottom, b, 8.0);

  const auto no_failures = provision(map, toy_params(0));
  EXPECT_EQ(no_failures.edge_capacity_wavelengths[a_top], 160);
  EXPECT_EQ(no_failures.edge_capacity_wavelengths[a_bot], 0);  // unused
  EXPECT_FALSE(no_failures.hut_used(map, bottom));

  const auto tolerant = provision(map, toy_params(1));
  EXPECT_EQ(tolerant.edge_capacity_wavelengths[a_top], 160);
  EXPECT_EQ(tolerant.edge_capacity_wavelengths[a_bot], 160);  // failover
  EXPECT_EQ(tolerant.edge_capacity_wavelengths[top_b], 160);
  EXPECT_EQ(tolerant.edge_capacity_wavelengths[bot_b], 160);
  EXPECT_TRUE(tolerant.hut_used(map, bottom));
}

TEST(Provision, ExtremeDemandOverflowingFiberCountThrows) {
  // Two DC pairs of INT_MAX-fiber DCs share one middle duct: its worst-case
  // hose load rounds to 2 * INT_MAX base fibers, which no int can hold. The
  // old code narrowed silently; now the planner refuses the plan.
  fibermap::FiberMap map;
  const int huge = std::numeric_limits<int>::max();
  const auto a = map.add_dc("a", {0, 1}, huge);
  const auto b = map.add_dc("b", {0, -1}, huge);
  const auto c = map.add_dc("c", {10, 1}, huge);
  const auto d = map.add_dc("d", {10, -1}, huge);
  const auto h1 = map.add_hut("h1", {1, 0});
  const auto h2 = map.add_hut("h2", {9, 0});
  map.add_duct_with_length(a, h1, 2.0);
  map.add_duct_with_length(b, h1, 2.0);
  map.add_duct_with_length(c, h2, 2.0);
  map.add_duct_with_length(d, h2, 2.0);
  map.add_duct_with_length(h1, h2, 8.0);
  EXPECT_THROW((void)provision(map, toy_params()), std::overflow_error);
}

TEST(Provision, OversubscriptionKeepsUsedDuctsProvisioned) {
  // OC2 relaxation: even an absurd oversubscription factor must leave every
  // duct the plan routes over with at least one wavelength (ceil rounding).
  const auto map = fibermap::toy_example_fig10();
  const auto exact = provision(map, toy_params());
  auto params = toy_params();
  params.oversubscription = 1e9;
  const auto relaxed = provision(map, params);
  for (std::size_t e = 0; e < exact.edge_capacity_wavelengths.size(); ++e) {
    if (exact.edge_capacity_wavelengths[e] > 0) {
      EXPECT_GE(relaxed.edge_capacity_wavelengths[e], 1);
      EXPECT_GE(relaxed.base_fibers[e], 1);
    }
  }
}

TEST(Provision, DominancePruningSkipsDemandFreeDucts) {
  // The square region: the backup route carries no demand until the primary
  // fails, so the scenarios failing only backup ducts are dominated by the
  // baseline and folded from it instead of routed.
  fibermap::FiberMap map;
  const auto a = map.add_dc("a", {0, 0}, 4);
  const auto b = map.add_dc("b", {10, 0}, 4);
  const auto top = map.add_hut("top", {5, 5});
  const auto bottom = map.add_hut("bottom", {5, -5});
  map.add_duct_with_length(a, top, 7.0);
  map.add_duct_with_length(top, b, 7.0);
  map.add_duct_with_length(a, bottom, 8.0);
  map.add_duct_with_length(bottom, b, 8.0);

  const auto net = provision(map, toy_params(1));
  EXPECT_EQ(net.scenarios_evaluated, 5);  // {} + 4 single cuts
  EXPECT_EQ(net.scenarios_pruned, 2);     // the two idle bottom ducts

  auto full = toy_params(1);
  full.incremental = false;
  const auto oracle = provision(map, full);
  EXPECT_EQ(oracle.scenarios_pruned, 0);
  EXPECT_TRUE(same_plan(net, oracle));
}

TEST(Provision, ScenarioCountsAndDiagnostics) {
  const auto map = fibermap::toy_example_fig10();
  const auto net = provision(map, toy_params(2));
  // C(5,0) + C(5,1) + C(5,2) = 16 scenarios over 5 eligible ducts.
  EXPECT_EQ(net.scenarios_evaluated, 16);
  // Cutting a DC's only duct disconnects it; those pairs are skipped.
  EXPECT_GT(net.pair_paths_skipped_unreachable, 0);
}

TEST(Provision, DuctsBeyondSpanLimitAreExcluded) {
  fibermap::FiberMap map;
  const auto a = map.add_dc("a", {0, 0}, 4);
  const auto b = map.add_dc("b", {30, 0}, 4);
  const auto hut = map.add_hut("h", {15, 0});
  const auto long_duct = map.add_duct_with_length(a, b, 95.0);  // > 80 km
  const auto leg1 = map.add_duct_with_length(a, hut, 50.0);
  const auto leg2 = map.add_duct_with_length(hut, b, 50.0);

  const auto net = provision(map, toy_params());
  EXPECT_EQ(net.edge_capacity_wavelengths[long_duct], 0);  // TC1 exclusion
  EXPECT_EQ(net.edge_capacity_wavelengths[leg1], 160);
  EXPECT_EQ(net.edge_capacity_wavelengths[leg2], 160);
  // The surviving path is 100 km: within the 120 km SLA.
  EXPECT_EQ(net.pair_paths_beyond_sla, 0);
}

TEST(Provision, ReportsPathsBeyondSla) {
  fibermap::FiberMap map;
  const auto a = map.add_dc("a", {0, 0}, 4);
  const auto b = map.add_dc("b", {60, 0}, 4);
  const auto h1 = map.add_hut("h1", {20, 0});
  const auto h2 = map.add_hut("h2", {40, 0});
  map.add_duct_with_length(a, h1, 60.0);
  map.add_duct_with_length(h1, h2, 60.0);
  map.add_duct_with_length(h2, b, 60.0);  // 180 km total > 120 km SLA

  const auto net = provision(map, toy_params());
  EXPECT_GT(net.pair_paths_beyond_sla, 0);
}

TEST(PathPhysics, FiberKmAndSegmentLoss) {
  const auto map = fibermap::toy_example_fig10();
  const auto ids = fibermap::toy_example_ids();
  const auto net = provision(map, toy_params());
  const auto& path = net.baseline_paths.at(DcPair(ids.dc1, ids.dc3));

  EXPECT_DOUBLE_EQ(path_fiber_km(map.graph(), path, 0, 3), 50.0);
  EXPECT_DOUBLE_EQ(path_fiber_km(map.graph(), path, 0, 1), 15.0);
  // 50 km fiber + 2 interior OSS: 12.5 + 3.0 dB.
  EXPECT_DOUBLE_EQ(segment_loss_db(map.graph(), path, 0, 3, {}, net.params.spec),
                   15.5);
  // Bypassing hub A removes one OSS traversal.
  EXPECT_DOUBLE_EQ(
      segment_loss_db(map.graph(), path, 0, 3, {ids.hub_a}, net.params.spec),
      14.0);
  EXPECT_TRUE(path_feasible(map.graph(), path, std::nullopt, {}, net.params.spec));
}

TEST(PathPhysics, AmpCandidatesSplitLongPaths) {
  fibermap::FiberMap map;
  const auto a = map.add_dc("a", {0, 0}, 4);
  const auto b = map.add_dc("b", {100, 0}, 4);
  const auto h1 = map.add_hut("h1", {50, 0});
  map.add_duct_with_length(a, h1, 55.0);
  map.add_duct_with_length(h1, b, 55.0);

  const auto net = provision(map, toy_params());
  const auto& path = net.baseline_paths.at(DcPair(a, b));
  EXPECT_TRUE(needs_amplification(path, net.params.spec));  // 110 km
  const auto candidates = amp_candidate_indices(map.graph(), path, net.params.spec);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(path.nodes[candidates[0]], h1);
  // Without an amplifier the single segment busts the budget; with it, fine.
  EXPECT_FALSE(path_feasible(map.graph(), path, std::nullopt, {}, net.params.spec));
  EXPECT_TRUE(path_feasible(map.graph(), path, candidates[0], {}, net.params.spec));
}

TEST(PathPhysics, UnbalancedLongPathHasNoAmpSite) {
  // 10 + 75 + 35 km: no single interior site splits into two <= 80 km spans.
  fibermap::FiberMap map;
  const auto a = map.add_dc("a", {0, 0}, 4);
  const auto b = map.add_dc("b", {100, 0}, 4);
  const auto h1 = map.add_hut("h1", {10, 0});
  const auto h2 = map.add_hut("h2", {80, 0});
  map.add_duct_with_length(a, h1, 10.0);
  map.add_duct_with_length(h1, h2, 75.0);
  map.add_duct_with_length(h2, b, 35.0);

  const auto net = provision(map, toy_params());
  const auto& path = net.baseline_paths.at(DcPair(a, b));
  EXPECT_TRUE(amp_candidate_indices(map.graph(), path, net.params.spec).empty());
}

TEST(PathPhysics, ManyHopsBustPowerBudgetUntilBypassed) {
  // 8 huts en route, 45 km total: 11.25 dB fiber + 8 x 1.5 dB OSS = 23.25 dB
  // > 20 dB gain. Bypassing huts restores feasibility.
  fibermap::FiberMap map;
  const auto a = map.add_dc("a", {0, 0}, 4);
  std::vector<graph::NodeId> nodes{a};
  for (int i = 0; i < 8; ++i) {
    nodes.push_back(map.add_hut("h" + std::to_string(i),
                                {5.0 * (i + 1), 0.0}));
  }
  const auto b = map.add_dc("b", {45, 0}, 4);
  nodes.push_back(b);
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    map.add_duct_with_length(nodes[i], nodes[i + 1], 5.0);
  }

  const auto net = provision(map, toy_params());
  const auto& path = net.baseline_paths.at(DcPair(a, b));
  EXPECT_FALSE(needs_amplification(path, net.params.spec));
  EXPECT_FALSE(path_feasible(map.graph(), path, std::nullopt, {}, net.params.spec));
  SiteSet bypass{nodes[2], nodes[3], nodes[4]};
  EXPECT_TRUE(path_feasible(map.graph(), path, std::nullopt, bypass,
                            net.params.spec));
}

TEST(Provision, OversubscriptionShrinksCapacity) {
  const auto map = fibermap::toy_example_fig10();
  const auto ids = fibermap::toy_example_ids();
  PlannerParams params = toy_params();
  params.oversubscription = 2.0;
  const auto net = provision(map, params);
  // Half of the non-blocking loads: L1 200 waves -> 5 fibers, L5 400 -> 10.
  EXPECT_EQ(net.edge_capacity_wavelengths[ids.l1], 200);
  EXPECT_EQ(net.base_fibers[ids.l1], 5);
  EXPECT_EQ(net.base_fibers[ids.l5], 10);
  EXPECT_EQ(net.total_base_fibers(), 30);

  // Used ducts never round to zero even under extreme oversubscription.
  params.oversubscription = 1000.0;
  const auto thin = provision(map, params);
  for (graph::EdgeId e = 0; e < map.graph().edge_count(); ++e) {
    if (net.edge_used(e)) {
      EXPECT_GE(thin.base_fibers[e], 1);
    }
  }

  params.oversubscription = 0.5;
  EXPECT_THROW((void)provision(map, params), std::invalid_argument);
}

class ProvisionLambdaSweep : public ::testing::TestWithParam<int> {};

TEST_P(ProvisionLambdaSweep, FiberCountScalesInverselyWithLambda) {
  const int lambda = GetParam();
  const auto map = fibermap::toy_example_fig10();
  PlannerParams params = toy_params();
  params.channels.wavelengths_per_fiber = lambda;
  const auto net = provision(map, params);
  const auto ids = fibermap::toy_example_ids();
  // Capacities are specified in fibers, so the wavelength load scales with
  // lambda while the fiber count stays pinned at the DC's 10 fibers.
  EXPECT_EQ(net.edge_capacity_wavelengths[ids.l1], 10LL * lambda);
  EXPECT_EQ(net.base_fibers[ids.l1], 10);
}

INSTANTIATE_TEST_SUITE_P(Lambdas, ProvisionLambdaSweep,
                         ::testing::Values(40, 64, 80, 100));

}  // namespace
}  // namespace iris::core
