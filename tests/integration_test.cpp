// End-to-end integration: generate a region, plan it, drive the control
// plane from the plan, and check the paper's qualitative claims hold on the
// full pipeline.
#include <gtest/gtest.h>

#include "control/controller.hpp"
#include "controller_rig.hpp"
#include "core/plan_region.hpp"
#include "fibermap/generator.hpp"
#include "fibermap/serialize.hpp"
#include "topology/latency.hpp"
#include "topology/siting.hpp"

namespace iris {
namespace {

using core::DcPair;

core::PlannerParams planner_params(int tolerance) {
  core::PlannerParams params;
  params.failure_tolerance = tolerance;
  params.channels.wavelengths_per_fiber = 40;
  return params;
}

fibermap::FiberMap test_region(std::uint64_t seed, int dcs = 6) {
  fibermap::RegionParams region;
  region.seed = seed;
  region.dc_count = dcs;
  region.hut_count = 10;
  region.capacity_fibers = 8;
  region.dc_attach_huts = 3;
  return fibermap::generate_region(region);
}

TEST(Integration, FullPlanningPipelineIsFeasibleAndCheaper) {
  const auto map = test_region(101);
  const auto plan = core::plan_region(map, planner_params(1));

  EXPECT_EQ(plan.amp_cut.unresolved_paths, 0);
  const auto report = core::validate_plan(map, plan.network, plan.amp_cut);
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report.paths_checked, 0);

  const auto prices = cost::PriceBook::paper_defaults();
  EXPECT_GT(plan.eps.total_cost(prices), plan.iris.total_cost(prices));
  EXPECT_LE(plan.hybrid.bom.total_cost(prices),
            plan.iris.total_cost(prices) * 1.02);
}

TEST(Integration, ControllerServesHoseTrafficOnPlannedNetwork) {
  const auto map = test_region(102);
  const auto plan = core::plan_region(map, planner_params(1));
  control::ControllerRig rig(map, plan.network, plan.amp_cut);
  control::IrisController& controller = rig.controller;

  // An aggressive but hose-legal matrix: every DC splits its capacity
  // across two peers.
  const auto& dcs = map.dcs();
  const int lambda = 40;
  control::TrafficMatrix tm;
  for (std::size_t i = 0; i < dcs.size(); ++i) {
    const long long cap = map.dc_capacity_wavelengths(dcs[i], lambda);
    tm[DcPair(dcs[i], dcs[(i + 1) % dcs.size()])] += cap / 4;
    tm[DcPair(dcs[i], dcs[(i + 2) % dcs.size()])] += cap / 4;
  }
  const auto report = controller.apply_traffic_matrix(tm);
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(controller.active_circuits().size(), tm.size());
}

TEST(Integration, ControllerSurvivesSingleDuctFailures) {
  const auto map = test_region(103);
  const auto plan = core::plan_region(map, planner_params(1));
  control::ControllerRig rig(map, plan.network, plan.amp_cut);
  control::IrisController& controller = rig.controller;

  const auto& dcs = map.dcs();
  control::TrafficMatrix tm;
  tm[DcPair(dcs[0], dcs[1])] = 80;
  tm[DcPair(dcs[2], dcs[3])] = 80;
  controller.apply_traffic_matrix(tm);

  // Fail each duct of the first circuit in turn; the planner provisioned
  // for one cut, so the controller must always find a reroute.
  const auto route = controller.active_circuits()[0].route;
  for (graph::EdgeId duct : route.edges) {
    controller.fail_duct(duct);
    EXPECT_NO_THROW(controller.apply_traffic_matrix(tm))
        << "failed duct " << duct;
    controller.restore_duct(duct);
    controller.apply_traffic_matrix(tm);
  }
}

TEST(Integration, DistributedBeatsCentralizedOnLatencyAndSiting) {
  const auto map = test_region(104, 8);
  const auto dcs = map.dc_positions();
  const auto hubs = topology::place_two_hubs(dcs, 5.0);

  const auto pairs = topology::pair_latencies(dcs, hubs);
  // Hub paths are never shorter; a solid fraction is strictly longer.
  EXPECT_GT(topology::fraction_above(pairs, 1.1), 0.3);

  const auto siting = topology::compare_siting(dcs, hubs);
  EXPECT_GT(siting.area_increase(), 1.2);
}

TEST(Integration, PlanSurvivesSerializationRoundTrip) {
  const auto map = test_region(105);
  const auto reloaded = fibermap::from_string(fibermap::to_string(map));
  const auto a = core::provision(map, planner_params(1));
  const auto b = core::provision(reloaded, planner_params(1));
  EXPECT_EQ(a.edge_capacity_wavelengths, b.edge_capacity_wavelengths);
  EXPECT_EQ(a.base_fibers, b.base_fibers);
}

TEST(Integration, TwoCutToleranceCostsMoreButStaysCheaperThanEps) {
  // Fig. 12(d): Iris with 2-failure guarantees vs EPS with none.
  const auto map = test_region(106, 5);
  const auto plan0 = core::plan_region(map, planner_params(0));
  const auto plan2 = core::plan_region(map, planner_params(2));

  const auto prices = cost::PriceBook::paper_defaults();
  EXPECT_GE(plan2.iris.total_cost(prices), plan0.iris.total_cost(prices));
  EXPECT_GT(plan0.eps.total_cost(prices), plan2.iris.total_cost(prices));
}

class RegionSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RegionSeedSweep, EveryPlannedRegionValidates) {
  const auto map = test_region(GetParam(), 5);
  const auto plan = core::plan_region(map, planner_params(1));
  EXPECT_TRUE(core::validate_plan(map, plan.network, plan.amp_cut).ok());
  const auto prices = cost::PriceBook::paper_defaults();
  EXPECT_GT(plan.eps.total_cost(prices) / plan.iris.total_cost(prices), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegionSeedSweep,
                         ::testing::Values(201, 202, 203, 204, 205));

}  // namespace
}  // namespace iris
