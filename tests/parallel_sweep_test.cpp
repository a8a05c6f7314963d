// The parallel failure-scenario sweep must be bit-identical to the serial
// one: same scenario set visited exactly once, same provisioning, same
// validation counters -- for any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <set>
#include <vector>

#include "core/plan_region.hpp"
#include "fibermap/generator.hpp"
#include "graph/failures.hpp"

namespace iris {
namespace {

using graph::EdgeId;
using graph::EdgeMask;
using graph::ScenarioSet;

fibermap::FiberMap example_map(std::uint64_t seed) {
  fibermap::RegionParams params;
  params.seed = seed;
  params.dc_count = 6;
  params.hut_count = 8;
  params.dc_attach_huts = 2;
  params.capacity_fibers = 8;
  params.extent_km = 45.0;
  return fibermap::generate_region(params);
}

core::PlannerParams planner_params(int tolerance, int threads) {
  core::PlannerParams params;
  params.failure_tolerance = tolerance;
  params.channels.wavelengths_per_fiber = 40;
  params.threads = threads;
  return params;
}

TEST(ScenarioSet, CountMatchesSerialVisits) {
  const auto map = example_map(11);
  for (int tol = 0; tol <= 2; ++tol) {
    const auto set = core::planner_scenarios(map, planner_params(tol, 1));
    long long visits = 0;
    set.for_each(
        [&](const EdgeMask&, std::span<const EdgeId>, int) { ++visits; });
    EXPECT_EQ(visits, set.scenario_count());
  }
}

TEST(ScenarioSet, ParallelVisitsExactlyTheSerialScenarios) {
  const auto set = ScenarioSet::all_edges(
      [] {
        graph::Graph g(6);
        for (graph::NodeId n = 0; n + 1 < 6; ++n) g.add_edge(n, n + 1, 1.0);
        g.add_edge(0, 5, 2.0);
        return g;
      }(),
      2);

  std::set<std::vector<EdgeId>> serial;
  set.for_each([&](const EdgeMask&, std::span<const EdgeId> failed, int) {
    EXPECT_TRUE(serial.emplace(failed.begin(), failed.end()).second);
  });

  for (const int threads : {1, 2, 8}) {
    std::set<std::vector<EdgeId>> parallel;
    std::mutex mu;
    set.for_each_parallel(threads, [&](int) -> graph::ScenarioVisitor {
      return [&](const EdgeMask& mask, std::span<const EdgeId> failed, int) {
        for (EdgeId e : failed) EXPECT_TRUE(mask.failed(e));
        const std::lock_guard<std::mutex> lock(mu);
        EXPECT_TRUE(parallel.emplace(failed.begin(), failed.end()).second);
      };
    });
    EXPECT_EQ(parallel, serial) << "threads=" << threads;
  }
}

TEST(ScenarioSet, ParallelRethrowsVisitorExceptions) {
  graph::Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  const auto set = ScenarioSet::all_edges(g, 1);
  EXPECT_THROW(
      set.for_each_parallel(2,
                            [&](int) -> graph::ScenarioVisitor {
                              return [](const EdgeMask&,
                                        std::span<const EdgeId>, int) {
                                throw std::runtime_error("boom");
                              };
                            }),
      std::runtime_error);
}

TEST(ParallelSweep, ProvisionIsBitIdenticalAcrossThreadCounts) {
  for (const std::uint64_t seed : {11u, 22u}) {
    const auto map = example_map(seed);
    for (int tol = 0; tol <= 2; ++tol) {
      const auto serial = core::provision(map, planner_params(tol, 1));
      for (const int threads : {2, 8}) {
        const auto parallel = core::provision(map, planner_params(tol, threads));
        EXPECT_EQ(parallel.edge_capacity_wavelengths,
                  serial.edge_capacity_wavelengths)
            << "seed=" << seed << " tol=" << tol << " threads=" << threads;
        EXPECT_EQ(parallel.base_fibers, serial.base_fibers);
        EXPECT_EQ(parallel.scenarios_evaluated, serial.scenarios_evaluated);
        EXPECT_EQ(parallel.pair_paths_skipped_unreachable,
                  serial.pair_paths_skipped_unreachable);
        EXPECT_EQ(parallel.pair_paths_beyond_sla,
                  serial.pair_paths_beyond_sla);
        EXPECT_EQ(parallel.baseline_paths.size(), serial.baseline_paths.size());
        for (const auto& [pair, path] : serial.baseline_paths) {
          const auto it = parallel.baseline_paths.find(pair);
          ASSERT_NE(it, parallel.baseline_paths.end());
          EXPECT_EQ(it->second.nodes, path.nodes);
          EXPECT_EQ(it->second.edges, path.edges);
        }
      }
    }
  }
}

TEST(ParallelSweep, ValidationReportIsBitIdenticalAcrossThreadCounts) {
  const auto map = example_map(11);
  auto params = planner_params(2, 1);
  auto net = core::provision(map, params);
  const auto amp_cut = core::place_amplifiers_and_cutthroughs(map, net);

  const auto serial = core::validate_plan(map, net, amp_cut);
  for (const int threads : {2, 8}) {
    net.params.threads = threads;
    const auto parallel = core::validate_plan(map, net, amp_cut);
    EXPECT_EQ(parallel.paths_checked, serial.paths_checked)
        << "threads=" << threads;
    EXPECT_EQ(parallel.infeasible_paths, serial.infeasible_paths);
    EXPECT_EQ(parallel.pairs_disconnected, serial.pairs_disconnected);
    EXPECT_EQ(parallel.paths_beyond_sla, serial.paths_beyond_sla);
  }
}

}  // namespace
}  // namespace iris
