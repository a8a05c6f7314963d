// Randomized property tests: invariants that must hold on arbitrary small
// inputs, driven by seeded RNG so failures replay deterministically.
#include <map>
#include <random>

#include <gtest/gtest.h>

#include "clos/ecmp.hpp"
#include "control/controller.hpp"
#include "controller_rig.hpp"
#include "core/plan_region.hpp"
#include "fibermap/generator.hpp"
#include "graph/hose.hpp"
#include "graph/maxflow.hpp"
#include "graph/resilience.hpp"
#include "graph/shortest_path.hpp"
#include "simflow/experiment.hpp"

namespace iris {
namespace {

graph::Graph random_connected_graph(std::mt19937_64& rng, int nodes,
                                    double extra_edge_prob) {
  graph::Graph g(nodes);
  std::uniform_real_distribution<double> len(1.0, 50.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  // Random spanning tree first, then sprinkle extra edges.
  for (graph::NodeId v = 1; v < nodes; ++v) {
    std::uniform_int_distribution<graph::NodeId> parent(0, v - 1);
    g.add_edge(parent(rng), v, len(rng));
  }
  for (graph::NodeId u = 0; u < nodes; ++u) {
    for (graph::NodeId v = u + 1; v < nodes; ++v) {
      if (coin(rng) < extra_edge_prob) g.add_edge(u, v, len(rng));
    }
  }
  return g;
}

class RandomGraphProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGraphProperty, DijkstraSatisfiesTriangleInequality) {
  std::mt19937_64 rng(GetParam());
  const auto g = random_connected_graph(rng, 12, 0.2);
  const auto from0 = graph::dijkstra(g, 0);
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    const auto fromv = graph::dijkstra(g, v);
    for (graph::NodeId w = 0; w < g.node_count(); ++w) {
      // d(0,w) <= d(0,v) + d(v,w)
      EXPECT_LE(from0.dist_km[w], from0.dist_km[v] + fromv.dist_km[w] + 1e-9);
    }
    // Symmetry: d(0,v) == d(v,0).
    EXPECT_NEAR(from0.dist_km[v], fromv.dist_km[0], 1e-9);
  }
}

TEST_P(RandomGraphProperty, PathLengthsMatchEdgeSums) {
  std::mt19937_64 rng(GetParam() ^ 0xabcdef);
  const auto g = random_connected_graph(rng, 10, 0.3);
  for (graph::NodeId v = 1; v < g.node_count(); ++v) {
    const auto path = graph::shortest_path(g, 0, v);
    ASSERT_TRUE(path.has_value());
    double sum = 0.0;
    for (graph::EdgeId e : path->edges) sum += g.edge(e).length_km;
    EXPECT_NEAR(sum, path->length_km, 1e-9);
    EXPECT_EQ(path->nodes.size(), path->edges.size() + 1);
    EXPECT_EQ(path->nodes.front(), 0);
    EXPECT_EQ(path->nodes.back(), v);
  }
}

TEST_P(RandomGraphProperty, EdgeConnectivityBoundedByMinDegree) {
  std::mt19937_64 rng(GetParam() ^ 0x1234);
  const auto g = random_connected_graph(rng, 10, 0.3);
  for (graph::NodeId v = 1; v < g.node_count(); ++v) {
    const int conn = graph::edge_connectivity(g, 0, v);
    const int min_deg =
        static_cast<int>(std::min(g.incident(0).size(), g.incident(v).size()));
    EXPECT_GE(conn, 1);
    EXPECT_LE(conn, min_deg);
  }
}

TEST_P(RandomGraphProperty, KShortestPathsAreSortedAndDistinct) {
  std::mt19937_64 rng(GetParam() ^ 0x777);
  const auto g = random_connected_graph(rng, 9, 0.35);
  const auto paths = graph::k_shortest_paths(g, 0, g.node_count() - 1, 6);
  ASSERT_FALSE(paths.empty());
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_GE(paths[i].length_km, paths[i - 1].length_km - 1e-9);
    EXPECT_NE(paths[i].nodes, paths[i - 1].nodes);
  }
}

TEST_P(RandomGraphProperty, BridgesAreExactlyTheConnectivityOneEdges) {
  std::mt19937_64 rng(GetParam() ^ 0x5150);
  const auto g = random_connected_graph(rng, 9, 0.25);
  const auto bridges = graph::find_bridges(g);
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    // Removing a bridge must disconnect its endpoints; removing any other
    // edge must not.
    graph::EdgeMask mask(g.edge_count());
    mask.fail(e);
    const auto tree = graph::dijkstra(g, g.edge(e).u, mask);
    const bool disconnects = !tree.reachable(g.edge(e).v);
    const bool is_bridge =
        std::find(bridges.begin(), bridges.end(), e) != bridges.end();
    EXPECT_EQ(disconnects, is_bridge) << "edge " << e;
  }
}

TEST_P(RandomGraphProperty, HoseLoadBounds) {
  std::mt19937_64 rng(GetParam() ^ 0xbeef);
  std::uniform_int_distribution<int> cap_dist(1, 20);
  std::uniform_int_distribution<graph::NodeId> node(0, 9);
  std::vector<graph::Capacity> caps(10);
  for (auto& c : caps) c = cap_dist(rng);
  std::vector<graph::OrientedPair> pairs;
  for (int k = 0; k < 8; ++k) {
    const graph::NodeId a = node(rng);
    graph::NodeId b = node(rng);
    if (a == b) b = (b + 1) % 5;  // left ids 0..9, right shifted below
    pairs.push_back({a, static_cast<graph::NodeId>(b + 10)});
  }
  std::vector<graph::Capacity> all_caps(20);
  for (int i = 0; i < 20; ++i) all_caps[i] = caps[i % 10];
  const auto cap_of = [&](graph::NodeId n) { return all_caps[n]; };

  const auto load = graph::hose_edge_load(pairs, cap_of);
  // Upper bound: sum of per-pair minima. Lower bound: largest single pair.
  graph::Capacity upper = 0, lower = 0;
  for (const auto& p : pairs) {
    const auto m = std::min(cap_of(p.left), cap_of(p.right));
    upper += m;
    lower = std::max(lower, m);
  }
  EXPECT_LE(load, upper);
  EXPECT_GE(load, lower);
  // Site load (double cover) can round up but never exceeds the edge bound
  // by more than the rounding unit.
  const auto site = graph::hose_site_load(pairs, cap_of);
  EXPECT_LE(site, upper);
  EXPECT_GE(site, lower);
}

TEST_P(RandomGraphProperty, MaxFlowMatchesBruteForceOnTinyGraphs) {
  // Cross-check Dinic against exhaustive edge-cut enumeration on graphs
  // small enough to brute force (max-flow = min-cut).
  std::mt19937_64 rng(GetParam() ^ 0xc0de);
  std::uniform_int_distribution<int> cap_dist(1, 9);
  constexpr int kNodes = 5;
  struct E {
    int u, v;
    int cap;
  };
  std::vector<E> edges;
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (int u = 0; u < kNodes; ++u) {
    for (int v = 0; v < kNodes; ++v) {
      if (u != v && coin(rng) < 0.5) edges.push_back({u, v, cap_dist(rng)});
    }
  }
  graph::MaxFlow flow(kNodes);
  for (const auto& e : edges) flow.add_edge(e.u, e.v, e.cap);
  const auto max_flow = flow.solve(0, kNodes - 1);

  // Min cut by enumerating all node bipartitions with 0 on the source side.
  long long min_cut = std::numeric_limits<long long>::max();
  for (int mask = 0; mask < (1 << kNodes); ++mask) {
    if (!(mask & 1) || (mask & (1 << (kNodes - 1)))) continue;
    long long cut = 0;
    for (const auto& e : edges) {
      if ((mask & (1 << e.u)) && !(mask & (1 << e.v))) cut += e.cap;
    }
    min_cut = std::min(min_cut, cut);
  }
  EXPECT_EQ(max_flow, min_cut);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

class PlannerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlannerProperty, IrisNeverCostsMoreThanEps) {
  fibermap::RegionParams region;
  region.seed = GetParam();
  region.dc_count = 4 + static_cast<int>(GetParam() % 3);
  region.hut_count = 9;
  region.capacity_fibers = 8;
  const auto map = fibermap::generate_region(region);
  core::PlannerParams params;
  params.failure_tolerance = static_cast<int>(GetParam() % 2);
  const auto plan = core::plan_region(map, params);
  const auto prices = cost::PriceBook::paper_defaults();
  EXPECT_LT(plan.iris.total_cost(prices), plan.eps.total_cost(prices));
  EXPECT_LE(plan.hybrid.bom.total.fiber_pairs, plan.iris.total.fiber_pairs);
  // Iris in-network never uses transceivers.
  EXPECT_EQ(plan.iris.in_network.dci_transceivers, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerProperty,
                         ::testing::Values(301, 302, 303, 304, 305, 306));

class ControllerStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ControllerStress, RandomFeasibleMatricesKeepDevicesConsistent) {
  // Apply a long random sequence of hose-feasible traffic matrices with
  // mixed strategies; after every apply the device audit must pass, fiber
  // accounting must balance, and a final empty matrix must return the
  // controller to pristine state.
  fibermap::RegionParams region;
  region.seed = GetParam();
  region.dc_count = 5;
  region.hut_count = 9;
  region.capacity_fibers = 8;
  region.dc_attach_huts = 3;
  const auto map = fibermap::generate_region(region);
  core::PlannerParams params;
  params.failure_tolerance = 1;
  const auto net = core::provision(map, params);
  const auto plan = core::place_amplifiers_and_cutthroughs(map, net);
  control::ControllerRig rig(map, net, plan);
  control::IrisController& controller = rig.controller;

  std::mt19937_64 rng(GetParam() * 31337);
  const auto& dcs = map.dcs();
  std::uniform_int_distribution<int> pair_count(1, 4);
  std::uniform_int_distribution<std::size_t> pick(0, dcs.size() - 1);

  for (int round = 0; round < 25; ++round) {
    // Build a hose-feasible matrix: per-DC budget tracked as we add pairs.
    std::map<graph::NodeId, long long> remaining;
    for (graph::NodeId dc : dcs) {
      remaining[dc] = map.dc_capacity_wavelengths(dc, 40);
    }
    control::TrafficMatrix tm;
    const int pairs = pair_count(rng);
    for (int p = 0; p < pairs; ++p) {
      const auto a = dcs[pick(rng)];
      auto b = dcs[pick(rng)];
      if (a == b) continue;
      const long long budget =
          std::min(remaining[a], remaining[b]) / 2;
      if (budget <= 0) continue;
      std::uniform_int_distribution<long long> waves(1, budget);
      const long long w = waves(rng);
      tm[core::DcPair(a, b)] += w;
      remaining[a] -= w;
      remaining[b] -= w;
    }
    const auto strategy = (round % 2 == 0)
                              ? control::ReconfigStrategy::kBreakBeforeMake
                              : control::ReconfigStrategy::kMakeBeforeBreak;
    const auto report = controller.apply_traffic_matrix(tm, strategy);
    EXPECT_TRUE(report.verified) << "round " << round;
    EXPECT_TRUE(controller.audit_devices()) << "round " << round;
    for (graph::EdgeId e = 0; e < map.graph().edge_count(); ++e) {
      EXPECT_GE(controller.allocated_fibers(e), 0);
      EXPECT_LE(controller.allocated_fibers(e), controller.provisioned_fibers(e));
    }
  }

  controller.apply_traffic_matrix({});
  EXPECT_TRUE(controller.active_circuits().empty());
  for (graph::EdgeId e = 0; e < map.graph().edge_count(); ++e) {
    EXPECT_EQ(controller.allocated_fibers(e), 0) << "leak on duct " << e;
  }
  for (graph::NodeId n = 0; n < map.graph().node_count(); ++n) {
    EXPECT_EQ(rig.devices.oss(n).connection_count(), 0) << "site " << n;
    EXPECT_EQ(controller.amplifiers_in_use(n), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ControllerStress,
                         ::testing::Values(11, 22, 33, 44));

TEST(ExperimentFramework, SummaryStatisticsAreCorrect) {
  const auto r = simflow::summarize_samples({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(r.mean, 2.0);
  EXPECT_DOUBLE_EQ(r.min, 1.0);
  EXPECT_DOUBLE_EQ(r.max, 3.0);
  EXPECT_DOUBLE_EQ(r.stddev, 1.0);
  EXPECT_EQ(r.replicas, 3);
  EXPECT_THROW((void)simflow::summarize_samples({}), std::invalid_argument);
}

TEST(ExperimentFramework, ReplicatedSlowdownIsTight) {
  simflow::SimParams params;
  params.duration_s = 3.0;
  params.utilization = 0.4;
  params.change_interval_s = 2.0;
  params.traffic.pair_count = 10;
  params.traffic.total_gbps = 6.0;
  params.seed = 31;
  const auto workload = simflow::FlowSizeDistribution::facebook_web();
  const auto r = simflow::replicated_slowdown(workload, params, 3);
  EXPECT_EQ(r.replicas, 3);
  EXPECT_GE(r.min, 1.0 - 1e-9);
  EXPECT_LT(r.mean, 1.25);
  EXPECT_LE(r.min, r.mean);
  EXPECT_LE(r.mean, r.max);
}

}  // namespace
}  // namespace iris
