#include <algorithm>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/failures.hpp"
#include "graph/graph.hpp"
#include "graph/hose.hpp"
#include "graph/resilience.hpp"
#include "graph/maxflow.hpp"
#include "graph/shortest_path.hpp"

namespace iris::graph {
namespace {

Graph line_graph(int nodes, double km = 1.0) {
  Graph g(nodes);
  for (NodeId i = 0; i + 1 < nodes; ++i) g.add_edge(i, i + 1, km);
  return g;
}

TEST(Graph, AddNodesAndEdges) {
  Graph g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const EdgeId e = g.add_edge(a, b, 5.0);
  EXPECT_EQ(g.node_count(), 2);
  EXPECT_EQ(g.edge_count(), 1);
  EXPECT_DOUBLE_EQ(g.edge(e).length_km, 5.0);
  EXPECT_EQ(g.edge(e).other(a), b);
  EXPECT_EQ(g.edge(e).other(b), a);
  EXPECT_THROW((void)g.edge(e).other(99), std::invalid_argument);
}

TEST(Graph, RejectsBadEdges) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 0, 1.0), std::invalid_argument);  // self loop
  EXPECT_THROW(g.add_edge(0, 5, 1.0), std::out_of_range);
  EXPECT_THROW(g.add_edge(0, 1, 0.0), std::invalid_argument);  // zero length
  EXPECT_THROW(g.add_edge(0, 1, -3.0), std::invalid_argument);
}

TEST(Graph, RejectsNonFiniteLengths) {
  Graph g(2);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(g.add_edge(0, 1, bad), std::invalid_argument) << bad;
  }
  EXPECT_EQ(g.edge_count(), 0);
  EXPECT_EQ(g.add_edge(0, 1, std::numeric_limits<double>::max()), 0);
}

TEST(Graph, SupportsParallelEdges) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 1, 2.0);
  EXPECT_EQ(g.edge_count(), 2);
  EXPECT_EQ(g.incident(0).size(), 2u);
}

TEST(EdgeMask, FailAndRestore) {
  EdgeMask mask(3);
  EXPECT_FALSE(mask.failed(1));
  mask.fail(1);
  EXPECT_TRUE(mask.failed(1));
  mask.restore(1);
  EXPECT_FALSE(mask.failed(1));
  EXPECT_FALSE(EdgeMask().failed(0));  // empty mask fails nothing
}

TEST(Dijkstra, FindsShortestPathOnLine) {
  const Graph g = line_graph(5, 2.0);
  const auto tree = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(tree.dist_km[4], 8.0);
  const auto path = extract_path(tree, 4);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->nodes, (std::vector<NodeId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(path->hop_count(), 4);
  EXPECT_DOUBLE_EQ(path->length_km, 8.0);
}

TEST(Dijkstra, PrefersShorterOfTwoRoutes) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(0, 2, 5.0);
  g.add_edge(2, 3, 5.0);
  const auto path = shortest_path(g, 0, 3);
  ASSERT_TRUE(path.has_value());
  EXPECT_DOUBLE_EQ(path->length_km, 2.0);
  EXPECT_EQ(path->nodes, (std::vector<NodeId>{0, 1, 3}));
}

TEST(Dijkstra, RespectsFailureMask) {
  Graph g(4);
  const EdgeId short_a = g.add_edge(0, 1, 1.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(0, 2, 5.0);
  g.add_edge(2, 3, 5.0);
  EdgeMask mask(g.edge_count());
  mask.fail(short_a);
  const auto path = shortest_path(g, 0, 3, mask);
  ASSERT_TRUE(path.has_value());
  EXPECT_DOUBLE_EQ(path->length_km, 10.0);
}

TEST(Dijkstra, ReportsUnreachable) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  const auto tree = dijkstra(g, 0);
  EXPECT_FALSE(tree.reachable(2));
  EXPECT_EQ(extract_path(tree, 2), std::nullopt);
}

TEST(Dijkstra, SourcePathIsEmpty) {
  const Graph g = line_graph(3);
  const auto path = shortest_path(g, 1, 1);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->hop_count(), 0);
  EXPECT_EQ(path->nodes, (std::vector<NodeId>{1}));
}

TEST(Path, UsesEdgeAndVisits) {
  const Graph g = line_graph(4);
  const auto path = shortest_path(g, 0, 3);
  ASSERT_TRUE(path.has_value());
  EXPECT_TRUE(path->uses_edge(1));
  EXPECT_TRUE(path->visits(2));
  EXPECT_FALSE(path->visits(99));
}

TEST(Dijkstra, MultipleShortestPathDetection) {
  Graph g(4);  // diamond with equal sides
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  EXPECT_TRUE(has_multiple_shortest_paths(g, 0, 3));

  Graph h(4);  // diamond with unequal sides
  h.add_edge(0, 1, 1.0);
  h.add_edge(1, 3, 1.0);
  h.add_edge(0, 2, 1.5);
  h.add_edge(2, 3, 1.5);
  EXPECT_FALSE(has_multiple_shortest_paths(h, 0, 3));
}

TEST(MaxFlow, SimpleSeriesParallel) {
  MaxFlow f(4);
  f.add_edge(0, 1, 10);
  f.add_edge(0, 2, 5);
  f.add_edge(1, 3, 7);
  f.add_edge(2, 3, 5);
  EXPECT_EQ(f.solve(0, 3), 12);
}

TEST(MaxFlow, BottleneckLimits) {
  MaxFlow f(3);
  const int e0 = f.add_edge(0, 1, 100);
  const int e1 = f.add_edge(1, 2, 3);
  EXPECT_EQ(f.solve(0, 2), 3);
  EXPECT_EQ(f.flow_on(e0), 3);
  EXPECT_EQ(f.flow_on(e1), 3);
}

TEST(MaxFlow, DisconnectedIsZero) {
  MaxFlow f(4);
  f.add_edge(0, 1, 5);
  f.add_edge(2, 3, 5);
  EXPECT_EQ(f.solve(0, 3), 0);
}

TEST(MaxFlow, RejectsBadInputs) {
  EXPECT_THROW(MaxFlow(0), std::invalid_argument);
  MaxFlow f(2);
  EXPECT_THROW(f.add_edge(0, 9, 1), std::out_of_range);
  EXPECT_THROW(f.add_edge(0, 1, -1), std::invalid_argument);
  EXPECT_THROW(f.solve(1, 1), std::invalid_argument);
}

// solve(s, t, limit) returns min(max-flow, limit), so it reaches the limit
// exactly when the true max-flow does; and every call starts from zero
// flow, so one network answers many (source, sink) questions.
TEST(MaxFlow, EarlyStopReachesLimitIffTrueFlowDoes) {
  std::mt19937_64 rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 4 + trial % 5;
    std::uniform_int_distribution<int> node(0, n - 1);
    std::uniform_int_distribution<Capacity> cap(1, 9);
    std::vector<std::tuple<int, int, Capacity>> arcs;
    for (int a = 0; a < 2 * n; ++a) {
      const int u = node(rng);
      const int v = node(rng);
      if (u != v) arcs.emplace_back(u, v, cap(rng));
    }
    const auto fresh = [&] {
      MaxFlow f(n);
      for (const auto& [u, v, c] : arcs) {
        f.add_edge(u, v, c);
        f.add_edge(v, u, c);
      }
      return f;
    };
    MaxFlow reused = fresh();
    for (int s = 0; s < n; ++s) {
      for (int t = 0; t < n; ++t) {
        if (s == t) continue;
        const Capacity truth = fresh().solve(s, t);
        EXPECT_EQ(reused.solve(s, t), truth);
        for (Capacity limit = 0; limit <= truth + 2; ++limit) {
          const Capacity got = reused.solve(s, t, limit);
          EXPECT_EQ(got, std::min(truth, limit));
          EXPECT_EQ(got >= limit, truth >= limit);
        }
      }
    }
  }
}

// set_capacity must leave no trace of earlier capacities or solves: after
// each round of re-capacitating (zeros included), the network answers
// exactly as one built fresh with the same arcs and the new capacities --
// flow values with and without a limit, per-edge flows and the min cut.
TEST(MaxFlow, SetCapacityMatchesFreshNetwork) {
  std::mt19937_64 rng(23);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 3 + trial % 6;
    std::uniform_int_distribution<int> node(0, n - 1);
    std::uniform_int_distribution<Capacity> cap(0, 9);
    std::vector<std::pair<int, int>> arcs;
    for (int a = 0; a < 2 * n; ++a) {
      const int u = node(rng);
      const int v = node(rng);
      if (u != v) arcs.emplace_back(u, v);
    }
    const auto build = [&](const std::vector<Capacity>& caps) {
      MaxFlow f(n);
      for (std::size_t i = 0; i < arcs.size(); ++i) {
        f.add_edge(arcs[i].first, arcs[i].second, caps[i]);
      }
      return f;
    };
    std::vector<Capacity> caps(arcs.size());
    for (Capacity& c : caps) c = cap(rng);
    MaxFlow reused = build(caps);
    (void)reused.solve(0, n - 1);  // leave flow behind
    for (int round = 0; round < 4; ++round) {
      for (std::size_t i = 0; i < arcs.size(); ++i) {
        caps[i] = cap(rng);
        reused.set_capacity(static_cast<int>(i), caps[i]);
      }
      MaxFlow fresh = build(caps);
      for (int s = 0; s < n; ++s) {
        for (int t = 0; t < n; ++t) {
          if (s == t) continue;
          const Capacity truth = fresh.solve(s, t);
          ASSERT_EQ(reused.solve(s, t), truth)
              << "trial " << trial << " round " << round;
          for (int e = 0; e < static_cast<int>(arcs.size()); ++e) {
            EXPECT_EQ(reused.flow_on(e), fresh.flow_on(e));
          }
          EXPECT_EQ(reused.min_cut_edges(s), fresh.min_cut_edges(s));
          for (Capacity limit = 0; limit <= truth + 1; ++limit) {
            EXPECT_EQ(reused.solve(s, t, limit), fresh.solve(s, t, limit));
          }
        }
      }
    }
  }
  MaxFlow f(2);
  const int e = f.add_edge(0, 1, 3);
  EXPECT_THROW(f.set_capacity(e, -1), std::invalid_argument);
  EXPECT_THROW(f.set_capacity(e + 1, 1), std::out_of_range);
}

/// Every scenario `set` visits, as failed-duct lists in visit order.
std::vector<std::vector<EdgeId>> visited_scenarios(const ScenarioSet& set) {
  std::vector<std::vector<EdgeId>> out;
  set.for_each([&](const EdgeMask&, std::span<const EdgeId> failed, int) {
    out.emplace_back(failed.begin(), failed.end());
  });
  return out;
}

std::vector<EdgeId> first_edges(EdgeId n) {
  std::vector<EdgeId> edges(static_cast<std::size_t>(n));
  for (EdgeId e = 0; e < n; ++e) edges[static_cast<std::size_t>(e)] = e;
  return edges;
}

TEST(Failures, EnumerationCountsMatchBinomials) {
  // C(5,0) + C(5,1) + C(5,2) = 1 + 5 + 10 = 16.
  const ScenarioSet set(5, first_edges(5), 2);
  const auto scenarios = visited_scenarios(set);
  EXPECT_EQ(scenarios.size(), 16u);
  EXPECT_EQ(set.scenario_count(), 16);
  EXPECT_EQ(failure_scenario_count(5, 2), 16);
  EXPECT_TRUE(scenarios.front().empty());  // no-failure scenario first
  // All subsets distinct.
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    for (std::size_t j = i + 1; j < scenarios.size(); ++j) {
      EXPECT_NE(scenarios[i], scenarios[j]);
    }
  }
}

TEST(Failures, EmitsEachSubsetOnce) {
  // Exactly C(6, k) subsets of each size k <= 3, each once, each ascending,
  // and each visited at depth k.
  const ScenarioSet set(6, first_edges(6), 3);
  std::set<std::vector<EdgeId>> seen;
  std::map<std::size_t, int> per_size;
  set.for_each([&](const EdgeMask&, std::span<const EdgeId> failed, int depth) {
    const std::vector<EdgeId> s(failed.begin(), failed.end());
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
    EXPECT_EQ(static_cast<std::size_t>(depth), s.size());
    EXPECT_TRUE(seen.insert(s).second);
    ++per_size[s.size()];
  });
  ASSERT_EQ(seen.size(), 1u + 6u + 15u + 20u);
  EXPECT_EQ(per_size[0], 1);
  EXPECT_EQ(per_size[1], 6);
  EXPECT_EQ(per_size[2], 15);
  EXPECT_EQ(per_size[3], 20);
}

TEST(Failures, ToleranceZeroIsJustBaseline) {
  const auto scenarios = visited_scenarios(ScenarioSet(10, first_edges(10), 0));
  ASSERT_EQ(scenarios.size(), 1u);
  EXPECT_TRUE(scenarios[0].empty());
}

TEST(Failures, ForEachVisitsSameCount) {
  const Graph g = line_graph(6);  // 5 edges
  EXPECT_EQ(static_cast<long long>(
                visited_scenarios(ScenarioSet::all_edges(g, 2)).size()),
            failure_scenario_count(g.edge_count(), 2));
}

TEST(Failures, MaskMatchesReportedSubset) {
  const Graph g = line_graph(4);  // 3 edges
  ScenarioSet::all_edges(g, 2).for_each(
      [&](const EdgeMask& mask, std::span<const EdgeId> failed, int) {
        for (EdgeId e = 0; e < g.edge_count(); ++e) {
          const bool in_subset =
              std::find(failed.begin(), failed.end(), e) != failed.end();
          EXPECT_EQ(mask.failed(e), in_subset);
        }
      });
}

// --- Hose-model load ------------------------------------------------------

Capacity uniform_cap(NodeId) { return 10; }

TEST(Hose, SinglePairIsMinOfCapacities) {
  const std::vector<OrientedPair> pairs{{0, 1}};
  const auto cap = [](NodeId n) -> Capacity { return n == 0 ? 4 : 9; };
  EXPECT_EQ(hose_edge_load(pairs, cap), 4);
}

TEST(Hose, SharedSourceIsNotDoubleCounted) {
  // A talks to B and C over the same edge; A's capacity must be counted
  // once (the naive sum would say 20).
  const std::vector<OrientedPair> pairs{{0, 1}, {0, 2}};
  EXPECT_EQ(hose_edge_load(pairs, uniform_cap), 10);
}

TEST(Hose, IndependentPairsAdd) {
  const std::vector<OrientedPair> pairs{{0, 1}, {2, 3}};
  EXPECT_EQ(hose_edge_load(pairs, uniform_cap), 20);
}

TEST(Hose, RightSideSharingAlsoCounted) {
  // A->C and B->C: C's receive capacity caps the total at 10.
  const std::vector<OrientedPair> pairs{{0, 2}, {1, 2}};
  EXPECT_EQ(hose_edge_load(pairs, uniform_cap), 10);
}

TEST(Hose, EmptyPairSetIsZero) {
  EXPECT_EQ(hose_edge_load({}, uniform_cap), 0);
}

TEST(Hose, MixedCapacities) {
  // Left: A(3), B(5); right: C(4), D(100). Pairs A-C, B-C, B-D.
  // Best: A-C=3 limited by C to... C takes min 4 total; B can send 5.
  const auto cap = [](NodeId n) -> Capacity {
    switch (n) {
      case 0: return 3;
      case 1: return 5;
      case 2: return 4;
      default: return 100;
    }
  };
  const std::vector<OrientedPair> pairs{{0, 2}, {1, 2}, {1, 3}};
  // A+B can emit 8, C absorbs at most 4, D absorbs B's remainder: total
  // bounded by min(8, 4 + 5) and achievable: A->C 3, B->C 1, B->D 4 = 8.
  EXPECT_EQ(hose_edge_load(pairs, cap), 8);
}

TEST(Hose, SiteLoadMatchesBipartiteCaseAndHandlesTriangles) {
  // Bipartite case agrees with hose_edge_load.
  const std::vector<OrientedPair> bipartite{{0, 1}, {0, 2}};
  EXPECT_EQ(hose_site_load(bipartite, uniform_cap), 10);

  // Triangle A-B, B-C, C-A with caps 10: LP optimum is 15 (each pair 5);
  // the half-integral solution must round to 15.
  const std::vector<OrientedPair> triangle{{0, 1}, {1, 2}, {2, 0}};
  EXPECT_EQ(hose_site_load(triangle, uniform_cap), 15);
}

TEST(Hose, OrientPairFollowsTraversalDirection) {
  Graph g(3);
  const EdgeId e01 = g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  const auto path = shortest_path(g, 0, 2);
  ASSERT_TRUE(path.has_value());
  const auto oriented = orient_pair(g, e01, 0, 2, *path);
  EXPECT_EQ(oriented.left, 0);
  EXPECT_EQ(oriented.right, 2);

  // Walked the other way, orientation flips.
  const auto back = shortest_path(g, 2, 0);
  ASSERT_TRUE(back.has_value());
  const auto flipped = orient_pair(g, e01, 2, 0, *back);
  EXPECT_EQ(flipped.left, 0);
  EXPECT_EQ(flipped.right, 2);
}

TEST(Hose, OrientPairRejectsUnusedEdge) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  const EdgeId unused = g.add_edge(1, 2, 1.0);
  const auto path = shortest_path(g, 0, 1);
  ASSERT_TRUE(path.has_value());
  EXPECT_THROW((void)orient_pair(g, unused, 0, 1, *path), std::invalid_argument);
}

// --- Resilience diagnostics -------------------------------------------------

TEST(Resilience, EdgeConnectivityOnRingAndLine) {
  Graph ring(4);
  for (NodeId i = 0; i < 4; ++i) ring.add_edge(i, (i + 1) % 4, 1.0);
  EXPECT_EQ(edge_connectivity(ring, 0, 2), 2);

  const Graph line = line_graph(4);
  EXPECT_EQ(edge_connectivity(line, 0, 3), 1);
  EXPECT_EQ(edge_connectivity(line, 1, 1), 0);
}

TEST(Resilience, EdgeConnectivityRespectsMask) {
  Graph ring(4);
  std::vector<EdgeId> edges;
  for (NodeId i = 0; i < 4; ++i) edges.push_back(ring.add_edge(i, (i + 1) % 4, 1.0));
  EdgeMask mask(ring.edge_count());
  mask.fail(edges[0]);
  EXPECT_EQ(edge_connectivity(ring, 0, 2, mask), 1);
}

TEST(Resilience, ParallelEdgesCountSeparately) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 1, 2.0);
  g.add_edge(0, 1, 3.0);
  EXPECT_EQ(edge_connectivity(g, 0, 1), 3);
}

TEST(Resilience, BridgesOnLineAndRing) {
  const Graph line = line_graph(4);
  EXPECT_EQ(find_bridges(line).size(), 3u);  // every edge is a bridge

  Graph ring(4);
  for (NodeId i = 0; i < 4; ++i) ring.add_edge(i, (i + 1) % 4, 1.0);
  EXPECT_TRUE(find_bridges(ring).empty());
}

TEST(Resilience, BridgeBetweenTwoRings) {
  // Two triangles joined by one edge: only the joiner is a bridge.
  Graph g(6);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 0, 1.0);
  g.add_edge(3, 4, 1.0);
  g.add_edge(4, 5, 1.0);
  g.add_edge(5, 3, 1.0);
  const EdgeId joiner = g.add_edge(2, 3, 1.0);
  const auto bridges = find_bridges(g);
  ASSERT_EQ(bridges.size(), 1u);
  EXPECT_EQ(bridges[0], joiner);
}

TEST(Resilience, ParallelEdgeIsNotABridge) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 1, 2.0);
  EXPECT_TRUE(find_bridges(g).empty());
}

TEST(Resilience, AuditAndTolerance) {
  Graph ring(5);
  for (NodeId i = 0; i < 5; ++i) ring.add_edge(i, (i + 1) % 5, 1.0);
  const std::vector<NodeId> terminals{0, 2, 3};
  const auto audit = audit_resilience(ring, terminals);
  EXPECT_EQ(audit.size(), 3u);
  for (const auto& pr : audit) {
    EXPECT_EQ(pr.edge_disjoint_paths, 2);
    EXPECT_TRUE(pr.survives(1));
    EXPECT_FALSE(pr.survives(2));
  }
  EXPECT_EQ(max_supported_tolerance(audit), 1);
}

TEST(Resilience, EmptyAuditHasNoSupportedTolerance) {
  // No DC pairs audited: no tolerance is meaningful, not even 0. The old
  // behavior returned 0 ("survives zero cuts"), which read as a guarantee.
  EXPECT_EQ(max_supported_tolerance({}), -1);
}

TEST(Resilience, DisconnectedPairHasNoSupportedTolerance) {
  // 0-1 connected, 2 isolated: the 0-2 and 1-2 pairs have zero disjoint
  // paths, so even the no-failure scenario cannot be honored.
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  const std::vector<NodeId> terminals{0, 1, 2};
  const auto audit = audit_resilience(g, terminals);
  ASSERT_EQ(audit.size(), 3u);
  EXPECT_EQ(max_supported_tolerance(audit), -1);
}

TEST(Resilience, CriticalDuctsMatchConnectivityAndDisconnect) {
  Graph ring(4);
  std::vector<EdgeId> edges;
  for (NodeId i = 0; i < 4; ++i) {
    edges.push_back(ring.add_edge(i, (i + 1) % 4, 1.0));
  }
  const auto cut = critical_ducts(ring, 0, 2);
  EXPECT_EQ(static_cast<int>(cut.size()), edge_connectivity(ring, 0, 2));
  // Removing the witness really disconnects the pair.
  EdgeMask mask(ring.edge_count());
  for (EdgeId e : cut) mask.fail(e);
  EXPECT_FALSE(shortest_path(ring, 0, 2, mask).has_value());
}

TEST(Resilience, CriticalDuctsOnLineIsOneEdge) {
  const Graph line = line_graph(5);
  const auto cut = critical_ducts(line, 0, 4);
  ASSERT_EQ(cut.size(), 1u);
  EdgeMask mask(line.edge_count());
  mask.fail(cut[0]);
  EXPECT_FALSE(shortest_path(line, 0, 4, mask).has_value());
}

TEST(Resilience, CriticalDuctsRespectMask) {
  Graph ring(4);
  std::vector<EdgeId> edges;
  for (NodeId i = 0; i < 4; ++i) {
    edges.push_back(ring.add_edge(i, (i + 1) % 4, 1.0));
  }
  EdgeMask mask(ring.edge_count());
  mask.fail(edges[0]);  // one side already gone
  const auto cut = critical_ducts(ring, 0, 2, mask);
  ASSERT_EQ(cut.size(), 1u);
  EXPECT_NE(cut[0], edges[0]);
  EXPECT_TRUE(critical_ducts(ring, 1, 1).empty());
}

TEST(KShortestPaths, EnumeratesInLengthOrder) {
  Graph g(4);  // three parallel routes 0->3 of lengths 2, 3, 10
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(0, 2, 1.5);
  g.add_edge(2, 3, 1.5);
  g.add_edge(0, 3, 10.0);
  const auto paths = k_shortest_paths(g, 0, 3, 5);
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_DOUBLE_EQ(paths[0].length_km, 2.0);
  EXPECT_DOUBLE_EQ(paths[1].length_km, 3.0);
  EXPECT_DOUBLE_EQ(paths[2].length_km, 10.0);
  // Loopless: no repeated nodes within a path.
  for (const auto& p : paths) {
    std::set<NodeId> seen(p.nodes.begin(), p.nodes.end());
    EXPECT_EQ(seen.size(), p.nodes.size());
  }
}

TEST(KShortestPaths, HandlesFewerPathsThanRequested) {
  const Graph line = line_graph(3);
  const auto paths = k_shortest_paths(line, 0, 2, 4);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].hop_count(), 2);
  EXPECT_TRUE(k_shortest_paths(line, 0, 2, 0).empty());
}

TEST(KShortestPaths, EqualLengthRoutesOrderedByNodeSequence) {
  // Two disjoint 0->3 routes of identical length: via node 1 and via node 2.
  // Length ties must break on the lexicographic node sequence so enumeration
  // order is deterministic regardless of edge insertion order.
  Graph g(4);
  g.add_edge(0, 2, 1.0);  // the via-2 route is inserted first...
  g.add_edge(2, 3, 1.0);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 3, 1.0);
  const auto paths = k_shortest_paths(g, 0, 3, 4);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_DOUBLE_EQ(paths[0].length_km, paths[1].length_km);
  // ...but the via-1 route sorts first: {0,1,3} < {0,2,3}.
  EXPECT_EQ(paths[0].nodes, (std::vector<NodeId>{0, 1, 3}));
  EXPECT_EQ(paths[1].nodes, (std::vector<NodeId>{0, 2, 3}));
}

TEST(KShortestPaths, DisconnectedReturnsEmpty) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  EXPECT_TRUE(k_shortest_paths(g, 0, 2, 3).empty());
}

class HoseScalingProperty : public ::testing::TestWithParam<int> {};

TEST_P(HoseScalingProperty, LoadScalesLinearlyWithUniformCapacity) {
  const int scale = GetParam();
  const std::vector<OrientedPair> pairs{{0, 1}, {0, 2}, {3, 1}};
  const auto base = hose_edge_load(pairs, [](NodeId) -> Capacity { return 7; });
  const auto scaled = hose_edge_load(
      pairs, [&](NodeId) -> Capacity { return 7 * scale; });
  EXPECT_EQ(scaled, base * scale);
}

INSTANTIATE_TEST_SUITE_P(Scales, HoseScalingProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 40, 64));

}  // namespace
}  // namespace iris::graph
