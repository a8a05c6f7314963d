// Warm-startable Dijkstra keyed by failed-edge prefix.
//
// The planner's failure sweeps visit scenarios in depth-first prefix order:
// [] -> [a] -> [a,b] -> [a,c] -> [b] -> ... A scenario that extends an
// already-routed prefix by one cut invalidates only the nodes whose
// shortest-path-tree route crossed the newly failed edge; everything else
// keeps its exact (distance, hops, parent) triple under the canonical
// tie-break of graph::dijkstra. PrefixDijkstra exploits that: it keeps a
// stack of trees, one per prefix level, and on push re-relaxes only the
// invalidated subtree, seeding from the still-valid frontier.
//
// The resulting trees are bit-identical to a from-scratch dijkstra() under
// the same mask -- the canonical tree is a pure function of (graph, mask):
// dist is the shortest distance, hops the minimum hop count among
// shortest paths, and parent the smallest-id predecessor achieving both.
// Removing an edge can only increase distances, so a node whose tree route
// avoids the cut keeps all three values exactly (its optimal-predecessor
// set can only lose higher-id members). Tests assert this identity on
// random graphs and the planner asserts it against the full-sweep oracle.
#pragma once

#include <span>
#include <tuple>
#include <vector>

#include "graph/graph.hpp"
#include "graph/shortest_path.hpp"

namespace iris::graph {

class PrefixDijkstra {
 public:
  PrefixDijkstra() = default;

  /// Rebinds to (graph, source, base mask) and computes the prefix-root
  /// tree. The mask is copied; the graph is referenced and must outlive
  /// this object.
  void reset(const Graph& g, NodeId source, const EdgeMask& base_mask);

  /// Returns the tree for base mask + `failed`, warm-starting from the
  /// deepest stacked prefix that is a prefix of `failed`. Edges in `failed`
  /// must not be failed in the base mask; calls must follow the sweep's
  /// depth-first discipline only in the sense that any common prefix is
  /// reused -- arbitrary jumps are legal, they just re-relax more.
  const ShortestPathTree& route(std::span<const EdgeId> failed);

  [[nodiscard]] const ShortestPathTree& tree() const {
    return levels_[depth_].tree;
  }

  // Work counters since reset(): delta pushes performed and nodes
  // re-relaxed by them (a full recompute counts every reachable node).
  [[nodiscard]] long long pushes() const noexcept { return pushes_; }
  [[nodiscard]] long long nodes_recomputed() const noexcept {
    return nodes_recomputed_;
  }

 private:
  struct Level {
    ShortestPathTree tree;
    std::vector<int> hops;       // canonical hop counts backing the tie-break
    EdgeId failed = kInvalidEdge;  // edge this level cut (root: none)
  };

  void push(EdgeId e);

  const Graph* g_ = nullptr;
  NodeId source_ = kInvalidNode;
  EdgeMask mask_;                 // base + the current prefix
  std::vector<Level> levels_;     // levels_[0] routes the bare base mask
  std::size_t depth_ = 0;         // current prefix length
  std::vector<std::tuple<double, int, NodeId>> heap_;  // scratch
  std::vector<signed char> status_;                    // scratch: node validity
  std::vector<NodeId> invalid_;                        // scratch: reset list
  std::vector<NodeId> walk_;                           // scratch: parent walk
  long long pushes_ = 0;
  long long nodes_recomputed_ = 0;
};

/// One PrefixDijkstra per source (the planner's recorders keep one per DC).
/// Each source keeps its own prefix stack, so a sweep that needs only a few
/// trees per scenario routes only those sources.
class PrefixRouter {
 public:
  PrefixRouter(const Graph& g, std::span<const NodeId> sources,
               const EdgeMask& base_mask);

  /// Routes source `i` against base mask + `failed` and returns its tree.
  const ShortestPathTree& route(std::size_t i, std::span<const EdgeId> failed) {
    return per_source_[i].route(failed);
  }

 private:
  std::vector<PrefixDijkstra> per_source_;
};

}  // namespace iris::graph
