// Dinic max-flow on integer capacities.
//
// Used for hose-model capacity provisioning (paper SS4.1, adapted from
// Juttner et al. [29]): capacities are integral wavelength counts, so the
// computation is exact.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace iris::graph {

using Capacity = std::int64_t;

/// A directed flow network with residual edges, solved by Dinic's algorithm.
class MaxFlow {
 public:
  explicit MaxFlow(int node_count);

  /// Empties the network to `node_count` nodes and no edges, keeping its
  /// buffers, so one object solves many small networks without allocating.
  void reset(int node_count);

  /// Adds a directed edge with the given capacity; returns its index
  /// (usable with `flow_on` after solving).
  int add_edge(int from, int to, Capacity cap);

  /// Replaces the capacity of the edge returned by add_edge. It takes
  /// effect at the next solve(), so one network serves capacity variants
  /// of the same arc set (0 disables an edge) without being rebuilt.
  void set_capacity(int edge_index, Capacity cap);

  /// Computes the maximum flow from `source` to `sink`, stopping early once
  /// it reaches `limit`: for limit >= 0 the result is min(max-flow, limit),
  /// so it is >= `limit` exactly when the true max-flow is. Every call starts
  /// from zero flow, so one network answers any number of (source, sink)
  /// questions; flow_on and the min-cut queries describe the latest call.
  Capacity solve(int source, int sink,
                 Capacity limit = std::numeric_limits<Capacity>::max());

  /// Flow routed on the edge returned by add_edge (valid after solve()).
  [[nodiscard]] Capacity flow_on(int edge_index) const;

  /// After solve(): nodes reachable from `source` in the residual graph --
  /// the source side of a minimum cut (max-flow/min-cut witness).
  [[nodiscard]] std::vector<bool> min_cut_source_side(int source) const;

  /// After solve(): indices of saturated edges crossing the minimum cut.
  [[nodiscard]] std::vector<int> min_cut_edges(int source) const;

  [[nodiscard]] int node_count() const noexcept {
    return static_cast<int>(adj_.size());
  }

 private:
  struct Arc {
    int to;
    Capacity cap;  // residual capacity
    int rev;       // index of reverse arc in adj_[to]
  };

  bool bfs(int s, int t);
  Capacity dfs(int u, int t, Capacity pushed);

  std::vector<std::vector<Arc>> adj_;
  std::vector<std::pair<int, int>> edge_refs_;  // (node, arc index) per edge
  std::vector<Capacity> orig_cap_;
  std::vector<int> level_;
  std::vector<int> iter_;
  std::vector<int> queue_;  // bfs frontier, reused across calls
};

}  // namespace iris::graph
