// A small weighted undirected multigraph used for fiber maps.
//
// Nodes are dense indices (DC and hut sites); edges are fiber ducts with a
// physical length in km. Edges can be masked out to model fiber-cut failure
// scenarios (paper OC4) without rebuilding the graph.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace iris::graph {

using NodeId = std::int32_t;
using EdgeId = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr EdgeId kInvalidEdge = -1;

/// An undirected edge (fiber duct) with a physical length.
struct Edge {
  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;
  double length_km = 0.0;

  [[nodiscard]] NodeId other(NodeId n) const {
    if (n == u) return v;
    if (n == v) return u;
    throw std::invalid_argument("Edge::other: node not on edge");
  }
};

/// Undirected multigraph with stable edge ids and O(deg) neighbor iteration.
class Graph {
 public:
  Graph() = default;
  explicit Graph(NodeId node_count) : adjacency_(node_count) {}

  /// Adds a node; returns its id.
  NodeId add_node() {
    adjacency_.emplace_back();
    return static_cast<NodeId>(adjacency_.size() - 1);
  }

  /// Adds an undirected edge of the given length; returns its id. Throws
  /// std::invalid_argument unless the length is positive and finite.
  EdgeId add_edge(NodeId u, NodeId v, double length_km);

  [[nodiscard]] NodeId node_count() const noexcept {
    return static_cast<NodeId>(adjacency_.size());
  }
  [[nodiscard]] EdgeId edge_count() const noexcept {
    return static_cast<EdgeId>(edges_.size());
  }

  [[nodiscard]] const Edge& edge(EdgeId e) const { return edges_.at(e); }
  [[nodiscard]] std::span<const Edge> edges() const noexcept { return edges_; }

  /// Ids of edges incident to node n.
  [[nodiscard]] std::span<const EdgeId> incident(NodeId n) const {
    return adjacency_.at(n);
  }

 private:
  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> adjacency_;
};

/// A set of failed (masked-out) edges. Empty mask = no failures.
class EdgeMask {
 public:
  EdgeMask() = default;
  explicit EdgeMask(EdgeId edge_count) : failed_(edge_count, false) {}
  EdgeMask(EdgeId edge_count, std::span<const EdgeId> failed_edges)
      : failed_(edge_count, false) {
    for (EdgeId e : failed_edges) failed_.at(e) = true;
  }

  [[nodiscard]] bool failed(EdgeId e) const {
    return !failed_.empty() && failed_.at(e);
  }
  void fail(EdgeId e) { failed_.at(e) = true; }
  void restore(EdgeId e) { failed_.at(e) = false; }
  [[nodiscard]] bool empty() const noexcept { return failed_.empty(); }

 private:
  std::vector<bool> failed_;  // empty means "nothing failed"
};

}  // namespace iris::graph
