#include "graph/graph.hpp"

#include <cmath>

namespace iris::graph {

EdgeId Graph::add_edge(NodeId u, NodeId v, double length_km) {
  if (u < 0 || v < 0 || u >= node_count() || v >= node_count()) {
    throw std::out_of_range("Graph::add_edge: node id out of range");
  }
  if (u == v) {
    throw std::invalid_argument("Graph::add_edge: self-loops not allowed");
  }
  // Written so NaN fails too: every comparison with NaN is false.
  if (!(length_km > 0.0) || !std::isfinite(length_km)) {
    throw std::invalid_argument(
        "Graph::add_edge: length must be positive and finite");
  }
  const EdgeId id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{u, v, length_km});
  adjacency_[u].push_back(id);
  adjacency_[v].push_back(id);
  return id;
}

}  // namespace iris::graph
