#include "graph/incremental.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <stdexcept>

namespace iris::graph {

namespace {

constexpr signed char kUnknown = -1;
constexpr signed char kValid = 0;
constexpr signed char kInvalid = 1;

}  // namespace

void PrefixDijkstra::reset(const Graph& g, NodeId source,
                           const EdgeMask& base_mask) {
  g_ = &g;
  source_ = source;
  mask_ = base_mask.empty() ? EdgeMask(g.edge_count()) : base_mask;
  levels_.clear();
  depth_ = 0;
  pushes_ = 0;
  nodes_recomputed_ = 0;

  Level root;
  DijkstraWorkspace ws;
  dijkstra(g, source, mask_, ws);
  root.tree = std::move(ws.tree);
  root.hops = std::move(ws.hops);
  levels_.push_back(std::move(root));
}

const ShortestPathTree& PrefixDijkstra::route(std::span<const EdgeId> failed) {
  if (g_ == nullptr) {
    throw std::logic_error("PrefixDijkstra::route before reset");
  }
  // Keep the deepest stacked prefix that prefixes `failed`, then extend.
  std::size_t common = 0;
  while (common < depth_ && common < failed.size() &&
         levels_[common + 1].failed == failed[common]) {
    ++common;
  }
  while (depth_ > common) {
    mask_.restore(levels_[depth_].failed);
    --depth_;
  }
  for (std::size_t i = common; i < failed.size(); ++i) push(failed[i]);
  return levels_[depth_].tree;
}

void PrefixDijkstra::push(EdgeId e) {
  const Graph& g = *g_;
  if (mask_.failed(e)) {
    throw std::invalid_argument(
        "PrefixDijkstra::push: edge already failed in the current mask");
  }
  ++pushes_;
  // Reuse a stale deeper level's storage when present, else grow the stack.
  if (depth_ + 1 >= levels_.size()) levels_.emplace_back();
  Level& parent = levels_[depth_];
  Level& level = levels_[depth_ + 1];
  level.tree = parent.tree;
  level.hops = parent.hops;
  level.failed = e;
  mask_.fail(e);
  ++depth_;

  ShortestPathTree& tree = level.tree;
  std::vector<int>& hops = level.hops;
  const NodeId n = g.node_count();

  // A node is invalidated iff its tree route to the source crosses e; the
  // source and already-unreachable nodes are trivially valid (removing an
  // edge cannot reconnect anything). Memoized walk up the parent chain.
  status_.assign(static_cast<std::size_t>(n), kUnknown);
  invalid_.clear();
  status_[static_cast<std::size_t>(source_)] = kValid;
  for (NodeId x = 0; x < n; ++x) {
    if (status_[static_cast<std::size_t>(x)] != kUnknown) continue;
    walk_.clear();
    NodeId cur = x;
    signed char verdict = kValid;
    while (true) {
      if (status_[static_cast<std::size_t>(cur)] != kUnknown) {
        verdict = status_[static_cast<std::size_t>(cur)];
        break;
      }
      if (!tree.reachable(cur)) {
        verdict = kValid;  // stays unreachable; nothing to recompute
        break;
      }
      if (tree.parent_edge[static_cast<std::size_t>(cur)] == e) {
        walk_.push_back(cur);
        verdict = kInvalid;
        break;
      }
      walk_.push_back(cur);
      cur = tree.parent_node[static_cast<std::size_t>(cur)];
    }
    for (NodeId w : walk_) {
      status_[static_cast<std::size_t>(w)] = verdict;
      if (verdict == kInvalid) invalid_.push_back(w);
    }
  }
  if (invalid_.empty()) return;  // e was not on this tree: nothing changes
  nodes_recomputed_ += static_cast<long long>(invalid_.size());

  for (NodeId x : invalid_) {
    tree.dist_km[static_cast<std::size_t>(x)] = kUnreachable;
    hops[static_cast<std::size_t>(x)] = std::numeric_limits<int>::max();
    tree.parent_edge[static_cast<std::size_t>(x)] = kInvalidEdge;
    tree.parent_node[static_cast<std::size_t>(x)] = kInvalidNode;
  }

  // Same relaxation rule as graph::dijkstra -- (dist, hops, parent id) --
  // so the re-relaxed region converges to the identical canonical tree.
  using Entry = std::tuple<double, int, NodeId>;
  heap_.clear();
  const auto push_entry = [&](Entry entry) {
    heap_.push_back(entry);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  };
  const auto relax = [&](NodeId u, double du, int hu, EdgeId eid) {
    const Edge& edge = g.edge(eid);
    const NodeId v = edge.other(u);
    if (status_[static_cast<std::size_t>(v)] != kInvalid) return;  // stable
    const double nd = du + edge.length_km;
    const int nh = hu + 1;
    auto& dv = tree.dist_km[static_cast<std::size_t>(v)];
    auto& hv = hops[static_cast<std::size_t>(v)];
    if (nd < dv || (nd == dv && (nh < hv ||
                                 (nh == hv &&
                                  u < tree.parent_node[static_cast<std::size_t>(
                                          v)])))) {
      dv = nd;
      hv = nh;
      tree.parent_edge[static_cast<std::size_t>(v)] = eid;
      tree.parent_node[static_cast<std::size_t>(v)] = u;
      push_entry({nd, nh, v});
    }
  };

  // Seed from the valid frontier: every surviving edge from a stable node
  // into the invalidated region.
  for (NodeId x : invalid_) {
    for (EdgeId eid : g.incident(x)) {
      if (mask_.failed(eid)) continue;
      const NodeId u = g.edge(eid).other(x);
      if (status_[static_cast<std::size_t>(u)] == kInvalid) continue;
      const double du = tree.dist_km[static_cast<std::size_t>(u)];
      if (du == kUnreachable) continue;
      relax(u, du, hops[static_cast<std::size_t>(u)], eid);
    }
  }

  while (!heap_.empty()) {
    const auto [d, h, u] = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
    if (d > tree.dist_km[static_cast<std::size_t>(u)] ||
        (d == tree.dist_km[static_cast<std::size_t>(u)] &&
         h > hops[static_cast<std::size_t>(u)])) {
      continue;
    }
    for (EdgeId eid : g.incident(u)) {
      if (mask_.failed(eid)) continue;
      relax(u, d, h, eid);
    }
  }
}

PrefixRouter::PrefixRouter(const Graph& g, std::span<const NodeId> sources,
                           const EdgeMask& base_mask) {
  per_source_.resize(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    per_source_[i].reset(g, sources[i], base_mask);
  }
}

}  // namespace iris::graph
