#include "graph/maxflow.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace iris::graph {

MaxFlow::MaxFlow(int node_count) { reset(node_count); }

void MaxFlow::reset(int node_count) {
  if (node_count <= 0) {
    throw std::invalid_argument("MaxFlow: node_count must be positive");
  }
  for (std::vector<Arc>& arcs : adj_) arcs.clear();
  adj_.resize(static_cast<std::size_t>(node_count));
  edge_refs_.clear();
  orig_cap_.clear();
}

int MaxFlow::add_edge(int from, int to, Capacity cap) {
  if (from < 0 || to < 0 || from >= node_count() || to >= node_count()) {
    throw std::out_of_range("MaxFlow::add_edge: node out of range");
  }
  if (cap < 0) throw std::invalid_argument("MaxFlow::add_edge: negative cap");
  adj_[from].push_back(Arc{to, cap, static_cast<int>(adj_[to].size())});
  adj_[to].push_back(Arc{from, 0, static_cast<int>(adj_[from].size()) - 1});
  edge_refs_.emplace_back(from, static_cast<int>(adj_[from].size()) - 1);
  orig_cap_.push_back(cap);
  return static_cast<int>(edge_refs_.size()) - 1;
}

void MaxFlow::set_capacity(int edge_index, Capacity cap) {
  if (cap < 0) {
    throw std::invalid_argument("MaxFlow::set_capacity: negative cap");
  }
  orig_cap_.at(edge_index) = cap;
}

bool MaxFlow::bfs(int s, int t) {
  level_.assign(adj_.size(), -1);
  queue_.clear();
  level_[s] = 0;
  queue_.push_back(s);
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const int u = queue_[head];
    for (const Arc& a : adj_[u]) {
      if (a.cap > 0 && level_[a.to] < 0) {
        level_[a.to] = level_[u] + 1;
        queue_.push_back(a.to);
      }
    }
  }
  return level_[t] >= 0;
}

Capacity MaxFlow::dfs(int u, int t, Capacity pushed) {
  if (u == t) return pushed;
  for (int& i = iter_[u]; i < static_cast<int>(adj_[u].size()); ++i) {
    Arc& a = adj_[u][i];
    if (a.cap > 0 && level_[a.to] == level_[u] + 1) {
      const Capacity got = dfs(a.to, t, std::min(pushed, a.cap));
      if (got > 0) {
        a.cap -= got;
        adj_[a.to][a.rev].cap += got;
        return got;
      }
    }
  }
  return 0;
}

Capacity MaxFlow::solve(int source, int sink, Capacity limit) {
  if (source == sink) throw std::invalid_argument("MaxFlow: source == sink");
  // Start from zero flow: every edge owns exactly one forward and one
  // reverse arc, so restoring both undoes any earlier call.
  for (std::size_t i = 0; i < edge_refs_.size(); ++i) {
    Arc& a = adj_[edge_refs_[i].first][edge_refs_[i].second];
    a.cap = orig_cap_[i];
    adj_[a.to][a.rev].cap = 0;
  }
  // An augmenting path never carries more than the flow still missing, so
  // capping each push at `limit - total` changes nothing below the limit.
  Capacity total = 0;
  while (total < limit && bfs(source, sink)) {
    iter_.assign(adj_.size(), 0);
    while (total < limit) {
      const Capacity got = dfs(source, sink, limit - total);
      if (got == 0) break;
      total += got;
    }
  }
  return total;
}

Capacity MaxFlow::flow_on(int edge_index) const {
  const auto& [node, arc] = edge_refs_.at(edge_index);
  return orig_cap_.at(edge_index) - adj_[node][arc].cap;
}

std::vector<bool> MaxFlow::min_cut_source_side(int source) const {
  std::vector<bool> reachable(adj_.size(), false);
  std::queue<int> q;
  reachable.at(source) = true;
  q.push(source);
  while (!q.empty()) {
    const int u = q.front();
    q.pop();
    for (const Arc& a : adj_[u]) {
      if (a.cap > 0 && !reachable[a.to]) {
        reachable[a.to] = true;
        q.push(a.to);
      }
    }
  }
  return reachable;
}

std::vector<int> MaxFlow::min_cut_edges(int source) const {
  const auto side = min_cut_source_side(source);
  std::vector<int> cut;
  for (int i = 0; i < static_cast<int>(edge_refs_.size()); ++i) {
    const auto& [node, arc] = edge_refs_[i];
    const int to = adj_[node][arc].to;
    if (side[node] && !side[to] && orig_cap_[i] > 0) cut.push_back(i);
  }
  return cut;
}

}  // namespace iris::graph
