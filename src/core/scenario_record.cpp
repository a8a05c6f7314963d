#include "core/scenario_record.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace iris::core {

namespace {

using graph::EdgeId;
using graph::NodeId;

bool bit(const std::vector<std::uint64_t>& mask, EdgeId e) {
  const auto i = static_cast<std::size_t>(e);
  return ((mask[i >> 6] >> (i & 63)) & 1) != 0;
}

void set_bit(std::vector<std::uint64_t>& mask, EdgeId e) {
  const auto i = static_cast<std::size_t>(e);
  mask[i >> 6] |= std::uint64_t{1} << (i & 63);
}


}  // namespace

void ScenarioRecorder::mark_moved(const graph::Path& from,
                                  const graph::Path& to,
                                  std::vector<std::uint64_t>& ducts) const {
  const graph::Graph& g = map_.graph();
  for (std::size_t k = 0; k < from.edges.size(); ++k) {
    const EdgeId e = from.edges[k];
    const bool forward = from.nodes[k] == g.edge(e).u;
    const auto m = std::find(to.edges.begin(), to.edges.end(), e);
    if (m != to.edges.end() &&
        (to.nodes[static_cast<std::size_t>(m - to.edges.begin())] ==
         g.edge(e).u) == forward) {
      continue;
    }
    set_bit(ducts, e);
  }
}

ScenarioRecorder::ScenarioRecorder(const fibermap::FiberMap& map,
                                   const PlannerParams& params,
                                   bool hose_loads)
    : map_(map),
      lambda_(params.channels.wavelengths_per_fiber),
      max_path_km_(params.spec.max_path_km),
      hose_loads_(hose_loads),
      words_((static_cast<std::size_t>(map.graph().edge_count()) + 63) / 64),
      hose_memo_(static_cast<std::size_t>(map.graph().edge_count())) {
  const std::size_t dcs = map.dcs().size();
  for (std::size_t i = 0; i < dcs; ++i) {
    dc_caps_.push_back(map.dc_capacity_wavelengths(map.dcs()[i], lambda_));
    for (std::size_t j = i + 1; j < dcs; ++j) pairs_.emplace_back(i, j);
  }
  pair_words_ = (pairs_.size() + 63) / 64;
}

ScenarioRecorder::ScenarioRecorder(const ScenarioRecorder& o)
    : map_(o.map_),
      lambda_(o.lambda_),
      max_path_km_(o.max_path_km_),
      hose_loads_(o.hose_loads_),
      words_(o.words_),
      pairs_(o.pairs_),
      dc_caps_(o.dc_caps_),
      paths_(o.paths_),
      path_bits_(o.path_bits_),
      path_ids_(o.path_ids_),
      pair_words_(o.pair_words_),
      hose_memo_(o.hose_memo_),
      base_(o.base_),
      stack_(o.stack_),
      flat_size_(o.flat_size_) {}

void ScenarioRecorder::begin_sweep(const graph::EdgeMask& base) {
  base_ = base;
  router_.reset();
  stack_.clear();
  flat_size_.clear();
}

void ScenarioRecorder::stack(std::span<const EdgeId> failed, int depth,
                             RecordPtr rec) {
  const auto d = static_cast<std::size_t>(depth);
  if (stack_.size() <= d) {
    stack_.resize(d + 1);
    flat_size_.resize(d + 1, 0);
  }
  stack_[d] = std::move(rec);
  flat_size_[d] = failed.size();
}

const RecordPtr& ScenarioRecorder::descend(std::span<const EdgeId> failed,
                                           int depth) {
  const auto d = static_cast<std::size_t>(depth);
  if (d == 0) {
    if (stack_.empty() || !stack_[0]) stack(failed, 0, route_all(failed));
  } else {
    stack(failed, depth,
          patch(*stack_[d - 1], failed.subspan(flat_size_[d - 1]), failed));
  }
  return stack_[d];
}

const graph::ShortestPathTree& ScenarioRecorder::tree(
    std::size_t i, std::span<const EdgeId> failed) {
  if (!router_) router_.emplace(map_.graph(), map_.dcs(), base_);
  return router_->route(i, failed);
}

std::int32_t ScenarioRecorder::route_pair(std::size_t pidx,
                                          std::span<const EdgeId> failed) {
  const auto [i, j] = pairs_[pidx];
  const NodeId target = map_.dcs()[j];
  const graph::ShortestPathTree& t = tree(i, failed);
  if (!t.reachable(target)) return -1;
  // Walk the parent pointers first: nearly every walk is a path the pool
  // already holds, so only a new one is materialized.
  walk_.clear();
  for (NodeId cur = target; cur != t.source; cur = t.parent_node[cur]) {
    walk_.push_back(t.parent_edge[cur]);
  }
  std::reverse(walk_.begin(), walk_.end());
  const auto [it, fresh] = path_ids_.try_emplace(
      walk_, static_cast<std::int32_t>(paths_.size()));
  if (fresh) {
    paths_.push_back(*graph::extract_path(t, target));
    path_bits_.resize(path_bits_.size() + words_, 0);
    std::uint64_t* bits = &path_bits_[path_bits_.size() - words_];
    for (EdgeId e : walk_) {
      const auto b = static_cast<std::size_t>(e);
      bits[b >> 6] |= std::uint64_t{1} << (b & 63);
    }
  }
  return it->second;
}

const std::uint64_t* ScenarioRecorder::bits_of(std::int32_t id) const {
  return &path_bits_[static_cast<std::size_t>(id) * words_];
}

bool ScenarioRecorder::crosses(std::int32_t id,
                               const std::vector<std::uint64_t>& ducts) const {
  const std::uint64_t* bits = bits_of(id);
  for (std::size_t w = 0; w < words_; ++w) {
    if ((bits[w] & ducts[w]) != 0) return true;
  }
  return false;
}

// hose_edge_load's bipartite network, built over DC indices in a reused
// workspace: node 0 is the source, 1 the sink, 2 + i DC i's left copy and
// 2 + n + i its right copy. A max-flow value depends on neither node nor
// arc order, so the load is exactly hose_edge_load's.
long long ScenarioRecorder::hose_load(EdgeId e,
                                     std::vector<std::uint64_t>&& key) {
  auto& memo = hose_memo_[static_cast<std::size_t>(e)];
  if (const auto it = memo.find(key); it != memo.end()) return it->second;
  const std::size_t n = dc_caps_.size();
  flow_.reset(static_cast<int>(2 + 2 * n));
  on_side_.assign(2 * n, 0);
  for (std::size_t w = 0; w < pair_words_; ++w) {
    for (std::uint64_t bits = key[w]; bits != 0; bits &= bits - 1) {
      const auto bit_index = static_cast<std::size_t>(std::countr_zero(bits));
      auto [left, right] = pairs_[w * 64 + bit_index];
      if (((key[pair_words_ + w] >> bit_index) & 1) == 0) {
        std::swap(left, right);
      }
      if (on_side_[left] == 0) {
        on_side_[left] = 1;
        flow_.add_edge(0, static_cast<int>(2 + left), dc_caps_[left]);
      }
      if (on_side_[n + right] == 0) {
        on_side_[n + right] = 1;
        flow_.add_edge(static_cast<int>(2 + n + right), 1, dc_caps_[right]);
      }
      flow_.add_edge(static_cast<int>(2 + left),
                     static_cast<int>(2 + n + right),
                     std::min(dc_caps_[left], dc_caps_[right]));
    }
  }
  const auto load = static_cast<long long>(flow_.solve(0, 1));
  memo.emplace(std::move(key), load);
  return load;
}

// Rebuilds rec.used from its pair paths and recomputes hose loads for the
// ducts selected by `want` (nullptr = every used duct), keeping
// `parent_loads` on unselected ducts; a pair crossing no selected duct, or
// any pair of a recorder without hose loads, only adds its bits to
// rec.used.
void ScenarioRecorder::finish(
    ScenarioRecord& rec, const std::vector<std::uint64_t>* want,
    const std::vector<std::pair<EdgeId, long long>>* parent_loads) {
  const graph::Graph& g = map_.graph();
  bucket_.resize(static_cast<std::size_t>(g.edge_count()));
  std::fill(rec.used.begin(), rec.used.end(), 0);
  for (std::size_t pidx = 0; pidx < pairs_.size(); ++pidx) {
    const std::int32_t id = rec.path_id[pidx];
    if (id < 0) continue;
    const std::uint64_t* bits = bits_of(id);
    for (std::size_t w = 0; w < words_; ++w) rec.used[w] |= bits[w];
    if (!hose_loads_ || (want != nullptr && !crosses(id, *want))) continue;
    const graph::Path& path = paths_[static_cast<std::size_t>(id)];
    const std::size_t w = pidx >> 6;
    const std::uint64_t pair_bit = std::uint64_t{1} << (pidx & 63);
    for (std::size_t k = 0; k < path.edges.size(); ++k) {
      const EdgeId e = path.edges[k];
      if (want != nullptr && !bit(*want, e)) continue;
      auto& key = bucket_[static_cast<std::size_t>(e)];
      if (key.empty()) {
        key.assign(2 * pair_words_, 0);
        touched_.push_back(e);
      }
      key[w] |= pair_bit;
      // graph::orient_pair's rule: the path enters duct e at nodes[k].
      if (path.nodes[k] == g.edge(e).u) key[pair_words_ + w] |= pair_bit;
    }
  }
  std::sort(touched_.begin(), touched_.end());
  std::size_t t = 0;
  std::vector<std::pair<EdgeId, long long>> loads;
  const auto fold_touched_below = [&](EdgeId bound) {
    for (; t < touched_.size() && touched_[t] < bound; ++t) {
      const EdgeId e = touched_[t];
      auto& bucket = bucket_[static_cast<std::size_t>(e)];
      const long long load = hose_load(e, std::move(bucket));
      bucket.clear();
      if (load > 0) loads.emplace_back(e, load);
    }
  };
  if (parent_loads != nullptr) {
    for (const auto& [e, load] : *parent_loads) {
      // Selected ducts are recomputed (or dropped, if no pair routes over
      // them any more) from the touched list instead.
      if (bit(*want, e)) continue;
      fold_touched_below(e);
      loads.emplace_back(e, load);
    }
  }
  fold_touched_below(g.edge_count());
  touched_.clear();
  rec.loads = std::move(loads);
}

RecordPtr ScenarioRecorder::route_all(std::span<const EdgeId> failed) {
  auto rec = std::make_shared<ScenarioRecord>();
  rec->path_id.assign(pairs_.size(), -1);
  rec->used.assign(words_, 0);
  for (std::size_t pidx = 0; pidx < pairs_.size(); ++pidx) {
    const std::int32_t id = route_pair(pidx, failed);
    rec->path_id[pidx] = id;
    if (id < 0) {
      ++rec->unreachable;
    } else if (path(id).length_km > max_path_km_) {
      ++rec->beyond_sla;
    }
  }
  finish(*rec, nullptr, nullptr);
  return rec;
}

RecordPtr ScenarioRecorder::patch(const ScenarioRecord& parent,
                                  std::span<const EdgeId> cuts,
                                  std::span<const EdgeId> failed) {
  auto rec = std::make_shared<ScenarioRecord>(parent);
  std::vector<std::uint64_t> cut_bits(words_, 0);
  for (EdgeId e : cuts) set_bit(cut_bits, e);
  std::vector<std::uint64_t> affected(words_, 0);
  for (std::size_t pidx = 0; pidx < pairs_.size(); ++pidx) {
    const std::int32_t old_id = rec->path_id[pidx];
    if (old_id < 0) continue;  // fewer ducts never revive a pair
    // Invalidation lemma: only pairs routed over a new cut change.
    if (!crosses(old_id, cut_bits)) continue;
    const std::int32_t id = route_pair(pidx, failed);
    rec->path_id[pidx] = id;
    // Paths are read only after route_pair, which may grow the pool.
    const graph::Path& old_path = path(old_id);
    if (old_path.length_km > max_path_km_) --rec->beyond_sla;
    if (id < 0) {
      for (EdgeId e : old_path.edges) set_bit(affected, e);
      ++rec->unreachable;
      continue;
    }
    // A duct both paths cross in the same direction keeps this pair's
    // oriented entry, so only the ducts the pair left or joined change.
    mark_moved(old_path, path(id), affected);
    mark_moved(path(id), old_path, affected);
    if (path(id).length_km > max_path_km_) ++rec->beyond_sla;
  }
  finish(*rec, &affected, &parent.loads);
  return rec;
}

std::size_t ScenarioRecorder::pairs_crossing(const ScenarioRecord& rec,
                                             EdgeId duct) const {
  const auto i = static_cast<std::size_t>(duct);
  std::size_t n = 0;
  for (const std::int32_t id : rec.path_id) {
    if (id >= 0) n += (bits_of(id)[i >> 6] >> (i & 63)) & 1;
  }
  return n;
}

std::map<DcPair, graph::Path> ScenarioRecorder::paths_of(
    const ScenarioRecord& rec) const {
  const auto& dcs = map_.dcs();
  std::map<DcPair, graph::Path> out;
  for (std::size_t pidx = 0; pidx < pairs_.size(); ++pidx) {
    const std::int32_t id = rec.path_id[pidx];
    if (id < 0) continue;
    out.emplace(DcPair(dcs[pairs_[pidx].first], dcs[pairs_[pidx].second]),
                paths_[static_cast<std::size_t>(id)]);
  }
  return out;
}

void finish_capacities(ProvisionedNetwork& out, std::vector<long long> maxima) {
  const PlannerParams& params = out.params;
  const int lambda = params.channels.wavelengths_per_fiber;
  // OC2 relaxation: an oversubscribed fabric provisions a fraction of the
  // worst-case hose load (ceil so a used duct never rounds to zero -- an
  // invariant, not an assumption: verify it).
  if (params.oversubscription > 1.0) {
    for (auto& waves : maxima) {
      if (waves > 0) {
        waves = static_cast<long long>(
            std::ceil(static_cast<double>(waves) / params.oversubscription));
        if (waves <= 0) {
          throw std::logic_error(
              "provision: oversubscription rounded a used duct to zero");
        }
      }
    }
  }
  out.base_fibers.assign(maxima.size(), 0);
  for (std::size_t e = 0; e < maxima.size(); ++e) {
    const long long waves = maxima[e];
    const long long fibers = (waves + lambda - 1) / lambda;
    if (fibers > std::numeric_limits<int>::max()) {
      throw std::overflow_error(
          "provision: base fiber count exceeds INT_MAX for a duct; demand "
          "too large for the fiber-count representation");
    }
    if (waves > 0 && fibers <= 0) {
      throw std::logic_error(
          "provision: a used duct rounded to zero base fibers");
    }
    out.base_fibers[e] = static_cast<int>(fibers);
  }
  out.edge_capacity_wavelengths = std::move(maxima);
}

}  // namespace iris::core
