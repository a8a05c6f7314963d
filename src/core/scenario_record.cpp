#include "core/scenario_record.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "graph/hose.hpp"

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
                                   const PlannerParams& params)
    : map_(map),
      lambda_(params.channels.wavelengths_per_fiber),
      max_path_km_(params.spec.max_path_km),
      words_((static_cast<std::size_t>(map.graph().edge_count()) + 63) / 64),
      hose_memo_(static_cast<std::size_t>(map.graph().edge_count())) {
  const std::size_t dcs = map.dcs().size();
  for (std::size_t i = 0; i < dcs; ++i) {
    for (std::size_t j = i + 1; j < dcs; ++j) pairs_.emplace_back(i, j);
  }
  pair_words_ = (pairs_.size() + 63) / 64;
}

ScenarioRecorder::ScenarioRecorder(const ScenarioRecorder& o)
    : map_(o.map_),
      lambda_(o.lambda_),
      max_path_km_(o.max_path_km_),
      words_(o.words_),
      pairs_(o.pairs_),
      paths_(o.paths_),
      path_bits_(o.path_bits_),
      path_ids_(o.path_ids_),
      pair_words_(o.pair_words_),
      hose_memo_(o.hose_memo_),
      base_(o.base_) {}

void ScenarioRecorder::begin_sweep(const graph::EdgeMask& base) {
  base_ = base;
  router_.reset();
}

const graph::ShortestPathTree& ScenarioRecorder::tree(
    std::size_t i, std::span<const EdgeId> failed) {
  if (!router_) router_.emplace(map_.graph(), map_.dcs(), base_);
  return router_->route(i, failed);
}

std::int32_t ScenarioRecorder::intern(const graph::Path& path) {
  const auto [it, fresh] = path_ids_.emplace(
      path.edges, static_cast<std::int32_t>(paths_.size()));
  if (fresh) {
    paths_.push_back(path);
    path_bits_.resize(path_bits_.size() + words_, 0);
    std::uint64_t* bits = &path_bits_[path_bits_.size() - words_];
    for (EdgeId e : path.edges) {
      const auto i = static_cast<std::size_t>(e);
      bits[i >> 6] |= std::uint64_t{1} << (i & 63);
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

long long ScenarioRecorder::hose_load(EdgeId e,
                                     std::vector<std::uint64_t>&& key) {
  auto& memo = hose_memo_[static_cast<std::size_t>(e)];
  if (const auto it = memo.find(key); it != memo.end()) return it->second;
  const auto& dcs = map_.dcs();
  std::vector<graph::OrientedPair> pairs;
  for (std::size_t w = 0; w < pair_words_; ++w) {
    for (std::uint64_t bits = key[w]; bits != 0; bits &= bits - 1) {
      const auto bit_index = static_cast<std::size_t>(std::countr_zero(bits));
      const auto [i, j] = pairs_[w * 64 + bit_index];
      const bool forward = ((key[pair_words_ + w] >> bit_index) & 1) != 0;
      pairs.push_back(forward ? graph::OrientedPair{dcs[i], dcs[j]}
                              : graph::OrientedPair{dcs[j], dcs[i]});
    }
  }
  const auto load = static_cast<long long>(
      graph::hose_edge_load(pairs, [&](NodeId dc) -> graph::Capacity {
        return map_.dc_capacity_wavelengths(dc, lambda_);
      }));
  memo.emplace(std::move(key), load);
  return load;
}

// Rebuilds rec.used from its pair paths and recomputes hose loads for the
// ducts selected by `want` (nullptr = every used duct), keeping
// `parent_loads` on unselected ducts; a pair crossing no selected duct only
// adds its bits to rec.used. hose_load() expands a key in pair index order,
// which is (i, j) order, so the oriented lists match the full sweep's
// bucket order exactly.
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
    if (want != nullptr && !crosses(id, *want)) continue;
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
  const auto& dcs = map_.dcs();
  auto rec = std::make_shared<ScenarioRecord>();
  rec->path_id.assign(pairs_.size(), -1);
  rec->used.assign(words_, 0);
  for (std::size_t pidx = 0; pidx < pairs_.size(); ++pidx) {
    const auto [i, j] = pairs_[pidx];
    const auto path = graph::extract_path(tree(i, failed), dcs[j]);
    if (!path) {
      ++rec->unreachable;
      continue;
    }
    if (path->length_km > max_path_km_) ++rec->beyond_sla;
    rec->path_id[pidx] = intern(*path);
  }
  finish(*rec, nullptr, nullptr);
  return rec;
}

RecordPtr ScenarioRecorder::patch(const ScenarioRecord& parent,
                                  std::span<const EdgeId> cuts,
                                  std::span<const EdgeId> failed) {
  const auto& dcs = map_.dcs();
  auto rec = std::make_shared<ScenarioRecord>(parent);
  std::vector<std::uint64_t> cut_bits(words_, 0);
  for (EdgeId e : cuts) set_bit(cut_bits, e);
  std::vector<std::uint64_t> affected(words_, 0);
  for (std::size_t pidx = 0; pidx < pairs_.size(); ++pidx) {
    const std::int32_t id = rec->path_id[pidx];
    if (id < 0) continue;  // fewer ducts never revive a pair
    // Invalidation lemma: only pairs routed over a new cut change. (Mind
    // the pool: intern() may reallocate paths_, so the old path must not be
    // referenced after the new one is interned.)
    if (!crosses(id, cut_bits)) continue;
    const graph::Path& old_path = paths_[static_cast<std::size_t>(id)];
    if (old_path.length_km > max_path_km_) --rec->beyond_sla;
    const auto [i, j] = pairs_[pidx];
    const auto path = graph::extract_path(tree(i, failed), dcs[j]);
    if (!path) {
      for (EdgeId e : old_path.edges) set_bit(affected, e);
      rec->path_id[pidx] = -1;
      ++rec->unreachable;
      continue;
    }
    // A duct both paths cross in the same direction keeps this pair's
    // oriented entry, so only the ducts the pair left or joined change.
    mark_moved(old_path, *path, affected);
    mark_moved(*path, old_path, affected);
    if (path->length_km > max_path_km_) ++rec->beyond_sla;
    rec->path_id[pidx] = intern(*path);
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
