// Scenario records: the routing kernel of every planner sweep --
// provision(), IncrementalPlanner, amplifier and cut-through placement
// (core/amp_cut) and plan validation (core/plan_region).
//
// A ScenarioRecord is one routed failure scenario: the path every DC pair
// takes, the worst-case hose load of every loaded duct, the ducts some pair
// path crosses and the scenario's unreachable and beyond-SLA tallies. All of
// it is a pure function of the scenario's effective failed-duct set (TC1
// exclusions, live cuts and the failed events), so two records of one set
// are interchangeable however the sweep reached that set.
//
// A ScenarioRecorder builds records in two ways:
//  * route_all routes every pair (the baseline, or a scenario with no
//    usable record below it);
//  * patch starts from the record of a scenario with fewer failed ducts and
//    re-routes only the pairs whose path crossed a newly failed duct. A pair
//    whose canonical path avoids every new duct keeps that exact path (the
//    canonical-tree invalidation lemma; see graph/incremental.hpp).
// A sweep walks its scenarios through one depth stack: descend() hands each
// scenario its record, the baseline at depth 0 and otherwise a patch of the
// record stacked one failed event up, so each scenario re-routes only the
// pairs its newest event cut. Either way paths are interned in one pool,
// which callers index per-path facts by, and hose max-flows (unless the
// recorder only routes) are memoized per duct on the set of oriented pairs
// routed over it, which a sweep re-derives almost verbatim across scenarios
// (96% hit rate on a 20-DC region).
//
// Records name paths by pool index, so a record is read back through the
// recorder that built it or a copy made later. A copy carries the pool, the
// memo and the depth stack; from then on each copy grows its own. Recorders
// are not thread-safe: a parallel sweep routes the baseline first and gives
// each worker its own copy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/provision.hpp"
#include "fibermap/fibermap.hpp"
#include "graph/incremental.hpp"
#include "graph/maxflow.hpp"

namespace iris::core {

struct ScenarioRecord {
  std::vector<std::int32_t> path_id;  ///< per DC pair; -1 = unreachable
  /// Ducts with nonzero worst-case hose load, ascending by duct.
  std::vector<std::pair<graph::EdgeId, long long>> loads;
  std::vector<std::uint64_t> used;  ///< bitset: ducts some pair path crosses
  long long unreachable = 0;
  long long beyond_sla = 0;

  [[nodiscard]] bool uses(graph::EdgeId e) const {
    const auto i = static_cast<std::size_t>(e);
    return ((used[i >> 6] >> (i & 63)) & 1) != 0;
  }
};

/// Records are immutable once built and shared between sweeps and copies.
using RecordPtr = std::shared_ptr<const ScenarioRecord>;

/// FNV-1a over a list of ids or bitset words: the hash of the recorder's
/// caches.
struct IdListHash {
  template <typename T>
  std::size_t operator()(const std::vector<T>& ids) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const T id : ids) {
      h = (h ^ static_cast<std::uint64_t>(id)) * 0x100000001b3ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

class ScenarioRecorder {
 public:
  /// The map is referenced and must outlive the recorder. With
  /// `hose_loads` false the recorder only routes: its records leave `loads`
  /// empty, for sweeps that read paths alone (placement, validation).
  ScenarioRecorder(const fibermap::FiberMap& map, const PlannerParams& params,
                   bool hose_loads = true);
  /// Copies the path pool, the hose memo, the depth stack and the sweep's
  /// base mask; the copy builds its own routing state on first use.
  ScenarioRecorder(const ScenarioRecorder& other);
  ScenarioRecorder& operator=(const ScenarioRecorder&) = delete;

  /// Starts a sweep whose scenarios fail ducts on top of `base` (TC1
  /// exclusions plus live cuts) and empties the depth stack. Routing state
  /// is rebuilt on first use.
  void begin_sweep(const graph::EdgeMask& base);

  /// The record of the sweep's scenario at failed-event depth `depth` that
  /// fails `failed` (flattened, in sweep order), stacked at `depth` for the
  /// scenario's children. Depth 0 is the sweep's baseline, routed on the
  /// first call and reused after; below it the record is patched from the
  /// one stacked at depth - 1 by the ducts `failed` adds to that scenario's.
  const RecordPtr& descend(std::span<const graph::EdgeId> failed, int depth);

  /// Stacks `rec` at `depth` for the scenario that fails `failed` instead
  /// of descending: for a scenario whose routing is known to equal `rec`'s.
  void stack(std::span<const graph::EdgeId> failed, int depth, RecordPtr rec);

  /// The record stacked at `depth`.
  [[nodiscard]] const RecordPtr& stacked(int depth) const {
    return stack_[static_cast<std::size_t>(depth)];
  }

  /// The record for base + `failed`, given `parent`, the record of the same
  /// scenario without the ducts in `cuts`.
  RecordPtr patch(const ScenarioRecord& parent,
                  std::span<const graph::EdgeId> cuts,
                  std::span<const graph::EdgeId> failed);

  /// Pooled path `id` and the pool's size; ids are dense from 0 in the
  /// order paths were first routed.
  [[nodiscard]] const graph::Path& path(std::int32_t id) const {
    return paths_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] std::size_t path_count() const noexcept {
    return paths_.size();
  }

  /// How many pairs of `rec` route over `duct`: the pairs patch()
  /// re-routes when `rec` is the parent and `duct` the cut.
  [[nodiscard]] std::size_t pairs_crossing(const ScenarioRecord& rec,
                                           graph::EdgeId duct) const;

  /// The paths of `rec`, keyed by DC pair (unreachable pairs omitted).
  [[nodiscard]] std::map<DcPair, graph::Path> paths_of(
      const ScenarioRecord& rec) const;

 private:
  /// Routes every DC pair under base + `failed`.
  RecordPtr route_all(std::span<const graph::EdgeId> failed);
  /// Source `i`'s shortest-path tree under base + `failed`; only the
  /// sources a record needs are routed.
  const graph::ShortestPathTree& tree(std::size_t i,
                                      std::span<const graph::EdgeId> failed);
  /// The pool id of pair `pidx`'s path under base + `failed`, interning
  /// it on first sight; -1 if the pair is cut off.
  std::int32_t route_pair(std::size_t pidx,
                          std::span<const graph::EdgeId> failed);
  /// The duct bitset of interned path `id` (words_ words).
  [[nodiscard]] const std::uint64_t* bits_of(std::int32_t id) const;
  /// True if interned path `id` crosses a duct set in bitset `ducts`.
  [[nodiscard]] bool crosses(std::int32_t id,
                             const std::vector<std::uint64_t>& ducts) const;
  /// Marks in `ducts` every duct `from` crosses that `to` does not cross in
  /// the same direction.
  void mark_moved(const graph::Path& from, const graph::Path& to,
                  std::vector<std::uint64_t>& ducts) const;
  long long hose_load(graph::EdgeId e, std::vector<std::uint64_t>&& key);
  void finish(ScenarioRecord& rec, const std::vector<std::uint64_t>* want,
              const std::vector<std::pair<graph::EdgeId, long long>>*
                  parent_loads);

  const fibermap::FiberMap& map_;
  int lambda_;
  double max_path_km_;
  bool hose_loads_;
  std::size_t words_;  // bitset words per edge mask
  std::vector<std::pair<std::size_t, std::size_t>> pairs_;  // dc idx, i < j
  std::vector<graph::Capacity> dc_caps_;  // per DC index, in wavelengths
  std::vector<graph::Path> paths_;        // interning pool
  std::vector<std::uint64_t> path_bits_;  // per pooled path: duct bitset
  std::unordered_map<std::vector<graph::EdgeId>, std::int32_t, IdListHash>
      path_ids_;
  // Per duct: worst-case hose load keyed by the pairs routed over it, as
  // two bitsets over pair indices of pair_words_ words each: which pairs,
  // then which of them enter the duct at its u end: the oriented pairs of
  // graph::hose_edge_load's network.
  std::size_t pair_words_;
  std::vector<
      std::unordered_map<std::vector<std::uint64_t>, long long, IdListHash>>
      hose_memo_;

  // Routing state of the current sweep, built on the first pair it routes.
  graph::EdgeMask base_;
  std::optional<graph::PrefixRouter> router_;
  // The depth stack: the record of the current scenario's ancestor at each
  // failed-event depth, with its flattened failed-duct count. The tail of a
  // scenario's failed list past its parent's count is exactly what its
  // newest event added (members an ancestor event already failed are
  // flattened away by the sweep).
  std::vector<RecordPtr> stack_;
  std::vector<std::size_t> flat_size_;
  // Scratch reused across records: per-duct memo keys under construction
  // and the ducts whose key is nonempty.
  std::vector<std::vector<std::uint64_t>> bucket_;
  std::vector<graph::EdgeId> touched_;
  std::vector<graph::EdgeId> walk_;  // route_pair's parent-pointer walk
  graph::MaxFlow flow_{1};           // hose_load's flow network
  std::vector<char> on_side_;        // hose_load: DC copies already wired
};

/// Folds per-duct worst-case loads (wavelengths) into a plan: OC2
/// oversubscription rounding, then whole base fibers per duct. Shared by
/// every sweep so their rounding cannot drift apart.
void finish_capacities(ProvisionedNetwork& out, std::vector<long long> maxima);

}  // namespace iris::core
