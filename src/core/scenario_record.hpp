// Scenario records: the incremental planning kernel behind provision() and
// IncrementalPlanner.
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
// Either way paths are interned in one pool, and hose max-flows are
// memoized per duct on the set of oriented pairs routed over it, which a
// sweep re-derives almost verbatim across scenarios (96% hit rate on a
// 20-DC region).
//
// Records name paths by pool index, so a record is read back through the
// recorder that built it or a copy made later. A copy carries the pool and
// the memo; from then on each copy grows its own. Recorders are not
// thread-safe: a parallel sweep gives each worker its own copy.
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
  /// The map is referenced and must outlive the recorder.
  ScenarioRecorder(const fibermap::FiberMap& map, const PlannerParams& params);
  /// Copies the path pool, the hose memo and the sweep's base mask; the
  /// copy builds its own routing state on first use.
  ScenarioRecorder(const ScenarioRecorder& other);
  ScenarioRecorder& operator=(const ScenarioRecorder&) = delete;

  /// Starts a sweep whose scenarios fail ducts on top of `base` (TC1
  /// exclusions plus live cuts). Routing state is rebuilt on first use.
  void begin_sweep(const graph::EdgeMask& base);

  /// Routes every DC pair under base + `failed`.
  RecordPtr route_all(std::span<const graph::EdgeId> failed);

  /// The record for base + `failed`, given `parent`, the record of the same
  /// scenario without the ducts in `cuts`.
  RecordPtr patch(const ScenarioRecord& parent,
                  std::span<const graph::EdgeId> cuts,
                  std::span<const graph::EdgeId> failed);

  /// How many pairs of `rec` route over `duct`: the pairs patch()
  /// re-routes when `rec` is the parent and `duct` the cut.
  [[nodiscard]] std::size_t pairs_crossing(const ScenarioRecord& rec,
                                           graph::EdgeId duct) const;

  /// The paths of `rec`, keyed by DC pair (unreachable pairs omitted).
  [[nodiscard]] std::map<DcPair, graph::Path> paths_of(
      const ScenarioRecord& rec) const;

 private:
  /// Source `i`'s shortest-path tree under base + `failed`; only the
  /// sources a record needs are routed.
  const graph::ShortestPathTree& tree(std::size_t i,
                                      std::span<const graph::EdgeId> failed);
  std::int32_t intern(const graph::Path& path);
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
  std::size_t words_;  // bitset words per edge mask
  std::vector<std::pair<std::size_t, std::size_t>> pairs_;  // dc idx, i < j
  std::vector<graph::Path> paths_;                          // interning pool
  std::vector<std::uint64_t> path_bits_;  // per pooled path: duct bitset
  std::unordered_map<std::vector<graph::EdgeId>, std::int32_t, IdListHash>
      path_ids_;
  // Per duct: worst-case hose load keyed by the pairs routed over it, as
  // two bitsets over pair indices of pair_words_ words each: which pairs,
  // then which of them enter the duct at its u end. Walked in pair order
  // they give the oriented pair list hose_edge_load takes.
  std::size_t pair_words_;
  std::vector<
      std::unordered_map<std::vector<std::uint64_t>, long long, IdListHash>>
      hose_memo_;

  // Routing state of the current sweep, built on the first pair it routes.
  graph::EdgeMask base_;
  std::optional<graph::PrefixRouter> router_;
  // Scratch reused across records: per-duct memo keys under construction
  // and the ducts whose key is nonempty.
  std::vector<std::vector<std::uint64_t>> bucket_;
  std::vector<graph::EdgeId> touched_;
};

/// Folds per-duct worst-case loads (wavelengths) into a plan: OC2
/// oversubscription rounding, then whole base fibers per duct. Shared by
/// every sweep so their rounding cannot drift apart.
void finish_capacities(ProvisionedNetwork& out, std::vector<long long> maxima);

}  // namespace iris::core
