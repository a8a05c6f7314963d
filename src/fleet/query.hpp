// What-if queries over pinned region snapshots.
//
// A query is a pure function of (snapshot, query): it reads only the
// immutable state reachable from the RegionSnapshot and scratch state it
// builds itself, so any number of queries run concurrently against the same
// snapshot -- or different snapshots -- with zero synchronization and
// deterministic results. Planner work inside a query always runs with
// threads = 1: the thread pool above (WhatIfEngine) is the parallelism.
//
// Taxonomy (the fleet's service surface, ROADMAP "what-if query engine"):
//  * kFailureDrill -- cut a duct on a scratch IncrementalPlanner holding the
//    snapshot's plan; report the reroute diff, disconnected pairs and
//    fiber-cost delta. run_query builds that planner from scratch (a full
//    failure sweep); WhatIfEngine instead copies a pristine per-plan base it
//    builds once, so a drill costs a copy plus the replan. Both give the
//    same answer bit for bit. A duct outside the region's edge range is
//    rejected kInvalidQuery before any planner work.
//  * kGrowth -- site a new DC (core/expansion): expand_region's siting-SLA
//    reach check, then one provision() of the expanded map for the fiber
//    delta. No plan of the current region and no expansion replan. A
//    candidate with a non-finite position is rejected kInvalidQuery before
//    any planner work.
//  * kSloProbe -- availability-SLO provisioning (core/slo) with cost
//    co-optimization against a deterministic correlated failure model
//    (slo_probe_model), searched over that model's recorded failure
//    timeline. run_query records the timeline per probe; WhatIfEngine
//    records it once per plan and keeps it beside the drill base, so a
//    repeat probe costs the candidates' provisioning and one class pass per
//    distinct failure state. Both give the same answer bit for bit. A probe
//    the SLO search would reject (core::slo_argument_error) is rejected
//    kInvalidQuery before any planner work or timeline recording.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/expansion.hpp"
#include "core/replan.hpp"
#include "fleet/snapshot.hpp"
#include "reliability/events.hpp"

namespace iris::fleet {

enum class QueryKind {
  kFailureDrill,
  kGrowth,
  kSloProbe,
};

[[nodiscard]] const char* query_kind_name(QueryKind kind);

/// How the engine answered (graceful-degradation taxonomy, ISSUE 9). kOk
/// and kStale carry a real computed answer; the rest are structured
/// rejections with `feasible = false` and no query work done.
enum class QueryStatus {
  kOk,                 ///< fresh snapshot, healthy region
  kStale,              ///< served from the last-good snapshot of a crashed/
                       ///< recovering region; see staleness_ticks
  kRegionQuarantined,  ///< region's crash budget exhausted: rejected
  kDeadlineExpired,    ///< the query's deadline budget elapsed before it ran
  kNoSnapshot,         ///< nothing published (and no shard to resolve one)
  kInvalidQuery,       ///< malformed query, e.g. a drill duct that is not
                       ///< an edge of the region or an SLO probe with
                       ///< demand_waves < 1
};

[[nodiscard]] const char* query_status_name(QueryStatus status);

struct WhatIfQuery {
  QueryKind kind = QueryKind::kFailureDrill;

  /// Deadline budget in milliseconds, measured from the batch's start; a
  /// query whose turn comes later than this is rejected kDeadlineExpired
  /// without running. <= 0 means no deadline.
  double deadline_ms = 0.0;

  // kFailureDrill: the duct to cut; outside [0, edge_count) the query is
  // rejected kInvalidQuery.
  graph::EdgeId duct = 0;

  // kGrowth: the candidate DC; a non-finite position is rejected
  // kInvalidQuery.
  core::ExpansionRequest growth;

  // kSloProbe: outside core::slo_argument_error's rule (e.g. a NaN SLO or
  // demand_waves < 1) the query is rejected kInvalidQuery.
  double availability_slo = 0.999;
  int slo_max_tolerance = 2;
  long long demand_waves = 1;
  double max_oversubscription = 1.0;
};

struct WhatIfResult {
  QueryKind kind = QueryKind::kFailureDrill;
  int region = 0;
  long long tick = -1;
  std::uint64_t version = 0;
  bool feasible = false;
  QueryStatus status = QueryStatus::kOk;
  /// Ticks the answering snapshot lagged the region's head at query time
  /// (0 when served fresh). Meaningful for health-aware jobs (Job::shard).
  long long staleness_ticks = 0;

  // kFailureDrill.
  int capacity_changes = 0;
  int path_changes = 0;
  int pairs_disconnected = 0;   ///< pairs the cut severed on planned ducts
  long long fibers_delta = 0;   ///< replanned - snapshot base fibers
  double replan_ms = 0.0;       ///< wall time; NOT part of the fingerprint

  // kGrowth.
  double reach_km = 0.0;        ///< worst fiber distance to an existing DC
  long long fibers_added = 0;

  // kSloProbe.
  bool slo_met = false;
  int tolerance = 0;
  double worst_availability = 0.0;
  long long cost_fibers = 0;
  double oversubscription = 1.0;

  /// Canonical one-line rendering of every deterministic field (wall-time
  /// fields excluded), identical across runs and thread counts.
  [[nodiscard]] std::string canonical() const;
  /// fnv1a64(canonical()) -- the bit-identity handle for query results.
  [[nodiscard]] std::uint64_t fingerprint() const;
};

/// The per-plan inputs a query may take warm instead of building them.
/// Each member is called at most once per query, and only for a valid query
/// of its kind.
struct PlanProvider {
  /// The planner a failure drill cuts: one holding the snapshot's plan with
  /// no cuts, owned by the drill and discarded after it.
  std::function<core::IncrementalPlanner(const RegionSnapshot&)> drill_planner;
  /// The recorded failure timeline an SLO probe searches over:
  /// reliability::record_timeline(*snap.map, slo_probe_model(snap)).
  std::function<std::shared_ptr<const reliability::FailureTimeline>(
      const RegionSnapshot&)>
      slo_timeline;
};

/// The cold drill planner: plans the snapshot's region from scratch with the
/// snapshot's own parameters, single-threaded.
core::IncrementalPlanner build_drill_planner(const RegionSnapshot& snap);

/// The SLO probe's deterministic failure model: fixed rates and a fixed
/// seed salted by the region, so the same (snapshot, query) always
/// simulates the same events.
reliability::CorrelatedFailureModel slo_probe_model(const RegionSnapshot& snap);

/// The cold SLO timeline: records slo_probe_model(snap) on the snapshot's
/// map.
std::shared_ptr<const reliability::FailureTimeline> record_slo_timeline(
    const RegionSnapshot& snap);

/// Executes one query against a pinned snapshot. Read-only on the snapshot;
/// obs series land in whatever registry is bound on the calling thread.
/// Cold: a drill cuts a planner from build_drill_planner and a probe
/// searches a timeline from record_slo_timeline, both made for this call.
WhatIfResult run_query(const RegionSnapshot& snap, const WhatIfQuery& query);

/// As above, with a query taking its planner or timeline from `plans`.
WhatIfResult run_query(const RegionSnapshot& snap, const WhatIfQuery& query,
                       const PlanProvider& plans);

}  // namespace iris::fleet
