// The fleet runtime: M region shards on their own threads, plus the
// what-if query engine's thread pool over pinned snapshots.
//
// Threading discipline (the zero-locking-on-the-hot-loop property):
//  * each region's closed loop runs on one dedicated thread, bound to that
//    region's private MetricsRegistry -- shards share NOTHING mutable;
//  * the only writer/reader edges between a loop and the queries are the
//    SnapshotStore's atomic snapshot pointer and the shard's HealthSlot
//    atomics: publish is one store, pin is one load, and everything behind
//    the pointer is immutable;
//  * query workers bind private scratch registries, so their obs traffic
//    never lands in a region's deterministic series;
//  * merges (metrics, results) happen on the calling thread after join(),
//    in fixed region order -- the deterministic-merge idiom from PR 1.
//
// Crash containment (ISSUE 9): shard threads never abort the process. An
// exception escaping an UNSUPERVISED shard is captured as a per-shard
// std::exception_ptr and surfaced through shard_errors(); a SUPERVISED
// shard contains crashes itself (journal-backed recovery, supervisor.hpp)
// and the FleetSupervisor view below exposes per-region health.
#pragma once

#include <atomic>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fleet/query.hpp"
#include "fleet/shard.hpp"
#include "fleet/supervisor.hpp"

namespace iris::fleet {

class FleetSupervisor;

class Fleet {
 public:
  /// One shard thread's terminal failure, surfaced instead of a process
  /// abort. Supervised shards contain crashes internally and only land
  /// here for non-containable errors (bad parameters and the like).
  struct ShardError {
    int region = 0;
    std::string message;
  };

  /// Builds the shard set (worlds are constructed lazily, on the shard
  /// threads). Throws std::invalid_argument for regions < 1.
  explicit Fleet(FleetParams params);
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet();  ///< joins any still-running shard threads

  /// Spawns one worker per region; each builds its world and runs its
  /// closed loop to completion. Exceptions escaping a shard are captured,
  /// not rethrown -- check shard_errors() after join(). Call once.
  void start();

  /// Blocks until every region has published at least one snapshot OR its
  /// shard thread finished (errored before the first publish, or was
  /// quarantined while still holding publishes). After this returns,
  /// snapshot(r) is only null for such dead regions.
  void wait_ready() const;

  /// Joins all shard threads. Idempotent. Never throws a shard's error.
  void join();

  /// True when no shard thread terminated with an escaped exception.
  /// Meaningful after join().
  [[nodiscard]] bool ok() const;
  /// Structured per-shard error status (empty when ok()). Call after join().
  [[nodiscard]] std::vector<ShardError> shard_errors() const;

  [[nodiscard]] int regions() const noexcept {
    return static_cast<int>(shards_.size());
  }
  [[nodiscard]] RegionShard& shard(int region) { return *shards_.at(region); }
  [[nodiscard]] const RegionShard& shard(int region) const {
    return *shards_.at(region);
  }

  /// Pins region's latest snapshot (null before its first tick). Valid for
  /// the Fleet's lifetime -- see SnapshotStore's lifetime contract.
  [[nodiscard]] const RegionSnapshot* snapshot(int region) const {
    return shards_.at(region)->store().current();
  }

  /// Fleet-level health view (live while shards run; settled after join()).
  [[nodiscard]] const FleetSupervisor& supervisor() const {
    return *supervisor_;
  }

  /// Folds every region's registry into `dst` in region order (counters and
  /// gauges add, histograms merge bucket-wise) and sets fleet-level gauges,
  /// including per-region supervisor health when any shard is supervised.
  /// Deterministic; call after join().
  void merge_metrics(obs::MetricsRegistry& dst) const;

 private:
  FleetParams params_;
  std::vector<std::unique_ptr<RegionShard>> shards_;
  std::vector<std::thread> threads_;
  std::unique_ptr<FleetSupervisor> supervisor_;
  // One slot per shard, written only by that shard's thread.
  std::vector<std::exception_ptr> errors_;
  std::unique_ptr<std::atomic<bool>[]> done_;
  bool started_ = false;
};

/// Fleet-level view over the per-shard health FSMs: per-region health for
/// the merged trace and metrics, plus whole-fleet tallies. Reads are
/// lock-free atomic loads against the shards' HealthSlots, so the view is
/// safe to consult while the fleet runs (queries route on it) and is exact
/// once the shards joined.
class FleetSupervisor {
 public:
  explicit FleetSupervisor(const Fleet& fleet) : fleet_(&fleet) {}

  [[nodiscard]] bool any_supervised() const;
  [[nodiscard]] RegionHealth health(int region) const;
  [[nodiscard]] int quarantined_regions() const;
  [[nodiscard]] long long total_crashes() const;
  [[nodiscard]] long long total_recoveries() const;

  /// Canonical per-region health block for the merged trace (deterministic
  /// after join()). Empty string when no shard is supervised, so merged
  /// crash-free output is byte-identical to pre-supervision builds.
  [[nodiscard]] std::string trace() const;

  /// Sets fleet.supervisor.health{region=N} gauges (and the quarantined
  /// count) in `dst`. No-op unless some shard is supervised.
  void fold_into(obs::MetricsRegistry& dst) const;

 private:
  const Fleet* fleet_;
};

/// Fixed-size thread pool executing what-if query batches against pinned
/// snapshots. Results come back in input order regardless of which worker
/// ran what, so batch output is deterministic by construction.
///
/// Queries take their per-plan inputs warm. The engine keeps one entry per
/// region plan, keyed by the snapshot's (map, network) pair, which every
/// snapshot of one region world shares. An entry holds two members, each
/// built on its first use behind its own guard, so a probe never waits on a
/// drill base being built and the other way round:
///  * the pristine drill base: failure drills cut a copy of it instead of
///    planning the region from scratch; the base itself is never cut;
///  * the recorded failure timeline of the plan's SLO probe model: probes
///    search over it instead of recording it per probe.
/// An entry owns shared copies of its map and network, so the planner's map
/// reference stays valid and a key's addresses cannot be reused by another
/// plan while the entry lives. Inserting an entry drops every entry whose
/// network only the cache still holds: its fleet is gone.
class WhatIfEngine {
 public:
  /// One unit of work. The snapshot pointer is pinned by its publishing
  /// SnapshotStore (alive until that store is destroyed), so the batch must
  /// not outlive the Fleet it queries. Setting `shard` opts the job into
  /// health-aware routing: a null snapshot resolves to the shard's current
  /// one, results carry staleness (ticks behind the shard's head), crashed/
  /// recovering regions serve the last-good snapshot tagged kStale, and
  /// quarantined regions reject with kRegionQuarantined.
  struct Job {
    const RegionSnapshot* snapshot = nullptr;
    WhatIfQuery query;
    const RegionShard* shard = nullptr;
  };

  /// threads = 0 picks hardware_concurrency (min 1).
  explicit WhatIfEngine(int threads = 0);

  /// Runs the batch to completion and returns results in input order.
  /// Workers bind private scratch registries (reset between queries), so
  /// region registries stay untouched. Jobs with a null snapshot (and no
  /// shard to resolve one) yield an infeasible kNoSnapshot result tagged
  /// region -1. Per-query deadlines (WhatIfQuery::deadline_ms) are budgets
  /// against the batch's start: a query whose turn comes after its budget
  /// expired is rejected kDeadlineExpired without running, so one wedged
  /// replan cannot hang the whole batch. Malformed queries come back
  /// kInvalidQuery. An exception inside a query never escapes a worker
  /// thread: every worker is joined, then the first one captured (in worker
  /// order) is rethrown.
  std::vector<WhatIfResult> run_batch(const std::vector<Job>& jobs);

  [[nodiscard]] int threads() const noexcept { return threads_; }
  [[nodiscard]] long long total() const noexcept {
    return total_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] long long stale_served() const noexcept {
    return stale_served_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] long long rejected_quarantined() const noexcept {
    return rejected_quarantined_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] long long deadline_expired() const noexcept {
    return deadline_expired_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] long long rejected_invalid() const noexcept {
    return rejected_invalid_.load(std::memory_order_relaxed);
  }
  /// Drill base planners built so far (one per region plan drilled, plus
  /// rebuilds after an eviction).
  [[nodiscard]] long long drill_bases_built() const noexcept {
    return drill_bases_built_.load(std::memory_order_relaxed);
  }
  /// SLO probe timelines recorded so far (one per region plan probed, plus
  /// re-records after an eviction).
  [[nodiscard]] long long slo_timelines_recorded() const noexcept {
    return slo_timelines_recorded_.load(std::memory_order_relaxed);
  }

  /// Adds the engine's lifetime tallies to `dst` as fleet.queries.* series.
  void fold_into(obs::MetricsRegistry& dst) const;

 private:
  int threads_;
  std::atomic<long long> total_{0};
  std::atomic<long long> drills_{0};
  std::atomic<long long> growth_{0};
  std::atomic<long long> slo_probes_{0};
  std::atomic<long long> stale_served_{0};
  std::atomic<long long> rejected_quarantined_{0};
  std::atomic<long long> deadline_expired_{0};
  std::atomic<long long> rejected_invalid_{0};
  std::atomic<long long> drill_bases_built_{0};
  std::atomic<long long> slo_timelines_recorded_{0};

  struct PlanEntry;  // one region plan's warm inputs (engine.cpp)
  using PlanKey = std::pair<const fibermap::FiberMap*,
                            const core::ProvisionedNetwork*>;

  /// The snapshot plan's entry, inserted (members unbuilt) on first use.
  std::shared_ptr<PlanEntry> plan_entry(const RegionSnapshot& snap);
  /// A copy of the snapshot plan's base planner, building the base first
  /// if this is the plan's first drill.
  core::IncrementalPlanner clone_drill_base(const RegionSnapshot& snap);
  /// The snapshot plan's SLO probe timeline, recording it first if this is
  /// the plan's first probe.
  std::shared_ptr<const reliability::FailureTimeline> slo_timeline(
      const RegionSnapshot& snap);

  std::mutex plans_mu_;  // guards the lookup in plans_, never a build
  std::map<PlanKey, std::shared_ptr<PlanEntry>> plans_;
};

}  // namespace iris::fleet
