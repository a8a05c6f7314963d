// Copy-on-write region snapshots (ROADMAP: region-fleet scale-out).
//
// Every closed-loop tick publishes an immutable picture of one region's
// world -- fiber map, provisioned plan, amplifier/cut-through placement and
// the controller's full books. Readers pin the latest snapshot with one
// atomic pointer load and then work lock-free for as long as the store is
// alive; the hot loop never waits on them. The map/plan/placement layers
// are immutable for a region's whole lifetime, so consecutive snapshots
// share them, and the controller books are re-copied only when
// IrisController::state_version() moved since the last publish -- a quiet
// tick costs one small allocation, not a checkpoint rebuild.
//
// Lifetime contract: a `const RegionSnapshot*` obtained from current()
// stays valid until the SnapshotStore is destroyed -- not merely until the
// next publish. That is what lets the publish path be a plain atomic
// pointer store with no reference counting handshake against concurrent
// readers (the std::atomic<shared_ptr> alternative serializes readers and
// writers on an internal lock). To keep that promise cheaply, the store
// retains snapshots only once a reader exists: until the first current()
// call, publish() frees every superseded snapshot (a fleet nobody queries
// holds one); from then on it keeps every snapshot it publishes (the arena
// below). Snapshots are small -- a handful of shared_ptrs -- but each one
// pins its own copy of the controller books, which is what a run of
// thousands of unread ticks would otherwise accumulate.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>

#include "control/journal.hpp"
#include "core/amp_cut.hpp"
#include "core/provision.hpp"
#include "fibermap/fibermap.hpp"
#include "obs/metrics.hpp"

namespace iris::fleet {

/// One immutable picture of a region at a loop tick. Everything reachable
/// from here is const: what-if queries share snapshots freely across
/// threads with no synchronization beyond the publishing store's lifetime.
struct RegionSnapshot {
  int region = 0;
  long long tick = -1;   ///< closed-loop sample index (0-based)
  double t_s = 0.0;      ///< loop time of the sample
  std::uint64_t version = 0;  ///< controller state_version at publish

  std::shared_ptr<const fibermap::FiberMap> map;
  std::shared_ptr<const core::ProvisionedNetwork> network;
  std::shared_ptr<const core::AmpCutPlan> amp_cut;
  /// Full controller books (journal-checkpoint shape) as of this tick. The
  /// loop publishes only after every mutation of the tick has committed, so
  /// this never exposes a half-applied transaction.
  std::shared_ptr<const control::ControllerCheckpoint> books;
};

/// Single-writer/many-reader publication point for one region's snapshots.
/// The shard's loop thread is the only writer; readers pin the latest
/// snapshot with one lock-free atomic load.
class SnapshotStore {
 public:
  SnapshotStore() = default;
  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// Writer-thread only. The snapshot joins the arena and becomes the
  /// published current(). While no reader has ever pinned a snapshot, the
  /// superseded ones are freed.
  void publish(std::unique_ptr<const RegionSnapshot> snap) {
    published_tick_.store(snap->tick, std::memory_order_release);
    arena_.push_back(std::move(snap));
    // Dekker-style handshake with current(), whose pin is a seq_cst store
    // to pinned_ followed by a seq_cst load of current_. All four accesses
    // are seq_cst, so they fall in one total order. If the load below sees
    // pinned_ unset, it precedes every reader's pin store in that order,
    // and so does the current_ store just before it: every reader's later
    // current_ load returns this snapshot or a newer one, never one of the
    // superseded snapshots freed here. A reader whose pin comes first makes
    // this and every later publish see pinned_ set and free nothing.
    current_.store(arena_.back().get(), std::memory_order_seq_cst);
    if (!pinned_.load(std::memory_order_seq_cst)) {
      arena_.erase(arena_.begin(), arena_.end() - 1);
    }
    published_.fetch_add(1, std::memory_order_release);
    update_age_gauge();
  }

  /// Writer-thread only: the shard declares it is processing sample `head`
  /// (before any publish for it). Drives the fleet.snapshots.age_ticks
  /// staleness gauge: published-head tick vs shard tick. The gauge is only
  /// touched when staleness moves through a nonzero value, so a crash-free
  /// run (staleness identically 0) exports byte-identical series.
  void begin_tick(long long head) {
    head_.store(head, std::memory_order_release);
    update_age_gauge();
  }

  /// Pins the latest snapshot; null until the first publish. Valid until
  /// the store is destroyed. Safe from any thread. The only way to obtain a
  /// snapshot pointer: the first call switches the store to retaining
  /// every snapshot (see publish()).
  [[nodiscard]] const RegionSnapshot* current() const {
    pinned_.store(true, std::memory_order_seq_cst);
    return current_.load(std::memory_order_seq_cst);
  }

  [[nodiscard]] long long published() const {
    return published_.load(std::memory_order_acquire);
  }

  /// Latest sample index the shard has started (-1 before the first tick).
  /// Safe from any thread; per-query staleness is head() - snapshot->tick.
  [[nodiscard]] long long head() const {
    return head_.load(std::memory_order_acquire);
  }

  /// Completed ticks not yet published (0 on the healthy cadence, where the
  /// previous sample's snapshot is always out before the next begins).
  [[nodiscard]] long long staleness_ticks() const {
    const long long h = head();
    if (h < 0) return 0;
    const long long lag = h - 1 - published_tick_.load(std::memory_order_acquire);
    return lag > 0 ? lag : 0;
  }

 private:
  void update_age_gauge() {
    const long long stale = staleness_ticks();
    if (stale != last_stale_) {
      if (stale > 0 || last_stale_ > 0) {
        obs::registry().set_gauge("fleet.snapshots.age_ticks",
                                  static_cast<double>(stale));
      }
      last_stale_ = stale;
    }
  }

  // Only the writer touches the deque (readers go through current_), and
  // deque growth never moves existing elements.
  std::deque<std::unique_ptr<const RegionSnapshot>> arena_;
  std::atomic<const RegionSnapshot*> current_{nullptr};
  /// Set by the first current() call, never cleared.
  mutable std::atomic<bool> pinned_{false};
  std::atomic<long long> published_{0};
  std::atomic<long long> head_{-1};
  std::atomic<long long> published_tick_{-1};
  long long last_stale_ = 0;  ///< writer-thread only (gauge dedup)
};

}  // namespace iris::fleet
