// Per-region crash containment primitives (ISSUE 9 tentpole).
//
// The supervision model: a supervised shard attaches a durable IntentJournal
// to its controller and runs its closed loop through a containment layer
// that catches ControllerCrash (and stray std::exceptions), recovers a
// virgin successor controller from the journal over the SURVIVING device
// layer (the PR 4 recovery protocol), and resumes the loop mid-trace from a
// control::LoopCursor. Health transitions
//
//     healthy -> crashed -> recovering -> healthy
//                                 `-> quarantined (N crashes in a window)
//
// are recorded in a HealthSlot: plain atomics written only by the shard
// thread, read lock-free by the what-if engine to route degraded queries.
//
// Everything here is deterministic by construction. Crash points come from
// the seeded FaultInjector's command clock, backoff burns VIRTUAL clock time
// (obs::advance_virtual), and the quarantine window is measured in loop
// time -- no wall clock anywhere, so a fixed seed + crash schedule yields
// bit-identical recovered traces across runs, fleet sizes and query load.
#pragma once

#include <atomic>

namespace iris::fleet {

/// One region's supervision state, readable from any thread.
enum class RegionHealth : int {
  kHealthy = 0,
  kCrashed = 1,      ///< transient: set between catch and recovery start
  kRecovering = 2,   ///< journal replay done or in progress; publishes held
  kQuarantined = 3,  ///< crash budget exhausted; the loop was abandoned
};

[[nodiscard]] const char* region_health_name(RegionHealth health);

/// Crash containment knobs, carried inside RegionConfig. A shard is
/// supervised iff it has a crash schedule (crash_every_cmds > 0); an
/// unsupervised shard runs the exact pre-supervision code path (no journal
/// attached, no extra obs series), which is what keeps crash-free fleet
/// traces byte-identical to earlier builds. Between restart attempts the
/// shard backs off 1 s * 2^(k-1) for the k-th consecutive crash, capped at
/// 60 s, on the obs virtual clock -- never wall time.
struct SupervisorParams {
  /// Deterministic crash schedule: the shard's FaultInjector throws
  /// ControllerCrash every N device commands (re-armed after each recovery).
  /// 0 = no injected crashes and no supervision.
  long long crash_every_cmds = 0;
  /// Quarantine after this many crashes inside crash_window_s of loop time;
  /// 0 disables quarantine (every crash is recovered, forever).
  int quarantine_crashes = 0;
  double crash_window_s = 30.0;
  /// After a successful recovery the shard holds publishes for this many
  /// ticks (health stays kRecovering), so readers observe a bounded
  /// staleness window instead of a half-warm region.
  long long recover_hold_ticks = 2;
  /// Test hook: the FIRST recovery of the run arms a one-shot crash this
  /// many commands into the journal replay itself, exercising the
  /// crash-during-recovery retry path. 0 = off.
  long long arm_during_recovery = 0;

  [[nodiscard]] bool supervised() const noexcept {
    return crash_every_cmds > 0;
  }
};

/// Lock-free per-shard health ledger. Single writer (the shard thread);
/// any-thread readers. The shard also mirrors every field into its private
/// registry as fleet.supervisor.* series -- the slot is the authoritative
/// copy so IRIS_OBS=OFF builds keep full supervision behavior.
class HealthSlot {
 public:
  [[nodiscard]] RegionHealth health() const noexcept {
    return static_cast<RegionHealth>(health_.load(std::memory_order_acquire));
  }
  void set_health(RegionHealth h) noexcept {
    health_.store(static_cast<int>(h), std::memory_order_release);
  }

  [[nodiscard]] long long crashes() const noexcept {
    return crashes_.load(std::memory_order_acquire);
  }
  [[nodiscard]] long long recoveries() const noexcept {
    return recoveries_.load(std::memory_order_acquire);
  }
  [[nodiscard]] long long recovery_retries() const noexcept {
    return recovery_retries_.load(std::memory_order_acquire);
  }
  [[nodiscard]] long long publishes_suppressed() const noexcept {
    return publishes_suppressed_.load(std::memory_order_acquire);
  }
  [[nodiscard]] double backoff_total_s() const noexcept {
    return backoff_total_s_.load(std::memory_order_acquire);
  }

  // Writer-thread mutators.
  void count_crash() noexcept {
    crashes_.fetch_add(1, std::memory_order_release);
  }
  void count_recovery() noexcept {
    recoveries_.fetch_add(1, std::memory_order_release);
  }
  void count_recovery_retry() noexcept {
    recovery_retries_.fetch_add(1, std::memory_order_release);
  }
  void count_publish_suppressed() noexcept {
    publishes_suppressed_.fetch_add(1, std::memory_order_release);
  }
  void add_backoff(double s) noexcept {
    backoff_total_s_.store(backoff_total_s_.load(std::memory_order_relaxed) + s,
                           std::memory_order_release);
  }

 private:
  std::atomic<int> health_{static_cast<int>(RegionHealth::kHealthy)};
  std::atomic<long long> crashes_{0};
  std::atomic<long long> recoveries_{0};
  std::atomic<long long> recovery_retries_{0};
  std::atomic<long long> publishes_suppressed_{0};
  std::atomic<double> backoff_total_s_{0.0};
};

}  // namespace iris::fleet
