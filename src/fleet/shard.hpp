// One region of the fleet: an independently seeded world (map, plan,
// devices, controller, policy) whose closed loop runs to completion on its
// own worker thread, publishing a RegionSnapshot every tick.
//
// Determinism contract: a shard binds a PRIVATE MetricsRegistry to its
// thread (obs::ScopedRegistry) for the whole build + run, so every
// instrumented subsystem it touches records into that registry and nothing
// else. The canonical trace -- closed-loop result, snapshot bookkeeping,
// controller fingerprint and the full metrics export -- is therefore a pure
// function of the region config, and run_region_solo() produces the exact
// same bytes on the calling thread as the fleet produces with M shards
// racing. That bit-identity is the acceptance gate for the whole subsystem.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>

#include "control/closed_loop.hpp"
#include "control/controller.hpp"
#include "control/policy.hpp"
#include "fleet/snapshot.hpp"
#include "fleet/supervisor.hpp"
#include "obs/metrics.hpp"

namespace iris::fleet {

/// Everything that defines one region's world and its closed-loop run.
struct RegionConfig {
  RegionConfig() {
    planner.failure_tolerance = 1;
    planner.channels.wavelengths_per_fiber = 40;
    planner.threads = 1;  // shards are the parallelism; keep sweeps serial
    loop.duration_s = 120.0;
    loop.sample_interval_s = 1.0;
    policy.ewma_alpha = 0.5;
    policy.hysteresis_s = 3.0;
    policy.retry_backoff_s = 5.0;
  }

  std::uint64_t region_seed = 7;  ///< map generation + demand salt
  int dc_count = 5;
  int hut_count = 10;
  int capacity_fibers = 8;
  core::PlannerParams planner;
  control::ClosedLoopParams loop;
  control::PolicyParams policy;
  control::FaultConfig faults;  ///< default: no injected faults
  /// Scripted duct chaos: every `period` samples the seed-chosen victim
  /// duct fails at phase period/3 and recovers at 2*period/3, exercising
  /// the escape hatch and churning snapshot versions. 0 disables.
  long long chaos_duct_period = 0;
  /// Crash containment (supervisor.hpp), on iff supervisor.crash_every_cmds
  /// > 0. An unsupervised shard attaches no journal and emits no supervisor
  /// series, keeping crash-free traces byte-identical to pre-supervision
  /// builds.
  SupervisorParams supervisor;
  /// Command-plane scheduling for the shard's controller (and any recovery
  /// successor the supervisor raises). Serial by default: fleet traces stay
  /// byte-identical to pre-async builds unless a run opts in.
  control::CommandPlaneMode command_plane = control::CommandPlaneMode::kSerial;
};

/// The fleet-level run request: M regions derived from one base config.
struct FleetParams {
  int regions = 1;
  std::uint64_t base_seed = 7;
  RegionConfig base;
};

/// Region i's config: the base with seeds decorrelated per region. Pure --
/// solo runs and fleet runs derive identical configs from identical params.
RegionConfig derive_region_config(const FleetParams& params, int region);

/// What one region's completed run produced.
struct RegionRunResult {
  control::ClosedLoopResult loop;
  std::string trace;            ///< canonical text (see shard.cpp)
  std::uint64_t fingerprint = 0;  ///< fnv1a64(trace)
  RegionHealth health = RegionHealth::kHealthy;  ///< terminal health
  bool audit_clean = true;  ///< post-run device audit (quarantine => stale)
};

/// Deterministic per-region demand wobble (no RNG: replayable by seed).
control::TrafficMatrix fleet_demand(const fibermap::FiberMap& map,
                                    std::uint64_t seed, double t);

/// FNV-1a 64-bit over the bytes of `s` (the trace fingerprint hash).
std::uint64_t fnv1a64(std::string_view s);

class RegionShard {
 public:
  RegionShard(int region, RegionConfig cfg);
  RegionShard(const RegionShard&) = delete;
  RegionShard& operator=(const RegionShard&) = delete;
  ~RegionShard();

  /// Builds the world and runs the closed loop to completion on the calling
  /// thread, with the shard's registry bound for the whole scope and a
  /// snapshot published at every tick. Call at most once.
  const RegionRunResult& run();

  [[nodiscard]] int region() const noexcept { return region_; }
  [[nodiscard]] const RegionConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] SnapshotStore& store() noexcept { return store_; }
  [[nodiscard]] const SnapshotStore& store() const noexcept { return store_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept {
    return registry_;
  }
  /// Valid after run() returned.
  [[nodiscard]] const RegionRunResult& result() const noexcept {
    return result_;
  }

  [[nodiscard]] bool supervised() const noexcept {
    return cfg_.supervisor.supervised();
  }
  /// Lock-free health view, valid (and live) while the shard runs.
  [[nodiscard]] RegionHealth health() const noexcept {
    return slot_.health();
  }
  [[nodiscard]] const HealthSlot& slot() const noexcept { return slot_; }

 private:
  void build();
  void publish(long long tick, double t_s);
  void scripted_chaos();
  void make_trace();
  /// The crash-containment loop driver (supervised mode only).
  void run_supervised(const control::ClosedLoopParams& loop,
                      const control::DemandAt& demand);
  /// How a contained crash resumes (contain_crash's verdict).
  enum class Containment {
    kQuarantined,   ///< crash budget exhausted: abandon the run
    kTickComplete,  ///< recovery resolved the interrupted apply: the crashed
                    ///< sample is done, resume at the NEXT tick (PR 4: a
                    ///< recover() with had_in_flight completes the step)
    kRerunTick,     ///< crash outside any apply: re-run the sample
  };
  /// Handles one caught crash at loop time `t`: quarantine check, backoff,
  /// journal-backed recovery (with its own retry loop).
  Containment contain_crash(double t);

  int region_;
  RegionConfig cfg_;
  obs::MetricsRegistry registry_;
  SnapshotStore store_;

  std::shared_ptr<const fibermap::FiberMap> map_;
  std::shared_ptr<const core::ProvisionedNetwork> network_;
  std::shared_ptr<const core::AmpCutPlan> amp_cut_;
  std::unique_ptr<control::DeviceLayer> devices_;
  std::unique_ptr<control::IrisController> controller_;
  std::unique_ptr<control::ReconfigPolicy> policy_;
  /// Supervised mode only: the region's durable write-ahead journal. Lives
  /// in the shard (outside the controller, like the devices) so it survives
  /// controller death and feeds IrisController::recover().
  std::unique_ptr<control::IntentJournal> journal_;

  // Copy-on-write bookkeeping: books are re-copied only when the
  // controller's state_version moved since the last publish.
  std::shared_ptr<const control::ControllerCheckpoint> last_books_;
  std::uint64_t last_version_ = 0;

  graph::EdgeId chaos_victim_ = graph::kInvalidEdge;
  bool chaos_down_ = false;
  long long chaos_calls_ = 0;

  // Supervision state (shard-thread writes; slot_ is the cross-thread view).
  HealthSlot slot_;
  std::deque<double> crash_times_;   ///< loop times inside the window
  int consecutive_crashes_ = 0;      ///< resets on a completed recovery+tick
  long long suppress_publishes_ = 0; ///< post-recovery hold countdown
  long long demand_calls_ = 0;       ///< sample attempts = head tick index
  bool recovery_crash_armed_ = false;  ///< arm_during_recovery is one-shot

  RegionRunResult result_;
  bool ran_ = false;
};

/// Runs region i of the fleet solo, on the calling thread, through the
/// exact shard code path -- the reference the fleet's per-region traces
/// must match byte for byte.
RegionRunResult run_region_solo(const FleetParams& params, int region);

}  // namespace iris::fleet
