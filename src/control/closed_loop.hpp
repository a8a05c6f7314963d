// Closed-loop operation: demand telemetry -> policy -> controller (paper
// SS5.2's full control loop, run against emulated devices).
//
// The caller supplies the demand trajectory (e.g. simflow::TrafficModel
// mapped onto DC pairs); the loop samples it, lets the ReconfigPolicy decide
// when the optical layer should move, and applies proposals through the
// IrisController, accumulating the operational statistics the paper cares
// about: how often the network reconfigures and how much capacity-gap time
// that costs.
#pragma once

#include <functional>

#include "control/controller.hpp"
#include "control/policy.hpp"

namespace iris::control {

/// Which planning brain drives the loop. The loop itself only sees the
/// abstract Policy interface; this knob lets configuration surfaces (bench
/// CLIs, te::make_policy) select the implementation without new plumbing.
enum class PolicyStrategy {
  kEwma,         ///< ReconfigPolicy: per-pair EWMA + headroom + hysteresis
  kDemandAware,  ///< te::DemandAwarePolicy: TM history -> cluster -> robust
};

struct ClosedLoopParams {
  double duration_s = 60.0;
  double sample_interval_s = 1.0;
  ReconfigStrategy strategy = ReconfigStrategy::kBreakBeforeMake;
  PolicyStrategy policy = PolicyStrategy::kEwma;
  /// Escape hatch: when an active circuit is black-holed by a failed duct
  /// (fail_duct mid-loop), replan immediately around the failure instead of
  /// waiting for the policy's divergence hysteresis to notice.
  bool replan_on_failed_ducts = true;
  /// Invoked once per sample, after every controller mutation for that tick
  /// has committed (including escape-hatch reroutes and rejected proposals).
  /// The loop is single-threaded, so the callback observes only committed
  /// state -- the fleet snapshots each region here. `tick` counts from 0;
  /// `t_s` is the sample's loop time. Unset = no overhead.
  std::function<void(long long tick, double t_s)> on_tick;
};

struct ClosedLoopResult {
  int samples = 0;
  int reconfigurations = 0;
  int rejected = 0;             ///< proposals the controller refused
  /// Applies forced by the failed-duct escape hatch: circuits were carrying
  /// no traffic over a failed duct, so the loop rerouted them immediately.
  int escape_hatch_replans = 0;
  long long oss_operations = 0;
  double total_capacity_gap_ms = 0.0;
  /// Sum of per-apply command-plane makespans (ReconfigReport::makespan_ms):
  /// the reconfiguration wall time the loop spent, serial or async.
  double total_makespan_ms = 0.0;
  double last_apply_s = -1.0;

  // Fault handling (all zero when the controller injects no faults).
  int rolled_back = 0;          ///< applies undone by compensating rollback
  int degraded_applies = 0;     ///< applies that ended kDegraded
  long long command_retries = 0;
  long long commands_timed_out = 0;
  long long circuit_retries = 0;
  long long resources_quarantined = 0;
  /// Time during which the network carried something other than the last
  /// proposed target (from a failed apply until the next successful one).
  /// Escape-hatch reroutes participate: a reroute that falls short (or is
  /// rejected outright) opens the window, one that lands closes it, and an
  /// already-open window is never re-opened -- each degraded interval is
  /// counted exactly once. Mirrored into the `loop.time_degraded_s` gauge.
  double time_degraded_s = 0.0;

  // Policy observability (filled from the Policy interface at loop end).
  int diverging_pairs_end = 0;  ///< pairs still off-plan when the loop ended
  /// Cumulative propose() calls that saw divergence but stayed quiet because
  /// of hysteresis or retry backoff -- reconfigurations damped away.
  long long proposals_suppressed = 0;

  /// Mean seconds between reconfigurations; the paper's premise is that
  /// this is large ("relatively infrequent").
  [[nodiscard]] double mean_reconfig_spacing_s(double duration_s) const {
    return reconfigurations > 0 ? duration_s / reconfigurations : duration_s;
  }
};

/// Demand at time t, in wavelengths per pair.
using DemandAt = std::function<TrafficMatrix(double t_s)>;

/// Resumable loop position. A supervisor that catches a crash mid-loop
/// (ControllerCrash escaping an apply) recovers the controller and calls
/// the cursor overload again with the SAME cursor. The resume point is the
/// supervisor's call: when recovery resolved the crashed sample's in-flight
/// apply (RecoveryReport::had_in_flight -- the step is complete, per the
/// crash-recovery protocol), it bumps `next_t` by one sample interval so the
/// loop re-enters at the NEXT tick; only a crash outside any apply re-runs
/// its sample. Either way the resume point is a pure function of the crash
/// schedule, so recovered runs are bit-identical across repetitions.
/// `result.samples` counts tick ATTEMPTS, which keeps the obs mirror exact.
struct LoopCursor {
  ClosedLoopResult result;
  double next_t = 0.0;          ///< the sample to (re-)run on next entry
  double degraded_since = -1.0; ///< open degraded window start, -1 = closed
  bool finished = false;        ///< tail accounting ran; cursor is spent
};

/// Runs the loop. Proposals that the controller rejects (hose violation,
/// pool exhaustion) are counted and skipped; the loop keeps running. With
/// fault injection on, applies that roll back or lose circuits leave the
/// proposal unmarked -- the policy re-proposes after its retry backoff --
/// and the loop accounts the time spent off-target in `time_degraded_s`.
ClosedLoopResult run_closed_loop(IrisController& controller, Policy& policy,
                                 const DemandAt& demand,
                                 const ClosedLoopParams& params);

/// Resumable form: all loop state lives in `cursor`. On a clean return the
/// cursor is finished and `cursor.result` is complete (identical to what the
/// four-argument form returns). If an exception escapes (ControllerCrash or
/// otherwise), the cursor holds the position of the offending sample; after
/// external recovery the caller re-invokes with the same cursor to resume.
void run_closed_loop(IrisController& controller, Policy& policy,
                     const DemandAt& demand, const ClosedLoopParams& params,
                     LoopCursor& cursor);

}  // namespace iris::control
