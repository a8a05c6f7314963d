// The demand-aware traffic-engineering engine: TM history -> clustering ->
// robust churn-minimizing allocation, packaged behind the control-plane's
// Policy contract so run_closed_loop and the fault-injected controller
// drive it exactly like the EWMA ReconfigPolicy.
//
// Where ReconfigPolicy chases the instantaneous (smoothed) matrix, this
// engine periodically re-plans one allocation that is simultaneously
// robust to a small cluster of representative matrices drawn from the
// recorded history -- so a heavy-tailed workload whose hot pairs wander
// keeps its circuits in place instead of churning after every shift.
// Hysteresis and retry backoff semantics match ReconfigPolicy, which is
// what lets the PR 2 fault-injection paths (rollback -> defer_retry ->
// re-propose) work unchanged.
#pragma once

#include "control/policy.hpp"
#include "te/robust.hpp"

namespace iris::te {

struct DemandAwareParams {
  /// hysteresis_s / wavelengths_per_fiber / retry_backoff_s / headroom are
  /// shared with the EWMA policy so side-by-side runs are apples to apples
  /// (ewma_alpha is unused here -- history replaces smoothing).
  control::PolicyParams base;
  TmStoreParams store;
  ClusterParams cluster;
  /// Re-cluster + re-solve cadence. The robust plan is also refreshed on
  /// mark_applied so churn is always measured against the live circuits.
  double replan_interval_s = 20.0;
  /// Surplus-fiber retention (see RobustParams::retain_surplus).
  bool retain_surplus = true;
};

class DemandAwarePolicy final : public control::Policy {
 public:
  DemandAwarePolicy(NetworkLimits limits, const DemandAwareParams& params);

  void observe(const control::TrafficMatrix& sample, double now_s) override;
  [[nodiscard]] std::optional<control::TrafficMatrix> propose(
      double now_s) override;
  void mark_applied(const control::TrafficMatrix& applied) override;
  void defer_retry(double now_s) override;
  [[nodiscard]] int diverging_pairs(double now_s) const override;
  [[nodiscard]] long long proposals_suppressed() const override {
    return suppressed_;
  }

  // Introspection for tests and benches.
  [[nodiscard]] const RobustPlan& current_plan() const noexcept {
    return plan_;
  }
  [[nodiscard]] const TmStore& store() const noexcept { return store_; }
  [[nodiscard]] long long replans() const noexcept { return replans_; }

 private:
  void replan(double now_s);
  [[nodiscard]] int fibers_for(long long wavelengths) const;

  DemandAwareParams params_;
  NetworkLimits limits_;
  TmStore store_;
  RobustPlan plan_;
  std::map<core::DcPair, int> applied_fibers_;
  std::map<core::DcPair, long long> applied_waves_;
  std::map<core::DcPair, double> diverged_since_;  // -1 = in agreement
  double next_replan_s_ = 0.0;
  double defer_until_ = 0.0;
  long long suppressed_ = 0;
  long long replans_ = 0;
};

}  // namespace iris::te
