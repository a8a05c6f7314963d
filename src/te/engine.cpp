#include "te/engine.hpp"

#include <stdexcept>

namespace iris::te {

using control::TrafficMatrix;
using core::DcPair;

DemandAwarePolicy::DemandAwarePolicy(NetworkLimits limits,
                                     const DemandAwareParams& params)
    : params_(params), limits_(std::move(limits)), store_(params.store) {
  if (params.base.headroom < 1.0 || params.base.hysteresis_s < 0.0 ||
      params.base.wavelengths_per_fiber <= 0 ||
      params.base.retry_backoff_s < 0.0 || params.replan_interval_s <= 0.0) {
    throw std::invalid_argument("DemandAwarePolicy: bad parameters");
  }
}

int DemandAwarePolicy::fibers_for(long long wavelengths) const {
  const int lambda = params_.base.wavelengths_per_fiber;
  return static_cast<int>((wavelengths + lambda - 1) / lambda);
}

void DemandAwarePolicy::replan(double now_s) {
  const auto representatives = cluster_history(store_, params_.cluster);
  RobustParams rp;
  rp.headroom = params_.base.headroom;
  rp.wavelengths_per_fiber = params_.base.wavelengths_per_fiber;
  rp.retain_surplus = params_.retain_surplus;
  plan_ = solve_robust_allocation(representatives, limits_, applied_fibers_, rp);
  next_replan_s_ = now_s + params_.replan_interval_s;
  ++replans_;
}

void DemandAwarePolicy::observe(const TrafficMatrix& sample, double now_s) {
  store_.record(sample, now_s);
  // Replan on cadence, and immediately when the live sample escapes the
  // plan's envelope -- a brand-new peak must not wait out the cadence.
  bool escaped = false;
  for (const auto& [pair, waves] : sample) {
    const auto it = plan_.wavelengths.find(pair);
    if (it == plan_.wavelengths.end() || it->second < waves) {
      escaped = true;
      break;
    }
  }
  if (now_s >= next_replan_s_ || replans_ == 0 || escaped) replan(now_s);

  // Hysteresis clock, same contract as ReconfigPolicy. A pair diverges
  // while the plan needs a different circuit size (fiber move, disruptive)
  // or more tuned wavelengths than are live (hitless retune). A live
  // surplus of wavelengths over the plan is left alone -- tearing tuned
  // capacity down buys nothing.
  for (const auto& [pair, fibers] : plan_.fibers) {
    const auto fit = applied_fibers_.find(pair);
    const int applied = fit == applied_fibers_.end() ? 0 : fit->second;
    const auto wit = applied_waves_.find(pair);
    const long long waves = wit == applied_waves_.end() ? 0 : wit->second;
    const auto pit = plan_.wavelengths.find(pair);
    const long long plan_waves = pit == plan_.wavelengths.end() ? 0 : pit->second;
    auto [it, inserted] = diverged_since_.try_emplace(pair, -1.0);
    if (fibers != applied || plan_waves > waves) {
      if (it->second < 0.0) it->second = now_s;
    } else {
      it->second = -1.0;
    }
  }
  for (const auto& [pair, applied] : applied_fibers_) {
    if (applied == 0 || plan_.fibers.contains(pair)) continue;
    auto [it, inserted] = diverged_since_.try_emplace(pair, now_s);
    if (it->second < 0.0) it->second = now_s;
  }
}

std::optional<TrafficMatrix> DemandAwarePolicy::propose(double now_s) {
  if (now_s < defer_until_) {
    if (diverging_pairs(now_s) > 0) ++suppressed_;
    return std::nullopt;
  }
  for (const auto& [pair, since] : diverged_since_) {
    if (since >= 0.0 && now_s - since >= params_.base.hysteresis_s) {
      return plan_.wavelengths;
    }
  }
  if (diverging_pairs(now_s) > 0) ++suppressed_;  // hysteresis still running
  return std::nullopt;
}

void DemandAwarePolicy::mark_applied(const TrafficMatrix& applied) {
  applied_fibers_.clear();
  applied_waves_.clear();
  for (const auto& [pair, waves] : applied) {
    if (waves <= 0) continue;
    applied_fibers_[pair] = fibers_for(waves);
    applied_waves_[pair] = waves;
  }
  for (auto& [pair, since] : diverged_since_) since = -1.0;
  // Refresh the plan against the now-live circuit set so surplus retention
  // and churn accounting track reality (no clock needed: the cadence timer
  // is left untouched).
  const auto representatives = cluster_history(store_, params_.cluster);
  RobustParams rp;
  rp.headroom = params_.base.headroom;
  rp.wavelengths_per_fiber = params_.base.wavelengths_per_fiber;
  rp.retain_surplus = params_.retain_surplus;
  plan_ = solve_robust_allocation(representatives, limits_, applied_fibers_, rp);
}

void DemandAwarePolicy::defer_retry(double now_s) {
  defer_until_ = now_s + params_.base.retry_backoff_s;
}

int DemandAwarePolicy::diverging_pairs(double now_s) const {
  (void)now_s;
  int count = 0;
  for (const auto& [pair, since] : diverged_since_) count += (since >= 0.0);
  return count;
}

}  // namespace iris::te
