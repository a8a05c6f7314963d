#include "control/closed_loop.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace iris::control {

ClosedLoopResult run_closed_loop(IrisController& controller, Policy& policy,
                                 const DemandAt& demand,
                                 const ClosedLoopParams& params) {
  LoopCursor cursor;
  run_closed_loop(controller, policy, demand, params, cursor);
  return std::move(cursor.result);
}

void run_closed_loop(IrisController& controller, Policy& policy,
                     const DemandAt& demand, const ClosedLoopParams& params,
                     LoopCursor& cursor) {
  if (params.duration_s <= 0.0 || params.sample_interval_s <= 0.0) {
    throw std::invalid_argument("run_closed_loop: bad parameters");
  }
  if (cursor.finished) {
    throw std::logic_error("run_closed_loop: cursor already finished");
  }
  auto& reg = obs::registry();

  // The result's own tallies are the source of truth in every build; each
  // increment below is mirrored into a loop.* series at the same point, so
  // the registry sees the same counts.
  ClosedLoopResult& result = cursor.result;
  const auto open_degraded = [&](double t) {
    if (cursor.degraded_since < 0.0) cursor.degraded_since = t;
  };
  const auto close_degraded = [&](double t) {
    if (cursor.degraded_since >= 0.0) {
      result.time_degraded_s += t - cursor.degraded_since;
      reg.add_gauge("loop.time_degraded_s", t - cursor.degraded_since);
      cursor.degraded_since = -1.0;
    }
  };
  const auto fold_report = [&](const ReconfigReport& report) {
    result.oss_operations += report.oss_operations;
    result.total_capacity_gap_ms += report.capacity_gap_ms();
    // Loop-local only (no registry mirror): metric dumps stay stable across
    // serial and async planes.
    result.total_makespan_ms += report.makespan_ms;
    result.command_retries += report.command_retries;
    result.commands_timed_out += report.commands_timed_out;
    result.circuit_retries += report.circuit_retries;
    result.resources_quarantined += report.resources_quarantined;
    reg.add("loop.oss_operations", report.oss_operations);
    reg.add_gauge("loop.total_capacity_gap_ms", report.capacity_gap_ms());
    reg.add("loop.command_retries", report.command_retries);
    reg.add("loop.commands_timed_out", report.commands_timed_out);
    reg.add("loop.circuit_retries", report.circuit_retries);
    reg.add("loop.resources_quarantined", report.resources_quarantined);
    if (report.outcome == ApplyOutcome::kRolledBack) {
      ++result.rolled_back;
      reg.add("loop.rolled_back");
    }
    if (report.outcome == ApplyOutcome::kDegraded) {
      ++result.degraded_applies;
      reg.add("loop.degraded_applies");
    }
  };

  // Every iteration exit path (both continues and the natural body end)
  // funnels through this before yielding the tick, so on_tick always sees
  // the controller with this sample's mutations fully committed.
  const auto end_tick = [&](double t) {
    if (params.on_tick) params.on_tick(result.samples - 1, t);
  };

  for (double t = cursor.next_t; t < params.duration_s;
       t += params.sample_interval_s) {
    cursor.next_t = t;  // a crash below resumes by re-running this sample
    // One tick of virtual time per sample: tick spans carry the sampling
    // interval as their (deterministic) duration.
    const obs::Span tick("loop.tick");
    reg.advance_virtual(params.sample_interval_s);
    policy.observe(demand(t), t);
    ++result.samples;
    reg.add("loop.samples");
    if (controller.circuits_on_failed_ducts() > 0) {
      // Escape hatch: active circuits are black-holed on a failed duct.
      // Re-apply the current intent immediately -- circuits_for reroutes
      // around failed ducts -- rather than waiting out policy hysteresis.
      try {
        const auto report = controller.apply_traffic_matrix(
            controller.reroute_demand(), params.strategy);
        ++result.escape_hatch_replans;
        reg.add("loop.escape_hatch_replans");
        fold_report(report);
        // The forced reroute participates in degraded-time accounting like
        // any other apply: a reroute that falls short leaves the network
        // off-intent (the window opens if not already open, so the interval
        // is never double-counted), and one that lands closes the window.
        if (report.target_reached()) {
          close_degraded(t);
        } else {
          open_degraded(t);
        }
      } catch (const std::runtime_error&) {
        ++result.rejected;  // e.g. no alternate route while the duct is down
        reg.add("loop.rejected");
        // Circuits stay black-holed: this is degraded time, not dead air.
        open_degraded(t);
      }
      end_tick(t);
      continue;  // the policy proposes again at the next sample
    }
    const auto proposal = policy.propose(t);
    if (!proposal) {
      end_tick(t);
      continue;
    }
    reg.add("loop.policy.proposals");
    try {
      const auto report =
          controller.apply_traffic_matrix(*proposal, params.strategy);
      fold_report(report);
      if (report.target_reached()) {
        policy.mark_applied(*proposal);
        ++result.reconfigurations;
        reg.add("loop.reconfigurations");
        result.last_apply_s = t;
        close_degraded(t);
      } else {
        // Rolled back (or worse): the network still carries the old circuit
        // set. Leave the proposal unmarked so the policy re-proposes once
        // its retry backoff expires.
        policy.defer_retry(t);
        reg.add("loop.policy.deferred");
        open_degraded(t);
      }
    } catch (const std::runtime_error&) {
      ++result.rejected;  // keep observing; the demand may become feasible
      reg.add("loop.rejected");
    }
    end_tick(t);
  }
  if (cursor.degraded_since >= 0.0) {
    result.time_degraded_s += params.duration_s - cursor.degraded_since;
    reg.add_gauge("loop.time_degraded_s",
                  params.duration_s - cursor.degraded_since);
    cursor.degraded_since = -1.0;
  }
  result.diverging_pairs_end = policy.diverging_pairs(params.duration_s);
  result.proposals_suppressed = policy.proposals_suppressed();
  reg.set_gauge("loop.diverging_pairs_end", result.diverging_pairs_end);
  reg.set_gauge("loop.proposals_suppressed",
                static_cast<double>(result.proposals_suppressed));
  reg.set_gauge("loop.last_apply_s", result.last_apply_s);

  cursor.finished = true;
}

}  // namespace iris::control
