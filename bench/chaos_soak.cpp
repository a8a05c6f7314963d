// Chaos soak: a long, seeded closed-loop run against the fault-injected
// device layer -- transient and sticky faults on every command class, plus
// periodic duct failures and repairs -- auditing device state and resource
// pool invariants after every single apply. Prints reconfiguration, retry,
// rollback and quarantine statistics; exits non-zero on any invariant
// violation, so CI can run it under the sanitizers as an acceptance gate.
//
// With `crash_every_cmds=K` the soak additionally kills the controller
// every K device commands: the DeviceLayer and the intent journal survive,
// a successor controller recovers from the journal, and the audit must be
// clean after every recovery -- the crash-tolerance acceptance gate.
//
// With `srlg_chaos=1` the single-victim duct chaos is replaced by a
// correlated failure timeline: SRLGs are inferred on the region (shared
// trenches, shared huts), the planner provisions against their group events,
// and a seeded reliability::EventStream drives duct cuts, trench hits, hut
// outages and a deterministic hut maintenance window -- each group failing
// all member ducts atomically. Black-holed circuits must trigger the TE
// escape hatch (immediate reroute of the active intent); the run fails
// unless at least one hut-level event and one escape-hatch replan occurred.
//
// With `async=1` the controllers run the batched async command plane:
// conflict-free circuits drain and establish concurrently on per-device
// queues. The soak prints makespan statistics and runs a speedup demo on a
// region with >= 4 port/duct-disjoint circuits, failing unless the async
// reconfiguration makespan beats the serial baseline by >= 3x. The default
// (`async=0`) keeps every trace and this program's stdout byte-identical
// to the pre-async-plane build.
//
// Malformed or unknown arguments are rejected with exit code 2 (the atof
// family used to turn garbage into silent zeros). With no arguments the
// soak is byte-identical to the unparameterized run; --metrics exports the
// obs registry (deterministic unless --steady-clock swaps in wall time).
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "control/controller.hpp"
#include "control/journal.hpp"
#include "control/policy.hpp"
#include "fibermap/generator.hpp"
#include "fibermap/srlg.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "reliability/events.hpp"

namespace {

using namespace iris;
using control::ApplyOutcome;
using core::DcPair;

int violations = 0;

void check(bool ok, const char* what, double t) {
  if (!ok) {
    std::fprintf(stderr, "INVARIANT VIOLATED at t=%.0f: %s\n", t, what);
    ++violations;
  }
}

control::FaultConfig soak_faults(std::uint64_t seed) {
  control::FaultConfig cfg;
  // >= 1% per-command fault rate across the board, as the acceptance
  // criterion demands, with a sprinkle of sticky faults and timeouts.
  cfg.rates.oss_connect_fail = 0.03;
  cfg.rates.oss_disconnect_fail = 0.02;
  cfg.rates.oss_port_stuck = 0.003;
  cfg.rates.tx_tune_fail = 0.01;
  cfg.rates.tx_dead = 0.0002;
  cfg.rates.amp_dead = 0.02;
  cfg.rates.timeout_fraction = 0.25;
  cfg.seed = seed;
  return cfg;
}

/// Async acceptance demo: establish >= 4 circuits whose endpoints, routes
/// and amp sites are pairwise disjoint on twin fault-free controllers, one
/// serial and one async, and demand the async command plane beat the serial
/// reconfiguration makespan by >= 3x. Device traces are identical in content
/// (same commands, different schedule), so the final states must agree.
void run_speedup_demo() {
  fibermap::RegionParams rp;
  rp.seed = 11;
  rp.dc_count = 10;
  rp.hut_count = 14;
  rp.capacity_fibers = 8;
  const auto map = fibermap::generate_region(rp);
  core::PlannerParams params;
  params.failure_tolerance = 1;
  params.channels.wavelengths_per_fiber = 40;
  const auto net = core::provision(map, params);
  const auto plan = core::place_amplifiers_and_cutthroughs(map, net);
  const control::FaultConfig no_faults;  // deterministic: no retries/backoff
  control::DeviceLayer serial_devices(map, net, plan, no_faults);
  control::DeviceLayer async_devices(map, net, plan, no_faults);
  control::IrisController serial_ctl(map, net, plan, serial_devices);
  control::IrisController async_ctl(map, net, plan, async_devices);
  async_ctl.set_command_plane(control::CommandPlaneMode::kAsync);

  // Grow an endpoint-disjoint pair set greedily, certifying duct/amp-site
  // disjointness through the conflict graph itself: a candidate survives
  // only if the whole set still plans into a single schedule slot on a
  // scratch async controller. Deterministic -- same map, same trial order.
  control::TrafficMatrix tm;
  const auto& dcs = map.dcs();
  std::vector<graph::NodeId> used;
  const auto in_use = [&](graph::NodeId dc) {
    for (graph::NodeId u : used) {
      if (u == dc) return true;
    }
    return false;
  };
  for (std::size_t i = 0; i < dcs.size() && tm.size() < 4; ++i) {
    for (std::size_t j = i + 1; j < dcs.size() && tm.size() < 4; ++j) {
      if (in_use(dcs[i]) || in_use(dcs[j])) continue;
      auto trial = tm;
      trial[DcPair(dcs[i], dcs[j])] = 40;
      control::DeviceLayer scratch_devices(map, net, plan, no_faults);
      control::IrisController scratch(map, net, plan, scratch_devices);
      scratch.set_command_plane(control::CommandPlaneMode::kAsync);
      try {
        const auto r = scratch.apply_traffic_matrix(trial);
        if (r.outcome == ApplyOutcome::kCommitted && r.schedule_slots == 1 &&
            scratch.active_circuits().size() == trial.size()) {
          tm = std::move(trial);
          used.push_back(dcs[i]);
          used.push_back(dcs[j]);
        }
      } catch (const std::runtime_error&) {
        // infeasible candidate (hose/pool limits): skip it
      }
    }
  }
  check(tm.size() == 4, "demo region admits 4 disjoint circuits", 0);
  const auto sr = serial_ctl.apply_traffic_matrix(tm);
  const auto ar = async_ctl.apply_traffic_matrix(tm);
  check(sr.outcome == ApplyOutcome::kCommitted, "demo serial apply committed",
        0);
  check(ar.outcome == ApplyOutcome::kCommitted, "demo async apply committed",
        0);
  check(serial_ctl.active_circuits().size() == tm.size() &&
            async_ctl.active_circuits().size() == tm.size(),
        "demo established one circuit per pair", 0);
  const double speedup =
      ar.makespan_ms > 0.0 ? sr.makespan_ms / ar.makespan_ms : 0.0;
  std::printf("# async speedup demo: %zu disjoint circuits in %d slot(s), "
              "makespan %.1f ms serial -> %.1f ms async (%.2fx)\n",
              tm.size(), ar.schedule_slots, sr.makespan_ms, ar.makespan_ms,
              speedup);
  check(ar.schedule_slots == 1, "demo circuits scheduled conflict-free", 0);
  check(speedup >= 3.0, "async makespan speedup >= 3x", 0);
}

/// One edge of the pre-drained correlated failure timeline, in soak ticks
/// (1 tick = 1 simulated hour).
struct SrlgChaosEvent {
  long long tick = 0;
  reliability::EventKind kind = reliability::EventKind::kDuctCut;
  std::vector<graph::EdgeId> ducts;
};

const char* event_kind_label(reliability::EventKind k) {
  using reliability::EventKind;
  switch (k) {
    case EventKind::kDuctCut: return "cut";
    case EventKind::kTrenchHit: return "trench";
    case EventKind::kHutOutage: return "hut";
    case EventKind::kMaintenanceStart: return "maintenance";
    case EventKind::kDisaster: return "disaster";
    default: return nullptr;  // repair/end kinds carry no counter
  }
}

/// Deterministic demand wobble (no RNG: the whole soak must be replayable).
control::TrafficMatrix demand_at(const fibermap::FiberMap& map, double t) {
  control::TrafficMatrix tm;
  const auto& dcs = map.dcs();
  const auto tick = static_cast<long long>(t);
  // Sized so the policy's 1.25x headroom usually fits the hose and fiber
  // leases: most proposals land, and the refusal path still gets exercised
  // while a duct is down.
  for (std::size_t i = 0; i + 1 < dcs.size(); ++i) {
    const long long base = 30 + 10 * static_cast<long long>(i % 3);
    const long long wobble =
        40 * ((tick / 30 + static_cast<long long>(i)) % 3);
    tm[DcPair(dcs[i], dcs[i + 1])] = base + wobble;
  }
  return tm;
}

}  // namespace

int main(int argc, char** argv) {
  int samples = 10000;
  control::FaultConfig faults = soak_faults(0x5eed);
  bool srlg_chaos = false;
  bool async_plane = false;
  bool steady_clock = false;
  const auto rate = obs::in(0.0, 1.0);
  obs::Args args("bench_chaos_soak");
  args.positional("samples", samples, obs::at_least(0))
      .positional("seed", faults.seed)
      .option("oss_connect_fail", faults.rates.oss_connect_fail, rate)
      .option("oss_disconnect_fail", faults.rates.oss_disconnect_fail, rate)
      .option("oss_port_stuck", faults.rates.oss_port_stuck, rate)
      .option("tx_tune_fail", faults.rates.tx_tune_fail, rate)
      .option("tx_dead", faults.rates.tx_dead, rate)
      .option("amp_dead", faults.rates.amp_dead, rate)
      .option("timeout_fraction", faults.rates.timeout_fraction, rate)
      .option("crash_every_cmds", faults.crash_after_commands,
              obs::at_least(0))
      .option("srlg_chaos", srlg_chaos)
      .option("async", async_plane)
      .flag("--steady-clock", steady_clock,
            "wall-clock spans in the metrics export")
      .metrics();
  if (const int rc = args.parse(argc, argv)) return rc;
  if (steady_clock) {
    obs::registry().set_clock(std::make_unique<obs::SteadyClock>());
  }

  fibermap::RegionParams region;
  region.seed = 7;
  region.dc_count = 5;
  region.hut_count = 10;
  region.capacity_fibers = 8;
  auto map = fibermap::generate_region(region);
  int inferred_srlgs = 0;
  if (srlg_chaos) {
    // SRLGs enter the planner's scenario space: provision() below must
    // survive every group event (trench, hut) up to the tolerance, not just
    // independent single-duct cuts.
    inferred_srlgs = fibermap::infer_and_add_srlgs(map);
  }
  core::PlannerParams params;
  params.failure_tolerance = 1;
  params.channels.wavelengths_per_fiber = 40;
  const auto net = core::provision(map, params);
  const auto plan = core::place_amplifiers_and_cutthroughs(map, net);
  // Crash-tolerant deployment shape: the device layer and the intent
  // journal outlive any one controller process; each crash replaces only
  // the controller.
  const long long crash_every = faults.crash_after_commands;
  const auto plane_mode = async_plane ? control::CommandPlaneMode::kAsync
                                      : control::CommandPlaneMode::kSerial;
  control::DeviceLayer devices(map, net, plan, faults);
  control::IntentJournal journal;
  auto controller =
      std::make_unique<control::IrisController>(map, net, plan, devices);
  controller->set_command_plane(plane_mode);
  controller->attach_journal(&journal);

  control::PolicyParams pp;
  pp.ewma_alpha = 0.5;
  pp.hysteresis_s = 3.0;
  pp.retry_backoff_s = 5.0;
  control::ReconfigPolicy policy(pp);

  std::printf("# chaos soak: %d closed-loop samples, fault seed 0x%llx\n",
              samples, static_cast<unsigned long long>(faults.seed));
  if (async_plane) {
    std::printf("# command plane: async (batched issue, pipelined drains)\n");
  }
  if (crash_every > 0) {
    std::printf("# crash schedule: controller killed every %lld commands\n",
                crash_every);
  }

  // Correlated chaos timeline, pre-drained from the shared EventStream so
  // the soak stays replayable: same map, model and seed give the same
  // schedule. 1 soak tick = 1 simulated hour.
  std::vector<SrlgChaosEvent> schedule;
  if (srlg_chaos && samples > 0) {
    reliability::CorrelatedFailureModel cm;
    cm.base.cuts_per_km_year = 0.05;
    cm.base.mean_repair_hours = 12.0;
    cm.base.disasters_per_year = 0.0;  // site-down semantics stay out of scope
    cm.base.horizon_years = static_cast<double>(samples) / (365.25 * 24.0);
    cm.base.seed = faults.seed;
    cm.trench_hits_per_km_year = 2.0;
    cm.trench_repair_hours = 24.0;
    cm.hut_outages_per_year = 5.0;
    cm.hut_repair_hours = 6.0;
    // A deterministic maintenance window on the first hut SRLG guarantees
    // at least one hut-level group event regardless of the random draws.
    for (std::size_t s = 0; s < map.srlgs().size(); ++s) {
      if (map.srlgs()[s].kind != fibermap::SrlgKind::kHut) continue;
      reliability::MaintenanceWindow w;
      w.srlg = static_cast<fibermap::SrlgId>(s);
      w.start_h = 137.0;
      w.period_h = 1733.0;
      w.duration_h = 8.0;
      cm.maintenance.push_back(w);
      break;
    }
    reliability::EventStream stream(map, cm);
    while (auto ev = stream.next()) {
      if (ev->ducts.empty()) continue;
      schedule.push_back(SrlgChaosEvent{static_cast<long long>(ev->at_h),
                                        ev->kind, std::move(ev->ducts)});
    }
    std::printf("# srlg chaos: %d inferred SRLGs, %zu timeline events\n",
                inferred_srlgs, schedule.size());
  }

  long long applies = 0, committed = 0, rolled_back = 0, degraded = 0,
            rejected = 0, command_retries = 0, timeouts = 0, circuit_retries = 0,
            oss_ops = 0, audits = 0, crashes = 0, recovered_finished = 0,
            recovered_reissued = 0, orphans_adopted = 0;
  double total_makespan_ms = 0.0;
  int max_schedule_slots = 0;
  const graph::EdgeId victim = map.graph().edge_count() / 2;
  bool victim_down = false;
  long long escape_hatch_replans = 0, hut_level_events = 0;
  std::vector<int> duct_down(static_cast<std::size_t>(map.graph().edge_count()),
                             0);
  std::size_t next_event = 0;
  for (int i = 0; i < samples; ++i) {
    const double t = static_cast<double>(i);
    if (srlg_chaos) {
      // Correlated chaos: apply every timeline event due by this tick. A
      // group event fails all member ducts atomically; overlapping groups
      // are refcounted so a duct recovers only when its last cause clears.
      while (next_event < schedule.size() && schedule[next_event].tick <= i) {
        const SrlgChaosEvent& ev = schedule[next_event];
        const int delta = reliability::event_is_failure(ev.kind) ? 1 : -1;
        if (delta > 0) {
          if (const char* label = event_kind_label(ev.kind)) {
            obs::registry().add(
                obs::key("reliability.events", {{"kind", label}}));
          }
          // Maintenance windows are scheduled on hut SRLGs above, so both
          // kinds count as hut-level for the escape-hatch acceptance gate.
          if (ev.kind == reliability::EventKind::kHutOutage ||
              ev.kind == reliability::EventKind::kMaintenanceStart) {
            ++hut_level_events;
          }
        }
        for (graph::EdgeId e : ev.ducts) {
          duct_down[static_cast<std::size_t>(e)] += delta;
          if (delta > 0 && duct_down[static_cast<std::size_t>(e)] == 1) {
            controller->fail_duct(e);
          } else if (delta < 0 &&
                     duct_down[static_cast<std::size_t>(e)] == 0) {
            controller->restore_duct(e);
          }
        }
        ++next_event;
      }
    } else if (i % 997 == 500 && !victim_down) {
      // Periodic maintenance chaos: fail a duct, repair it later.
      controller->fail_duct(victim);
      victim_down = true;
    } else if (i % 997 == 650 && victim_down) {
      controller->restore_duct(victim);
      victim_down = false;
    }
    policy.observe(demand_at(map, t), t);
    if (srlg_chaos && controller->circuits_on_failed_ducts() > 0) {
      // TE escape hatch (mirrors control/closed_loop): circuits are
      // black-holed on failed ducts, so re-apply the active intent now --
      // circuit routing avoids failed ducts -- instead of waiting out the
      // policy's hysteresis.
      control::TrafficMatrix reroute;
      for (const control::Circuit& c : controller->active_circuits()) {
        reroute[c.pair] += c.wavelengths;
      }
      try {
        const auto report = controller->apply_traffic_matrix(reroute);
        ++applies;
        ++escape_hatch_replans;
        total_makespan_ms += report.makespan_ms;
        if (report.schedule_slots > max_schedule_slots) {
          max_schedule_slots = report.schedule_slots;
        }
        oss_ops += report.oss_operations;
        command_retries += report.command_retries;
        timeouts += report.commands_timed_out;
        circuit_retries += report.circuit_retries;
        switch (report.outcome) {
          case ApplyOutcome::kCommitted: ++committed; break;
          case ApplyOutcome::kRolledBack: ++rolled_back; break;
          case ApplyOutcome::kDegraded: ++degraded; break;
        }
        check(report.verified, "escape hatch report.verified", t);
        check(controller->audit_devices(), "audit_devices() after escape", t);
        ++audits;
      } catch (const std::runtime_error&) {
        ++rejected;  // e.g. no alternate route while a group is down
        check(controller->audit_devices(), "audit_devices() after refusal", t);
      } catch (const control::ControllerCrash&) {
        ++crashes;
        controller.reset();
        controller = std::make_unique<control::IrisController>(map, net, plan,
                                                               devices);
        controller->set_command_plane(plane_mode);
        const control::RecoveryReport rr = controller->recover(journal);
        recovered_finished += rr.finished_establishes;
        recovered_reissued += rr.reissued_establishes;
        orphans_adopted += rr.orphan_connects_adopted;
        check(rr.audit.clean(), "post-recovery audit", t);
        check(rr.adopted_circuits >= 0, "post-recovery adopted count", t);
        ++audits;
        devices.fault_injector().arm_crash(crash_every);
        policy.defer_retry(t);
      }
      continue;  // the policy proposes again at the next sample
    }
    const auto proposal = policy.propose(t);
    if (!proposal) continue;
    try {
      const auto report = controller->apply_traffic_matrix(*proposal);
      ++applies;
      total_makespan_ms += report.makespan_ms;
      if (report.schedule_slots > max_schedule_slots) {
        max_schedule_slots = report.schedule_slots;
      }
      oss_ops += report.oss_operations;
      command_retries += report.command_retries;
      timeouts += report.commands_timed_out;
      circuit_retries += report.circuit_retries;
      switch (report.outcome) {
        case ApplyOutcome::kCommitted: ++committed; break;
        case ApplyOutcome::kRolledBack: ++rolled_back; break;
        case ApplyOutcome::kDegraded: ++degraded; break;
      }
      if (report.target_reached()) {
        policy.mark_applied(*proposal);
      } else {
        policy.defer_retry(t);
      }
      // The transactional contract: after EVERY apply -- committed, rolled
      // back or degraded -- the device layer matches the books and the
      // free/quarantined/allocated pools exactly tile the inventory.
      check(report.verified, "report.verified", t);
      check(controller->audit_devices(), "audit_devices()", t);
      ++audits;
    } catch (const std::runtime_error&) {
      ++rejected;
      policy.defer_retry(t);  // don't hammer an infeasible proposal
      check(controller->audit_devices(), "audit_devices() after refusal", t);
    } catch (const control::ControllerCrash&) {
      // The controller process died mid-apply. The device layer keeps its
      // state; a successor recovers from the journal and the audit must be
      // clean before the loop continues.
      ++crashes;
      controller.reset();
      controller = std::make_unique<control::IrisController>(map, net, plan,
                                                             devices);
      controller->set_command_plane(plane_mode);
      const control::RecoveryReport rr = controller->recover(journal);
      recovered_finished += rr.finished_establishes;
      recovered_reissued += rr.reissued_establishes;
      orphans_adopted += rr.orphan_connects_adopted;
      check(rr.audit.clean(), "post-recovery audit", t);
      check(rr.adopted_circuits >= 0, "post-recovery adopted count", t);
      ++audits;
      devices.fault_injector().arm_crash(crash_every);
      // Deterministic bookkeeping: a committed roll-forward counts as the
      // apply landing; anything else retries after backoff.
      if (rr.resumed_outcome == ApplyOutcome::kCommitted) {
        policy.mark_applied(*proposal);
      } else {
        policy.defer_retry(t);
      }
    }
  }

  const auto s = controller->status();
  check(s.devices_consistent, "status().devices_consistent", samples);
  check(s.fibers_allocated >= 0, "fiber accounting", samples);

  std::printf("%-28s %12lld\n", "applies", applies);
  std::printf("%-28s %12lld\n", "  committed", committed);
  std::printf("%-28s %12lld\n", "  rolled back", rolled_back);
  std::printf("%-28s %12lld\n", "  degraded", degraded);
  std::printf("%-28s %12lld\n", "refused (pre-device)", rejected);
  std::printf("%-28s %12lld\n", "oss operations", oss_ops);
  std::printf("%-28s %12lld\n", "command retries", command_retries);
  std::printf("%-28s %12lld\n", "command timeouts", timeouts);
  std::printf("%-28s %12lld\n", "circuit retries", circuit_retries);
  std::printf("%-28s %12lld\n", "faults injected",
              controller->fault_injector().faults_injected());
  if (crash_every > 0) {
    std::printf("%-28s %12lld\n", "controller crashes", crashes);
    std::printf("%-28s %12lld\n", "  establishes finished", recovered_finished);
    std::printf("%-28s %12lld\n", "  establishes reissued", recovered_reissued);
    std::printf("%-28s %12lld\n", "  orphan connects adopted", orphans_adopted);
  }
  std::printf("%-28s %12d\n", "quarantined resources", s.quarantined_total());
  std::printf("%-28s %12d\n", "  fibers", s.quarantined_fibers);
  std::printf("%-28s %12d\n", "  add/drop pairs", s.quarantined_add_drops);
  std::printf("%-28s %12d\n", "  amplifiers", s.quarantined_amplifiers);
  std::printf("%-28s %12d\n", "  transceivers", s.quarantined_transceivers);
  std::printf("%-28s %12d\n", "zombie cross-connects", s.zombie_connects);
  std::printf("%-28s %12lld\n", "device audits passed", audits - violations);
  if (async_plane) {
    std::printf("%-28s %12.1f\n", "reconfig makespan ms (sum)",
                total_makespan_ms);
    std::printf("%-28s %12d\n", "max schedule slots", max_schedule_slots);
    run_speedup_demo();
  }
  if (srlg_chaos) {
    std::printf("%-28s %12lld\n", "srlg timeline events",
                static_cast<long long>(schedule.size()));
    std::printf("%-28s %12lld\n", "  hut-level events", hut_level_events);
    std::printf("%-28s %12lld\n", "escape hatch replans", escape_hatch_replans);
    // Acceptance gates: the correlated timeline must actually have taken a
    // hut group down, and the black-holed circuits must have forced at
    // least one TE escape-hatch reroute.
    check(hut_level_events >= 1, "srlg chaos produced a hut-level event",
          samples);
    check(escape_hatch_replans >= 1, "hut chaos exercised the TE escape hatch",
          samples);
  }

  if (bench::finish(args) != 0) return 1;

  if (violations > 0) {
    std::fprintf(stderr, "chaos soak FAILED: %d invariant violation(s)\n",
                 violations);
    return 1;
  }
  std::printf("chaos soak OK: all %lld audits clean\n", audits);
  return 0;
}
