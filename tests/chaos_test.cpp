// Chaos soak of the closed control loop: seeded faults at every device, duct
// failures mid-run, and an audit of device state + resource-pool invariants
// after every apply. Also pins down the determinism guarantee: the same fault
// seed produces the same ClosedLoopResult and the same command trace, run
// after run and regardless of how many threads provisioned the plan.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "control/closed_loop.hpp"
#include "control/controller.hpp"
#include "control/policy.hpp"
#include "controller_rig.hpp"
#include "fibermap/generator.hpp"
#include "run_digest.hpp"

namespace iris::control {
namespace {

using core::DcPair;

core::PlannerParams chaos_params(int threads = 0) {
  core::PlannerParams params;
  params.failure_tolerance = 1;
  params.channels.wavelengths_per_fiber = 40;
  if (threads > 0) params.threads = threads;
  return params;
}

FaultConfig chaos_faults(std::uint64_t seed) {
  FaultConfig cfg;
  cfg.rates.oss_connect_fail = 0.03;
  cfg.rates.oss_disconnect_fail = 0.02;
  cfg.rates.oss_port_stuck = 0.002;
  cfg.rates.tx_tune_fail = 0.01;
  cfg.rates.tx_dead = 0.0005;
  cfg.rates.amp_dead = 0.01;
  cfg.rates.timeout_fraction = 0.3;
  cfg.seed = seed;
  return cfg;
}

/// Deterministic demand trajectory: sinusoid-free integer wobble so two runs
/// sample the exact same matrices.
TrafficMatrix demand_at(const fibermap::FiberMap& map, double t) {
  TrafficMatrix tm;
  const auto& dcs = map.dcs();
  const auto tick = static_cast<long long>(t);
  for (std::size_t i = 0; i + 1 < dcs.size(); ++i) {
    const long long base = 40 + 20 * static_cast<long long>(i);
    const long long wobble = 40 * ((tick / 25 + static_cast<long long>(i)) % 3);
    tm[DcPair(dcs[i], dcs[i + 1])] = base + wobble;
  }
  return tm;
}

struct SoakOutcome {
  ClosedLoopResult loop;
  std::string fingerprint;  ///< outcome counters + last command trace
  int audits = 0;
};

/// Drives the closed loop one sample at a time (so the device audit and pool
/// invariants can be asserted after every apply), injecting a duct failure
/// and repair mid-run.
SoakOutcome run_soak(int threads, std::uint64_t seed) {
  fibermap::RegionParams region;
  region.seed = 7;
  region.dc_count = 4;
  region.hut_count = 8;
  region.capacity_fibers = 8;
  const auto map = fibermap::generate_region(region);
  const auto net = core::provision(map, chaos_params(threads));
  const auto plan = core::place_amplifiers_and_cutthroughs(map, net);
  ControllerRig rig(map, net, plan, chaos_faults(seed));
  IrisController& controller = rig.controller;

  PolicyParams pp;
  pp.ewma_alpha = 0.5;
  pp.hysteresis_s = 3.0;
  pp.retry_backoff_s = 5.0;
  ReconfigPolicy policy(pp);

  SoakOutcome out;
  const double duration_s = 240.0;
  const graph::EdgeId victim = map.graph().edge_count() / 2;
  double degraded_since = -1.0;
  for (double t = 0.0; t < duration_s; t += 1.0) {
    if (t == 80.0) controller.fail_duct(victim);
    if (t == 160.0) controller.restore_duct(victim);
    policy.observe(demand_at(map, t), t);
    ++out.loop.samples;
    const auto proposal = policy.propose(t);
    if (!proposal) continue;
    try {
      const auto report = controller.apply_traffic_matrix(*proposal);
      out.loop.oss_operations += report.oss_operations;
      out.loop.command_retries += report.command_retries;
      out.loop.commands_timed_out += report.commands_timed_out;
      out.loop.circuit_retries += report.circuit_retries;
      out.loop.resources_quarantined += report.resources_quarantined;
      if (report.outcome == ApplyOutcome::kRolledBack) ++out.loop.rolled_back;
      if (report.outcome == ApplyOutcome::kDegraded) ++out.loop.degraded_applies;
      if (report.target_reached()) {
        policy.mark_applied(*proposal);
        ++out.loop.reconfigurations;
        if (degraded_since >= 0.0) {
          out.loop.time_degraded_s += t - degraded_since;
          degraded_since = -1.0;
        }
      } else {
        policy.defer_retry(t);
        if (degraded_since < 0.0) degraded_since = t;
      }
      // The transactional contract, checked after EVERY apply.
      EXPECT_TRUE(report.verified) << "device audit failed at t=" << t;
      EXPECT_TRUE(controller.audit_devices());
      ++out.audits;
    } catch (const std::runtime_error&) {
      ++out.loop.rejected;
      EXPECT_TRUE(controller.audit_devices())
          << "refused apply corrupted device state at t=" << t;
    }
  }

  const auto s = controller.status();
  EXPECT_TRUE(s.devices_consistent);
  std::ostringstream fp;
  fp << out.loop.reconfigurations << '/' << out.loop.rejected << '/'
     << out.loop.rolled_back << '/' << out.loop.degraded_applies << '/'
     << out.loop.oss_operations << '/' << out.loop.command_retries << '/'
     << out.loop.commands_timed_out << '/' << out.loop.circuit_retries << '/'
     << out.loop.resources_quarantined << '/' << s.quarantined_total() << '/'
     << s.zombie_connects << '/'
     << rig.devices.fault_injector().faults_injected() << '\n';
  for (const auto& cmd : controller.last_command_trace()) {
    fp << to_string(cmd) << '\n';
  }
  out.fingerprint = fp.str();
  return out;
}

struct CrashSoakOutcome {
  int crashes = 0;
  int reconfigurations = 0;
  int rejected = 0;
  std::string fingerprint;  ///< counters + full controller/device state
  RunDigest digest;  ///< journal, traces, fingerprints after every proposal
};

/// The closed loop under BOTH fault regimes at once: the chaos fault rates
/// AND a crash schedule that kills the controller every `crash_every`
/// device commands. Each crash spawns a successor over the surviving
/// DeviceLayer which recovers from the intent journal; the audit must be
/// clean after every recovery. The fingerprint is the controller's canonical
/// state (books + hardware read-back), so two runs compare bit-exactly
/// across their crash-restart boundaries.
CrashSoakOutcome run_crash_soak(std::uint64_t seed, long long crash_every) {
  fibermap::RegionParams region;
  region.seed = 7;
  region.dc_count = 4;
  region.hut_count = 8;
  region.capacity_fibers = 8;
  const auto map = fibermap::generate_region(region);
  const auto net = core::provision(map, chaos_params());
  const auto plan = core::place_amplifiers_and_cutthroughs(map, net);
  FaultConfig cfg = chaos_faults(seed);
  cfg.crash_after_commands = crash_every;
  DeviceLayer devices(map, net, plan, cfg);
  IntentJournal journal;
  auto controller = std::make_unique<IrisController>(map, net, plan, devices);
  controller->attach_journal(&journal);

  PolicyParams pp;
  pp.ewma_alpha = 0.5;
  pp.hysteresis_s = 3.0;
  pp.retry_backoff_s = 5.0;
  ReconfigPolicy policy(pp);

  CrashSoakOutcome out;
  const double duration_s = 150.0;
  const graph::EdgeId victim = map.graph().edge_count() / 2;
  for (double t = 0.0; t < duration_s; t += 1.0) {
    if (t == 50.0) controller->fail_duct(victim);
    if (t == 100.0) controller->restore_duct(victim);
    policy.observe(demand_at(map, t), t);
    const auto proposal = policy.propose(t);
    if (!proposal) continue;
    try {
      const auto report = controller->apply_traffic_matrix(*proposal);
      if (report.target_reached()) {
        policy.mark_applied(*proposal);
        ++out.reconfigurations;
      } else {
        policy.defer_retry(t);
      }
      EXPECT_TRUE(controller->audit_devices()) << "audit failed at t=" << t;
    } catch (const std::runtime_error&) {
      ++out.rejected;
    } catch (const ControllerCrash&) {
      ++out.crashes;
      controller.reset();
      controller = std::make_unique<IrisController>(map, net, plan, devices);
      const RecoveryReport rr = controller->recover(journal);
      EXPECT_TRUE(rr.audit.clean())
          << "post-recovery audit at t=" << t << ": " << rr.audit.summary();
      devices.fault_injector().arm_crash(crash_every);
      // Roll-forward completed the interrupted apply; whether the target
      // was fully reached decides the policy bookkeeping, deterministically.
      if (rr.resumed_outcome == ApplyOutcome::kCommitted) {
        policy.mark_applied(*proposal);
        ++out.reconfigurations;
      } else {
        policy.defer_retry(t);
      }
    }
    out.digest.fold_step(journal, *controller);
  }

  std::ostringstream fp;
  fp << out.crashes << '/' << out.reconfigurations << '/' << out.rejected
     << '/' << devices.fault_injector().faults_injected() << '/'
     << devices.fault_injector().commands_seen() << '\n'
     << controller->state_fingerprint();
  out.fingerprint = fp.str();
  return out;
}

// S6 of the crash-tolerance PR: determinism survives the crash-restart
// boundary. The same seed must produce bit-identical controller + device
// state even though the run was chopped into controller lifetimes at
// crash points, with lossy faults injected throughout.
TEST(ChaosSoak, SameSeedIsBitIdenticalAcrossCrashRestartBoundaries) {
  const auto a = run_crash_soak(0xBADC0DE, 149);
  EXPECT_GT(a.crashes, 0) << "crash schedule never fired";
  // Pinned bytes: the comparisons below only check a run against itself.
  EXPECT_EQ(a.digest.value(), 0x6e15465a02b31921ULL)
      << std::hex << "got 0x" << a.digest.value();
  EXPECT_GT(a.reconfigurations, 0);

  const auto b = run_crash_soak(0xBADC0DE, 149);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.fingerprint, b.fingerprint);

  // A different seed explores a different fault+crash interleaving.
  const auto other = run_crash_soak(0xBADC0DE + 1, 149);
  EXPECT_NE(a.fingerprint, other.fingerprint);
}

TEST(ChaosSoak, FaultsNeverBreakDeviceInvariants) {
  const auto out = run_soak(0, 0xC0FFEE);
  EXPECT_GT(out.audits, 0);
  EXPECT_GT(out.loop.reconfigurations, 0);
  // The fault rates are high enough that the retry machinery provably ran.
  EXPECT_GT(out.loop.command_retries, 0);
}

TEST(ChaosSoak, SameSeedIsBitIdenticalAcrossRunsAndThreadCounts) {
  const auto serial = run_soak(1, 42);
  const auto rerun = run_soak(1, 42);
  EXPECT_EQ(serial.fingerprint, rerun.fingerprint);

  // Planning parallelism must not leak into the fault schedule: a plan
  // provisioned on 4 threads drives the identical command sequence.
  const auto parallel = run_soak(4, 42);
  EXPECT_EQ(serial.fingerprint, parallel.fingerprint);

  // And a different seed genuinely explores a different schedule.
  const auto other = run_soak(1, 43);
  EXPECT_NE(serial.fingerprint, other.fingerprint);
}

}  // namespace
}  // namespace iris::control
