// Crash-point chaos for the crash-tolerant control plane: a seeded crash
// schedule kills the controller at arbitrary device-command boundaries; a
// successor built over the same DeviceLayer recovers from the intent journal
// and must converge to a state byte-identical to the no-crash execution of
// the same step schedule. Also covers cold (no-in-flight) recovery being
// zero-touch, crash-during-recovery, torn journal tails, orphaned
// cross-connect adoption, and the structured audit report.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "control/controller.hpp"
#include "control/journal.hpp"
#include "fibermap/generator.hpp"
#include "run_digest.hpp"

namespace iris::control {
namespace {

using core::DcPair;

core::PlannerParams recovery_params() {
  core::PlannerParams params;
  params.failure_tolerance = 1;
  params.channels.wavelengths_per_fiber = 40;
  return params;
}

struct Fixture {
  fibermap::FiberMap map;
  core::ProvisionedNetwork net;
  core::AmpCutPlan plan;
};

const Fixture& fixture() {
  static const Fixture f = [] {
    fibermap::RegionParams region;
    region.seed = 7;
    region.dc_count = 4;
    region.hut_count = 8;
    region.capacity_fibers = 8;
    auto map = fibermap::generate_region(region);
    auto net = core::provision(map, recovery_params());
    auto plan = core::place_amplifiers_and_cutthroughs(map, net);
    return Fixture{std::move(map), std::move(net), std::move(plan)};
  }();
  return f;
}

TrafficMatrix demand(const fibermap::FiberMap& map, int scale) {
  TrafficMatrix tm;
  const auto& dcs = map.dcs();
  for (std::size_t i = 0; i + 1 < dcs.size(); ++i) {
    tm[DcPair(dcs[i], dcs[i + 1])] =
        40 + 20 * static_cast<long long>(i) + 40LL * scale;
  }
  return tm;
}

/// One step of the fixed schedule every run (reference and crashing)
/// executes identically.
struct Step {
  enum class Kind { kApply, kFailDuct, kRestoreDuct };
  Kind kind = Kind::kApply;
  TrafficMatrix tm;
  ReconfigStrategy strategy = ReconfigStrategy::kBreakBeforeMake;
  graph::EdgeId duct = graph::kInvalidEdge;
};

std::vector<Step> make_schedule(const fibermap::FiberMap& map) {
  const auto victim = static_cast<graph::EdgeId>(map.graph().edge_count() / 2);
  std::vector<Step> steps;
  const auto apply = [&](int scale, ReconfigStrategy s) {
    steps.push_back({Step::Kind::kApply, demand(map, scale), s, -1});
  };
  apply(0, ReconfigStrategy::kBreakBeforeMake);
  apply(1, ReconfigStrategy::kMakeBeforeBreak);
  steps.push_back({Step::Kind::kFailDuct, {}, {}, victim});
  apply(2, ReconfigStrategy::kBreakBeforeMake);
  steps.push_back({Step::Kind::kRestoreDuct, {}, {}, victim});
  apply(0, ReconfigStrategy::kMakeBeforeBreak);
  apply(2, ReconfigStrategy::kBreakBeforeMake);
  return steps;
}

struct RunResult {
  std::vector<std::string> fingerprints;  ///< after every schedule step
  int crashes = 0;
  int recoveries_with_in_flight = 0;
  int rejected = 0;  ///< applies the controller refused pre-device-touch
  /// Journal text, command traces and fingerprints after every step (and
  /// after every recovery).
  RunDigest digest;
};

bool contains_circuit(const std::vector<Circuit>& circuits, const Circuit& c) {
  return std::find(circuits.begin(), circuits.end(), c) != circuits.end();
}

/// No-crash reference: same schedule, journaled, fault-free devices.
RunResult run_reference() {
  const Fixture& f = fixture();
  DeviceLayer devices(f.map, f.net, f.plan);
  IntentJournal journal;
  IrisController controller(f.map, f.net, f.plan, devices);
  controller.attach_journal(&journal);
  RunResult result;
  for (const Step& step : make_schedule(f.map)) {
    switch (step.kind) {
      case Step::Kind::kApply:
        try {
          controller.apply_traffic_matrix(step.tm, step.strategy);
        } catch (const std::runtime_error&) {
          ++result.rejected;
        }
        break;
      case Step::Kind::kFailDuct:
        controller.fail_duct(step.duct);
        break;
      case Step::Kind::kRestoreDuct:
        controller.restore_duct(step.duct);
        break;
    }
    EXPECT_TRUE(controller.audit_devices());
    result.fingerprints.push_back(controller.state_fingerprint());
    result.digest.fold_step(journal, controller);
  }
  return result;
}

/// Crashing run: the injector kills the controller every `k` device
/// commands; each crash spawns a successor that recovers from the journal
/// (round-tripped through its text form, as a reload from disk would) and
/// the schedule continues. The crash-interrupted apply is rolled forward by
/// recovery, so the step is complete once recover() returns.
RunResult run_with_crashes(long long k) {
  const Fixture& f = fixture();
  FaultConfig cfg;
  cfg.crash_after_commands = k;
  DeviceLayer devices(f.map, f.net, f.plan, cfg);
  IntentJournal journal;
  auto controller =
      std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
  controller->attach_journal(&journal);
  RunResult result;

  const auto recover_successor = [&]() {
    ++result.crashes;
    controller.reset();  // the crashed process is gone
    // Durability round-trip: what a successor reads back from disk.
    journal = IntentJournal::from_text(journal.to_text());
    const auto intent = journal.replay();  // pre-recovery committed truth
    controller =
        std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
    const RecoveryReport rr = controller->recover(journal);
    EXPECT_TRUE(rr.audit.clean()) << rr.audit.summary();
    EXPECT_GE(rr.adopted_circuits, 0);
    result.digest.fold_step(journal, *controller);
    // No committed circuit may be lost. A committed roll-forward carries
    // the whole target; a rollback restores the whole stable set; even a
    // degraded recovery keeps every circuit that is in BOTH (those were
    // committed before the apply and wanted after it).
    if (intent.in_flight) {
      if (rr.resumed_outcome == ApplyOutcome::kCommitted) {
        for (const Circuit& c : intent.in_flight->target) {
          EXPECT_TRUE(contains_circuit(controller->active_circuits(), c));
        }
      } else if (rr.resumed_outcome == ApplyOutcome::kRolledBack) {
        EXPECT_EQ(controller->active_circuits(), intent.stable.active);
      } else {
        for (const Circuit& c : intent.stable.active) {
          if (contains_circuit(intent.in_flight->target, c)) {
            EXPECT_TRUE(contains_circuit(controller->active_circuits(), c));
          }
        }
      }
    } else {
      EXPECT_EQ(controller->active_circuits(), intent.stable.active);
    }
    if (rr.had_in_flight) ++result.recoveries_with_in_flight;
    devices.fault_injector().arm_crash(k);  // next crash, k commands out
    return rr;
  };

  for (const Step& step : make_schedule(f.map)) {
    bool done = false;
    while (!done) {
      try {
        switch (step.kind) {
          case Step::Kind::kApply:
            try {
              controller->apply_traffic_matrix(step.tm, step.strategy);
            } catch (const std::runtime_error&) {
              ++result.rejected;
            }
            break;
          case Step::Kind::kFailDuct:
            controller->fail_duct(step.duct);
            break;
          case Step::Kind::kRestoreDuct:
            controller->restore_duct(step.duct);
            break;
        }
        done = true;
      } catch (const ControllerCrash&) {
        const RecoveryReport rr = recover_successor();
        // recover() resolved the interrupted apply (rolled it forward, or
        // back when its target was infeasible): the step is complete. (A
        // crash outside an apply cannot happen -- only applies issue
        // device commands -- but retry defensively.)
        done = rr.had_in_flight;
      }
    }
    EXPECT_TRUE(controller->audit_devices());
    result.fingerprints.push_back(controller->state_fingerprint());
    result.digest.fold_step(journal, *controller);
  }
  return result;
}

// The tentpole acceptance: crashing at every k-th command boundary, for a
// sweep of k, converges after every crash to a state byte-identical to the
// no-crash execution -- same books, same hardware, zero leaked or
// double-allocated resources (the audit inside the fingerprint's checkpoint
// would throw on those), no committed circuit lost.
TEST(CrashRecovery, KSweepConvergesToNoCrashExecution) {
  const RunResult ref = run_reference();
  ASSERT_FALSE(ref.fingerprints.empty());

  int total_crashes = 0;
  for (const long long k : {3LL, 7LL, 13LL, 29LL, 61LL}) {
    SCOPED_TRACE("crash_after_commands=" + std::to_string(k));
    const RunResult run = run_with_crashes(k);
    EXPECT_GT(run.crashes, 0);
    EXPECT_EQ(run.crashes, run.recoveries_with_in_flight);
    EXPECT_EQ(run.rejected, ref.rejected);
    ASSERT_EQ(run.fingerprints.size(), ref.fingerprints.size());
    for (std::size_t i = 0; i < ref.fingerprints.size(); ++i) {
      EXPECT_EQ(run.fingerprints[i], ref.fingerprints[i]) << "step " << i;
    }
    total_crashes += run.crashes;
  }
  EXPECT_GE(total_crashes, 5);
}

// The sweep above compares each run against the crash-free one, so a change
// that moved the journal text or the recovery commands of both alike would
// pass it. These digests pin the bytes themselves.
TEST(CrashRecovery, KSweepBytesArePinned) {
  const std::uint64_t ref = run_reference().digest.value();
  EXPECT_EQ(ref, 0x33e9e3742f90177cULL) << std::hex << "got 0x" << ref;
  const std::vector<std::pair<long long, std::uint64_t>> pinned = {
      {3, 0xa8fa5e464094ce95ULL},  {7, 0x7b2ffe932eb61ed0ULL},
      {13, 0x78325eb61704d9a7ULL}, {29, 0xd8399b6a3808f821ULL},
      {61, 0x1b4448158f7a289cULL}};
  for (const auto& [k, digest] : pinned) {
    const std::uint64_t got = run_with_crashes(k).digest.value();
    EXPECT_EQ(got, digest) << "crash_after_commands=" << k << std::hex
                           << " got 0x" << got;
  }
}

TEST(CrashRecovery, SameCrashScheduleIsDeterministic) {
  const RunResult a = run_with_crashes(13);
  const RunResult b = run_with_crashes(13);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.fingerprints, b.fingerprints);
}

// Recovery with no in-flight apply and matching hardware must not touch a
// single device: adopt the books, re-derive the pools, audit, done.
TEST(CrashRecovery, ColdRecoveryWithCleanHardwareIsZeroTouch) {
  const Fixture& f = fixture();
  FaultConfig cfg;
  cfg.crash_after_commands = 1'000'000;  // enables command counting only
  DeviceLayer devices(f.map, f.net, f.plan, cfg);
  IntentJournal journal;
  auto controller =
      std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
  controller->attach_journal(&journal);
  controller->apply_traffic_matrix(demand(f.map, 0));
  controller->apply_traffic_matrix(demand(f.map, 1),
                                   ReconfigStrategy::kMakeBeforeBreak);
  const std::string fp_before = controller->state_fingerprint();
  const auto active_before = controller->active_circuits();
  const long long commands_before = devices.fault_injector().commands_seen();

  controller.reset();
  controller = std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
  const RecoveryReport rr = controller->recover(journal);

  EXPECT_FALSE(rr.had_in_flight);
  EXPECT_EQ(rr.adopted_circuits, static_cast<int>(active_before.size()));
  EXPECT_EQ(rr.finished_establishes, 0);
  EXPECT_EQ(rr.reissued_establishes, 0);
  EXPECT_EQ(rr.connects_programmed, 0);
  EXPECT_EQ(rr.connects_removed, 0);
  EXPECT_EQ(rr.orphan_connects_adopted, 0);
  EXPECT_TRUE(rr.audit.clean()) << rr.audit.summary();
  EXPECT_EQ(devices.fault_injector().commands_seen(), commands_before);
  EXPECT_EQ(controller->state_fingerprint(), fp_before);
  EXPECT_EQ(controller->active_circuits(), active_before);
  // The recovered controller keeps journaling and operating normally.
  controller->apply_traffic_matrix(demand(f.map, 2));
  EXPECT_TRUE(controller->audit_devices());
}

// A crash while RECOVERY itself is reprogramming devices must be just
// another crash: the next successor picks up the journal (which now holds
// the first recovery's partial progress) and converges.
TEST(CrashRecovery, CrashDuringRecoveryIsRecoverable) {
  const Fixture& f = fixture();
  FaultConfig cfg;
  cfg.crash_after_commands = 23;
  DeviceLayer devices(f.map, f.net, f.plan, cfg);
  IntentJournal journal;
  auto controller =
      std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
  controller->attach_journal(&journal);
  bool crashed = false;
  try {
    controller->apply_traffic_matrix(demand(f.map, 0));
  } catch (const ControllerCrash&) {
    crashed = true;
  }
  ASSERT_TRUE(crashed) << "first apply issues well over 23 device commands";

  controller.reset();
  controller = std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
  devices.fault_injector().arm_crash(2);  // kill recovery almost immediately
  bool recovery_crashed = false;
  try {
    (void)controller->recover(journal);
  } catch (const ControllerCrash&) {
    recovery_crashed = true;
  }
  ASSERT_TRUE(recovery_crashed);

  controller.reset();
  controller = std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
  const RecoveryReport rr = controller->recover(journal);
  EXPECT_TRUE(rr.had_in_flight);
  EXPECT_TRUE(rr.audit.clean()) << rr.audit.summary();
  // The roll-forward reached the interrupted apply's target.
  const auto intent_target = demand(f.map, 0);
  EXPECT_EQ(controller->active_circuits().size(), intent_target.size());
  controller->apply_traffic_matrix(demand(f.map, 1));
  EXPECT_TRUE(controller->audit_devices());
}

// A torn journal tail (the crash interrupted the write of the final record)
// loses that one intent record, never consistency: recovery still converges
// to a clean audit and keeps operating.
TEST(CrashRecovery, TornJournalTailStillRecoversClean) {
  const Fixture& f = fixture();
  FaultConfig cfg;
  cfg.crash_after_commands = 17;
  DeviceLayer devices(f.map, f.net, f.plan, cfg);
  IntentJournal journal;
  auto controller =
      std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
  controller->attach_journal(&journal);
  bool crashed = false;
  try {
    controller->apply_traffic_matrix(demand(f.map, 0));
  } catch (const ControllerCrash&) {
    crashed = true;
  }
  ASSERT_TRUE(crashed);

  std::string text = journal.to_text();
  ASSERT_GT(text.size(), 60u);
  text.resize(text.size() - 40);  // tear the tail mid-record
  IntentJournal torn = IntentJournal::from_text(text);

  controller.reset();
  controller = std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
  const RecoveryReport rr = controller->recover(torn);
  EXPECT_TRUE(rr.audit.clean()) << rr.audit.summary();
  controller->apply_traffic_matrix(demand(f.map, 1));
  EXPECT_TRUE(controller->audit_devices());
}

// A stuck mirror quarantines a resource inside a teardown, and the crash
// tears the journal inside the `teardown_done` that follows. The replayed
// teardown is begun, not done: its allocation still holds the index the
// quarantine record pulled. Recovery must accept held-and-quarantined, keep
// the index out of the free pool when the teardown finishes, and converge.
TEST(CrashRecovery, TornTeardownAfterQuarantineRecoversClean) {
  const Fixture& f = fixture();
  FaultConfig cfg;
  cfg.rates.oss_port_stuck = 0.02;
  cfg.seed = 1;
  cfg.crash_after_commands = 424;
  DeviceLayer devices(f.map, f.net, f.plan, cfg);
  IntentJournal journal;
  auto controller =
      std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
  controller->attach_journal(&journal);
  bool crashed = false;
  for (const int scale : {0, 1, 0, 2, 0, 1}) {
    try {
      controller->apply_traffic_matrix(demand(f.map, scale));
    } catch (const ControllerCrash&) {
      crashed = true;
      break;
    } catch (const std::runtime_error&) {
      // A refused apply touched no device; the schedule goes on.
    }
  }
  ASSERT_TRUE(crashed) << "the schedule issues well over 424 commands";
  controller.reset();

  // Keep the records through the last teardown_done and cut the text
  // halfway into it.
  const auto& entries = journal.entries();
  std::size_t last = entries.size();
  while (last > 0 &&
         !std::holds_alternative<TeardownDoneRecord>(entries[last - 1])) {
    --last;
  }
  ASSERT_GE(last, 2u);
  ASSERT_TRUE(std::holds_alternative<QuarantineRecord>(entries[last - 2]));
  IntentJournal kept;
  for (std::size_t i = 0; i + 1 < last; ++i) kept.append(entries[i]);
  const std::size_t record_start = kept.to_text().size();
  kept.append(entries[last - 1]);
  const std::string text = kept.to_text();
  const std::size_t cut = record_start + (text.size() - record_start) / 2;
  IntentJournal torn = IntentJournal::from_text(text.substr(0, cut));
  ASSERT_TRUE(torn.dropped_torn_tail());
  ASSERT_EQ(torn.size(), last - 1);

  controller = std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
  RecoveryReport rr;
  ASSERT_NO_THROW(rr = controller->recover(torn));
  EXPECT_TRUE(rr.had_in_flight);
  EXPECT_TRUE(rr.audit.clean()) << rr.audit.summary();
}

// A cross-connect present on an OSS that no journaled intent explains --
// programmed by a rogue process, or intent lost to a torn tail -- is
// reclassified as a zombie and its ports are quarantined, keeping the
// audit's leak and partition checks clean.
TEST(CrashRecovery, OrphanedCrossConnectIsAdoptedAsZombie) {
  const Fixture& f = fixture();
  DeviceLayer devices(f.map, f.net, f.plan);
  IntentJournal journal;
  auto controller =
      std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
  controller->attach_journal(&journal);
  controller->apply_traffic_matrix(demand(f.map, 0));

  // Program a connect the controller never asked for, on a free add/drop
  // pair of the first DC, directly against the hardware.
  const graph::NodeId dc = f.map.dcs().front();
  const auto snap = controller->snapshot();
  const auto free_pairs = snap.free_add_drop.find(dc);
  ASSERT_NE(free_pairs, snap.free_add_drop.end());
  ASSERT_FALSE(free_pairs->second.empty());
  const int pair_idx = free_pairs->second.front();
  const SitePortMap& pm = devices.port_map(dc);
  ASSERT_TRUE(devices.oss(dc)
                  .connect(pm.add_port(pair_idx), pm.drop_port(pair_idx))
                  .ok());
  // The books now disagree with the hardware.
  EXPECT_FALSE(controller->audit_devices());

  controller.reset();
  controller = std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
  const RecoveryReport rr = controller->recover(journal);
  EXPECT_EQ(rr.orphan_connects_adopted, 1);
  EXPECT_TRUE(rr.audit.clean()) << rr.audit.summary();
  const auto status = controller->status();
  EXPECT_EQ(status.zombie_connects, 1);
  EXPECT_GE(status.quarantined_add_drops, 1);
  controller->apply_traffic_matrix(demand(f.map, 1));
  EXPECT_TRUE(controller->audit_devices());
}

// S1: the structured audit pinpoints the first divergence instead of
// returning a bare false.
TEST(CrashRecovery, AuditReportPinpointsDivergence) {
  const Fixture& f = fixture();
  DeviceLayer devices(f.map, f.net, f.plan);
  IrisController controller(f.map, f.net, f.plan, devices);
  controller.apply_traffic_matrix(demand(f.map, 0));
  ASSERT_TRUE(controller.audit_report().clean());
  EXPECT_EQ(controller.audit_report().summary(), "device audit clean");

  // Rip out a programmed cross-connect behind the controller's back.
  const graph::NodeId dc = f.map.dcs().front();
  const auto& connections = devices.oss(dc).connections();
  ASSERT_FALSE(connections.empty());
  const int in_port = connections.begin()->first;
  const int out_port = connections.begin()->second;
  ASSERT_TRUE(devices.oss(dc).disconnect(in_port).ok());

  const AuditReport report = controller.audit_report();
  EXPECT_FALSE(report.clean());
  ASSERT_TRUE(report.first.has_value());
  EXPECT_EQ(report.first->kind, AuditReport::Kind::kMissingConnect);
  EXPECT_EQ(report.first->site, dc);
  EXPECT_EQ(report.first->port, in_port);
  EXPECT_GE(report.missing_connects, 1);
  EXPECT_NE(report.summary(), "device audit clean");
  EXPECT_FALSE(controller.status().devices_consistent);

  // Restore the connect: the audit is clean again (wrapper agrees).
  ASSERT_TRUE(devices.oss(dc).connect(in_port, out_port).ok());
  EXPECT_TRUE(controller.audit_devices());
  EXPECT_TRUE(controller.status().devices_consistent);
}

/// One crash under sticky mirror faults: apply demand 0, arm a crash `k`
/// commands out, apply demand 1 (break-before-make) until the crash fires,
/// then recover a successor. Returns the pre-recovery intent and the report.
struct StuckMirrorCrash {
  IntentJournal::Intent intent;
  RecoveryReport rr;
  std::vector<Circuit> active;  ///< the successor's books after recovery
};

StuckMirrorCrash crash_with_stuck_mirrors(std::uint64_t seed, long long k) {
  const Fixture& f = fixture();
  FaultConfig cfg;
  cfg.seed = seed;
  cfg.rates.oss_port_stuck = 0.05;
  DeviceLayer devices(f.map, f.net, f.plan, cfg);
  IntentJournal journal;
  auto controller =
      std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
  controller->attach_journal(&journal);
  controller->apply_traffic_matrix(demand(f.map, 0));
  devices.fault_injector().arm_crash(k);
  bool crashed = false;
  try {
    controller->apply_traffic_matrix(demand(f.map, 1));
  } catch (const ControllerCrash&) {
    crashed = true;
  }
  EXPECT_TRUE(crashed) << "crash at k=" << k << " never fired";
  controller.reset();
  StuckMirrorCrash out;
  out.intent = journal.replay();
  controller = std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
  out.rr = controller->recover(journal);
  out.active = controller->active_circuits();
  EXPECT_TRUE(controller->audit_devices());
  return out;
}

// The crash lands inside an establish, after some of its cross-connects;
// finishing it in place then hits a stuck mirror. Recovery unwinds the half
// allocation (quarantining the stuck ports) and re-issues the circuit on
// fresh resources, so nothing counts as finished in place.
TEST(CrashRecovery, FailedInPlaceFinishIsReissuedFresh) {
  const StuckMirrorCrash run = crash_with_stuck_mirrors(12, 13);
  ASSERT_TRUE(run.intent.in_flight.has_value());
  const IntentJournal::PendingOp& last = run.intent.in_flight->ops.back();
  EXPECT_FALSE(last.teardown);
  EXPECT_FALSE(last.done) << "the crash must interrupt an establish";
  EXPECT_TRUE(contains_circuit(run.intent.in_flight->target, last.circuit));
  EXPECT_TRUE(contains_circuit(run.active, last.circuit));
  EXPECT_TRUE(run.rr.had_in_flight);
  EXPECT_EQ(run.rr.resumed_outcome, ApplyOutcome::kCommitted);
  EXPECT_EQ(run.rr.finished_establishes, 0);
  EXPECT_EQ(run.rr.reissued_establishes, 2);
  EXPECT_EQ(run.rr.adopted_circuits, 1);
  EXPECT_TRUE(run.rr.audit.clean()) << run.rr.audit.summary();
}

// A rolled-back recovery tears the target circuits it finished or
// re-issued back down. Adopted circuits are the booked ones recovery did not
// establish, so here, with nothing booked, the count is zero.
TEST(CrashRecovery, RolledBackRecoveryNeverAdoptsNegatively) {
  const StuckMirrorCrash run = crash_with_stuck_mirrors(12, 1);
  EXPECT_EQ(run.rr.resumed_outcome, ApplyOutcome::kRolledBack);
  EXPECT_EQ(run.rr.finished_establishes, 1);
  EXPECT_EQ(run.rr.reissued_establishes, 1);
  EXPECT_EQ(run.rr.adopted_circuits, 0) << "books: " << run.active.size();
  EXPECT_TRUE(run.rr.audit.clean()) << run.rr.audit.summary();
}

// recover() is strictly a cold-start operation.
TEST(CrashRecovery, RecoverRequiresVirginController) {
  const Fixture& f = fixture();
  DeviceLayer devices(f.map, f.net, f.plan);
  IntentJournal journal;
  {
    IrisController used(f.map, f.net, f.plan, devices);
    used.apply_traffic_matrix(demand(f.map, 0));
    EXPECT_THROW((void)used.recover(journal), std::logic_error);
    // Leave the device layer clean for the next sub-case.
    used.apply_traffic_matrix(TrafficMatrix{});
  }
  {
    IrisController attached(f.map, f.net, f.plan, devices);
    attached.attach_journal(&journal);
    EXPECT_THROW((void)attached.recover(journal), std::logic_error);
  }
}

// ---- retune: stable transceiver assignment --------------------------------

/// Per DC, the channel each transceiver carries (-1 = dark).
std::map<graph::NodeId, std::vector<int>> read_back(const DeviceLayer& d) {
  std::map<graph::NodeId, std::vector<int>> out;
  for (const auto& [dc, txs] : d.all_transceivers()) {
    for (const TunableTransceiver& tx : txs) {
      out[dc].push_back(tx.wavelength().value_or(-1));
    }
  }
  return out;
}

/// Per DC and channel, how many transceivers carry it.
std::map<graph::NodeId, std::map<int, long long>> per_channel(
    const std::map<graph::NodeId, std::vector<int>>& tuned) {
  std::map<graph::NodeId, std::map<int, long long>> out;
  for (const auto& [dc, chans] : tuned) {
    for (const int ch : chans) {
      if (ch >= 0) ++out[dc][ch];
    }
  }
  return out;
}

// Over seeded fault-free applies, a retune issues the fewest tunes: at each
// DC, sum over channels c of max(0, need_after(c) - tuned_before(c)). A
// transceiver whose channel is still needed by at least as many wavelengths
// as carried it keeps that channel and receives no command.
TEST(ControlRetune, FaultFreeAppliesTuneOnlyWhatIsMissing) {
  const Fixture& f = fixture();
  const int lambda = f.net.params.channels.wavelengths_per_fiber;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    DeviceLayer devices(f.map, f.net, f.plan);
    IrisController controller(f.map, f.net, f.plan, devices);
    std::mt19937_64 rng(seed);
    int applied = 0;
    for (int step = 0; step < 30; ++step) {
      TrafficMatrix tm;
      const auto& dcs = f.map.dcs();
      for (std::size_t i = 0; i + 1 < dcs.size(); ++i) {
        tm[DcPair(dcs[i], dcs[i + 1])] = 1 + static_cast<long long>(rng() % 160);
      }
      const auto before = read_back(devices);
      try {
        controller.apply_traffic_matrix(tm);
      } catch (const std::runtime_error&) {
        EXPECT_EQ(read_back(devices), before);  // refused before any device
        continue;
      }
      ++applied;
      ASSERT_TRUE(controller.audit_devices());
      const auto after = read_back(devices);

      // The hardware carries exactly what the active circuits need.
      std::map<graph::NodeId, std::map<int, long long>> need;
      for (const Circuit& c : controller.active_circuits()) {
        for (long long w = 0; w < c.wavelengths; ++w) {
          ++need[c.pair.a][static_cast<int>(w % lambda)];
          ++need[c.pair.b][static_cast<int>(w % lambda)];
        }
      }
      EXPECT_EQ(per_channel(after), need);

      const auto had = per_channel(before);
      std::map<graph::NodeId, long long> tunes;
      std::map<graph::NodeId, std::set<int>> touched;
      for (const DeviceCommand& cmd : controller.last_command_trace()) {
        if (const auto* t = std::get_if<TuneTransceiverCmd>(&cmd)) {
          ++tunes[t->dc];
          EXPECT_TRUE(touched[t->dc].insert(t->transceiver).second)
              << "transceiver tuned twice";
        }
      }
      for (const auto& [dc, chans] : after) {
        long long minimal = 0;
        const auto& had_dc = had.count(dc) ? had.at(dc) : std::map<int, long long>{};
        const auto& need_dc =
            need.count(dc) ? need.at(dc) : std::map<int, long long>{};
        for (const auto& [ch, n] : need_dc) {
          const auto it = had_dc.find(ch);
          minimal += std::max(0LL, n - (it == had_dc.end() ? 0 : it->second));
        }
        EXPECT_EQ(tunes[dc], minimal) << "dc " << dc;
        for (std::size_t idx = 0; idx < chans.size(); ++idx) {
          const int ch = before.at(dc)[idx];
          if (ch < 0) continue;
          const auto n = need_dc.find(ch);
          if (n == need_dc.end() || n->second < had_dc.at(ch)) continue;
          EXPECT_FALSE(touched[dc].contains(static_cast<int>(idx)))
              << "dc " << dc << " transceiver " << idx;
          EXPECT_EQ(chans[idx], ch) << "dc " << dc << " transceiver " << idx;
        }
      }
    }
    EXPECT_GE(applied, 10);
  }
}

// A crash inside the retune: the successor's retune diffs against the
// read-back, so it tunes only what the crashed one had not. The audit is
// clean, and the state and every DC's live channels equal a crash-free run.
TEST(ControlRetune, CrashInsideRetuneResumesWhereItStopped) {
  const Fixture& f = fixture();
  FaultConfig counting;
  counting.crash_after_commands = 1'000'000;  // enables command counting only
  for (const CommandPlaneMode mode :
       {CommandPlaneMode::kSerial, CommandPlaneMode::kAsync}) {
    SCOPED_TRACE(mode == CommandPlaneMode::kAsync ? "async" : "serial");
    DeviceLayer ref_devices(f.map, f.net, f.plan, counting);
    IrisController ref(f.map, f.net, f.plan, ref_devices);
    ref.set_command_plane(mode);
    ref.apply_traffic_matrix(demand(f.map, 0));
    const long long seen = ref_devices.fault_injector().commands_seen();
    ref.apply_traffic_matrix(demand(f.map, 2));
    const long long apply_cmds =
        ref_devices.fault_injector().commands_seen() - seen;
    const int tunes = count_commands<TuneTransceiverCmd>(ref.last_command_trace());
    ASSERT_GE(tunes, 4);

    for (const int done : {0, 1, tunes / 2, tunes - 1}) {
      SCOPED_TRACE("tunes done before the crash: " + std::to_string(done));
      DeviceLayer devices(f.map, f.net, f.plan, counting);
      IntentJournal journal;
      auto ctl = std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
      ctl->set_command_plane(mode);
      ctl->attach_journal(&journal);
      ctl->apply_traffic_matrix(demand(f.map, 0));
      // The retune's tunes are the apply's last commands; the crash fires
      // on tune number done + 1, before it reaches the device.
      devices.fault_injector().arm_crash(apply_cmds - tunes + done + 1);
      EXPECT_THROW(ctl->apply_traffic_matrix(demand(f.map, 2)), ControllerCrash);

      ctl.reset();
      journal = IntentJournal::from_text(journal.to_text());
      ctl = std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
      const RecoveryReport rr = ctl->recover(journal);
      EXPECT_TRUE(rr.had_in_flight);
      EXPECT_EQ(rr.resumed_outcome, ApplyOutcome::kCommitted);
      EXPECT_TRUE(rr.audit.clean()) << rr.audit.summary();
      EXPECT_EQ(count_commands<TuneTransceiverCmd>(ctl->last_command_trace()),
                tunes - done);
      EXPECT_EQ(ctl->state_fingerprint(), ref.state_fingerprint());
      for (const auto& [dc, em] : ref_devices.emulators()) {
        EXPECT_EQ(devices.emulator(dc).live_channels(), em.live_channels())
            << "dc " << dc;
      }
    }
  }
}

// Over seeded applies with transient and permanent tune failures (so
// transceivers get quarantined) and a crash every k commands with recovery
// by a successor, on both command planes: after every finished apply or
// recovery, each DC's ASE emulator carries exactly the channels of its
// non-quarantined tuned transceivers, and the DC's last SetAseFillCmd in
// the trace carries that set's size -- also when the retune found the
// emulator already holding the set.
TEST(ControlRetune, EmulatorLiveSetMatchesReadBack) {
  const Fixture& f = fixture();
  for (const CommandPlaneMode mode :
       {CommandPlaneMode::kSerial, CommandPlaneMode::kAsync}) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      SCOPED_TRACE(std::string(mode == CommandPlaneMode::kAsync ? "async"
                                                                : "serial") +
                   " seed=" + std::to_string(seed));
      FaultConfig cfg;
      cfg.seed = seed;
      cfg.rates.tx_tune_fail = 0.2;
      cfg.rates.tx_dead = 0.02;
      cfg.rates.timeout_fraction = 0.3;
      const long long k = 53 + 17 * static_cast<long long>(seed);
      cfg.crash_after_commands = k;
      DeviceLayer devices(f.map, f.net, f.plan, cfg);
      IntentJournal journal;
      auto ctl = std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
      ctl->set_command_plane(mode);
      ctl->attach_journal(&journal);
      std::mt19937_64 rng(seed);

      int checked_traces = 0;
      int recoveries = 0;
      // `retuned`: the last call ran a retune, so the trace ends in one
      // SetAseFillCmd per DC.
      const auto check = [&](bool retuned) {
        const ControllerCheckpoint cp = ctl->snapshot();
        for (const auto& [dc, em] : devices.emulators()) {
          const auto q = cp.quarantined_txs.find(dc);
          std::set<int> carried;
          const auto& txs = devices.transceivers(dc);
          for (int idx = 0; idx < std::ssize(txs); ++idx) {
            if (q != cp.quarantined_txs.end() && q->second.contains(idx)) {
              continue;
            }
            if (const auto ch = txs[static_cast<std::size_t>(idx)].wavelength()) {
              carried.insert(*ch);
            }
          }
          EXPECT_EQ(em.live_channels(), carried) << "dc " << dc;
          if (!retuned) continue;
          const SetAseFillCmd* last = nullptr;
          for (const DeviceCommand& cmd : ctl->last_command_trace()) {
            if (const auto* s = std::get_if<SetAseFillCmd>(&cmd);
                s != nullptr && s->dc == dc) {
              last = s;
            }
          }
          ASSERT_NE(last, nullptr) << "dc " << dc;
          EXPECT_EQ(last->live_channels, std::ssize(carried)) << "dc " << dc;
        }
        if (retuned) ++checked_traces;
      };

      for (int step = 0; step < 30; ++step) {
        TrafficMatrix tm;
        const auto& dcs = f.map.dcs();
        for (std::size_t i = 0; i + 1 < dcs.size(); ++i) {
          tm[DcPair(dcs[i], dcs[i + 1])] =
              1 + static_cast<long long>(rng() % 160);
        }
        const auto strategy = rng() % 2 == 0
                                  ? ReconfigStrategy::kBreakBeforeMake
                                  : ReconfigStrategy::kMakeBeforeBreak;
        try {
          ctl->apply_traffic_matrix(tm, strategy);
          check(true);
        } catch (const std::runtime_error&) {
          check(false);  // refused before any device changed
        } catch (const ControllerCrash&) {
          ctl.reset();
          journal = IntentJournal::from_text(journal.to_text());
          ctl = std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
          const RecoveryReport rr = ctl->recover(journal);
          EXPECT_TRUE(rr.audit.clean()) << rr.audit.summary();
          ctl->set_command_plane(mode);
          ++recoveries;
          check(rr.had_in_flight);
          devices.fault_injector().arm_crash(k);
        }
      }
      EXPECT_GE(recoveries, 3);
      EXPECT_GE(checked_traces, 10);
      EXPECT_GT(ctl->status().quarantined_transceivers, 0);
    }
  }
}

}  // namespace
}  // namespace iris::control
