// The async batched command plane (CommandPlane): conflict-graph schedule
// determinism, serial-mode byte-equivalence, journal slot records, virtual-
// clock makespan accounting, and the crash k-sweep extended across async
// schedule slots. The serial plane is the correctness oracle throughout:
// async runs must commit the same state, just on a shorter clock.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "control/commands.hpp"
#include "control/controller.hpp"
#include "control/journal.hpp"
#include "fibermap/generator.hpp"
#include "obs/metrics.hpp"
#include "run_digest.hpp"

namespace iris::control {
namespace {

using core::DcPair;

core::PlannerParams plane_params() {
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

Fixture make_fixture(std::uint64_t seed, int dc_count, int hut_count) {
  fibermap::RegionParams region;
  region.seed = seed;
  region.dc_count = dc_count;
  region.hut_count = hut_count;
  region.capacity_fibers = 8;
  auto map = fibermap::generate_region(region);
  auto net = core::provision(map, plane_params());
  auto plan = core::place_amplifiers_and_cutthroughs(map, net);
  return Fixture{std::move(map), std::move(net), std::move(plan)};
}

/// A chain TM: consecutive DCs, some endpoint-disjoint, some overlapping --
/// the schedule mixes concurrent and dependent ops.
TrafficMatrix chain_demand(const fibermap::FiberMap& map, int scale) {
  TrafficMatrix tm;
  const auto& dcs = map.dcs();
  for (std::size_t i = 0; i + 1 < dcs.size(); ++i) {
    tm[DcPair(dcs[i], dcs[i + 1])] =
        40 + 20 * static_cast<long long>(i % 3) + 40LL * scale;
  }
  return tm;
}

/// A hub-star TM: every circuit shares dcs[0], so every pair of ops
/// conflicts on an endpoint and the async schedule degenerates to the
/// serial order -- one op per slot.
TrafficMatrix star_demand(const fibermap::FiberMap& map, int scale) {
  TrafficMatrix tm;
  const auto& dcs = map.dcs();
  for (std::size_t i = 1; i < dcs.size(); ++i) {
    tm[DcPair(dcs[0], dcs[i])] = 40 + 40LL * scale;
  }
  return tm;
}

std::vector<std::string> trace_strings(const IrisController& c) {
  std::vector<std::string> out;
  for (const DeviceCommand& cmd : c.last_command_trace()) {
    out.push_back(to_string(cmd));
  }
  return out;
}

// Disjoint circuits commit the same state on both planes: conflicting ops
// keep their serial relative order and non-conflicting ops draw from
// disjoint resource pools, so the final books and hardware are identical --
// only the virtual clock (makespan) shrinks.
TEST(AsyncPlane, SerialVsAsyncStateIdentity) {
  const Fixture f = make_fixture(7, 8, 12);
  DeviceLayer serial_devices(f.map, f.net, f.plan);
  DeviceLayer async_devices(f.map, f.net, f.plan);
  IrisController serial_ctl(f.map, f.net, f.plan, serial_devices);
  IrisController async_ctl(f.map, f.net, f.plan, async_devices);
  async_ctl.set_command_plane(CommandPlaneMode::kAsync);
  ASSERT_EQ(async_ctl.command_plane(), CommandPlaneMode::kAsync);

  const std::vector<std::pair<int, ReconfigStrategy>> steps = {
      {0, ReconfigStrategy::kBreakBeforeMake},
      {1, ReconfigStrategy::kMakeBeforeBreak},
      {2, ReconfigStrategy::kBreakBeforeMake},
  };
  for (const auto& [scale, strategy] : steps) {
    const auto tm = chain_demand(f.map, scale);
    const auto sr = serial_ctl.apply_traffic_matrix(tm, strategy);
    const auto ar = async_ctl.apply_traffic_matrix(tm, strategy);
    EXPECT_EQ(sr.outcome, ar.outcome);
    EXPECT_EQ(serial_ctl.state_fingerprint(), async_ctl.state_fingerprint());
    EXPECT_TRUE(serial_ctl.audit_devices());
    EXPECT_TRUE(async_ctl.audit_devices());
    // The async schedule may only shorten the command-plane clock.
    EXPECT_LE(ar.makespan_ms, sr.makespan_ms + 1e-9);
    EXPECT_GT(ar.makespan_ms, 0.0);
    EXPECT_EQ(sr.schedule_slots, 0);  // serial plane reports no slots
    EXPECT_GE(ar.schedule_slots, 1);
  }
}

// When every op conflicts (hub-star: shared endpoint DC), the async plan is
// the serial plan: same slot-per-op schedule, byte-identical command trace,
// byte-identical state. Async must not reorder dependent work.
TEST(AsyncPlane, DependentOnlyScheduleByteIdentical) {
  const Fixture f = make_fixture(11, 5, 8);
  DeviceLayer serial_devices(f.map, f.net, f.plan);
  DeviceLayer async_devices(f.map, f.net, f.plan);
  IrisController serial_ctl(f.map, f.net, f.plan, serial_devices);
  IrisController async_ctl(f.map, f.net, f.plan, async_devices);
  async_ctl.set_command_plane(CommandPlaneMode::kAsync);

  for (const int scale : {0, 1}) {
    const auto tm = star_demand(f.map, scale);
    const auto sr = serial_ctl.apply_traffic_matrix(tm);
    const auto ar = async_ctl.apply_traffic_matrix(tm);
    EXPECT_EQ(trace_strings(serial_ctl), trace_strings(async_ctl));
    EXPECT_EQ(serial_ctl.state_fingerprint(), async_ctl.state_fingerprint());
    // Fully dependent: one slot per op. The op portion of the clock matches
    // the serial plane (identical schedules); only the post-apply retune
    // tail still fans out per-DC, so async can finish slightly earlier but
    // never later.
    EXPECT_EQ(ar.schedule_slots,
              static_cast<int>(ar.set_up.size() + ar.torn_down.size()));
    EXPECT_LE(ar.makespan_ms, sr.makespan_ms + 1e-9);
  }
}

// Async journal records carry the schedule slots (begin_apply `slots N`,
// establish/teardown `slot K`); the text round-trips exactly and replay
// surfaces the fields. Serial journals stay byte-free of slot tokens, so
// pre-async journals and tools are unaffected.
TEST(AsyncPlane, JournalSlotRecordsRoundTrip) {
  const Fixture f = make_fixture(7, 8, 12);
  for (const bool async_mode : {false, true}) {
    DeviceLayer devices(f.map, f.net, f.plan);
    IntentJournal journal;
    IrisController ctl(f.map, f.net, f.plan, devices);
    if (async_mode) ctl.set_command_plane(CommandPlaneMode::kAsync);
    ctl.attach_journal(&journal);
    ctl.apply_traffic_matrix(chain_demand(f.map, 0));

    const std::string text = journal.to_text();
    if (async_mode) {
      EXPECT_NE(text.find(" slots "), std::string::npos);
      EXPECT_NE(text.find(" slot "), std::string::npos);
    } else {
      EXPECT_EQ(text.find("slots"), std::string::npos);
      EXPECT_EQ(text.find("slot"), std::string::npos);
    }
    const IntentJournal reloaded = IntentJournal::from_text(text);
    EXPECT_EQ(reloaded.to_text(), text);
  }
}

// An interrupted async apply leaves slot-stamped in-flight records that
// replay() exposes, so a recovery audit can attribute every pending op to
// its schedule slot.
TEST(AsyncPlane, ReplayExposesInFlightSlots) {
  const Fixture f = make_fixture(7, 8, 12);
  FaultConfig cfg;
  cfg.crash_after_commands = 5;
  DeviceLayer devices(f.map, f.net, f.plan, cfg);
  IntentJournal journal;
  IrisController ctl(f.map, f.net, f.plan, devices);
  ctl.set_command_plane(CommandPlaneMode::kAsync);
  ctl.attach_journal(&journal);
  EXPECT_THROW(ctl.apply_traffic_matrix(chain_demand(f.map, 0)),
               ControllerCrash);

  const auto intent = IntentJournal::from_text(journal.to_text()).replay();
  ASSERT_TRUE(intent.in_flight.has_value());
  EXPECT_GE(intent.in_flight->slots, 1);
  ASSERT_FALSE(intent.in_flight->ops.empty());
  for (const auto& op : intent.in_flight->ops) {
    EXPECT_GE(op.slot, 1);
    EXPECT_LE(op.slot, intent.in_flight->slots);
  }
}

// ReconfigReport::makespan_ms is the controller.apply span's duration: the
// apply advances the registry's virtual clock by exactly the command-plane
// makespan before the span closes, on both planes.
TEST(AsyncPlane, MakespanMatchesApplySpan) {
  if (!obs::compiled_in()) GTEST_SKIP() << "obs stubbed out (IRIS_OBS=OFF)";
  const Fixture f = make_fixture(7, 8, 12);
  for (const bool async_mode : {false, true}) {
    obs::MetricsRegistry reg;  // fresh virtual clock at t=0
    const obs::ScopedRegistry scope(reg);
    DeviceLayer devices(f.map, f.net, f.plan);
    IrisController ctl(f.map, f.net, f.plan, devices);
    if (async_mode) ctl.set_command_plane(CommandPlaneMode::kAsync);
    const auto report = ctl.apply_traffic_matrix(chain_demand(f.map, 0));
    EXPECT_GT(report.makespan_ms, 0.0);
    EXPECT_NEAR(reg.gauge("span.controller.apply.seconds") * 1000.0,
                report.makespan_ms, 1e-6)
        << (async_mode ? "async" : "serial");
    if (async_mode) {
      EXPECT_GT(reg.counter("controller.commands.batched"), 0);
    } else {
      EXPECT_EQ(reg.counter("controller.commands.batched"), 0);
    }
  }
}

// --------------------------------------------------------------------------
// Crash k-sweep across async schedule slots (the PR 4 sweep, extended): the
// injector kills the controller every k commands while the async plane is
// mid-schedule; every successor recovers from the journal to a clean audit
// and the run converges to the no-crash async execution byte-for-byte.

struct SweepResult {
  std::vector<std::string> fingerprints;
  int crashes = 0;
  std::set<int> crash_slots;  ///< ControllerCrash::schedule_slot values seen
  RunDigest digest;  ///< journal, traces, fingerprints after every step
};

SweepResult run_async_schedule(const Fixture& f, long long crash_every) {
  FaultConfig cfg;
  cfg.crash_after_commands = crash_every;  // 0 = reference, no crashes
  DeviceLayer devices(f.map, f.net, f.plan, cfg);
  IntentJournal journal;
  auto ctl = std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
  ctl->set_command_plane(CommandPlaneMode::kAsync);
  ctl->attach_journal(&journal);
  SweepResult result;

  const std::vector<std::pair<int, ReconfigStrategy>> steps = {
      {0, ReconfigStrategy::kBreakBeforeMake},
      {1, ReconfigStrategy::kMakeBeforeBreak},
      {2, ReconfigStrategy::kBreakBeforeMake},
      {0, ReconfigStrategy::kMakeBeforeBreak},
  };
  for (const auto& [scale, strategy] : steps) {
    bool done = false;
    while (!done) {
      try {
        ctl->apply_traffic_matrix(chain_demand(f.map, scale), strategy);
        done = true;
      } catch (const ControllerCrash& crash) {
        ++result.crashes;
        result.crash_slots.insert(crash.schedule_slot);
        ctl.reset();
        journal = IntentJournal::from_text(journal.to_text());
        ctl = std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
        ctl->set_command_plane(CommandPlaneMode::kAsync);
        const RecoveryReport rr = ctl->recover(journal);
        EXPECT_TRUE(rr.audit.clean()) << rr.audit.summary();
        EXPECT_GE(rr.adopted_circuits, 0);
        result.digest.fold_step(journal, *ctl);
        devices.fault_injector().arm_crash(crash_every);
        done = rr.had_in_flight;  // recovery resolved the crashed apply
      }
    }
    EXPECT_TRUE(ctl->audit_devices());
    result.fingerprints.push_back(ctl->state_fingerprint());
    result.digest.fold_step(journal, *ctl);
  }
  return result;
}

TEST(AsyncPlane, CrashKSweepAcrossScheduleSlots) {
  const Fixture f = make_fixture(7, 8, 12);
  const SweepResult ref = run_async_schedule(f, 0);
  ASSERT_EQ(ref.crashes, 0);

  std::set<int> all_slots;
  int total_crashes = 0;
  for (const long long k : {3LL, 7LL, 13LL, 29LL, 61LL}) {
    SCOPED_TRACE("crash_after_commands=" + std::to_string(k));
    const SweepResult run = run_async_schedule(f, k);
    EXPECT_GT(run.crashes, 0);
    ASSERT_EQ(run.fingerprints.size(), ref.fingerprints.size());
    for (std::size_t i = 0; i < ref.fingerprints.size(); ++i) {
      EXPECT_EQ(run.fingerprints[i], ref.fingerprints[i]) << "step " << i;
    }
    total_crashes += run.crashes;
    all_slots.insert(run.crash_slots.begin(), run.crash_slots.end());
  }
  EXPECT_GE(total_crashes, 5);
  // The sweep actually interleaved with the async schedule: crashes landed
  // inside scheduled ops (slot >= 1), not just in the serial tail (-1).
  EXPECT_TRUE(all_slots.upper_bound(0) != all_slots.end())
      << "no crash carried an async schedule slot";
}

// Pins the async sweep's bytes: every step's journal text (slot records
// included), recovery and apply command traces, and fingerprints.
TEST(AsyncPlane, CrashKSweepBytesArePinned) {
  const Fixture f = make_fixture(7, 8, 12);
  const std::vector<std::pair<long long, std::uint64_t>> pinned = {
      {0, 0x9a83cc8bc2881745ULL},  {3, 0xe64f9ff6817eb2c1ULL},
      {7, 0xb972c3787b3f4e11ULL},  {13, 0x4dbe726e0c6393a9ULL},
      {29, 0xc2607c086dda8ee5ULL}, {61, 0x5c3c000f7c23079dULL}};
  for (const auto& [k, digest] : pinned) {
    const std::uint64_t got = run_async_schedule(f, k).digest.value();
    EXPECT_EQ(got, digest) << "crash_after_commands=" << k << std::hex
                           << " got 0x" << got;
  }
}

}  // namespace
}  // namespace iris::control
