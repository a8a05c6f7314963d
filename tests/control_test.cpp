#include <gtest/gtest.h>

#include <memory>

#include "control/controller.hpp"
#include "control/closed_loop.hpp"
#include "control/policy.hpp"
#include "controller_rig.hpp"
#include "fibermap/generator.hpp"

namespace iris::control {
namespace {

using core::DcPair;

core::PlannerParams toy_params(int tolerance = 0) {
  core::PlannerParams params;
  params.failure_tolerance = tolerance;
  params.channels.wavelengths_per_fiber = 40;
  return params;
}

TEST(Devices, OssConnectDisconnect) {
  OpticalSpaceSwitch oss("test", 8);
  EXPECT_EQ(oss.connection_count(), 0);
  oss.connect(0, 5);
  EXPECT_EQ(oss.output_for(0), 5);
  EXPECT_TRUE(oss.output_in_use(5));
  EXPECT_THROW(oss.connect(0, 6), std::logic_error);  // input busy
  EXPECT_THROW(oss.connect(1, 5), std::logic_error);  // output busy
  oss.disconnect(0);
  EXPECT_EQ(oss.output_for(0), std::nullopt);
  EXPECT_THROW(oss.disconnect(0), std::logic_error);
  EXPECT_THROW(oss.connect(0, 99), std::out_of_range);
  EXPECT_THROW(OpticalSpaceSwitch("bad", 0), std::invalid_argument);
}

TEST(Devices, TransceiverTuning) {
  TunableTransceiver tx("tx0", 40);
  EXPECT_EQ(tx.wavelength(), std::nullopt);
  tx.tune(13);
  EXPECT_EQ(tx.wavelength(), 13);
  EXPECT_THROW(tx.tune(40), std::out_of_range);
  tx.disable();
  EXPECT_EQ(tx.wavelength(), std::nullopt);
}

TEST(Devices, AmplifierPowerLimiter) {
  Amplifier amp("edfa", 20.0, -6.0);
  // Input under the limit: straight gain.
  EXPECT_DOUBLE_EQ(amp.output_dbm(-10.0), 10.0);
  // Hot input (short span after reconfig): clamped, so the output cannot
  // overload the next stage -- the paper's no-online-management trick (TC3).
  EXPECT_DOUBLE_EQ(amp.output_dbm(0.0), 14.0);
  EXPECT_DOUBLE_EQ(amp.output_dbm(-6.0), 14.0);
}

TEST(Devices, ChannelEmulatorKeepsSpectrumFull) {
  ChannelEmulator ase(40);
  EXPECT_EQ(ase.ase_filled_channels(), 40);
  ase.set_live_channels({0, 1, 2});
  EXPECT_EQ(ase.ase_filled_channels(), 37);
  EXPECT_TRUE(ase.spectrum_full());
  EXPECT_THROW(ase.set_live_channels({99}), std::out_of_range);
}

class ToyController : public ::testing::Test {
 protected:
  ToyController()
      : map_(fibermap::toy_example_fig10()),
        ids_(fibermap::toy_example_ids()),
        net_(core::provision(map_, toy_params())),
        plan_(core::place_amplifiers_and_cutthroughs(map_, net_)),
        rig_(map_, net_, plan_) {}

  TrafficMatrix demand(long long w12, long long w13) const {
    TrafficMatrix tm;
    if (w12 > 0) tm[DcPair(ids_.dc1, ids_.dc2)] = w12;
    if (w13 > 0) tm[DcPair(ids_.dc1, ids_.dc3)] = w13;
    return tm;
  }

  fibermap::FiberMap map_;
  fibermap::ToyExampleIds ids_;
  core::ProvisionedNetwork net_;
  core::AmpCutPlan plan_;
  ControllerRig rig_;
  IrisController& controller_ = rig_.controller;
};

TEST_F(ToyController, ProvisionsBasePlusResidualFibers) {
  // L1: 10 base + 3 residual; L5: 20 base + 4 residual.
  EXPECT_EQ(controller_.provisioned_fibers(ids_.l1), 13);
  EXPECT_EQ(controller_.provisioned_fibers(ids_.l5), 24);
}

TEST_F(ToyController, EstablishesCircuitsForDemands) {
  const auto report = controller_.apply_traffic_matrix(demand(100, 60));
  EXPECT_EQ(report.set_up.size(), 2u);
  EXPECT_TRUE(report.torn_down.empty());
  EXPECT_TRUE(report.verified);
  ASSERT_EQ(controller_.active_circuits().size(), 2u);
  // 100 wavelengths at lambda=40 -> 3 fibers; 60 -> 2 fibers.
  EXPECT_EQ(controller_.allocated_fibers(ids_.l1), 5);
  EXPECT_EQ(controller_.allocated_fibers(ids_.l5), 2);
  EXPECT_EQ(controller_.allocated_fibers(ids_.l3), 2);
}

TEST_F(ToyController, ReconfigurationTimesMatchTestbed) {
  controller_.apply_traffic_matrix(demand(100, 0));
  // New circuit via two hubs: 2 switching sites -> 40 ms OSS + 30 ms
  // recovery = 70 ms capacity gap (paper SS6.2 measures <= 70 ms).
  const auto report = controller_.apply_traffic_matrix(demand(100, 60));
  EXPECT_DOUBLE_EQ(report.switch_ms, 40.0);
  EXPECT_DOUBLE_EQ(report.recovery_ms, 30.0);
  EXPECT_DOUBLE_EQ(report.capacity_gap_ms(), 70.0);
}

TEST_F(ToyController, UnchangedCircuitsAreNotTouched) {
  controller_.apply_traffic_matrix(demand(100, 60));
  const auto report = controller_.apply_traffic_matrix(demand(100, 60));
  EXPECT_TRUE(report.set_up.empty());
  EXPECT_TRUE(report.torn_down.empty());
  EXPECT_DOUBLE_EQ(report.total_ms, 0.0);
}

TEST_F(ToyController, WavelengthOnlyChangeAvoidsSwitching) {
  controller_.apply_traffic_matrix(demand(100, 60));
  // 100 -> 90 wavelengths still needs 3 fibers: no optical change, only
  // DC-local retuning.
  const auto report = controller_.apply_traffic_matrix(demand(90, 60));
  EXPECT_TRUE(report.set_up.empty());
  EXPECT_TRUE(report.torn_down.empty());
  EXPECT_EQ(controller_.allocated_fibers(ids_.l1), 5);
}

TEST_F(ToyController, DrainsBeforeTeardown) {
  controller_.apply_traffic_matrix(demand(100, 60));
  const auto report = controller_.apply_traffic_matrix(demand(100, 0));
  EXPECT_EQ(report.torn_down.size(), 1u);
  EXPECT_GT(report.drain_ms, 0.0);
  ASSERT_FALSE(report.timeline.empty());
  EXPECT_NE(report.timeline.front().action.find("drained"), std::string::npos);
  EXPECT_EQ(controller_.allocated_fibers(ids_.l5), 0);
}

TEST_F(ToyController, RejectsHoseViolatingDemand) {
  // DC1's capacity is 400 wavelengths; 300 + 200 exceeds it.
  EXPECT_THROW(controller_.apply_traffic_matrix(demand(300, 200)),
               std::runtime_error);
}

TEST_F(ToyController, FailedDuctReroutesOrRejects) {
  controller_.apply_traffic_matrix(demand(0, 60));
  // The toy map has no alternative to L5 for inter-hub traffic.
  controller_.fail_duct(ids_.l5);
  EXPECT_THROW(controller_.apply_traffic_matrix(demand(0, 60)),
               std::runtime_error);
  controller_.restore_duct(ids_.l5);
  EXPECT_NO_THROW(controller_.apply_traffic_matrix(demand(0, 60)));
}

TEST_F(ToyController, ChannelEmulationTracksLiveChannels) {
  controller_.apply_traffic_matrix(demand(3, 0));
  const auto& ase = controller_.devices().emulator(ids_.dc1);
  EXPECT_EQ(ase.live_channels().size(), 3u);
  EXPECT_EQ(ase.ase_filled_channels(), 37);
  // DC3 is idle: all 40 channels are ASE fill.
  EXPECT_EQ(controller_.devices().emulator(ids_.dc3).ase_filled_channels(), 40);
}

TEST(ControllerOnRegion, RerouteAroundFailure) {
  fibermap::RegionParams region;
  region.seed = 7;
  region.dc_count = 5;
  region.hut_count = 10;
  region.capacity_fibers = 8;
  const auto map = fibermap::generate_region(region);
  const auto net = core::provision(map, toy_params(1));
  const auto plan = core::place_amplifiers_and_cutthroughs(map, net);
  ControllerRig rig(map, net, plan);
  IrisController& controller = rig.controller;

  TrafficMatrix tm;
  tm[DcPair(map.dcs()[0], map.dcs()[1])] = 40;
  controller.apply_traffic_matrix(tm);
  ASSERT_EQ(controller.active_circuits().size(), 1u);
  const auto original = controller.active_circuits()[0].route;

  // Fail the first duct of the active route; the controller must reroute.
  controller.fail_duct(original.edges.front());
  const auto report = controller.apply_traffic_matrix(tm);
  EXPECT_EQ(report.torn_down.size(), 1u);
  EXPECT_EQ(report.set_up.size(), 1u);
  const auto& rerouted = controller.active_circuits()[0].route;
  EXPECT_FALSE(rerouted.uses_edge(original.edges.front()));
  EXPECT_GE(rerouted.length_km, original.length_km);
}

TEST_F(ToyController, ProgramsRealCrossConnects) {
  controller_.apply_traffic_matrix(demand(40, 40));
  // Circuit dc1-dc2 via hub A: the hub's OSS must have pass-through
  // cross-connects; terminals must have add/drop connects.
  const auto& hub_oss = controller_.devices().oss(ids_.hub_a);
  EXPECT_GT(hub_oss.connection_count(), 0);
  const auto& dc1_oss = controller_.devices().oss(ids_.dc1);
  // dc1 terminates two circuits x 1 fiber each: 2 connects per fiber.
  EXPECT_EQ(dc1_oss.connection_count(), 4);
  EXPECT_TRUE(controller_.audit_devices());
}

TEST_F(ToyController, TeardownRemovesAllCrossConnects) {
  controller_.apply_traffic_matrix(demand(40, 40));
  controller_.apply_traffic_matrix({});
  for (graph::NodeId n = 0; n < map_.graph().node_count(); ++n) {
    EXPECT_EQ(controller_.devices().oss(n).connection_count(), 0)
        << "site " << n;
  }
  for (graph::EdgeId e = 0; e < map_.graph().edge_count(); ++e) {
    EXPECT_EQ(controller_.allocated_fibers(e), 0);
  }
  EXPECT_TRUE(controller_.audit_devices());
}

TEST_F(ToyController, PassThroughPortsFollowThePortMap) {
  controller_.apply_traffic_matrix(demand(0, 40));  // dc1 -> dc3 via 2 hubs
  const auto& pm = controller_.devices().port_map(ids_.hub_a);
  // Forward strand: arrives from L1, leaves on L5 -- the hub's OSS must map
  // exactly that input to exactly that output for the allocated fiber.
  bool found = false;
  const auto& oss = controller_.devices().oss(ids_.hub_a);
  for (int f = 0; f < controller_.provisioned_fibers(ids_.l1); ++f) {
    const auto out = oss.output_for(pm.duct_in_port(ids_.l1, f));
    if (!out) continue;
    found = true;
    bool matches_l5 = false;
    for (int g = 0; g < controller_.provisioned_fibers(ids_.l5); ++g) {
      if (*out == pm.duct_out_port(ids_.l5, g)) matches_l5 = true;
    }
    EXPECT_TRUE(matches_l5);
  }
  EXPECT_TRUE(found);
}

TEST(PortMap, LayoutIsDeterministicAndDisjoint) {
  const auto map = fibermap::toy_example_fig10();
  const auto net = core::provision(map, toy_params());
  const auto plan = core::place_amplifiers_and_cutthroughs(map, net);
  const auto maps = build_port_maps(map, net, plan);

  for (graph::NodeId n = 0; n < map.graph().node_count(); ++n) {
    const auto& pm = maps[n];
    std::set<int> seen;
    const auto fibers = leased_fibers_per_duct(map, net, plan);
    for (graph::EdgeId e : map.graph().incident(n)) {
      for (int f = 0; f < fibers[e]; ++f) {
        EXPECT_TRUE(seen.insert(pm.duct_in_port(e, f)).second);
        EXPECT_TRUE(seen.insert(pm.duct_out_port(e, f)).second);
      }
    }
    for (int k = 0; k < pm.add_drop_pairs(); ++k) {
      EXPECT_TRUE(seen.insert(pm.add_port(k)).second);
      EXPECT_TRUE(seen.insert(pm.drop_port(k)).second);
    }
    for (int a = 0; a < pm.amplifier_count(); ++a) {
      EXPECT_TRUE(seen.insert(pm.amp_feed_port(a)).second);
      EXPECT_TRUE(seen.insert(pm.amp_return_port(a)).second);
    }
    EXPECT_EQ(static_cast<int>(seen.size()), pm.port_count());
  }
}

TEST(PortMap, RejectsOutOfRangeQueries) {
  const auto map = fibermap::toy_example_fig10();
  const auto ids = fibermap::toy_example_ids();
  const auto net = core::provision(map, toy_params());
  const auto plan = core::place_amplifiers_and_cutthroughs(map, net);
  const auto maps = build_port_maps(map, net, plan);
  const auto& hub = maps[ids.hub_a];
  EXPECT_THROW((void)hub.duct_in_port(ids.l3, 0), std::invalid_argument);
  EXPECT_THROW((void)hub.duct_in_port(ids.l1, 9999), std::out_of_range);
  EXPECT_THROW((void)hub.add_port(0), std::out_of_range);  // huts have none
}

TEST(AmplifiedCircuits, LongRouteConsumesAmplifierUnits) {
  fibermap::FiberMap map;
  const auto a = map.add_dc("a", {0, 0}, 4);
  const auto b = map.add_dc("b", {100, 0}, 4);
  const auto h1 = map.add_hut("h1", {50, 0});
  map.add_duct_with_length(a, h1, 55.0);
  map.add_duct_with_length(h1, b, 55.0);
  const auto net = core::provision(map, toy_params());
  const auto plan = core::place_amplifiers_and_cutthroughs(map, net);
  ASSERT_EQ(plan.amps_at_node[h1], 4);
  ControllerRig rig(map, net, plan);
  IrisController& controller = rig.controller;

  TrafficMatrix tm;
  tm[DcPair(a, b)] = 80;  // 2 fibers -> 2 amplifier units
  controller.apply_traffic_matrix(tm);
  EXPECT_EQ(controller.amplifiers_in_use(h1), 2);
  // The hub OSS carries the loopback connects: per fiber, forward in->feed,
  // return->out, plus the reverse pass-through = 3 connects.
  EXPECT_EQ(controller.devices().oss(h1).connection_count(), 6);

  controller.apply_traffic_matrix({});
  EXPECT_EQ(controller.amplifiers_in_use(h1), 0);
}

TEST(AmplifiedCircuits, ExhaustedAmplifierPoolRollsBackCleanly) {
  fibermap::FiberMap map;
  const auto a = map.add_dc("a", {0, 0}, 4);
  const auto b = map.add_dc("b", {100, 0}, 4);
  const auto h1 = map.add_hut("h1", {50, 0});
  const auto duct_a = map.add_duct_with_length(a, h1, 55.0);
  map.add_duct_with_length(h1, b, 55.0);
  const auto net = core::provision(map, toy_params());
  auto plan = core::place_amplifiers_and_cutthroughs(map, net);
  plan.amps_at_node[h1] = 1;  // sabotage: fewer amps than planned
  ControllerRig rig(map, net, plan);
  IrisController& controller = rig.controller;

  TrafficMatrix tm;
  tm[DcPair(a, b)] = 80;  // needs 2 amplifier units, only 1 exists
  EXPECT_THROW(controller.apply_traffic_matrix(tm), std::runtime_error);
  // Rollback: nothing programmed, nothing leaked.
  EXPECT_EQ(controller.allocated_fibers(duct_a), 0);
  EXPECT_EQ(controller.amplifiers_in_use(h1), 0);
  EXPECT_EQ(controller.devices().oss(h1).connection_count(), 0);
  EXPECT_TRUE(controller.audit_devices());
  // A demand that fits the single amplifier still goes through.
  tm[DcPair(a, b)] = 40;
  EXPECT_NO_THROW(controller.apply_traffic_matrix(tm));
  EXPECT_EQ(controller.amplifiers_in_use(h1), 1);
}

TEST_F(ToyController, CommandTraceRecordsDeviceOperations) {
  controller_.apply_traffic_matrix(demand(40, 0));
  const auto& setup = controller_.last_command_trace();
  // 1 fiber dc1->dc2 via hub A: 2 terminal connects x 2 DCs + 2 hub
  // pass-through connects = 6 OSS connects; 40+40 transceivers tuned; ASE
  // fill recorded for every DC.
  EXPECT_EQ(count_commands<OssConnectCmd>(setup), 6);
  EXPECT_EQ(count_commands<OssDisconnectCmd>(setup), 0);
  EXPECT_EQ(count_commands<TuneTransceiverCmd>(setup), 80);
  EXPECT_EQ(count_commands<SetAseFillCmd>(setup), 4);

  controller_.apply_traffic_matrix({});
  const auto& teardown = controller_.last_command_trace();
  EXPECT_EQ(count_commands<OssDisconnectCmd>(teardown), 6);
  EXPECT_EQ(count_commands<OssConnectCmd>(teardown), 0);
  EXPECT_EQ(count_commands<TuneTransceiverCmd>(teardown), 0);
}

TEST_F(ToyController, CommandTraceOrdersDisconnectsBeforeConnects) {
  controller_.apply_traffic_matrix(demand(40, 0));
  // Replace the dc1-dc2 circuit with dc1-dc3: teardown precedes setup.
  controller_.apply_traffic_matrix(demand(0, 40));
  const auto& trace = controller_.last_command_trace();
  int last_disconnect = -1, first_connect = -1;
  for (int i = 0; i < static_cast<int>(trace.size()); ++i) {
    if (std::holds_alternative<OssDisconnectCmd>(trace[i])) last_disconnect = i;
    if (std::holds_alternative<OssConnectCmd>(trace[i]) && first_connect < 0) {
      first_connect = i;
    }
  }
  ASSERT_GE(last_disconnect, 0);
  ASSERT_GE(first_connect, 0);
  EXPECT_LT(last_disconnect, first_connect);
}

TEST_F(ToyController, MakeBeforeBreakIsHitless) {
  controller_.apply_traffic_matrix(demand(100, 0));
  // Replace the circuit with a different pair using spare fibers.
  const auto report = controller_.apply_traffic_matrix(
      demand(0, 60), ReconfigStrategy::kMakeBeforeBreak);
  EXPECT_TRUE(report.hitless);
  EXPECT_DOUBLE_EQ(report.capacity_gap_ms(), 0.0);
  EXPECT_EQ(report.set_up.size(), 1u);
  EXPECT_EQ(report.torn_down.size(), 1u);
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.outcome, ApplyOutcome::kCommitted);
  // Old resources fully returned afterwards.
  EXPECT_EQ(controller_.allocated_fibers(ids_.l1), 2);  // dc1->dc3: 2 fibers
  EXPECT_TRUE(controller_.status().devices_consistent);
}

TEST_F(ToyController, MakeBeforeBreakFallsBackWhenSparesRunOut) {
  // Saturate L1's leased fibers (13 pairs: 10 base + 3 residual) so the new
  // generation cannot coexist with the old.
  controller_.apply_traffic_matrix(demand(400, 0));  // 10 fibers on L1
  const auto report = controller_.apply_traffic_matrix(
      demand(0, 400), ReconfigStrategy::kMakeBeforeBreak);
  // dc1->dc3 also needs 10 fibers on L1; only 3 spares -> fall back.
  EXPECT_FALSE(report.hitless);
  EXPECT_GT(report.capacity_gap_ms(), 0.0);
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(controller_.allocated_fibers(ids_.l1), 10);
}

TEST_F(ToyController, MakeBeforeBreakWithNoChangesIsNoop) {
  controller_.apply_traffic_matrix(demand(100, 0));
  const auto report = controller_.apply_traffic_matrix(
      demand(100, 0), ReconfigStrategy::kMakeBeforeBreak);
  EXPECT_TRUE(report.set_up.empty());
  EXPECT_FALSE(report.hitless);  // nothing was made or broken
  EXPECT_DOUBLE_EQ(report.total_ms, 0.0);
}

// --- Reconfiguration policy --------------------------------------------------

TEST(Policy, RejectsBadParameters) {
  PolicyParams p;
  p.ewma_alpha = 0.0;
  EXPECT_THROW(ReconfigPolicy{p}, std::invalid_argument);
  p = PolicyParams{};
  p.headroom = 0.5;
  EXPECT_THROW(ReconfigPolicy{p}, std::invalid_argument);
}

TEST(Policy, StableDemandNeverTriggersAfterFirstApply) {
  PolicyParams params;
  params.hysteresis_s = 5.0;
  ReconfigPolicy policy(params);
  TrafficMatrix demand;
  demand[core::DcPair(0, 1)] = 100;

  policy.observe(demand, 0.0);
  // Cold start: everything diverges from the (empty) applied plan.
  auto first = policy.propose(6.0);
  // Need to observe past the hysteresis window first.
  policy.observe(demand, 6.0);
  first = policy.propose(6.0);
  ASSERT_TRUE(first.has_value());
  policy.mark_applied(*first);

  for (double t = 7.0; t < 60.0; t += 1.0) {
    policy.observe(demand, t);
    EXPECT_FALSE(policy.propose(t).has_value()) << "at t=" << t;
  }
}

TEST(Policy, StepChangeTriggersAfterHysteresis) {
  PolicyParams params;
  params.hysteresis_s = 5.0;
  params.ewma_alpha = 1.0;  // no smoothing: isolate the hysteresis clock
  ReconfigPolicy policy(params);
  TrafficMatrix low;
  low[core::DcPair(0, 1)] = 10;
  policy.observe(low, 0.0);
  policy.mark_applied(policy.target());

  TrafficMatrix high = low;
  high[core::DcPair(0, 1)] = 400;  // multiple extra fibers
  policy.observe(high, 10.0);
  EXPECT_FALSE(policy.propose(12.0).has_value());   // within hysteresis
  policy.observe(high, 14.0);
  EXPECT_FALSE(policy.propose(14.9).has_value());
  policy.observe(high, 15.0);
  const auto proposal = policy.propose(15.0);
  ASSERT_TRUE(proposal.has_value());                // 5 s elapsed
  EXPECT_GE(proposal->at(core::DcPair(0, 1)), 400);
}

TEST(Policy, FlappingWithinAFiberNeverTriggers) {
  PolicyParams params;
  params.hysteresis_s = 2.0;
  params.ewma_alpha = 1.0;
  params.headroom = 1.0;
  params.wavelengths_per_fiber = 40;
  ReconfigPolicy policy(params);
  TrafficMatrix demand;
  demand[core::DcPair(0, 1)] = 35;
  policy.observe(demand, 0.0);
  policy.mark_applied(policy.target());

  // Oscillate between 21 and 39 wavelengths: always 1 fiber.
  for (double t = 1.0; t < 30.0; t += 1.0) {
    demand[core::DcPair(0, 1)] = (static_cast<int>(t) % 2 == 0) ? 21 : 39;
    policy.observe(demand, t);
    EXPECT_FALSE(policy.propose(t).has_value()) << "at t=" << t;
  }
}

TEST(Policy, EwmaDampensBursts) {
  PolicyParams params;
  params.ewma_alpha = 0.2;
  params.hysteresis_s = 0.0;
  params.headroom = 1.0;
  ReconfigPolicy policy(params);
  TrafficMatrix steady;
  steady[core::DcPair(0, 1)] = 40;
  policy.observe(steady, 0.0);
  policy.mark_applied(policy.target());

  // One 10x burst sample barely moves the smoothed value.
  TrafficMatrix burst;
  burst[core::DcPair(0, 1)] = 400;
  policy.observe(burst, 1.0);
  const auto target = policy.target();
  EXPECT_LT(target.at(core::DcPair(0, 1)), 120);
}

TEST(Policy, VanishedDemandEventuallyTearsDown) {
  PolicyParams params;
  params.hysteresis_s = 3.0;
  params.ewma_alpha = 1.0;
  ReconfigPolicy policy(params);
  TrafficMatrix demand;
  demand[core::DcPair(0, 1)] = 100;
  policy.observe(demand, 0.0);
  policy.mark_applied(policy.target());

  for (double t = 1.0; t <= 5.0; t += 1.0) policy.observe({}, t);
  const auto proposal = policy.propose(5.0);
  ASSERT_TRUE(proposal.has_value());
  EXPECT_TRUE(proposal->empty() ||
              !proposal->contains(core::DcPair(0, 1)));
}

TEST(Policy, DrivesControllerEndToEnd) {
  const auto map = fibermap::toy_example_fig10();
  const auto ids = fibermap::toy_example_ids();
  const auto net = core::provision(map, toy_params());
  const auto plan = core::place_amplifiers_and_cutthroughs(map, net);
  ControllerRig rig(map, net, plan);
  IrisController& controller = rig.controller;

  PolicyParams params;
  params.hysteresis_s = 4.0;
  params.ewma_alpha = 1.0;
  params.headroom = 1.0;
  ReconfigPolicy policy(params);

  int reconfigs = 0;
  TrafficMatrix demand;
  demand[core::DcPair(ids.dc1, ids.dc2)] = 80;
  for (double t = 0.0; t < 30.0; t += 1.0) {
    if (t == 15.0) demand[core::DcPair(ids.dc1, ids.dc2)] = 200;  // sustained
    policy.observe(demand, t);
    if (const auto proposal = policy.propose(t)) {
      controller.apply_traffic_matrix(*proposal);
      policy.mark_applied(*proposal);
      ++reconfigs;
    }
  }
  // Exactly two reconfigurations: initial bring-up and the step at t=15.
  EXPECT_EQ(reconfigs, 2);
  EXPECT_EQ(controller.allocated_fibers(ids.l1), 5);  // 200 waves / 40
}

TEST_F(ToyController, StatusSnapshotTracksState) {
  auto s = controller_.status();
  EXPECT_EQ(s.active_circuits, 0);
  EXPECT_EQ(s.fibers_allocated, 0);
  EXPECT_GT(s.fibers_provisioned, 0);
  EXPECT_TRUE(s.devices_consistent);
  EXPECT_DOUBLE_EQ(s.fiber_utilization(), 0.0);

  controller_.apply_traffic_matrix(demand(100, 60));
  s = controller_.status();
  EXPECT_EQ(s.active_circuits, 2);
  EXPECT_EQ(s.live_wavelengths, 2 * (100 + 60));
  // dc1-dc2: 3 fibers x 2 ducts; dc1-dc3: 2 fibers x 3 ducts.
  EXPECT_EQ(s.fibers_allocated, 3 * 2 + 2 * 3);
  EXPECT_GT(s.fiber_utilization(), 0.0);
  EXPECT_TRUE(s.devices_consistent);

  controller_.fail_duct(ids_.l2);
  EXPECT_EQ(controller_.status().failed_ducts, 1);
}

TEST(Maintenance, DrainReroutesHitlessly) {
  fibermap::RegionParams region;
  region.seed = 7;
  region.dc_count = 5;
  region.hut_count = 10;
  region.capacity_fibers = 8;
  const auto map = fibermap::generate_region(region);
  const auto net = core::provision(map, toy_params(1));
  const auto plan = core::place_amplifiers_and_cutthroughs(map, net);
  ControllerRig rig(map, net, plan);
  IrisController& controller = rig.controller;

  TrafficMatrix tm;
  tm[DcPair(map.dcs()[0], map.dcs()[1])] = 40;
  controller.apply_traffic_matrix(tm);
  const auto victim = controller.active_circuits()[0].route.edges.front();

  const auto report = controller.drain_duct_for_maintenance(victim);
  EXPECT_TRUE(report.hitless);  // spare fibers held both generations
  EXPECT_DOUBLE_EQ(report.capacity_gap_ms(), 0.0);
  EXPECT_EQ(controller.allocated_fibers(victim), 0);
  EXPECT_FALSE(controller.active_circuits()[0].route.uses_edge(victim));
  // The demand is untouched.
  EXPECT_EQ(controller.active_circuits()[0].wavelengths, 40);
  EXPECT_TRUE(controller.status().devices_consistent);
}

TEST_F(ToyController, MaintenanceRefusedWhenNoAlternateRoute) {
  controller_.apply_traffic_matrix(demand(0, 60));
  // L5 is the only inter-hub trunk: maintenance must be refused and the
  // duct returned to service with traffic intact.
  EXPECT_THROW(controller_.drain_duct_for_maintenance(ids_.l5),
               std::runtime_error);
  EXPECT_EQ(controller_.allocated_fibers(ids_.l5), 2);
  // The refusal is clean: the duct is back in service, the circuit and its
  // device state untouched.
  EXPECT_EQ(controller_.status().failed_ducts, 0);
  EXPECT_TRUE(controller_.status().devices_consistent);
  EXPECT_NO_THROW(controller_.apply_traffic_matrix(demand(0, 60)));
}

TEST(ClosedLoop, StableDemandSettlesAfterOneApply) {
  const auto map = fibermap::toy_example_fig10();
  const auto ids = fibermap::toy_example_ids();
  const auto net = core::provision(map, toy_params());
  const auto plan = core::place_amplifiers_and_cutthroughs(map, net);
  ControllerRig rig(map, net, plan);
  IrisController& controller = rig.controller;
  PolicyParams pp;
  pp.hysteresis_s = 3.0;
  pp.ewma_alpha = 1.0;
  ReconfigPolicy policy(pp);

  TrafficMatrix demand;
  demand[DcPair(ids.dc1, ids.dc2)] = 120;
  ClosedLoopParams lp;
  lp.duration_s = 60.0;
  const auto result = run_closed_loop(
      controller, policy, [&](double) { return demand; }, lp);
  EXPECT_EQ(result.reconfigurations, 1);  // bring-up only
  EXPECT_EQ(result.rejected, 0);
  EXPECT_EQ(result.samples, 60);
  EXPECT_EQ(controller.active_circuits().size(), 1u);
  // Observability: the loop ends converged, and the only suppressed
  // proposals are the hysteresis gating of the bring-up itself.
  EXPECT_EQ(result.diverging_pairs_end, 0);
  EXPECT_GE(result.proposals_suppressed, 1);
  EXPECT_LE(result.proposals_suppressed, 3);  // hysteresis_s at 1 Hz
}

TEST(ClosedLoop, InfeasibleDemandIsRejectedNotFatal) {
  const auto map = fibermap::toy_example_fig10();
  const auto ids = fibermap::toy_example_ids();
  const auto net = core::provision(map, toy_params());
  const auto plan = core::place_amplifiers_and_cutthroughs(map, net);
  ControllerRig rig(map, net, plan);
  IrisController& controller = rig.controller;
  PolicyParams pp;
  pp.hysteresis_s = 1.0;
  pp.ewma_alpha = 1.0;
  pp.headroom = 1.0;
  ReconfigPolicy policy(pp);

  // Demand beyond dc1's hose capacity: every proposal must bounce, but the
  // loop keeps sampling.
  TrafficMatrix hose_violating;
  hose_violating[DcPair(ids.dc1, ids.dc2)] = 300;
  hose_violating[DcPair(ids.dc1, ids.dc3)] = 300;
  ClosedLoopParams lp;
  lp.duration_s = 10.0;
  const auto result = run_closed_loop(
      controller, policy, [&](double) { return hose_violating; }, lp);
  EXPECT_EQ(result.reconfigurations, 0);
  EXPECT_GT(result.rejected, 0);
  EXPECT_TRUE(controller.active_circuits().empty());
  // Observability: the loop ends with the demand still unmet -- both pairs
  // report as diverging -- and the hysteresis window suppressed at least
  // the first proposal.
  EXPECT_EQ(result.diverging_pairs_end, 2);
  EXPECT_GE(result.proposals_suppressed, 1);
  EXPECT_THROW(
      (void)run_closed_loop(controller, policy,
                            [&](double) { return hose_violating; },
                            ClosedLoopParams{-1.0, 1.0,
                                             ReconfigStrategy::kBreakBeforeMake}),
      std::invalid_argument);
}

TEST(Policy, BackoffWindowsAreCountedAsSuppressedProposals) {
  // The drive loops that defer_retry() on a refusal (chaos soak, te
  // benches) lean on proposals_suppressed() to see how much demand the
  // backoff swallowed; each 4 s window at 1 Hz must count ~4 suppressions.
  const auto map = fibermap::toy_example_fig10();
  const auto ids = fibermap::toy_example_ids();
  const auto net = core::provision(map, toy_params());
  const auto plan = core::place_amplifiers_and_cutthroughs(map, net);
  ControllerRig rig(map, net, plan);
  IrisController& controller = rig.controller;
  PolicyParams pp;
  pp.hysteresis_s = 1.0;
  pp.ewma_alpha = 1.0;
  pp.headroom = 1.0;
  pp.retry_backoff_s = 4.0;
  ReconfigPolicy policy(pp);

  TrafficMatrix hose_violating;
  hose_violating[DcPair(ids.dc1, ids.dc2)] = 300;
  hose_violating[DcPair(ids.dc1, ids.dc3)] = 300;
  int refused = 0;
  for (double t = 0.0; t < 20.0; t += 1.0) {
    policy.observe(hose_violating, t);
    const auto proposal = policy.propose(t);
    if (!proposal) continue;
    try {
      controller.apply_traffic_matrix(*proposal);
      FAIL() << "hose-violating demand must be refused";
    } catch (const std::runtime_error&) {
      ++refused;
      policy.defer_retry(t);
    }
  }
  EXPECT_GT(refused, 0);
  EXPECT_EQ(policy.diverging_pairs(20.0), 2);
  EXPECT_GE(policy.proposals_suppressed(), 3 * refused);
}

TEST(Commands, HumanReadableRendering) {
  EXPECT_EQ(to_string(DeviceCommand{OssConnectCmd{3, 1, 9}}),
            "oss[3].connect(1 -> 9)");
  EXPECT_EQ(to_string(DeviceCommand{OssDisconnectCmd{3, 1}}),
            "oss[3].disconnect(1)");
  EXPECT_EQ(to_string(DeviceCommand{TuneTransceiverCmd{2, 7, 13}}),
            "dc[2].tx[7].tune(ch13)");
  EXPECT_EQ(to_string(DeviceCommand{DisableTransceiverCmd{2, 7}}),
            "dc[2].tx[7].disable()");
  EXPECT_EQ(to_string(DeviceCommand{SetAseFillCmd{2, 5}}),
            "dc[2].ase.fill(live=5)");
  EXPECT_EQ(to_string(DeviceCommand{AmpPowerCheckCmd{4, 2, true}}),
            "site[4].amp[2].power_check() -> ok");
  EXPECT_EQ(to_string(DeviceCommand{AmpPowerCheckCmd{4, 2, false}}),
            "site[4].amp[2].power_check() -> DEAD");
}

// --- Fault injection ---------------------------------------------------------

TEST(FaultInjector, DisabledByDefaultAndEverythingSucceeds) {
  FaultInjector inj;
  EXPECT_FALSE(inj.enabled());
  EXPECT_TRUE(inj.oss_connect(0, 1, 2).ok());
  EXPECT_TRUE(inj.oss_disconnect(0, 1, 2).ok());
  EXPECT_TRUE(inj.tx_tune(0, 3).ok());
  EXPECT_TRUE(inj.amp_power_check(1, 0).ok());
  EXPECT_EQ(inj.faults_injected(), 0);

  FaultConfig zero;  // all-zero rates: still disabled
  EXPECT_FALSE(FaultInjector(zero).enabled());
}

TEST(FaultInjector, RejectsBadConfig) {
  FaultConfig cfg;
  cfg.rates.oss_connect_fail = 1.5;
  EXPECT_THROW(FaultInjector{cfg}, std::invalid_argument);
  cfg.rates.oss_connect_fail = 0.1;
  cfg.retry.max_command_attempts = 0;
  EXPECT_THROW(FaultInjector{cfg}, std::invalid_argument);
  cfg.retry.max_command_attempts = 1;
  cfg.retry.backoff_factor = 0.5;
  EXPECT_THROW(FaultInjector{cfg}, std::invalid_argument);
}

TEST(FaultInjector, SameSeedSameSequence) {
  FaultConfig cfg;
  cfg.rates.oss_connect_fail = 0.4;
  cfg.rates.tx_tune_fail = 0.4;
  cfg.rates.timeout_fraction = 0.5;
  cfg.seed = 12345;
  FaultInjector a(cfg), b(cfg);
  for (int i = 0; i < 200; ++i) {
    const auto ra = a.oss_connect(i % 5, i, i + 1);
    const auto rb = b.oss_connect(i % 5, i, i + 1);
    EXPECT_EQ(ra.status, rb.status);
    EXPECT_EQ(a.tx_tune(0, i).status, b.tx_tune(0, i).status);
  }
  EXPECT_EQ(a.faults_injected(), b.faults_injected());
  EXPECT_GT(a.faults_injected(), 0);

  // A different seed gives a different schedule.
  cfg.seed = 54321;
  FaultInjector c(cfg);
  long long diverged = 0;
  FaultInjector a2(FaultConfig{cfg.rates, cfg.retry, 12345});
  for (int i = 0; i < 200; ++i) {
    diverged += a2.oss_connect(i % 5, i, i + 1).status !=
                c.oss_connect(i % 5, i, i + 1).status;
  }
  EXPECT_GT(diverged, 0);
}

TEST(FaultInjector, StickyFaultsPersistUntilCleared) {
  FaultConfig cfg;
  cfg.rates.oss_port_stuck = 1.0;
  cfg.seed = 7;
  FaultInjector inj(cfg);
  EXPECT_FALSE(inj.oss_connect(2, 4, 5).ok());
  EXPECT_TRUE(inj.port_stuck(2, 4));
  EXPECT_TRUE(inj.port_stuck(2, 5));
  EXPECT_EQ(inj.stuck_port_count(), 2);
  // Any command touching a stuck port keeps failing.
  EXPECT_FALSE(inj.oss_disconnect(2, 4, 5).ok());
  inj.clear_sticky();
  EXPECT_EQ(inj.stuck_port_count(), 0);
}

/// The break-before-make partial-apply hole (regression): growing a circuit
/// tears the old generation down first; if establishment then fails, the old
/// circuit used to be silently dropped with its cross-connects leaked. The
/// transactional controller must roll back to the pre-apply circuit set.
TEST(Transactional, BreakBeforeMakeFailureRollsBackToOldCircuits) {
  fibermap::FiberMap map;
  const auto a = map.add_dc("a", {0, 0}, 4);
  const auto b = map.add_dc("b", {100, 0}, 4);
  const auto h1 = map.add_hut("h1", {50, 0});
  const auto duct_a = map.add_duct_with_length(a, h1, 55.0);
  map.add_duct_with_length(h1, b, 55.0);
  const auto net = core::provision(map, toy_params());
  auto plan = core::place_amplifiers_and_cutthroughs(map, net);
  plan.amps_at_node[h1] = 1;  // sabotage: only one amplifier unit exists
  ControllerRig rig(map, net, plan);
  IrisController& controller = rig.controller;

  TrafficMatrix tm;
  tm[DcPair(a, b)] = 40;  // 1 fiber, 1 amplifier unit: fits
  controller.apply_traffic_matrix(tm);
  ASSERT_EQ(controller.amplifiers_in_use(h1), 1);

  // Growing to 2 fibers needs 2 amplifier units. Break-before-make releases
  // the old circuit first, so the failure strikes after devices changed.
  tm[DcPair(a, b)] = 80;
  ReconfigReport report;
  ASSERT_NO_THROW(report = controller.apply_traffic_matrix(tm));
  EXPECT_EQ(report.outcome, ApplyOutcome::kRolledBack);
  EXPECT_FALSE(report.target_reached());
  EXPECT_EQ(report.not_established.size(), 1u);
  EXPECT_TRUE(report.lost_circuits.empty());
  // The pre-apply circuit is back, carrying its original wavelengths.
  ASSERT_EQ(controller.active_circuits().size(), 1u);
  EXPECT_EQ(controller.active_circuits()[0].wavelengths, 40);
  EXPECT_EQ(controller.active_circuits()[0].fiber_pairs, 1);
  EXPECT_EQ(controller.allocated_fibers(duct_a), 1);
  EXPECT_EQ(controller.amplifiers_in_use(h1), 1);
  EXPECT_TRUE(controller.status().devices_consistent);
  // The restored circuit still carries traffic end to end.
  EXPECT_GT(controller.devices().oss(h1).connection_count(), 0);
}

/// Same failure under make-before-break: the new generation is tried first,
/// fails before any cross-connect, and the old generation -- bookkeeping
/// included -- must survive the thrown refusal (this used to leak the torn
/// circuits out of active_ while their connects stayed programmed).
TEST(Transactional, MakeBeforeBreakFailureKeepsOldCircuitsIntact) {
  fibermap::FiberMap map;
  const auto a = map.add_dc("a", {0, 0}, 4);
  const auto b = map.add_dc("b", {100, 0}, 4);
  const auto h1 = map.add_hut("h1", {50, 0});
  const auto duct_a = map.add_duct_with_length(a, h1, 55.0);
  map.add_duct_with_length(h1, b, 55.0);
  const auto net = core::provision(map, toy_params());
  auto plan = core::place_amplifiers_and_cutthroughs(map, net);
  plan.amps_at_node[h1] = 1;
  ControllerRig rig(map, net, plan);
  IrisController& controller = rig.controller;

  TrafficMatrix tm;
  tm[DcPair(a, b)] = 40;
  controller.apply_traffic_matrix(tm);
  const int connects_before =
      controller.devices().oss(h1).connection_count() +
      controller.devices().oss(a).connection_count() +
      controller.devices().oss(b).connection_count();

  tm[DcPair(a, b)] = 80;  // needs 2 amp units; fails before any connect
  EXPECT_THROW(
      controller.apply_traffic_matrix(tm, ReconfigStrategy::kMakeBeforeBreak),
      std::runtime_error);
  ASSERT_EQ(controller.active_circuits().size(), 1u);
  EXPECT_EQ(controller.active_circuits()[0].wavelengths, 40);
  EXPECT_EQ(controller.allocated_fibers(duct_a), 1);
  EXPECT_EQ(controller.amplifiers_in_use(h1), 1);
  EXPECT_EQ(controller.devices().oss(h1).connection_count() +
                controller.devices().oss(a).connection_count() +
                controller.devices().oss(b).connection_count(),
            connects_before);
  EXPECT_TRUE(controller.status().devices_consistent);
  // The old circuit's allocation is still live: tearing it down must return
  // every resource.
  controller.apply_traffic_matrix({});
  EXPECT_EQ(controller.allocated_fibers(duct_a), 0);
  EXPECT_EQ(controller.amplifiers_in_use(h1), 0);
  EXPECT_TRUE(controller.status().devices_consistent);
}

class FaultyToyController : public ::testing::Test {
 protected:
  explicit FaultyToyController()
      : map_(fibermap::toy_example_fig10()),
        ids_(fibermap::toy_example_ids()),
        net_(core::provision(map_, toy_params())),
        plan_(core::place_amplifiers_and_cutthroughs(map_, net_)) {}

  /// A controller over fresh devices injecting `cfg`'s faults; the fixture
  /// keeps both alive for the test.
  IrisController* make_controller(const FaultConfig& cfg) {
    rigs_.push_back(std::make_unique<ControllerRig>(map_, net_, plan_, cfg));
    return &rigs_.back()->controller;
  }

  TrafficMatrix demand(long long w12, long long w13) const {
    TrafficMatrix tm;
    if (w12 > 0) tm[DcPair(ids_.dc1, ids_.dc2)] = w12;
    if (w13 > 0) tm[DcPair(ids_.dc1, ids_.dc3)] = w13;
    return tm;
  }

  fibermap::FiberMap map_;
  fibermap::ToyExampleIds ids_;
  core::ProvisionedNetwork net_;
  core::AmpCutPlan plan_;
  std::vector<std::unique_ptr<ControllerRig>> rigs_;
};

TEST_F(FaultyToyController, TransientFaultsAreHealedByRetries) {
  FaultConfig cfg;
  cfg.rates.oss_connect_fail = 0.2;
  cfg.rates.tx_tune_fail = 0.1;
  cfg.rates.timeout_fraction = 0.3;
  cfg.seed = 2020;
  auto controller = make_controller(cfg);

  const auto report = controller->apply_traffic_matrix(demand(100, 60));
  // Independent per-attempt rolls: bounded retry absorbs a 20% transient
  // rate, so the apply lands (possibly after quarantining an unlucky
  // resource and retrying the circuit on a fresh one).
  EXPECT_TRUE(report.target_reached());
  EXPECT_GT(report.command_retries, 0);
  EXPECT_GT(report.fault_delay_ms, 0.0);
  EXPECT_GE(report.total_ms, report.fault_delay_ms);
  EXPECT_TRUE(report.verified);
  EXPECT_TRUE(controller->status().devices_consistent);
  EXPECT_EQ(controller->active_circuits().size(), 2u);
}

TEST_F(FaultyToyController, AllPortsStuckIsACleanRefusal) {
  FaultConfig cfg;
  cfg.rates.oss_port_stuck = 1.0;  // every cross-connect jams its mirror
  cfg.seed = 9;
  auto controller = make_controller(cfg);

  // No device ever changes state, so the transactional contract allows (and
  // the legacy API expects) a thrown refusal -- with the blamed resources
  // quarantined for the attempts that were made.
  EXPECT_THROW(controller->apply_traffic_matrix(demand(40, 0)),
               std::runtime_error);
  EXPECT_TRUE(controller->active_circuits().empty());
  const auto s = controller->status();
  EXPECT_GT(s.quarantined_total(), 0);
  EXPECT_TRUE(s.devices_consistent);
  EXPECT_GT(controller->devices().fault_injector().stuck_port_count(), 0);
}

TEST_F(FaultyToyController, DeadTransceiversDegradeTheApply) {
  FaultConfig cfg;
  cfg.rates.tx_dead = 1.0;  // every laser dies on first tune
  cfg.seed = 3;
  auto controller = make_controller(cfg);

  ReconfigReport report;
  ASSERT_NO_THROW(report = controller->apply_traffic_matrix(demand(100, 60)));
  // The circuit set is exactly as requested -- only the DC-local wavelength
  // activation failed -- so the apply commits in a degraded state.
  EXPECT_EQ(report.outcome, ApplyOutcome::kDegraded);
  EXPECT_TRUE(report.target_reached());
  // Both ends of both circuits: (100 + 60) wavelengths x 2 ends.
  EXPECT_EQ(report.wavelengths_untuned, 2 * (100 + 60));
  EXPECT_EQ(report.transceivers_retuned, 0);
  EXPECT_GT(controller->status().quarantined_transceivers, 0);
  EXPECT_TRUE(controller->status().devices_consistent);

  // The hose admission now sees zero usable transceivers at the DCs touched.
  EXPECT_THROW(controller->apply_traffic_matrix(demand(40, 0)),
               std::runtime_error);
}

TEST_F(FaultyToyController, StuckDisconnectLeavesAuditedZombies) {
  FaultConfig cfg;
  cfg.rates.oss_disconnect_fail = 1.0;  // teardown commands always fail
  cfg.seed = 11;
  auto controller = make_controller(cfg);

  controller->apply_traffic_matrix(demand(40, 0));
  ASSERT_EQ(controller->active_circuits().size(), 1u);

  // Tear the circuit down: every disconnect fails after retries, leaving the
  // cross-connects programmed as zombies and their resources quarantined.
  ReconfigReport report;
  ASSERT_NO_THROW(report = controller->apply_traffic_matrix({}));
  EXPECT_EQ(report.outcome, ApplyOutcome::kCommitted);
  EXPECT_TRUE(controller->active_circuits().empty());
  const auto s = controller->status();
  EXPECT_EQ(s.zombie_connects, 6);  // 2 terminals x 2 + 2 hub pass-throughs
  EXPECT_GT(s.quarantined_fibers, 0);
  EXPECT_GT(s.quarantined_add_drops, 0);
  EXPECT_TRUE(s.devices_consistent);

  // Quarantine keeps the pinned resources out of circulation: a fresh
  // circuit picks different fibers and still establishes.
  ASSERT_NO_THROW(controller->apply_traffic_matrix(demand(40, 0)));
  EXPECT_TRUE(controller->status().devices_consistent);
}

TEST_F(FaultyToyController, SameSeedSameOutcomeAndTrace) {
  FaultConfig cfg;
  cfg.rates.oss_connect_fail = 0.15;
  cfg.rates.oss_disconnect_fail = 0.1;
  cfg.rates.tx_tune_fail = 0.05;
  cfg.rates.oss_port_stuck = 0.02;
  cfg.rates.timeout_fraction = 0.25;
  cfg.seed = 777;

  const auto run = [&](IrisController& c) {
    std::vector<std::string> log;
    const auto record = [&](const ReconfigReport& r) {
      log.push_back(std::to_string(static_cast<int>(r.outcome)) + "/" +
                    std::to_string(r.command_retries) + "/" +
                    std::to_string(r.commands_timed_out) + "/" +
                    std::to_string(r.circuit_retries) + "/" +
                    std::to_string(r.resources_quarantined) + "/" +
                    std::to_string(r.oss_operations) + "/" +
                    std::to_string(r.wavelengths_untuned));
      for (const auto& cmd : c.last_command_trace()) {
        log.push_back(to_string(cmd));
      }
    };
    try {
      record(c.apply_traffic_matrix(demand(100, 60)));
      record(c.apply_traffic_matrix(demand(40, 120),
                                    ReconfigStrategy::kMakeBeforeBreak));
      record(c.apply_traffic_matrix(demand(0, 40)));
      record(c.apply_traffic_matrix({}));
    } catch (const std::runtime_error& e) {
      log.push_back(std::string("refused: ") + e.what());
    }
    return log;
  };

  auto c1 = make_controller(cfg);
  auto c2 = make_controller(cfg);
  const auto log1 = run(*c1);
  const auto log2 = run(*c2);
  EXPECT_EQ(log1, log2);
  EXPECT_EQ(c1->devices().fault_injector().faults_injected(),
            c2->devices().fault_injector().faults_injected());
  EXPECT_TRUE(c1->status().devices_consistent);
  EXPECT_TRUE(c2->status().devices_consistent);
}

TEST(Maintenance, FallsBackToBreakBeforeMakeUnderFiberPressure) {
  // Two routes a->b share the trunk h1-b; the alternate detours via h2. The
  // shared trunk cannot hold both circuit generations at once, so a
  // make-before-break drain must fall back to break-before-make -- and still
  // complete the maintenance.
  fibermap::FiberMap map;
  const auto a = map.add_dc("a", {0, 0}, 4);
  const auto b = map.add_dc("b", {30, 0}, 4);
  const auto h1 = map.add_hut("h1", {15, 0});
  const auto h2 = map.add_hut("h2", {8, 8});
  const auto victim = map.add_duct_with_length(a, h1, 15.0);
  map.add_duct_with_length(h1, b, 15.0);
  map.add_duct_with_length(a, h2, 11.0);
  map.add_duct_with_length(h2, h1, 10.0);
  const auto net = core::provision(map, toy_params(1));
  const auto plan = core::place_amplifiers_and_cutthroughs(map, net);
  ControllerRig rig(map, net, plan);
  IrisController& controller = rig.controller;

  TrafficMatrix tm;
  tm[DcPair(a, b)] = 160;  // 4 fibers: the DC's full hose capacity
  controller.apply_traffic_matrix(tm);
  ASSERT_TRUE(controller.active_circuits()[0].route.uses_edge(victim));

  const auto report = controller.drain_duct_for_maintenance(victim);
  EXPECT_TRUE(report.target_reached());
  EXPECT_FALSE(report.hitless);  // spares could not hold both generations
  EXPECT_GT(report.capacity_gap_ms(), 0.0);
  EXPECT_EQ(controller.allocated_fibers(victim), 0);
  EXPECT_FALSE(controller.active_circuits()[0].route.uses_edge(victim));
  EXPECT_EQ(controller.active_circuits()[0].wavelengths, 160);
  EXPECT_TRUE(controller.status().devices_consistent);
}

TEST(Policy, DeferRetrySilencesProposalsForTheBackoffWindow) {
  PolicyParams pp;
  pp.ewma_alpha = 1.0;
  pp.hysteresis_s = 1.0;
  pp.retry_backoff_s = 5.0;
  ReconfigPolicy policy(pp);

  TrafficMatrix tm;
  tm[DcPair(0, 1)] = 100;
  policy.observe(tm, 0.0);
  policy.observe(tm, 1.0);
  ASSERT_TRUE(policy.propose(1.0).has_value());

  policy.defer_retry(1.0);  // apply failed at t=1
  EXPECT_FALSE(policy.propose(2.0).has_value());
  EXPECT_FALSE(policy.propose(5.9).has_value());
  EXPECT_TRUE(policy.propose(6.0).has_value());

  // Zero backoff (the default) never defers.
  pp.retry_backoff_s = 0.0;
  ReconfigPolicy eager(pp);
  eager.observe(tm, 0.0);
  eager.observe(tm, 1.0);
  eager.defer_retry(1.0);
  EXPECT_TRUE(eager.propose(1.0).has_value());

  pp.retry_backoff_s = -1.0;
  EXPECT_THROW(ReconfigPolicy{pp}, std::invalid_argument);
}

class DemandSweep : public ::testing::TestWithParam<long long> {};

TEST_P(DemandSweep, FiberRoundingIsCeilOfLambda) {
  const long long waves = GetParam();
  const auto map = fibermap::toy_example_fig10();
  const auto ids = fibermap::toy_example_ids();
  const auto net = core::provision(map, toy_params());
  const auto plan = core::place_amplifiers_and_cutthroughs(map, net);
  ControllerRig rig(map, net, plan);
  IrisController& controller = rig.controller;

  TrafficMatrix tm;
  tm[DcPair(ids.dc1, ids.dc2)] = waves;
  controller.apply_traffic_matrix(tm);
  EXPECT_EQ(controller.allocated_fibers(ids.l1), (waves + 39) / 40);
}

INSTANTIATE_TEST_SUITE_P(Demands, DemandSweep,
                         ::testing::Values(1, 39, 40, 41, 80, 100, 399, 400));

}  // namespace
}  // namespace iris::control
