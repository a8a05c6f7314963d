#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "control/closed_loop.hpp"
#include "control/controller.hpp"
#include "controller_rig.hpp"
#include "fibermap/generator.hpp"
#include "te/cluster.hpp"
#include "te/engine.hpp"
#include "te/robust.hpp"
#include "te/tm_store.hpp"

namespace iris::te {
namespace {

using control::TrafficMatrix;
using core::DcPair;

core::PlannerParams toy_params(int tolerance = 0) {
  core::PlannerParams params;
  params.failure_tolerance = tolerance;
  params.channels.wavelengths_per_fiber = 40;
  return params;
}

// ---------------------------------------------------------------- TmStore

TEST(TmStore, RejectsBadParameters) {
  EXPECT_THROW(TmStore(TmStoreParams{1, 0.0}), std::invalid_argument);
  EXPECT_THROW(TmStore(TmStoreParams{7, 0.0}), std::invalid_argument);  // odd
  EXPECT_THROW(TmStore(TmStoreParams{8, -1.0}), std::invalid_argument);
}

TEST(TmStore, StaysBoundedAndConservesWeight) {
  TmStore store(TmStoreParams{8, 0.0});
  const DcPair pair(0, 1);
  for (int i = 0; i < 100; ++i) {
    TrafficMatrix tm;
    tm[pair] = 10 + i;
    store.record(tm, static_cast<double>(i));
    ASSERT_LE(store.history().size(), 8u);
  }
  EXPECT_EQ(store.samples_recorded(), 100);
  // Compaction merges, never drops: every raw sample still has its weight
  // represented somewhere in the history.
  EXPECT_DOUBLE_EQ(store.total_weight(), 100.0);
  // The past is coarser than the present.
  EXPECT_GT(store.history().front().weight, store.history().back().weight);
  for (std::size_t i = 1; i < store.history().size(); ++i) {
    EXPECT_LT(store.history()[i - 1].at_s, store.history()[i].at_s);
  }
}

TEST(TmStore, MinSpacingBucketsStayAnchored) {
  // Regression: the fold target is the bucket's FIRST sample time. If the
  // anchor advanced with every fold, 1 Hz samples under a 2 s min_spacing
  // would collapse the entire history into one running average.
  TmStore store(TmStoreParams{128, 2.0});
  const DcPair pair(0, 1);
  for (int i = 0; i < 20; ++i) {
    TrafficMatrix tm;
    tm[pair] = 100;
    store.record(tm, static_cast<double>(i));
  }
  // 20 samples at 1 Hz with 2 s buckets: 10 buckets of weight 2, anchored
  // at t = 0, 2, 4, ...
  ASSERT_EQ(store.history().size(), 10u);
  for (std::size_t i = 0; i < store.history().size(); ++i) {
    EXPECT_DOUBLE_EQ(store.history()[i].at_s, 2.0 * static_cast<double>(i));
    EXPECT_DOUBLE_EQ(store.history()[i].weight, 2.0);
    EXPECT_DOUBLE_EQ(store.history()[i].demand.at(pair), 100.0);
  }
}

TEST(TmStore, PairUniverseIsSortedUnionOfHistory) {
  TmStore store(TmStoreParams{8, 0.0});
  TrafficMatrix first;
  first[DcPair(2, 3)] = 5;
  store.record(first, 0.0);
  TrafficMatrix second;
  second[DcPair(0, 1)] = 7;
  second[DcPair(2, 3)] = 9;
  store.record(second, 1.0);
  const auto universe = store.pair_universe();
  ASSERT_EQ(universe.size(), 2u);
  EXPECT_EQ(universe[0], DcPair(0, 1));
  EXPECT_EQ(universe[1], DcPair(2, 3));
}

// ---------------------------------------------------------------- Cluster

/// Two alternating regimes: even samples put the load on (0,1), odd samples
/// on (2,3).
TmStore alternating_history(int samples) {
  TmStore store(TmStoreParams{128, 0.0});
  for (int i = 0; i < samples; ++i) {
    TrafficMatrix tm;
    if (i % 2 == 0) {
      tm[DcPair(0, 1)] = 100;
      tm[DcPair(2, 3)] = 10;
    } else {
      tm[DcPair(0, 1)] = 10;
      tm[DcPair(2, 3)] = 100;
    }
    store.record(tm, static_cast<double>(i));
  }
  return store;
}

TEST(Cluster, RejectsBadParametersAndHandlesEmptyHistory) {
  TmStore empty(TmStoreParams{8, 0.0});
  EXPECT_TRUE(cluster_history(empty, ClusterParams{}).empty());
  ClusterParams bad;
  bad.k = 0;
  EXPECT_THROW(cluster_history(alternating_history(4), bad),
               std::invalid_argument);
}

TEST(Cluster, RecoversSeparatedRegimes) {
  const auto store = alternating_history(40);
  ClusterParams params;
  params.k = 2;
  const auto reps = cluster_history(store, params);
  ASSERT_EQ(reps.size(), 2u);
  // Each representative is one regime: its centroid and peak sit on the
  // regime's hot pair, not on a blend of both.
  int hot01 = 0, hot23 = 0;
  double total_weight = 0.0;
  for (const auto& rep : reps) {
    EXPECT_EQ(rep.members, 20);
    total_weight += rep.weight;
    const double d01 = rep.demand.at(DcPair(0, 1));
    const double d23 = rep.demand.at(DcPair(2, 3));
    if (d01 > d23) {
      ++hot01;
      EXPECT_NEAR(d01, 100.0, 1e-9);
      EXPECT_NEAR(rep.peak.at(DcPair(0, 1)), 100.0, 1e-9);
    } else {
      ++hot23;
      EXPECT_NEAR(d23, 100.0, 1e-9);
      EXPECT_NEAR(rep.peak.at(DcPair(2, 3)), 100.0, 1e-9);
    }
  }
  EXPECT_EQ(hot01, 1);
  EXPECT_EQ(hot23, 1);
  EXPECT_DOUBLE_EQ(total_weight, 40.0);
}

TEST(Cluster, PeakDominatesCentroid) {
  TmStore store(TmStoreParams{128, 0.0});
  for (int i = 0; i < 16; ++i) {
    TrafficMatrix tm;
    tm[DcPair(0, 1)] = 10 + 5 * (i % 4);  // 10..25, mean 17.5
    store.record(tm, static_cast<double>(i));
  }
  ClusterParams params;
  params.k = 1;
  const auto reps = cluster_history(store, params);
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_NEAR(reps[0].demand.at(DcPair(0, 1)), 17.5, 1e-9);
  EXPECT_NEAR(reps[0].peak.at(DcPair(0, 1)), 25.0, 1e-9);
  EXPECT_GE(reps[0].peak.at(DcPair(0, 1)), reps[0].demand.at(DcPair(0, 1)));
}

TEST(Cluster, KIsCappedByHistorySize) {
  const auto store = alternating_history(3);
  ClusterParams params;
  params.k = 8;
  const auto reps = cluster_history(store, params);
  EXPECT_LE(reps.size(), 3u);
  EXPECT_FALSE(reps.empty());
}

TEST(Cluster, DeterministicForFixedSeedAcrossThreads) {
  const auto store = alternating_history(50);
  ClusterParams params;
  params.k = 3;
  params.seed = 99;
  const auto baseline = cluster_history(store, params);
  // Same history + seed => bit-identical representatives, run after run and
  // regardless of which thread executes the clustering.
  std::vector<Representative> from_thread;
  std::thread worker(
      [&] { from_thread = cluster_history(store, params); });
  worker.join();
  const auto again = cluster_history(store, params);
  ASSERT_EQ(baseline.size(), again.size());
  ASSERT_EQ(baseline.size(), from_thread.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(baseline[i].demand, again[i].demand);
    EXPECT_EQ(baseline[i].peak, again[i].peak);
    EXPECT_EQ(baseline[i].demand, from_thread[i].demand);
    EXPECT_EQ(baseline[i].peak, from_thread[i].peak);
    EXPECT_DOUBLE_EQ(baseline[i].weight, from_thread[i].weight);
    EXPECT_EQ(baseline[i].members, from_thread[i].members);
  }
  // A different seed is allowed to (and here does) pick different centers.
  ClusterParams other = params;
  other.seed = 100;
  (void)cluster_history(store, other);  // must not throw
}

// ----------------------------------------------------------------- Robust

/// Hand-built limits: DCs 0, 1, 2; pair (0,1) rides edge 0, pair (0,2)
/// rides edge 1.
NetworkLimits tiny_limits(long long dc_cap_waves, int duct_fibers) {
  NetworkLimits limits;
  for (graph::NodeId dc : {0, 1, 2}) {
    limits.dc_capacity_wavelengths[dc] = dc_cap_waves;
  }
  limits.duct_fiber_limit = {duct_fibers, duct_fibers};
  graph::Path p01;
  p01.nodes = {0, 1};
  p01.edges = {0};
  graph::Path p02;
  p02.nodes = {0, 2};
  p02.edges = {1};
  limits.routes[DcPair(0, 1)] = p01;
  limits.routes[DcPair(0, 2)] = p02;
  return limits;
}

Representative rep_of(std::map<DcPair, double> demand) {
  Representative rep;
  rep.peak = demand;
  rep.demand = std::move(demand);
  rep.weight = 1.0;
  rep.members = 1;
  return rep;
}

TEST(Robust, CoversEveryRepresentativeWhenFeasible) {
  const auto limits = tiny_limits(1000, 10);
  const std::vector<Representative> reps = {
      rep_of({{DcPair(0, 1), 100.0}, {DcPair(0, 2), 20.0}}),
      rep_of({{DcPair(0, 1), 30.0}, {DcPair(0, 2), 90.0}}),
  };
  RobustParams params;
  params.headroom = 1.1;
  const auto plan = solve_robust_allocation(reps, limits, {}, params);
  // Union envelope: headroom x the elementwise max across representatives.
  EXPECT_EQ(plan.wavelengths.at(DcPair(0, 1)),
            static_cast<long long>(std::ceil(1.1 * 100.0)));
  EXPECT_EQ(plan.wavelengths.at(DcPair(0, 2)),
            static_cast<long long>(std::ceil(1.1 * 90.0)));
  EXPECT_EQ(plan.fibers.at(DcPair(0, 1)), 3);  // ceil(110 / 40)
  EXPECT_EQ(plan.fibers.at(DcPair(0, 2)), 3);  // ceil(99 / 40)
  EXPECT_DOUBLE_EQ(plan.worst_case_admitted, 1.0);
  // Everything is new: churn is the full new circuit set.
  EXPECT_EQ(plan.churn_pairs, 2);
  EXPECT_EQ(plan.moved_fibers, 6);
}

TEST(Robust, ScalesDownUniformlyWhenInfeasible) {
  // DC 0 terminates both pairs: 110 + 99 wavelengths > 150 available.
  const auto limits = tiny_limits(150, 10);
  const std::vector<Representative> reps = {
      rep_of({{DcPair(0, 1), 100.0}, {DcPair(0, 2), 90.0}}),
  };
  RobustParams params;
  params.headroom = 1.1;
  const auto plan = solve_robust_allocation(reps, limits, {}, params);
  EXPECT_LT(plan.worst_case_admitted, 1.0);
  EXPECT_GT(plan.worst_case_admitted, 0.0);
  long long at_dc0 = 0;
  for (const auto& [pair, waves] : plan.wavelengths) at_dc0 += waves;
  EXPECT_LE(at_dc0, 150);
  // The scaled plan keeps both pairs alive rather than starving one.
  EXPECT_GT(plan.wavelengths.at(DcPair(0, 1)), 0);
  EXPECT_GT(plan.wavelengths.at(DcPair(0, 2)), 0);
}

TEST(Robust, RespectsDuctFiberLeases) {
  // Plenty of hose, but each duct leases only 1 fiber pair: the plan cannot
  // exceed one fiber (40 wavelengths) per pair.
  const auto limits = tiny_limits(1000, 1);
  const std::vector<Representative> reps = {
      rep_of({{DcPair(0, 1), 100.0}, {DcPair(0, 2), 100.0}}),
  };
  const auto plan = solve_robust_allocation(reps, limits, {}, RobustParams{});
  EXPECT_EQ(plan.fibers.at(DcPair(0, 1)), 1);
  EXPECT_EQ(plan.fibers.at(DcPair(0, 2)), 1);
  EXPECT_LT(plan.worst_case_admitted, 1.0);
}

TEST(Robust, SurplusRetentionEliminatesChurn) {
  const auto limits = tiny_limits(1000, 10);
  // Demand collapsed from ~3 fibers to ~1; the applied plan still has 3.
  const std::vector<Representative> reps = {
      rep_of({{DcPair(0, 1), 30.0}}),
  };
  const std::map<DcPair, int> applied = {{DcPair(0, 1), 3}};

  RobustParams keep;
  keep.retain_surplus = true;
  const auto kept = solve_robust_allocation(reps, limits, applied, keep);
  // The surplus fibers stay switched: no circuit change, no churn.
  EXPECT_EQ(kept.fibers.at(DcPair(0, 1)), 3);
  EXPECT_EQ(kept.churn_pairs, 0);
  EXPECT_EQ(kept.moved_fibers, 0);
  // Retention proposes just enough wavelengths to hold the fiber count.
  EXPECT_EQ(kept.wavelengths.at(DcPair(0, 1)), 2 * 40 + 1);

  RobustParams shrink;
  shrink.retain_surplus = false;
  const auto shrunk = solve_robust_allocation(reps, limits, applied, shrink);
  EXPECT_EQ(shrunk.fibers.at(DcPair(0, 1)), 1);
  EXPECT_EQ(shrunk.churn_pairs, 1);
  // Churn counts both generations: 3 torn down + 1 re-established.
  EXPECT_EQ(shrunk.moved_fibers, 4);
}

TEST(Robust, RetentionNeverStealsFromRequiredAllocation) {
  // Duct 0 leases 3 fibers. The new plan needs 2 of them for (0,1); the
  // stale applied surplus of 3 would need 3. Retention must be denied
  // beyond what the lease can spare.
  auto limits = tiny_limits(1000, 3);
  limits.routes[DcPair(1, 2)] = limits.routes.at(DcPair(0, 1));  // share duct 0
  const std::vector<Representative> reps = {
      rep_of({{DcPair(0, 1), 50.0}, {DcPair(1, 2), 50.0}}),
  };
  RobustParams params;
  params.headroom = 1.0;
  const std::map<DcPair, int> applied = {{DcPair(0, 1), 3}};
  const auto plan = solve_robust_allocation(reps, limits, applied, params);
  // Required: 2 fibers each (50 waves). Duct 0 carries 4 > 3 already, so
  // the solver scales; whatever remains, retention cannot push duct 0 past
  // its 3-fiber lease.
  int duct0 = 0;
  for (const auto& [pair, fibers] : plan.fibers) {
    if (limits.routes.at(pair).edges[0] == 0) duct0 += fibers;
  }
  EXPECT_LE(duct0, 3);
}

TEST(Robust, RemovedPairChurnCountsTheTorndownFibers) {
  const auto limits = tiny_limits(1000, 10);
  const std::vector<Representative> reps = {
      rep_of({{DcPair(0, 1), 10.0}}),
  };
  // (0,2) vanishes entirely from the demand set.
  const std::map<DcPair, int> applied = {{DcPair(0, 1), 1},
                                         {DcPair(0, 2), 2}};
  RobustParams params;
  params.retain_surplus = false;
  const auto plan = solve_robust_allocation(reps, limits, applied, params);
  EXPECT_FALSE(plan.fibers.contains(DcPair(0, 2)));
  EXPECT_EQ(plan.churn_pairs, 1);
  EXPECT_EQ(plan.moved_fibers, 2);  // the torn-down circuit, nothing new
}

TEST(Robust, DeterministicBitForBit) {
  const auto limits = tiny_limits(300, 4);
  const std::vector<Representative> reps = {
      rep_of({{DcPair(0, 1), 120.0}, {DcPair(0, 2), 80.0}}),
      rep_of({{DcPair(0, 1), 40.0}, {DcPair(0, 2), 140.0}}),
  };
  const std::map<DcPair, int> applied = {{DcPair(0, 1), 2}};
  const auto a = solve_robust_allocation(reps, limits, applied, RobustParams{});
  const auto b = solve_robust_allocation(reps, limits, applied, RobustParams{});
  EXPECT_EQ(a.wavelengths, b.wavelengths);
  EXPECT_EQ(a.fibers, b.fibers);
  EXPECT_EQ(a.churn_pairs, b.churn_pairs);
  EXPECT_EQ(a.moved_fibers, b.moved_fibers);
  EXPECT_DOUBLE_EQ(a.worst_case_admitted, b.worst_case_admitted);
}

// ----------------------------------------------------------------- Engine

class ToyRegion : public ::testing::Test {
 protected:
  ToyRegion()
      : map_(fibermap::toy_example_fig10()),
        ids_(fibermap::toy_example_ids()),
        net_(core::provision(map_, toy_params())),
        plan_(core::place_amplifiers_and_cutthroughs(map_, net_)),
        limits_(make_network_limits(map_, net_, plan_)) {}

  DemandAwareParams engine_params() const {
    DemandAwareParams params;
    params.base.hysteresis_s = 3.0;
    params.base.headroom = 1.1;
    params.store.capacity = 32;
    params.cluster.k = 2;
    params.replan_interval_s = 5.0;
    return params;
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
  NetworkLimits limits_;
};

TEST_F(ToyRegion, NetworkLimitsMatchTheController) {
  // The solver's model of admission must agree with what the controller
  // enforces: every DC has hose capacity, every baseline pair a route, and
  // the duct vector spans the graph.
  EXPECT_EQ(limits_.dc_capacity_wavelengths.size(), map_.dcs().size());
  for (const auto& [dc, cap] : limits_.dc_capacity_wavelengths) {
    EXPECT_GT(cap, 0);
  }
  EXPECT_EQ(limits_.routes.size(), net_.baseline_paths.size());
  EXPECT_EQ(limits_.duct_fiber_limit.size(), map_.graph().edge_count());
}

TEST_F(ToyRegion, RejectsBadEngineParameters) {
  auto params = engine_params();
  params.replan_interval_s = 0.0;
  EXPECT_THROW(DemandAwarePolicy(limits_, params), std::invalid_argument);
  params = engine_params();
  params.base.headroom = 0.5;
  EXPECT_THROW(DemandAwarePolicy(limits_, params), std::invalid_argument);
}

TEST_F(ToyRegion, DemandAwareDrivesClosedLoopToConvergence) {
  control::ControllerRig rig(map_, net_, plan_);
  control::IrisController& controller = rig.controller;
  DemandAwarePolicy policy(limits_, engine_params());
  control::ClosedLoopParams lp;
  lp.duration_s = 40.0;
  const auto result = run_closed_loop(
      controller, policy,
      [&](double t) { return t < 20.0 ? demand(100, 20) : demand(20, 100); },
      lp);
  EXPECT_GE(result.reconfigurations, 1);
  EXPECT_EQ(result.rejected, 0);
  EXPECT_EQ(result.diverging_pairs_end, 0);  // converged on the swing
  EXPECT_FALSE(controller.active_circuits().empty());
  EXPECT_GE(policy.replans(), 2);
  // The live plan admits every representative in full on the toy region.
  EXPECT_DOUBLE_EQ(policy.current_plan().worst_case_admitted, 1.0);
}

TEST_F(ToyRegion, SurplusRetentionHoldsCircuitsThroughADemandSwing) {
  control::ControllerRig rig(map_, net_, plan_);
  control::IrisController& controller = rig.controller;
  DemandAwarePolicy policy(limits_, engine_params());
  control::ClosedLoopParams lp;
  lp.duration_s = 60.0;
  // Demand surges, collapses, surges again: the surplus fibers from the
  // first surge are retained, so the second surge needs no circuit moves.
  const auto result = run_closed_loop(
      controller, policy,
      [&](double t) {
        if (t < 20.0) return demand(120, 20);
        if (t < 40.0) return demand(10, 20);
        return demand(120, 20);
      },
      lp);
  EXPECT_EQ(result.rejected, 0);
  EXPECT_EQ(result.diverging_pairs_end, 0);
  // Bring-up plus at most the odd wavelength retune -- but after the
  // collapse, the return swing must not need a reconfiguration: the store's
  // history already covers it and the fibers never left.
  const auto circuits = controller.active_circuits();
  bool found = false;
  for (const auto& c : circuits) {
    if (c.pair == DcPair(ids_.dc1, ids_.dc2)) {
      found = true;
      EXPECT_EQ(c.fiber_pairs, 4);  // ceil(1.1 * 120 / 40): the surge size
    }
  }
  EXPECT_TRUE(found);
}

// ------------------------------------------------- Fault-injection contract

TEST_F(ToyRegion, TransientFaultsAreAbsorbedThroughDeferRetry) {
  control::FaultConfig cfg;
  cfg.rates.oss_connect_fail = 0.2;
  cfg.rates.tx_tune_fail = 0.1;
  cfg.rates.timeout_fraction = 0.3;
  cfg.seed = 2020;
  control::ControllerRig rig(map_, net_, plan_, cfg);
  control::IrisController& controller = rig.controller;
  auto params = engine_params();
  params.base.retry_backoff_s = 2.0;
  DemandAwarePolicy policy(limits_, params);
  control::ClosedLoopParams lp;
  lp.duration_s = 40.0;
  const auto result = run_closed_loop(
      controller, policy, [&](double) { return demand(100, 60); }, lp);
  // The retry layer heals the transients; the loop converges and the books
  // stay consistent.
  EXPECT_GE(result.reconfigurations, 1);
  EXPECT_GT(result.command_retries, 0);
  EXPECT_EQ(result.diverging_pairs_end, 0);
  EXPECT_TRUE(controller.status().devices_consistent);
  EXPECT_EQ(controller.active_circuits().size(), 2u);
}

TEST_F(ToyRegion, RolledBackAppliesAreRetriedAfterBackoff) {
  // Every cross-connect jams its mirror: applies roll back (or are refused)
  // forever. The policy must keep deferring and retrying without ever
  // converging -- and report the divergence at loop end.
  control::FaultConfig cfg;
  cfg.rates.oss_port_stuck = 1.0;
  cfg.seed = 9;
  control::ControllerRig rig(map_, net_, plan_, cfg);
  control::IrisController& controller = rig.controller;
  auto params = engine_params();
  params.base.retry_backoff_s = 3.0;
  DemandAwarePolicy policy(limits_, params);
  control::ClosedLoopParams lp;
  lp.duration_s = 30.0;
  const auto result = run_closed_loop(
      controller, policy, [&](double) { return demand(40, 0); }, lp);
  EXPECT_EQ(result.reconfigurations, 0);
  EXPECT_GT(result.rolled_back + result.rejected, 0);
  EXPECT_EQ(result.diverging_pairs_end, 1);
  EXPECT_GT(result.proposals_suppressed, 0);  // backoff windows counted
  EXPECT_TRUE(controller.active_circuits().empty());
  EXPECT_TRUE(controller.status().devices_consistent);
}

TEST_F(ToyRegion, SameSeedSameClosedLoopTraceUnderFaults) {
  control::FaultConfig cfg;
  cfg.rates.oss_connect_fail = 0.15;
  cfg.rates.oss_disconnect_fail = 0.1;
  cfg.rates.tx_tune_fail = 0.05;
  cfg.rates.oss_port_stuck = 0.02;
  cfg.rates.timeout_fraction = 0.25;
  cfg.seed = 777;

  const auto run = [&] {
    control::ControllerRig rig(map_, net_, plan_, cfg);
    control::IrisController& controller = rig.controller;
    auto params = engine_params();
    params.base.retry_backoff_s = 2.0;
    DemandAwarePolicy policy(limits_, params);
    control::ClosedLoopParams lp;
    lp.duration_s = 50.0;
    const auto result = run_closed_loop(
        controller, policy,
        [&](double t) { return t < 25.0 ? demand(100, 60) : demand(40, 120); },
        lp);
    std::string log = std::to_string(result.reconfigurations) + "/" +
                      std::to_string(result.rejected) + "/" +
                      std::to_string(result.rolled_back) + "/" +
                      std::to_string(result.command_retries) + "/" +
                      std::to_string(result.resources_quarantined) + "/" +
                      std::to_string(result.proposals_suppressed) + "/" +
                      std::to_string(policy.replans());
    for (const auto& c : controller.active_circuits()) {
      log += "|" + std::to_string(c.pair.a) + "-" + std::to_string(c.pair.b) +
             ":" + std::to_string(c.fiber_pairs) + ":" +
             std::to_string(c.wavelengths);
    }
    return log;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace iris::te
