// The resource ledger: pool operations, the two partition rules checked
// directly on hand-built tallies, and the controller paths that report a
// broken partition (the device audit's pool kinds and recovery's corrupt
// journaled allocation).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "control/controller.hpp"
#include "control/journal.hpp"
#include "control/ledger.hpp"

namespace iris::control {
namespace {

constexpr PoolId kDuct{ResKind::kFiber, 0};

/// One duct of four fibers: free {3, 1}, quarantined {2}; index 0 is for
/// each case to place. DCs 0 and 1 have no add/drop pairs.
Ledger one_duct() {
  Ledger ledger;
  Pool& p = ledger[kDuct];
  p.total = 4;
  p.free = {3, 1};
  p.quarantined = {2};
  ledger[{ResKind::kAddDrop, 0}] = Pool{};
  ledger[{ResKind::kAddDrop, 1}] = Pool{};
  return ledger;
}

/// A circuit from DC 0 to DC 1 over duct 0; holding() gives it fibers only.
Circuit duct_circuit(int fiber_pairs) {
  Circuit c;
  c.pair = core::DcPair(0, 1);
  c.route.nodes = {0, 1};
  c.route.edges = {0};
  c.fiber_pairs = fiber_pairs;
  return c;
}

AllocationRecord holding(std::vector<int> fibers) {
  AllocationRecord a;
  a.fibers_per_hop = {std::move(fibers)};
  return a;
}

/// The first fault of `rule` in `census`, or "" when the rule holds.
std::string fault(const Census& census, PartitionRule rule) {
  const auto faults = census.faults(rule);
  return faults.empty() ? "" : faults.front().second;
}

TEST(Ledger, TakeAndReleaseKeepTheFreeListCanonical) {
  Pool p = Pool::all_free(6);
  EXPECT_EQ(p.free, (std::vector<int>{5, 4, 3, 2, 1, 0}));
  EXPECT_EQ(p.take(2, "duct fiber"), (std::vector<int>{0, 1}));
  EXPECT_EQ(p.take(1, "duct fiber"), std::vector<int>{2});
  EXPECT_EQ(p.in_use(), 3);
  p.release({1, 0});
  EXPECT_EQ(p.free, (std::vector<int>{5, 4, 3, 1, 0}));
  EXPECT_THROW((void)p.take(6, "duct fiber"), std::runtime_error);
}

TEST(Ledger, ReleaseQuarantinesCulpritsOnceAndNeverFreesQuarantined) {
  Pool p = Pool::all_free(4);
  const auto held = p.take(3, "add/drop");  // {0, 1, 2}
  ASSERT_TRUE(p.quarantine_if_free(3));
  EXPECT_FALSE(p.quarantine_if_free(3));  // already quarantined
  EXPECT_FALSE(p.quarantine_if_free(0));  // held
  p.quarantined.push_back(1);  // failed while held
  const auto pulled = p.release(held, {1, 2});
  EXPECT_EQ(pulled, std::vector<int>{2});
  EXPECT_EQ(p.quarantined, (std::vector<int>{3, 1, 2}));
  EXPECT_EQ(p.free, std::vector<int>{0});
}

TEST(Ledger, CleanPartitionKeepsBothRules) {
  Census census(one_duct());
  ASSERT_TRUE(census.hold(duct_circuit(1), holding({0})));
  EXPECT_EQ(fault(census, PartitionRule::kAtRest), "");
  EXPECT_EQ(fault(census, PartitionRule::kMidTransaction), "");
}

TEST(Ledger, OutOfRangeBreaksBothRules) {
  Census census(one_duct());
  census.hold(duct_circuit(2), holding({0, 4}));
  EXPECT_EQ(fault(census, PartitionRule::kAtRest),
            "out-of-range fiber index 4");
  EXPECT_EQ(fault(census, PartitionRule::kMidTransaction),
            "out-of-range fiber index 4");
}

TEST(Ledger, DuplicateHoldBreaksBothRules) {
  Census census(one_duct());
  census.hold(duct_circuit(1), holding({0}));
  census.hold(duct_circuit(1), holding({0}));
  EXPECT_EQ(fault(census, PartitionRule::kAtRest), "duplicate fiber index 0");
  EXPECT_EQ(fault(census, PartitionRule::kMidTransaction),
            "duplicate fiber index 0");
}

TEST(Ledger, FreeAndHeldBreaksBothRules) {
  Census census(one_duct());
  census.hold(duct_circuit(2), holding({0, 1}));
  EXPECT_EQ(fault(census, PartitionRule::kAtRest), "duplicate fiber index 1");
  EXPECT_EQ(fault(census, PartitionRule::kMidTransaction),
            "duplicate fiber index 1");
}

TEST(Ledger, FreeAndQuarantinedBreaksBothRules) {
  Ledger ledger = one_duct();
  ledger[kDuct].quarantined.push_back(3);
  Census census(ledger);
  census.hold(duct_circuit(1), holding({0}));
  EXPECT_EQ(fault(census, PartitionRule::kAtRest), "duplicate fiber index 3");
  EXPECT_EQ(fault(census, PartitionRule::kMidTransaction),
            "duplicate fiber index 3");
}

TEST(Ledger, HeldAndQuarantinedIsLegalOnlyMidTransaction) {
  Census census(one_duct());
  census.hold(duct_circuit(2), holding({0, 2}));
  EXPECT_EQ(fault(census, PartitionRule::kAtRest), "duplicate fiber index 2");
  EXPECT_EQ(fault(census, PartitionRule::kMidTransaction), "");
  EXPECT_TRUE(census.unused(kDuct).empty());
}

TEST(Ledger, UncoveredIndexIsLegalOnlyMidTransaction) {
  Census census(one_duct());  // index 0 is in no state
  EXPECT_EQ(fault(census, PartitionRule::kAtRest), "unaccounted fiber index 0");
  EXPECT_EQ(fault(census, PartitionRule::kMidTransaction), "");
  EXPECT_EQ(census.unused(kDuct), std::vector<int>{0});
}

TEST(Ledger, HoldRejectsMisshapenAllocationsAndUnknownPools) {
  Census census(one_duct());
  EXPECT_FALSE(census.hold(duct_circuit(1), AllocationRecord{}));  // 0 hops
  Circuit elsewhere = duct_circuit(1);
  elsewhere.route.edges = {7};  // no such duct in the inventory
  EXPECT_FALSE(census.hold(elsewhere, holding({0})));
}

TEST(Ledger, CensusWithoutInventoryGrowsAndRejectsOnlyNegatives) {
  Census census;
  census.count(kDuct, Census::Use::kFree, {9, 5});
  census.hold(duct_circuit(1), holding({7}));
  EXPECT_EQ(fault(census, PartitionRule::kMidTransaction), "");
  census.count({ResKind::kAmp, 3}, Census::Use::kQuarantined, {-1});
  EXPECT_EQ(fault(census, PartitionRule::kMidTransaction),
            "out-of-range amplifier index -1");
}

// ---- through the controller -------------------------------------------------

/// Two DCs 110 km apart through one hut: every circuit loops through an
/// amplifier there, so an apply draws from all three pool kinds.
struct Fixture {
  fibermap::FiberMap map;
  core::ProvisionedNetwork net;
  core::AmpCutPlan plan;
  TrafficMatrix demand;
};

const Fixture& fixture() {
  static const Fixture f = [] {
    fibermap::FiberMap map;
    const auto a = map.add_dc("a", {0, 0}, 4);
    const auto b = map.add_dc("b", {100, 0}, 4);
    const auto hut = map.add_hut("h", {50, 0});
    map.add_duct_with_length(a, hut, 55.0);
    map.add_duct_with_length(hut, b, 55.0);
    core::PlannerParams params;
    params.channels.wavelengths_per_fiber = 40;
    auto net = core::provision(map, params);
    auto plan = core::place_amplifiers_and_cutthroughs(map, net);
    TrafficMatrix demand{{core::DcPair(a, b), 80}};  // 2 fibers
    return Fixture{std::move(map), std::move(net), std::move(plan),
                   std::move(demand)};
  }();
  return f;
}

// A checkpoint may hold a quarantined index in a booked circuit (the
// mid-transaction rule accepts it), but at rest that is a broken partition:
// the recovered controller's audit names each pool kind.
TEST(Ledger, AuditReportsEveryPoolKindBrokenAtRest) {
  const Fixture& f = fixture();
  DeviceLayer devices(f.map, f.net, f.plan);
  ControllerCheckpoint cp;
  {
    IrisController controller(f.map, f.net, f.plan, devices);
    controller.apply_traffic_matrix(f.demand);
    cp = controller.snapshot();
  }
  ASSERT_EQ(cp.active.size(), 1u);
  const Circuit& c = cp.active[0];
  const AllocationRecord& a = cp.allocations[0];
  ASSERT_TRUE(a.amp_site.has_value());
  cp.quarantined_fibers[c.route.edges[0]].push_back(a.fibers_per_hop[0][0]);
  cp.quarantined_amps[*a.amp_site].push_back(a.amp_units[0]);
  cp.quarantined_add_drop[c.pair.a].push_back(a.add_drop_a[0]);
  IntentJournal journal;
  journal.append(CheckpointRecord{cp});

  IrisController successor(f.map, f.net, f.plan, devices);
  const RecoveryReport rr = successor.recover(journal);
  ASSERT_FALSE(rr.audit.clean());
  EXPECT_EQ(rr.audit.first->kind, AuditReport::Kind::kFiberPool);
  EXPECT_EQ(rr.audit.fiber_pool_mismatches, 1);
  EXPECT_EQ(rr.audit.amp_pool_mismatches, 1);
  EXPECT_EQ(rr.audit.add_drop_pool_mismatches, 1);
  EXPECT_NE(rr.audit.summary().find("duplicate fiber index"),
            std::string::npos)
      << rr.audit.summary();
}

// Pool sizes are not journaled, so a quarantine record past the inventory
// passes checkpoint validation and is caught when recovery derives the
// free pools.
TEST(Ledger, RecoveryRejectsAQuarantinedIndexPastTheInventory) {
  const Fixture& f = fixture();
  DeviceLayer devices(f.map, f.net, f.plan);
  IntentJournal journal;
  {
    IrisController controller(f.map, f.net, f.plan, devices);
    controller.attach_journal(&journal);
    controller.apply_traffic_matrix(f.demand);
  }
  journal.append(QuarantineRecord{0, 0, 999});
  IrisController successor(f.map, f.net, f.plan, devices);
  try {
    (void)successor.recover(journal);
    FAIL() << "recovered from a corrupt quarantine record";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "corrupt journaled allocation: out-of-range fiber index 999"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace iris::control
