// Shared-risk link groups: storage, serialization, geometric inference,
// SRLG-event enumeration, correlated availability, and SLO provisioning.
//
// The load-bearing properties are the degeneracies: a map with no SRLGs (or
// only singleton groups) must plan and simulate bit-for-bit like the
// pre-SRLG planner, and the same seed must give the same correlated
// timeline at every thread count.
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/provision.hpp"
#include "core/slo.hpp"
#include "fibermap/generator.hpp"
#include "fibermap/serialize.hpp"
#include "fibermap/srlg.hpp"
#include "graph/failures.hpp"
#include "graph/shortest_path.hpp"
#include "obs/metrics.hpp"
#include "reliability/events.hpp"

namespace iris {
namespace {

using fibermap::FiberMap;
using fibermap::Srlg;
using fibermap::SrlgKind;
using graph::EdgeId;
using graph::NodeId;

/// Two DCs joined by a northern two-duct corridor (parallel routes through
/// one trench) and an independent southern duct.
FiberMap corridor_map() {
  FiberMap map;
  const auto a = map.add_dc("a", {0.0, 0.0}, 8);
  const auto b = map.add_dc("b", {10.0, 0.0}, 8);
  map.add_duct(a, b,
               geo::Polyline({{0.0, 0.0}, {0.0, 1.0}, {10.0, 1.0}, {10.0, 0.0}}));
  map.add_duct(a, b,
               geo::Polyline(
                   {{0.0, 0.0}, {0.0, 1.02}, {10.0, 1.02}, {10.0, 0.0}}));
  map.add_duct(a, b,
               geo::Polyline({{0.0, 0.0}, {0.0, -3.0}, {10.0, -3.0}, {10.0, 0.0}}));
  return map;
}

TEST(SrlgStorage, ValidatesGroups) {
  auto map = corridor_map();
  EXPECT_THROW(map.add_srlg({"empty", SrlgKind::kManual, {}, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(map.add_srlg({"oob", SrlgKind::kManual, {99}, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(map.add_srlg({"two words", SrlgKind::kManual, {0}, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(map.add_srlg({"", SrlgKind::kManual, {0}, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(
      map.add_srlg({"nohut", SrlgKind::kHut, {0, 1}, 0.0, graph::kInvalidNode}),
      std::invalid_argument);

  // Members are sorted and deduplicated.
  const auto id = map.add_srlg({"power-a", SrlgKind::kManual, {1, 0, 1}, 0.0});
  EXPECT_EQ(map.srlg(id).ducts, (std::vector<EdgeId>{0, 1}));
  EXPECT_EQ(map.srlgs().size(), 1u);
}

TEST(SrlgStorage, SerializeRoundTrip) {
  auto map = corridor_map();
  map.add_srlg({"power-a", SrlgKind::kManual, {0, 2}, 0.0});
  map.add_srlg({"trench1", SrlgKind::kTrench, {0, 1}, 9.5});
  const auto hut = map.add_hut("h1", {5.0, 5.0});
  map.add_duct_with_length(map.dcs()[0], hut, 9.0);
  map.add_duct_with_length(hut, map.dcs()[1], 9.0);
  map.add_srlg({"hut-h1", SrlgKind::kHut, {3, 4}, 0.0, hut});

  const auto restored = fibermap::from_string(fibermap::to_string(map));
  ASSERT_EQ(restored.srlgs().size(), 3u);
  EXPECT_EQ(restored.srlg(0).name, "power-a");
  EXPECT_EQ(restored.srlg(0).kind, SrlgKind::kManual);
  EXPECT_EQ(restored.srlg(0).ducts, (std::vector<EdgeId>{0, 2}));
  EXPECT_EQ(restored.srlg(1).kind, SrlgKind::kTrench);
  EXPECT_DOUBLE_EQ(restored.srlg(1).shared_km, 9.5);
  EXPECT_EQ(restored.srlg(2).kind, SrlgKind::kHut);
  EXPECT_EQ(restored.srlg(2).hut, hut);
  EXPECT_EQ(restored.srlg(2).ducts, (std::vector<EdgeId>{3, 4}));

  // Round-tripping twice is a fixed point (canonical form).
  EXPECT_EQ(fibermap::to_string(restored), fibermap::to_string(map));
}

TEST(SrlgSerialize, RejectsMalformedRecords) {
  auto map = corridor_map();
  map.add_srlg({"g", SrlgKind::kManual, {0, 1}, 0.0});
  auto text = fibermap::to_string(map);
  const auto pos = text.find("srlg g manual 0 1");
  ASSERT_NE(pos, std::string::npos);
  auto bad = text;
  bad.replace(pos, std::string("srlg g manual 0 1").size(),
              "srlg g manual 0 99");
  EXPECT_THROW((void)fibermap::from_string(bad), std::runtime_error);
  bad = text;
  bad.replace(pos, std::string("srlg g manual 0 1").size(), "srlg g manual");
  EXPECT_THROW((void)fibermap::from_string(bad), std::runtime_error);
}

TEST(SrlgInference, SharedRunGoldenGeometry) {
  // Two 10 km horizontal lines 20 m apart: the whole run is shared.
  const geo::Polyline a({{0.0, 0.0}, {10.0, 0.0}});
  const geo::Polyline b({{0.0, 0.02}, {10.0, 0.02}});
  EXPECT_NEAR(fibermap::shared_run_km(a, b, 0.05, 0.1), 10.0, 0.2);
  // 100 m apart: nothing shared at a 50 m threshold.
  const geo::Polyline far({{0.0, 0.1}, {10.0, 0.1}});
  EXPECT_DOUBLE_EQ(fibermap::shared_run_km(a, far, 0.05, 0.1), 0.0);
  // A perpendicular crossing shares only the intersection neighbourhood.
  const geo::Polyline cross({{5.0, -5.0}, {5.0, 5.0}});
  EXPECT_LT(fibermap::shared_run_km(a, cross, 0.05, 0.01), 0.5);
}

TEST(SrlgInference, ParallelTrenchesFuseNearMissesDoNot) {
  const auto map = corridor_map();
  const auto groups = fibermap::infer_srlgs(map);
  // Ducts 0 and 1 share the northern corridor; duct 2 runs 3 km south.
  // DC-to-DC ducts never form hut groups, so the trench group is alone.
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].kind, SrlgKind::kTrench);
  EXPECT_EQ(groups[0].ducts, (std::vector<EdgeId>{0, 1}));
  EXPECT_GT(groups[0].shared_km, 9.0);

  // Raising the minimum shared length above the corridor dissolves it.
  fibermap::SrlgInferenceParams strict;
  strict.trench_min_shared_km = 50.0;
  EXPECT_TRUE(fibermap::infer_srlgs(map, strict).empty());
}

TEST(SrlgInference, TrenchSharingIsTransitive) {
  FiberMap map;
  const auto a = map.add_dc("a", {0.0, 0.0}, 8);
  const auto b = map.add_dc("b", {10.0, 0.0}, 8);
  // Three parallel routes, neighbours 30 m apart: ducts 0-1 and 1-2 share,
  // 0-2 are 60 m apart (beyond the 50 m threshold) -- one component of 3.
  for (int i = 0; i < 3; ++i) {
    const double y = 1.0 + 0.03 * i;
    map.add_duct(a, b,
                 geo::Polyline({{0.0, 0.0}, {0.0, y}, {10.0, y}, {10.0, 0.0}}));
  }
  const auto groups = fibermap::infer_srlgs(map);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].ducts, (std::vector<EdgeId>{0, 1, 2}));
}

TEST(SrlgInference, SharedHutFanIn) {
  FiberMap map;
  const auto a = map.add_dc("a", {0.0, 0.0}, 8);
  const auto b = map.add_dc("b", {20.0, 0.0}, 8);
  const auto hub = map.add_hut("hub", {10.0, 10.0});
  const auto spur = map.add_hut("spur", {10.0, -10.0});
  map.add_duct_with_length(a, hub, 15.0);
  map.add_duct_with_length(hub, b, 15.0);
  map.add_duct_with_length(a, spur, 15.0);  // spur has one duct: no group

  const auto groups = fibermap::infer_srlgs(map);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].kind, SrlgKind::kHut);
  EXPECT_EQ(groups[0].hut, hub);
  EXPECT_EQ(groups[0].ducts, (std::vector<EdgeId>{0, 1}));
  EXPECT_EQ(groups[0].name, "hut-hub");
  (void)spur;
}

TEST(SrlgInference, InferredGroupsAreDeduplicatedAgainstDeclared) {
  auto map = corridor_map();
  map.add_srlg({"already", SrlgKind::kManual, {0, 1}, 0.0});
  EXPECT_EQ(fibermap::infer_and_add_srlgs(map), 0);
  ASSERT_EQ(map.srlgs().size(), 1u);

  auto fresh = corridor_map();
  EXPECT_EQ(fibermap::infer_and_add_srlgs(fresh), 1);
  EXPECT_EQ(fresh.srlgs()[0].ducts, (std::vector<EdgeId>{0, 1}));
}

TEST(ScenarioSetEvents, GroupEventsFailMembersAtomically) {
  // Events A={0,1}, B={1,2} overlap on duct 1; the sweep must fail each
  // duct once and restore it only when its last covering event unwinds.
  std::vector<graph::FailureEvent> events{{{0, 1}}, {{1, 2}}};
  const graph::ScenarioSet set(3, events, 2);
  EXPECT_EQ(set.scenario_count(), 1 + 2 + 1);
  EXPECT_EQ(set.eligible_edges(), (std::vector<EdgeId>{0, 1, 2}));

  std::vector<std::pair<std::vector<EdgeId>, int>> seen;
  set.for_each([&](const graph::EdgeMask& mask, std::span<const EdgeId> failed,
                   int depth) {
    for (EdgeId e : failed) EXPECT_TRUE(mask.failed(e));
    seen.emplace_back(std::vector<EdgeId>(failed.begin(), failed.end()), depth);
  });
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], (std::pair<std::vector<EdgeId>, int>{{}, 0}));
  EXPECT_EQ(seen[1], (std::pair<std::vector<EdgeId>, int>{{0, 1}, 1}));
  // A then B: duct 1 already failed, so only duct 2 is appended.
  EXPECT_EQ(seen[2], (std::pair<std::vector<EdgeId>, int>{{0, 1, 2}, 2}));
  EXPECT_EQ(seen[3], (std::pair<std::vector<EdgeId>, int>{{1, 2}, 1}));
}

TEST(ScenarioSetEvents, SingletonEventsMatchClassicSweep) {
  const graph::ScenarioSet classic(4, std::vector<EdgeId>{0, 1, 2, 3}, 2);
  std::vector<graph::FailureEvent> singleton_events;
  for (EdgeId e = 0; e < 4; ++e) singleton_events.push_back({{e}});
  const graph::ScenarioSet events(4, singleton_events, 2);

  std::vector<std::vector<EdgeId>> a, b;
  classic.for_each([&](const graph::EdgeMask&, std::span<const EdgeId> f, int) {
    a.emplace_back(f.begin(), f.end());
  });
  events.for_each([&](const graph::EdgeMask&, std::span<const EdgeId> f, int) {
    b.emplace_back(f.begin(), f.end());
  });
  EXPECT_EQ(a, b);
}

/// Small planning region with enough route diversity for k=1 SRLG events.
FiberMap planning_map() {
  fibermap::RegionParams region;
  region.seed = 7;
  region.dc_count = 5;
  region.hut_count = 10;
  region.capacity_fibers = 8;
  return fibermap::generate_region(region);
}

TEST(SrlgPlanning, SingletonSrlgsReproducePlanBitForBit) {
  auto plain = planning_map();
  auto tagged = planning_map();
  // One singleton group per duct: declares no *correlation*, so the planner
  // must produce the byte-identical plan (singletons add no new events).
  for (EdgeId e = 0; e < tagged.graph().edge_count(); ++e) {
    tagged.add_srlg({"solo" + std::to_string(e), SrlgKind::kManual, {e}, 0.0});
  }
  core::PlannerParams params;
  params.failure_tolerance = 2;
  params.channels.wavelengths_per_fiber = 40;
  const auto base = core::provision(plain, params);
  const auto with = core::provision(tagged, params);
  EXPECT_TRUE(core::same_plan(base, with));
  EXPECT_EQ(base.scenarios_evaluated, with.scenarios_evaluated);
}

TEST(SrlgPlanning, PlanSurvivesEveryEnumeratedGroupEvent) {
  auto map = planning_map();
  ASSERT_GT(fibermap::infer_and_add_srlgs(map), 0);
  core::PlannerParams params;
  params.failure_tolerance = 1;
  params.channels.wavelengths_per_fiber = 40;
  const auto net = core::provision(map, params);

  // Every scenario -- including whole-group events -- must leave every DC
  // pair connected over provisioned ducts (or the planner consciously gave
  // up on it: generated regions keep diversity, so none here).
  const auto scenarios = core::planner_scenarios(map, params);
  bool saw_group_event = false;
  scenarios.for_each([&](const graph::EdgeMask& mask,
                         std::span<const EdgeId> failed, int) {
    if (failed.size() > 1) saw_group_event = true;
    graph::EdgeMask m = mask;
    for (EdgeId e = 0; e < map.graph().edge_count(); ++e) {
      if (!net.edge_used(e)) m.fail(e);
    }
    const auto& dcs = map.dcs();
    for (std::size_t i = 0; i < dcs.size(); ++i) {
      const auto tree = graph::dijkstra(map.graph(), dcs[i], m);
      for (std::size_t j = i + 1; j < dcs.size(); ++j) {
        EXPECT_TRUE(tree.reachable(dcs[j]))
            << "pair " << dcs[i] << "-" << dcs[j] << " cut off";
      }
    }
  });
  EXPECT_TRUE(saw_group_event);
  EXPECT_EQ(net.pair_paths_skipped_unreachable, 0);
}

TEST(SrlgPlanning, BitIdenticalAcrossThreadCountsAndSweepModes) {
  auto map = planning_map();
  ASSERT_GT(fibermap::infer_and_add_srlgs(map), 0);
  core::PlannerParams params;
  params.failure_tolerance = 2;
  params.channels.wavelengths_per_fiber = 40;

  params.threads = 1;
  const auto t1 = core::provision(map, params);
  params.threads = 2;
  const auto t2 = core::provision(map, params);
  params.threads = 8;
  const auto t8 = core::provision(map, params);
  EXPECT_TRUE(core::same_plan(t1, t2));
  EXPECT_TRUE(core::same_plan(t1, t8));

  // Incremental (warm starts + dominance pruning) vs the full sweep.
  params.threads = 1;
  params.incremental = false;
  const auto full = core::provision(map, params);
  EXPECT_TRUE(core::same_plan(t1, full));
}

reliability::FailureModel stressed_model(std::uint64_t seed) {
  reliability::FailureModel m;
  m.cuts_per_km_year = 0.5;
  m.mean_repair_hours = 24.0;
  m.horizon_years = 120.0;
  m.seed = seed;
  return m;
}

TEST(CorrelatedAvailability, SingletonTrenchGroupsReproduceDuctCuts) {
  // Turn every per-duct cut process into a singleton trench group with the
  // same rate and repair: the draw sequence -- ducts in EdgeId order, repair
  // at failure, next arrival at repair -- must replay bit-for-bit.
  const auto plain = planning_map();
  auto grouped = planning_map();
  for (EdgeId e = 0; e < grouped.graph().edge_count(); ++e) {
    Srlg s;
    s.name = "duct" + std::to_string(e);
    s.kind = SrlgKind::kTrench;
    s.ducts = {e};
    s.shared_km = grouped.duct_length_km(e);
    grouped.add_srlg(s);
  }
  reliability::CorrelatedFailureModel per_duct;
  per_duct.base = stressed_model(33);
  per_duct.ci_batches = 0;
  const auto cuts = reliability::simulate_availability_correlated(
                        plain, per_duct, reliability::any_path_criterion(plain))
                        .summary;

  reliability::CorrelatedFailureModel cm = per_duct;
  cm.base.cuts_per_km_year = 0.0;  // cuts come from the groups instead
  cm.trench_hits_per_km_year = per_duct.base.cuts_per_km_year;
  cm.trench_repair_hours = per_duct.base.mean_repair_hours;
  const auto corr = reliability::simulate_availability_correlated(
      grouped, cm, reliability::any_path_criterion(grouped));

  EXPECT_EQ(corr.trench_events, cuts.cut_events);
  ASSERT_EQ(corr.summary.pairs.size(), cuts.pairs.size());
  for (std::size_t i = 0; i < cuts.pairs.size(); ++i) {
    EXPECT_EQ(corr.summary.pairs[i].availability, cuts.pairs[i].availability);
  }
  EXPECT_EQ(corr.summary.worst_availability, cuts.worst_availability);
}

TEST(CorrelatedAvailability, SameSeedIsByteIdentical) {
  auto map = planning_map();
  ASSERT_GT(fibermap::infer_and_add_srlgs(map), 0);
  reliability::CorrelatedFailureModel cm;
  cm.base = stressed_model(5);
  cm.trench_hits_per_km_year = 1.0;
  cm.hut_outages_per_year = 2.0;
  cm.maintenance.push_back({0, 100.0, 5000.0, 8.0});

  const auto run = [&] {
    return reliability::simulate_availability_correlated(
        map, cm, reliability::any_path_criterion(map));
  };
  const auto r1 = run();
  const auto r2 = run();
  EXPECT_EQ(r1.summary.cut_events, r2.summary.cut_events);
  EXPECT_EQ(r1.trench_events, r2.trench_events);
  EXPECT_EQ(r1.hut_events, r2.hut_events);
  EXPECT_EQ(r1.maintenance_events, r2.maintenance_events);
  EXPECT_GT(r1.trench_events + r1.hut_events, 0);
  EXPECT_GT(r1.maintenance_events, 0);
  ASSERT_EQ(r1.summary.pairs.size(), r2.summary.pairs.size());
  for (std::size_t i = 0; i < r1.summary.pairs.size(); ++i) {
    EXPECT_EQ(r1.summary.pairs[i].availability,
              r2.summary.pairs[i].availability);
    EXPECT_EQ(r1.summary.pairs[i].ci_low, r2.summary.pairs[i].ci_low);
    EXPECT_EQ(r1.summary.pairs[i].ci_high, r2.summary.pairs[i].ci_high);
  }
}

TEST(EventStream, MaintenanceCalendarIsDeterministic) {
  auto map = corridor_map();
  const auto id = map.add_srlg({"trench1", SrlgKind::kTrench, {0, 1}, 9.5});
  reliability::CorrelatedFailureModel cm;
  cm.base.cuts_per_km_year = 0.0;
  cm.base.horizon_years = 300.0 / (365.25 * 24.0);  // 300 hours
  cm.maintenance.push_back({id, 10.0, 100.0, 4.0});

  reliability::EventStream stream(map, cm);
  std::vector<std::pair<double, reliability::EventKind>> timeline;
  while (auto ev = stream.next()) {
    timeline.emplace_back(ev->at_h, ev->kind);
    EXPECT_EQ(ev->ducts, (std::vector<EdgeId>{0, 1}));
  }
  using reliability::EventKind;
  const std::vector<std::pair<double, EventKind>> expected{
      {10.0, EventKind::kMaintenanceStart}, {14.0, EventKind::kMaintenanceEnd},
      {110.0, EventKind::kMaintenanceStart}, {114.0, EventKind::kMaintenanceEnd},
      {210.0, EventKind::kMaintenanceStart}, {214.0, EventKind::kMaintenanceEnd},
  };
  EXPECT_EQ(timeline, expected);
}

TEST(EventStream, RejectsBadModels) {
  auto map = corridor_map();
  reliability::CorrelatedFailureModel cm;
  cm.trench_hits_per_km_year = -1.0;
  EXPECT_THROW(reliability::EventStream(map, cm), std::invalid_argument);
  cm = {};
  cm.maintenance.push_back({7, 0.0, 0.0, 4.0});  // unknown SRLG
  EXPECT_THROW(reliability::EventStream(map, cm), std::invalid_argument);

  // A NaN or infinite horizon or a NaN rate would never end the stream, and
  // a negative repair time would run events backwards: every non-finite or
  // out-of-range number is rejected up front.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  using Field = double reliability::FailureModel::*;
  const std::vector<std::pair<Field, double>> bad_base{
      {&reliability::FailureModel::horizon_years, nan},
      {&reliability::FailureModel::horizon_years, inf},
      {&reliability::FailureModel::cuts_per_km_year, nan},
      {&reliability::FailureModel::cuts_per_km_year, inf},
      {&reliability::FailureModel::mean_repair_hours, nan},
      {&reliability::FailureModel::mean_repair_hours, inf},
      {&reliability::FailureModel::disasters_per_year, nan},
      {&reliability::FailureModel::disasters_per_year, inf},
      {&reliability::FailureModel::disaster_radius_km, nan},
      {&reliability::FailureModel::disaster_radius_km, -1.0},
      {&reliability::FailureModel::disaster_repair_days, nan},
      {&reliability::FailureModel::disaster_repair_days, -5.0},
      {&reliability::FailureModel::disaster_repair_days, inf}};
  for (const auto& [field, value] : bad_base) {
    cm = {};
    cm.base.*field = value;
    EXPECT_THROW(reliability::EventStream(map, cm), std::invalid_argument)
        << value;
  }
  using GroupField = double reliability::CorrelatedFailureModel::*;
  for (const GroupField field :
       {&reliability::CorrelatedFailureModel::trench_hits_per_km_year,
        &reliability::CorrelatedFailureModel::trench_repair_hours,
        &reliability::CorrelatedFailureModel::hut_outages_per_year,
        &reliability::CorrelatedFailureModel::hut_repair_hours}) {
    for (const double value : {nan, inf}) {
      cm = {};
      cm.*field = value;
      EXPECT_THROW(reliability::EventStream(map, cm), std::invalid_argument)
          << value;
    }
  }
  const auto id = map.add_srlg({"trench1", SrlgKind::kTrench, {0, 1}, 9.5});
  const std::vector<reliability::MaintenanceWindow> bad_windows{
      {id, nan, 100.0, 4.0},  {id, inf, 100.0, 4.0}, {id, -1.0, 100.0, 4.0},
      {id, 10.0, nan, 4.0},   {id, 10.0, inf, 4.0},  {id, 10.0, -1.0, 4.0},
      {id, 10.0, 100.0, nan}, {id, 10.0, 100.0, inf}, {id, 10.0, 100.0, 0.0}};
  for (const reliability::MaintenanceWindow& win : bad_windows) {
    cm = {};
    cm.maintenance.push_back(win);
    EXPECT_THROW(reliability::EventStream(map, cm), std::invalid_argument)
        << win.start_h << " " << win.period_h << " " << win.duration_h;
  }
  // A finite but huge horizon, rate or window count would run the stream
  // until memory or time runs out: a model may expect at most 1e7 events.
  cm = {};
  cm.base.horizon_years = 1e300;
  EXPECT_THROW(reliability::EventStream(map, cm), std::invalid_argument);
  cm = {};
  cm.base.cuts_per_km_year = 1e300;
  EXPECT_THROW(reliability::EventStream(map, cm), std::invalid_argument);
  cm = {};
  cm.base.disasters_per_year = 1e300;
  EXPECT_THROW(reliability::EventStream(map, cm), std::invalid_argument);
  cm = {};
  cm.trench_hits_per_km_year = 1e300;
  EXPECT_THROW(reliability::EventStream(map, cm), std::invalid_argument);
  cm = {};
  cm.hut_outages_per_year = 1e300;
  auto with_hut = map;
  with_hut.add_srlg({"hut1", SrlgKind::kHut, {0, 1}, 0.0, 0});
  EXPECT_THROW(reliability::EventStream(with_hut, cm), std::invalid_argument);
  cm = {};
  cm.maintenance.push_back({id, 0.0, 1e-300, 4.0});
  EXPECT_THROW(reliability::EventStream(map, cm), std::invalid_argument);
  // The boundary values stay valid: no disaster spread or repair time, and
  // a one-shot window at t=0.
  cm = {};
  cm.base.disaster_radius_km = 0.0;
  cm.base.disaster_repair_days = 0.0;
  cm.maintenance.push_back({id, 0.0, 0.0, 4.0});
  EXPECT_NO_THROW(reliability::EventStream(map, cm));
}

TEST(SloProvisioning, RaisesToleranceUntilTargetMet) {
  auto map = planning_map();
  fibermap::infer_and_add_srlgs(map);
  core::PlannerParams params;
  params.failure_tolerance = 0;
  params.slo_max_tolerance = 2;
  params.availability_slo = 0.9999;
  params.channels.wavelengths_per_fiber = 40;

  reliability::CorrelatedFailureModel cm;
  cm.base = stressed_model(13);
  cm.trench_hits_per_km_year = 0.5;
  cm.hut_outages_per_year = 1.0;

  const auto report = core::provision_to_availability_slo(map, params, cm);
  EXPECT_GE(report.search_steps, 1);
  EXPECT_EQ(report.tolerance,
            params.failure_tolerance + report.search_steps - 1);
  if (report.met) {
    EXPECT_GE(report.availability.summary.worst_availability, 0.9999);
  } else {
    EXPECT_EQ(report.tolerance, params.slo_max_tolerance);
  }
  // A tolerance-0 plan provisions only baseline paths; meeting four nines
  // under this stressed model requires at least one step of hardening.
  EXPECT_GT(report.search_steps, 1);
}

TEST(SloProvisioning, RejectsBadArguments) {
  const auto map = planning_map();
  core::PlannerParams params;
  reliability::CorrelatedFailureModel cm;
  params.availability_slo = 0.0;
  EXPECT_THROW((void)core::provision_to_availability_slo(map, params, cm),
               std::invalid_argument);
  params.availability_slo = 0.999;
  params.slo_max_tolerance = params.failure_tolerance - 1;
  EXPECT_THROW((void)core::provision_to_availability_slo(map, params, cm),
               std::invalid_argument);
  // NaN fails both range comparisons, so it must be rejected explicitly.
  params.slo_max_tolerance = params.failure_tolerance;
  params.availability_slo = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)core::provision_to_availability_slo(map, params, cm),
               std::invalid_argument);
}

// The capacity-aware criterion degenerates to plain connectivity over
// planned ducts at demand_waves = 1 and binds on planned capacity as the
// demand grows: with nothing failed, a modest demand fits but an absurd one
// does not -- that sensitivity is what the cost bisection needs.
TEST(SloProvisioning, CapacityCriterionBindsOnDemand) {
  const auto map = planning_map();
  core::PlannerParams params;
  params.failure_tolerance = 1;
  params.channels.wavelengths_per_fiber = 40;
  const auto net = core::provision(map, params);

  const auto any_path = reliability::any_path_criterion(map);
  const auto cap1 = core::planned_capacity_criterion(map, net, 1);
  const auto greedy = core::planned_capacity_criterion(map, net, 1'000'000);
  const EdgeId edges = map.graph().edge_count();
  const graph::EdgeMask nothing_failed(edges);
  const auto& dcs = map.dcs();
  // cap1 under a failure set == any_path under that set plus every duct the
  // plan did not use; checked with nothing failed and each planned duct cut.
  for (EdgeId cut = -1; cut < edges; ++cut) {
    if (cut >= 0 && !net.edge_used(cut)) continue;
    graph::EdgeMask failed(edges);
    graph::EdgeMask failed_or_unplanned(edges);
    for (EdgeId e = 0; e < edges; ++e) {
      if (e == cut) failed.fail(e);
      if (e == cut || !net.edge_used(e)) failed_or_unplanned.fail(e);
    }
    for (std::size_t i = 0; i < dcs.size(); ++i) {
      for (std::size_t j = i + 1; j < dcs.size(); ++j) {
        EXPECT_EQ(cap1(failed, dcs[i], dcs[j]),
                  any_path(failed_or_unplanned, dcs[i], dcs[j]))
            << "cut " << cut;
      }
    }
  }
  bool any_pair_starved = false;
  for (std::size_t i = 0; i < dcs.size(); ++i) {
    for (std::size_t j = i + 1; j < dcs.size(); ++j) {
      if (!greedy(nothing_failed, dcs[i], dcs[j])) any_pair_starved = true;
    }
  }
  EXPECT_TRUE(any_pair_starved);
  EXPECT_THROW((void)core::planned_capacity_criterion(map, net, 0),
               std::invalid_argument);
}

// Default SloCostOptions reduce the 4-argument overload to the 3-argument
// search: same plan, same verdict, no bisection.
TEST(SloProvisioning, DefaultCostOptionsMatchPlainSearch) {
  auto map = planning_map();
  fibermap::infer_and_add_srlgs(map);
  core::PlannerParams params;
  params.failure_tolerance = 0;
  params.slo_max_tolerance = 2;
  params.availability_slo = 0.999;
  params.channels.wavelengths_per_fiber = 40;
  reliability::CorrelatedFailureModel cm;
  cm.base = stressed_model(13);
  cm.trench_hits_per_km_year = 0.5;

  const auto plain = core::provision_to_availability_slo(map, params, cm);
  const auto cost =
      core::provision_to_availability_slo(map, params, cm, {});
  EXPECT_TRUE(core::same_plan(plain.network, cost.network));
  EXPECT_EQ(plain.met, cost.met);
  EXPECT_EQ(plain.tolerance, cost.tolerance);
  EXPECT_EQ(plain.search_steps, cost.search_steps);
  EXPECT_EQ(plain.availability.summary.worst_availability,
            cost.availability.summary.worst_availability);
  EXPECT_EQ(cost.bisect_steps, 0);
  EXPECT_EQ(cost.oversubscription, params.oversubscription);
  EXPECT_EQ(cost.cost_fibers, cost.network.total_base_fibers());
}

// With headroom to trade, the bisection finds a cheaper plan at the accepted
// tolerance: oversubscription rises above the baseline, fiber cost drops,
// and the surviving plan still meets the SLO under the capacity criterion.
TEST(SloProvisioning, CostPassTradesOversubscriptionForFibers) {
  auto map = planning_map();
  fibermap::infer_and_add_srlgs(map);
  core::PlannerParams params;
  params.failure_tolerance = 1;
  params.slo_max_tolerance = 2;
  params.availability_slo = 0.9;
  params.channels.wavelengths_per_fiber = 40;
  reliability::CorrelatedFailureModel cm;
  cm.base = stressed_model(13);

  core::SloCostOptions cost;
  cost.max_oversubscription = 3.0;
  cost.demand_waves = 2;
  cost.bisect_iters = 6;
  const auto baseline = core::provision_to_availability_slo(map, params, cm);
  const auto opt = core::provision_to_availability_slo(map, params, cm, cost);
  ASSERT_TRUE(opt.met);
  EXPECT_GE(opt.bisect_steps, 1);
  EXPECT_GT(opt.oversubscription, params.oversubscription);
  EXPECT_LE(opt.cost_fibers, baseline.cost_fibers);
  EXPECT_GE(opt.availability.summary.worst_availability,
            params.availability_slo);
  // Determinism: the whole search replays bit-for-bit.
  const auto again = core::provision_to_availability_slo(map, params, cm, cost);
  EXPECT_TRUE(core::same_plan(opt.network, again.network));
  EXPECT_EQ(opt.bisect_steps, again.bisect_steps);
  EXPECT_EQ(opt.oversubscription, again.oversubscription);
}

TEST(SloProvisioning, CostRejectsBadOptions) {
  const auto map = planning_map();
  core::PlannerParams params;
  params.availability_slo = 0.999;
  reliability::CorrelatedFailureModel cm;
  core::SloCostOptions cost;
  cost.demand_waves = 0;
  EXPECT_THROW(
      (void)core::provision_to_availability_slo(map, params, cm, cost),
      std::invalid_argument);
  cost.demand_waves = 1;
  cost.bisect_iters = -1;
  EXPECT_THROW(
      (void)core::provision_to_availability_slo(map, params, cm, cost),
      std::invalid_argument);
  // A non-finite ceiling would silently disable (NaN) or run away with
  // (infinity) the cost pass.
  cost.bisect_iters = 1;
  for (const double ceiling : {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()}) {
    cost.max_oversubscription = ceiling;
    EXPECT_THROW(
        (void)core::provision_to_availability_slo(map, params, cm, cost),
        std::invalid_argument);
    EXPECT_NE(core::slo_argument_error(params, cost), nullptr);
  }
  cost.max_oversubscription = 2.0;
  EXPECT_EQ(core::slo_argument_error(params, cost), nullptr);
}

/// The SLO search rebuilt from public parts with the per-pair criterion:
/// provision each candidate, simulate it, then bisect the oversubscription.
core::SloProvisionReport reference_slo_search(
    const FiberMap& map, const core::PlannerParams& params,
    const reliability::CorrelatedFailureModel& model,
    const core::SloCostOptions& cost) {
  const auto simulate = [&](const core::ProvisionedNetwork& net) {
    return reliability::simulate_availability_correlated(
        map, model,
        core::planned_capacity_criterion(map, net, cost.demand_waves));
  };
  core::SloProvisionReport report;
  for (int k = params.failure_tolerance; k <= params.slo_max_tolerance; ++k) {
    core::PlannerParams candidate = params;
    candidate.failure_tolerance = k;
    report.network = core::provision(map, candidate);
    report.availability = simulate(report.network);
    report.tolerance = k;
    ++report.search_steps;
    if (report.availability.summary.worst_availability >=
        params.availability_slo) {
      report.met = true;
      break;
    }
  }
  if (report.met && cost.max_oversubscription > params.oversubscription) {
    core::PlannerParams candidate = params;
    candidate.failure_tolerance = report.tolerance;
    const auto feasible_at = [&](double oversub) {
      candidate.oversubscription = oversub;
      core::ProvisionedNetwork net = core::provision(map, candidate);
      auto avail = simulate(net);
      ++report.bisect_steps;
      const bool ok =
          avail.summary.worst_availability >= params.availability_slo;
      if (ok) {
        report.network = std::move(net);
        report.availability = std::move(avail);
      }
      return ok;
    };
    if (!feasible_at(cost.max_oversubscription)) {
      double lo = params.oversubscription;
      double hi = cost.max_oversubscription;
      for (int i = 0; i < cost.bisect_iters; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (feasible_at(mid)) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
    }
  }
  report.oversubscription = report.network.params.oversubscription;
  report.cost_fibers = report.network.total_base_fibers();
  return report;
}

void expect_same_report(const core::SloProvisionReport& got,
                        const core::SloProvisionReport& want) {
  EXPECT_TRUE(core::same_plan(got.network, want.network));
  EXPECT_EQ(got.tolerance, want.tolerance);
  EXPECT_EQ(got.search_steps, want.search_steps);
  EXPECT_EQ(got.met, want.met);
  EXPECT_EQ(got.oversubscription, want.oversubscription);
  EXPECT_EQ(got.cost_fibers, want.cost_fibers);
  EXPECT_EQ(got.bisect_steps, want.bisect_steps);
  const auto& a = got.availability;
  const auto& b = want.availability;
  EXPECT_EQ(a.duct_cut_events, b.duct_cut_events);
  EXPECT_EQ(a.trench_events, b.trench_events);
  EXPECT_EQ(a.hut_events, b.hut_events);
  EXPECT_EQ(a.maintenance_events, b.maintenance_events);
  EXPECT_EQ(a.disaster_events, b.disaster_events);
  EXPECT_EQ(a.summary.cut_events, b.summary.cut_events);
  EXPECT_EQ(a.summary.worst_availability, b.summary.worst_availability);
  EXPECT_EQ(a.summary.mean_availability, b.summary.mean_availability);
  ASSERT_EQ(a.summary.pairs.size(), b.summary.pairs.size());
  for (std::size_t i = 0; i < a.summary.pairs.size(); ++i) {
    const auto& p = a.summary.pairs[i];
    const auto& q = b.summary.pairs[i];
    EXPECT_EQ(p.a, q.a);
    EXPECT_EQ(p.b, q.b);
    // Bit-for-bit: exact double equality, CIs included.
    EXPECT_EQ(p.availability, q.availability) << "pair " << i;
    EXPECT_EQ(p.ci_low, q.ci_low) << "pair " << i;
    EXPECT_EQ(p.ci_high, q.ci_high) << "pair " << i;
  }
}

// The search integrates one recorded timeline per candidate with class
// verdicts; field for field (CIs included) it must equal the search built
// from provision + simulate_availability_correlated + the per-pair
// criterion, on every SLO fixture above. Its work counters move as the
// reference's simulations would, plus the max-flows it ran.
TEST(SloProvisioning, SearchMatchesPerPairReference) {
  auto map = planning_map();
  fibermap::infer_and_add_srlgs(map);
  struct Case {
    core::PlannerParams params;
    reliability::CorrelatedFailureModel model;
    core::SloCostOptions cost;
  };
  std::vector<Case> cases;
  {
    Case c;  // RaisesToleranceUntilTargetMet
    c.params.failure_tolerance = 0;
    c.params.slo_max_tolerance = 2;
    c.params.availability_slo = 0.9999;
    c.params.channels.wavelengths_per_fiber = 40;
    c.model.base = stressed_model(13);
    c.model.trench_hits_per_km_year = 0.5;
    c.model.hut_outages_per_year = 1.0;
    cases.push_back(c);
  }
  {
    Case c;  // DefaultCostOptionsMatchPlainSearch
    c.params.failure_tolerance = 0;
    c.params.slo_max_tolerance = 2;
    c.params.availability_slo = 0.999;
    c.params.channels.wavelengths_per_fiber = 40;
    c.model.base = stressed_model(13);
    c.model.trench_hits_per_km_year = 0.5;
    cases.push_back(c);
  }
  for (const long long demand : {2LL, 60LL}) {
    Case c;  // CostPassTradesOversubscriptionForFibers
    c.params.failure_tolerance = 1;
    c.params.slo_max_tolerance = 2;
    c.params.availability_slo = 0.9;
    c.params.channels.wavelengths_per_fiber = 40;
    c.model.base = stressed_model(13);
    c.cost.max_oversubscription = 3.0;
    c.cost.demand_waves = demand;
    c.cost.bisect_iters = 6;
    cases.push_back(c);
  }
  auto& reg = obs::registry();
  const auto runs_key = "reliability.correlated.runs";
  const auto cut_key = obs::key("reliability.events", {{"kind", "cut"}});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    const Case& c = cases[i];
    const long long runs0 = reg.counter(runs_key);
    const long long cuts0 = reg.counter(cut_key);
    const long long flows0 = reg.counter("planner.slo.maxflows");
    const auto got =
        core::provision_to_availability_slo(map, c.params, c.model, c.cost);
    const long long runs1 = reg.counter(runs_key);
    const long long cuts1 = reg.counter(cut_key);
    const long long flows1 = reg.counter("planner.slo.maxflows");
    const auto want = reference_slo_search(map, c.params, c.model, c.cost);
    expect_same_report(got, want);
    if (!obs::compiled_in()) continue;
    // The search moves the run counters exactly as the reference does.
    EXPECT_EQ(runs1 - runs0, reg.counter(runs_key) - runs1);
    EXPECT_EQ(cuts1 - cuts0, reg.counter(cut_key) - cuts1);
    EXPECT_EQ(runs1 - runs0, got.search_steps + got.bisect_steps);
    EXPECT_GT(flows1 - flows0, 0);
  }
}

}  // namespace
}  // namespace iris
