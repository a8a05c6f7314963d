// Fleet subsystem acceptance: snapshot isolation, solo/fleet bit-identity,
// and deterministic race-free what-if queries. Every suite here starts with
// "Fleet" so the sanitizer and TSan CI jobs can select the whole file with
// one ctest regex.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "control/journal.hpp"
#include "fleet/engine.hpp"

namespace {

using namespace iris;

/// A small but non-trivial fleet: scripted duct chaos on (so snapshots churn
/// through failure/repair versions) and command faults injected (so the
/// controller's books actually see retries, quarantines and rollbacks).
fleet::FleetParams small_fleet(int regions, int samples) {
  fleet::FleetParams params;
  params.regions = regions;
  params.base_seed = 7;
  params.base.loop.duration_s = static_cast<double>(samples);
  params.base.loop.sample_interval_s = 1.0;
  params.base.chaos_duct_period = 9;
  params.base.faults.rates.oss_connect_fail = 0.03;
  params.base.faults.rates.tx_tune_fail = 0.01;
  params.base.faults.rates.amp_dead = 0.02;
  params.base.faults.rates.timeout_fraction = 0.25;
  return params;
}

geo::Point dc_centroid(const fibermap::FiberMap& map) {
  geo::Point c{0.0, 0.0};
  for (const auto& p : map.dc_positions()) c = c + p;
  const auto n = static_cast<double>(map.dc_positions().size());
  return {c.x / n, c.y / n};
}

/// A deterministic mixed query batch against one pinned snapshot.
std::vector<fleet::WhatIfEngine::Job> mixed_batch(
    const fleet::RegionSnapshot* snap, int count) {
  std::vector<fleet::WhatIfEngine::Job> jobs;
  for (int q = 0; q < count; ++q) {
    fleet::WhatIfEngine::Job job;
    job.snapshot = snap;
    if (q % 6 == 5) {
      job.query.kind = fleet::QueryKind::kSloProbe;
      job.query.availability_slo = 0.995;
      job.query.slo_max_tolerance = 1;
      job.query.max_oversubscription = 2.0;
    } else if (q % 6 == 4) {
      job.query.kind = fleet::QueryKind::kGrowth;
      job.query.growth.position = dc_centroid(*snap->map);
      job.query.growth.name = "dc-whatif";
    } else {
      job.query.kind = fleet::QueryKind::kFailureDrill;
      job.query.duct = static_cast<graph::EdgeId>(
          static_cast<std::size_t>(q) % snap->map->graph().edge_count());
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

// ---------------------------------------------------------------------------
// Snapshot isolation: a concurrent reader pinning snapshots mid-run must only
// ever see committed controller state -- every published checkpoint passes
// the journal layer's full invariant audit, even with faults and duct chaos
// mutating the controller between ticks.
TEST(FleetSnapshot, CommittedStateOnly) {
  // Long enough that the auditor genuinely races the loop: a 2000-sample
  // run gives the reader tens of milliseconds of overlap.
  const auto params = small_fleet(1, 2000);
  fleet::Fleet fleet(params);

  std::atomic<bool> stop{false};
  std::atomic<long long> distinct{0};
  std::thread auditor([&] {
    long long last_tick = -1;
    std::uint64_t last_version = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const auto snap = fleet.snapshot(0);
      if (snap && (snap->tick != last_tick || snap->version != last_version)) {
        last_tick = snap->tick;
        last_version = snap->version;
        EXPECT_NO_THROW(control::validate_checkpoint(*snap->books))
            << "tick " << snap->tick << " version " << snap->version;
        distinct.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::yield();
    }
  });

  fleet.start();
  fleet.join();
  stop.store(true, std::memory_order_release);
  auditor.join();

  // The auditor raced the loop, so how many ticks it caught depends on
  // scheduling (typically dozens; under heavy ctest -j contention it can be
  // starved down to the final one) -- but every snapshot it DID pin must
  // have passed the audit above, and the final snapshot is always there.
  EXPECT_GE(distinct.load(), 1);
  const auto last = fleet.snapshot(0);
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->tick, 1999);
  EXPECT_NO_THROW(control::validate_checkpoint(*last->books));
  EXPECT_EQ(fleet.shard(0).store().published(), 2000);
}

// ---------------------------------------------------------------------------
// Bit-identity: per-region traces are byte-identical to a solo run of the
// same region, for M in {1, 2, 8}; and a region's trace does not depend on
// how many sibling regions race beside it.
TEST(FleetDeterminism, TracesBitIdenticalAcrossRegionCounts) {
  std::string region0_trace;
  for (const int regions : {1, 2, 8}) {
    const auto params = small_fleet(regions, 16);
    fleet::Fleet fleet(params);
    fleet.start();
    fleet.join();
    for (int r = 0; r < regions; ++r) {
      const auto solo = fleet::run_region_solo(params, r);
      const auto& in_fleet = fleet.shard(r).result();
      EXPECT_EQ(in_fleet.trace, solo.trace) << "M=" << regions << " r=" << r;
      EXPECT_EQ(in_fleet.fingerprint, solo.fingerprint);
    }
    if (region0_trace.empty()) {
      region0_trace = fleet.shard(0).result().trace;
    } else {
      EXPECT_EQ(fleet.shard(0).result().trace, region0_trace)
          << "region 0 trace changed with fleet size " << regions;
    }
  }
}

// Query load on the published snapshots must not perturb the loops: traces
// stay byte-identical to solo even while an engine hammers every region.
TEST(FleetDeterminism, TracesUnchangedUnderQueryLoad) {
  const auto params = small_fleet(2, 400);
  fleet::Fleet fleet(params);
  fleet::WhatIfEngine engine(4);
  fleet.start();
  fleet.wait_ready();
  // At least one batch always runs; while the loops are still ticking, keep
  // hammering the freshest snapshots so queries overlap live publishes.
  do {
    std::vector<fleet::WhatIfEngine::Job> jobs;
    for (int r = 0; r < 2; ++r) {
      for (auto& job : mixed_batch(fleet.snapshot(r), 6)) {
        jobs.push_back(std::move(job));
      }
    }
    engine.run_batch(jobs);
  } while (fleet.shard(0).store().published() < 400 ||
           fleet.shard(1).store().published() < 400);
  fleet.join();
  EXPECT_GT(engine.total(), 0);
  for (int r = 0; r < 2; ++r) {
    const auto solo = fleet::run_region_solo(params, r);
    EXPECT_EQ(fleet.shard(r).result().trace, solo.trace) << "r=" << r;
  }
}

// ---------------------------------------------------------------------------
// Query determinism: the same batch against the same pinned snapshot yields
// identical results regardless of pool size or scheduling, in input order.
TEST(FleetQuery, DeterministicOnPinnedSnapshot) {
  const auto params = small_fleet(1, 12);
  fleet::Fleet fleet(params);
  fleet.start();
  fleet.join();
  const auto snap = fleet.snapshot(0);
  ASSERT_NE(snap, nullptr);

  const auto jobs = mixed_batch(snap, 18);
  fleet::WhatIfEngine serial(1);
  fleet::WhatIfEngine pool_a(4);
  fleet::WhatIfEngine pool_b(4);
  const auto ref = serial.run_batch(jobs);
  const auto run_a = pool_a.run_batch(jobs);
  const auto run_b = pool_b.run_batch(jobs);
  ASSERT_EQ(ref.size(), jobs.size());
  ASSERT_EQ(run_a.size(), jobs.size());
  ASSERT_EQ(run_b.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(run_a[i].canonical(), ref[i].canonical()) << "i=" << i;
    EXPECT_EQ(run_b[i].fingerprint(), ref[i].fingerprint()) << "i=" << i;
  }
  EXPECT_EQ(serial.total(), static_cast<long long>(jobs.size()));
}

// Failure drill smoke: cutting a duct on the pinned plan reports a reroute
// diff tagged with the snapshot's provenance, without touching the region.
TEST(FleetQuery, FailureDrillReportsRerouteDiff) {
  const auto params = small_fleet(1, 8);
  fleet::Fleet fleet(params);
  fleet.start();
  fleet.join();
  const auto snap = fleet.snapshot(0);
  ASSERT_NE(snap, nullptr);
  const auto before = snap->network->total_base_fibers();

  fleet::WhatIfQuery query;
  query.kind = fleet::QueryKind::kFailureDrill;
  query.duct = 0;
  const auto result = fleet::run_query(*snap, query);
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.region, 0);
  EXPECT_EQ(result.tick, snap->tick);
  EXPECT_EQ(result.version, snap->version);
  EXPECT_GE(result.capacity_changes + result.path_changes, 0);
  EXPECT_GE(result.pairs_disconnected, 0);
  // The drill worked on scratch state: the snapshot is untouched.
  EXPECT_EQ(snap->network->total_base_fibers(), before);
}

// Growth-study smoke: siting a DC at the centroid of the existing DCs is
// within the siting SLA and reports the expansion's fiber bill.
TEST(FleetQuery, GrowthStudySitesNewDc) {
  const auto params = small_fleet(1, 8);
  fleet::Fleet fleet(params);
  fleet.start();
  fleet.join();
  const auto snap = fleet.snapshot(0);
  ASSERT_NE(snap, nullptr);

  fleet::WhatIfQuery query;
  query.kind = fleet::QueryKind::kGrowth;
  query.growth.position = dc_centroid(*snap->map);
  query.growth.name = "dc-centroid";
  const auto result = fleet::run_query(*snap, query);
  EXPECT_TRUE(result.feasible);
  EXPECT_GT(result.reach_km, 0.0);
  EXPECT_GT(result.fibers_added, 0);

  // Far outside the metro the reach check must fail the siting SLA.
  fleet::WhatIfQuery far = query;
  far.growth.position = {500.0, 500.0};
  EXPECT_FALSE(fleet::run_query(*snap, far).feasible);
}

// A growth study answers from the expanded map alone. Over the benchmark's
// 5x3 candidate grid, plus a site beyond the siting SLA and one with no
// attach duct, every answer must equal the one derived from the full
// expansion plan: plan_expansion's fiber bill for a feasible site, the
// measured reach for an SLA violation, nothing for an unreachable site.
TEST(FleetQuery, GrowthAnswersMatchFullExpansionPlan) {
  const auto params = small_fleet(1, 8);
  fleet::Fleet fleet(params);
  fleet.start();
  fleet.join();
  const auto snap = fleet.snapshot(0);
  ASSERT_NE(snap, nullptr);

  std::vector<core::ExpansionRequest> sites;
  for (int gx = 0; gx < 5; ++gx) {
    for (int gy = 0; gy < 3; ++gy) {
      core::ExpansionRequest site;
      site.position = {12.0 + 4.0 * gx, 18.0 + 6.0 * gy};
      site.capacity_fibers = 8;
      site.name = "dc-whatif";
      sites.push_back(site);
    }
  }
  core::ExpansionRequest beyond_sla = sites.front();
  beyond_sla.position = {500.0, 500.0};
  sites.push_back(beyond_sla);
  core::ExpansionRequest unreachable = sites.front();
  unreachable.attach_huts = 0;
  sites.push_back(unreachable);

  core::PlannerParams p = snap->network->params;
  p.threads = 1;
  int feasible = 0;
  int violations = 0;
  int unreached = 0;
  for (const core::ExpansionRequest& site : sites) {
    fleet::WhatIfQuery query;
    query.kind = fleet::QueryKind::kGrowth;
    query.growth = site;
    const fleet::WhatIfResult got = fleet::run_query(*snap, query);

    fleet::WhatIfResult want;
    want.kind = fleet::QueryKind::kGrowth;
    want.region = snap->region;
    want.tick = snap->tick;
    want.version = snap->version;
    const auto reach = core::expansion_fiber_reach_km(*snap->map, p, site);
    if (!reach.has_value()) {
      ++unreached;
    } else {
      want.reach_km = *reach;
      try {
        const core::ExpansionReport rep =
            core::plan_expansion(*snap->map, p, site);
        want.feasible = true;
        want.fibers_added = rep.plan.network.total_base_fibers() -
                            snap->network->total_base_fibers();
        ++feasible;
      } catch (const std::invalid_argument&) {
        ++violations;
      }
    }
    EXPECT_EQ(got.canonical(), want.canonical());
  }
  EXPECT_EQ(feasible, 15);
  EXPECT_EQ(violations, 1);
  EXPECT_EQ(unreached, 1);
}

// SLO-probe smoke: availability provisioning with cost co-optimization runs
// against the pinned map and reports the met/cost/oversubscription triple.
TEST(FleetQuery, SloProbeReportsCostTriple) {
  const auto params = small_fleet(1, 8);
  fleet::Fleet fleet(params);
  fleet.start();
  fleet.join();
  const auto snap = fleet.snapshot(0);
  ASSERT_NE(snap, nullptr);

  fleet::WhatIfQuery query;
  query.kind = fleet::QueryKind::kSloProbe;
  query.availability_slo = 0.99;
  query.slo_max_tolerance = 1;
  query.max_oversubscription = 2.0;
  const auto result = fleet::run_query(*snap, query);
  EXPECT_TRUE(result.feasible);
  EXPECT_GE(result.tolerance, 0);
  EXPECT_GT(result.cost_fibers, 0);
  EXPECT_GE(result.oversubscription, 1.0);
  EXPECT_LE(result.oversubscription, 2.0);
  if (result.slo_met) {
    EXPECT_GE(result.worst_availability, query.availability_slo);
  }
}

/// One failure drill per duct of the snapshot's region, `passes` times over.
std::vector<fleet::WhatIfEngine::Job> every_duct_drills(
    const fleet::RegionSnapshot* snap, int passes) {
  std::vector<fleet::WhatIfEngine::Job> jobs;
  for (int pass = 0; pass < passes; ++pass) {
    for (graph::EdgeId e = 0; e < snap->map->graph().edge_count(); ++e) {
      fleet::WhatIfEngine::Job job;
      job.snapshot = snap;
      job.query.kind = fleet::QueryKind::kFailureDrill;
      job.query.duct = e;
      jobs.push_back(job);
    }
  }
  return jobs;
}

// The engine's drills cut copies of one warm base planner; each must answer
// exactly as the cold path (a planner built from scratch per drill), for
// every duct, on repeat, whatever the pool size.
TEST(FleetQuery, WarmDrillMatchesColdForEveryDuct) {
  const auto params = small_fleet(1, 12);
  fleet::Fleet fleet(params);
  fleet.start();
  fleet.join();
  const auto snap = fleet.snapshot(0);
  ASSERT_NE(snap, nullptr);

  const auto jobs = every_duct_drills(snap, 2);
  std::vector<std::string> cold;
  for (const auto& job : jobs) {
    cold.push_back(fleet::run_query(*snap, job.query).canonical());
  }
  for (const int threads : {1, 4}) {
    fleet::WhatIfEngine engine(threads);
    const auto warm = engine.run_batch(jobs);
    ASSERT_EQ(warm.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(warm[i].status, fleet::QueryStatus::kOk);
      EXPECT_EQ(warm[i].canonical(), cold[i])
          << "threads " << threads << " duct " << jobs[i].query.duct;
    }
    EXPECT_EQ(engine.drill_bases_built(), 1) << "threads " << threads;
  }
}

// Four workers whose first jobs all drill one region plan build its base
// once; a second region gets a base of its own, and the tally is exported.
TEST(FleetQuery, ConcurrentFirstDrillsBuildOneBase) {
  const auto params = small_fleet(2, 8);
  fleet::Fleet fleet(params);
  fleet.start();
  fleet.join();
  ASSERT_NE(fleet.snapshot(0), nullptr);
  ASSERT_NE(fleet.snapshot(1), nullptr);

  fleet::WhatIfEngine engine(4);
  const auto first = every_duct_drills(fleet.snapshot(0), 1);
  ASSERT_GE(first.size(), 4u);
  for (const auto& r : engine.run_batch(first)) {
    EXPECT_EQ(r.status, fleet::QueryStatus::kOk);
  }
  EXPECT_EQ(engine.drill_bases_built(), 1);

  auto mixed = every_duct_drills(fleet.snapshot(1), 1);
  const auto again = every_duct_drills(fleet.snapshot(0), 1);
  mixed.insert(mixed.end(), again.begin(), again.end());
  for (const auto& r : engine.run_batch(mixed)) {
    EXPECT_EQ(r.status, fleet::QueryStatus::kOk);
  }
  EXPECT_EQ(engine.drill_bases_built(), 2);

  obs::MetricsRegistry folded;
  engine.fold_into(folded);
#ifndef IRIS_OBS_OFF
  EXPECT_EQ(folded.counters().at("fleet.queries.drill_bases_built"), 2);
  EXPECT_EQ(folded.counters().at("fleet.queries.rejected_invalid"), 0);
#endif
}

// A base outlives nothing it serves: once its fleet is destroyed, the next
// base the engine inserts (for a new fleet) drops it.
TEST(FleetQuery, DeadFleetBaseIsEvictedOnNextInsert) {
  const auto params = small_fleet(1, 8);
  fleet::WhatIfEngine engine(2);
  std::weak_ptr<const core::ProvisionedNetwork> dead_network;
  std::string dead_answer;
  {
    fleet::Fleet old_fleet(params);
    old_fleet.start();
    old_fleet.join();
    const auto snap = old_fleet.snapshot(0);
    ASSERT_NE(snap, nullptr);
    dead_network = snap->network;
    dead_answer = engine.run_batch(every_duct_drills(snap, 1)).front().canonical();
  }
  // The cache entry alone keeps the dead plan alive...
  EXPECT_FALSE(dead_network.expired());

  fleet::Fleet new_fleet(params);
  new_fleet.start();
  new_fleet.join();
  const auto snap = new_fleet.snapshot(0);
  ASSERT_NE(snap, nullptr);
  const auto results = engine.run_batch(every_duct_drills(snap, 1));
  // ...until a new plan's base is inserted, which evicts it.
  EXPECT_TRUE(dead_network.expired());
  EXPECT_EQ(engine.drill_bases_built(), 2);
  // Same config, same world: the rebuilt base answers as the dead one did.
  EXPECT_EQ(results.front().canonical(), dead_answer);
}

/// One SLO probe per (region, oversubscription ceiling), `passes` times over.
std::vector<fleet::WhatIfEngine::Job> slo_probes(const fleet::Fleet& fl,
                                                 int passes) {
  std::vector<fleet::WhatIfEngine::Job> jobs;
  for (int pass = 0; pass < passes; ++pass) {
    for (int region = 0; region < fl.regions(); ++region) {
      for (const double ceiling : {1.25, 1.5, 1.75, 2.0}) {
        fleet::WhatIfEngine::Job job;
        job.snapshot = fl.snapshot(region);
        job.query.kind = fleet::QueryKind::kSloProbe;
        job.query.availability_slo = 0.995;
        job.query.slo_max_tolerance = 1;
        job.query.demand_waves = 2;
        job.query.max_oversubscription = ceiling;
        jobs.push_back(job);
      }
    }
  }
  return jobs;
}

// The engine's probes search one timeline recorded per plan; each must
// answer exactly as the cold path (a timeline recorded per probe), on
// repeat, whatever the pool size -- and concurrent first probes of one plan
// record its timeline once.
TEST(FleetQuery, WarmSloProbeMatchesCold) {
  const auto params = small_fleet(2, 8);
  std::weak_ptr<const core::ProvisionedNetwork> dead_network;
  fleet::WhatIfEngine survivor(2);
  {
    fleet::Fleet fleet(params);
    fleet.start();
    fleet.join();
    ASSERT_NE(fleet.snapshot(0), nullptr);
    ASSERT_NE(fleet.snapshot(1), nullptr);

    const auto jobs = slo_probes(fleet, 2);
    std::vector<std::string> cold;
    for (const auto& job : jobs) {
      cold.push_back(fleet::run_query(*job.snapshot, job.query).canonical());
    }
    for (const int threads : {1, 4}) {
      fleet::WhatIfEngine engine(threads);
      const auto warm = engine.run_batch(jobs);
      ASSERT_EQ(warm.size(), jobs.size());
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(warm[i].status, fleet::QueryStatus::kOk);
        EXPECT_TRUE(warm[i].feasible);
        EXPECT_EQ(warm[i].canonical(), cold[i])
            << "threads " << threads << " job " << i;
      }
      EXPECT_EQ(engine.slo_timelines_recorded(), 2) << "threads " << threads;
      EXPECT_EQ(engine.drill_bases_built(), 0) << "threads " << threads;
      obs::MetricsRegistry folded;
      engine.fold_into(folded);
#ifndef IRIS_OBS_OFF
      EXPECT_EQ(folded.counters().at("fleet.queries.slo_timelines_recorded"),
                2);
#endif
    }
    dead_network = fleet.snapshot(0)->network;
    (void)survivor.run_batch(slo_probes(fleet, 1));
    EXPECT_EQ(survivor.slo_timelines_recorded(), 2);
  }
  // The cache entry alone keeps the dead plan alive...
  EXPECT_FALSE(dead_network.expired());
  fleet::Fleet new_fleet(params);
  new_fleet.start();
  new_fleet.join();
  ASSERT_NE(new_fleet.snapshot(0), nullptr);
  fleet::WhatIfEngine::Job probe = slo_probes(new_fleet, 1).front();
  const auto results = survivor.run_batch({probe});
  // ...until a new plan's entry is inserted, which evicts it.
  EXPECT_TRUE(dead_network.expired());
  EXPECT_EQ(survivor.slo_timelines_recorded(), 3);
  EXPECT_EQ(results.front().canonical(),
            fleet::run_query(*probe.snapshot, probe.query).canonical());
}

// A drill duct outside the region's edge range is a structured rejection
// on any pool size and batch shape, never an exception or an abort -- and
// it is rejected before the engine builds or looks up a base.
TEST(FleetQuery, InvalidDuctIsRejected) {
  const auto params = small_fleet(1, 8);
  fleet::Fleet fleet(params);
  fleet.start();
  fleet.join();
  const auto snap = fleet.snapshot(0);
  ASSERT_NE(snap, nullptr);
  const graph::EdgeId edges = snap->map->graph().edge_count();

  for (const graph::EdgeId bad : {graph::EdgeId{-1}, edges}) {
    fleet::WhatIfQuery q;
    q.kind = fleet::QueryKind::kFailureDrill;
    q.duct = bad;
    const auto direct = fleet::run_query(*snap, q);
    EXPECT_EQ(direct.status, fleet::QueryStatus::kInvalidQuery);
    EXPECT_FALSE(direct.feasible);
  }

  for (const int threads : {1, 4}) {
    fleet::WhatIfEngine engine(threads);
    fleet::WhatIfEngine::Job bad;
    bad.snapshot = snap;
    bad.query.kind = fleet::QueryKind::kFailureDrill;
    bad.query.duct = edges;
    // A lone invalid drill: rejected without any planner work.
    const auto alone = engine.run_batch({bad});
    ASSERT_EQ(alone.size(), 1u);
    EXPECT_EQ(alone[0].status, fleet::QueryStatus::kInvalidQuery);
    EXPECT_FALSE(alone[0].feasible);
    EXPECT_EQ(engine.drill_bases_built(), 0);

    // Invalid drills mixed into a larger batch, valid ones still answered.
    fleet::WhatIfEngine::Job negative = bad;
    negative.query.duct = -1;
    fleet::WhatIfEngine::Job good = bad;
    good.query.duct = 0;
    const std::vector<fleet::WhatIfEngine::Job> jobs{negative, good, bad,
                                                     good,     negative, bad};
    const auto results = engine.run_batch(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const bool valid = jobs[i].query.duct == 0;
      EXPECT_EQ(results[i].status, valid ? fleet::QueryStatus::kOk
                                         : fleet::QueryStatus::kInvalidQuery)
          << "threads " << threads << " i=" << i;
      EXPECT_EQ(results[i].feasible, valid);
    }
    EXPECT_EQ(engine.rejected_invalid(), 5) << "threads " << threads;
    EXPECT_EQ(engine.total(), 2);
  }
}

// An SLO probe the SLO search would reject is answered kInvalidQuery before
// any planner work, like an invalid drill, and never takes down the batch.
TEST(FleetQuery, InvalidSloProbeIsRejected) {
  const auto params = small_fleet(1, 8);
  fleet::Fleet fleet(params);
  fleet.start();
  fleet.join();
  const auto snap = fleet.snapshot(0);
  ASSERT_NE(snap, nullptr);

  fleet::WhatIfQuery probe;
  probe.kind = fleet::QueryKind::kSloProbe;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<fleet::WhatIfQuery> bad(5, probe);
  bad[0].demand_waves = 0;
  bad[1].availability_slo = nan;
  bad[2].availability_slo = 2.0;
  bad[3].max_oversubscription = nan;
  bad[4].slo_max_tolerance = -1;
  for (std::size_t i = 0; i < bad.size(); ++i) {
    const auto direct = fleet::run_query(*snap, bad[i]);
    EXPECT_EQ(direct.status, fleet::QueryStatus::kInvalidQuery) << "i=" << i;
    EXPECT_FALSE(direct.feasible);
  }

  for (const int threads : {1, 4}) {
    fleet::WhatIfEngine engine(threads);
    fleet::WhatIfEngine::Job invalid;
    invalid.snapshot = snap;
    invalid.query = bad[0];
    fleet::WhatIfEngine::Job nan_slo = invalid;
    nan_slo.query = bad[1];
    fleet::WhatIfEngine::Job drill = invalid;
    drill.query = fleet::WhatIfQuery{};
    drill.query.kind = fleet::QueryKind::kFailureDrill;
    drill.query.duct = 0;
    // An invalid probe between two drills: both drills still answered.
    const std::vector<fleet::WhatIfEngine::Job> jobs{drill, invalid, drill,
                                                     nan_slo};
    const auto results = engine.run_batch(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const bool valid =
          jobs[i].query.kind == fleet::QueryKind::kFailureDrill;
      EXPECT_EQ(results[i].status, valid ? fleet::QueryStatus::kOk
                                         : fleet::QueryStatus::kInvalidQuery)
          << "threads " << threads << " i=" << i;
      EXPECT_EQ(results[i].feasible, valid);
    }
    EXPECT_EQ(results[0].fingerprint(), results[2].fingerprint());
    EXPECT_EQ(engine.rejected_invalid(), 2) << "threads " << threads;
    EXPECT_EQ(engine.total(), 2);
  }
}

// A growth candidate at a non-finite position would plant attach ducts of
// NaN or infinite length; it is answered kInvalidQuery before any planner
// work, alone or inside a batch.
TEST(FleetQuery, NonFiniteGrowthPositionIsRejected) {
  const auto params = small_fleet(1, 8);
  fleet::Fleet fleet(params);
  fleet.start();
  fleet.join();
  const auto snap = fleet.snapshot(0);
  ASSERT_NE(snap, nullptr);

  fleet::WhatIfQuery growth;
  growth.kind = fleet::QueryKind::kGrowth;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<fleet::WhatIfQuery> bad(4, growth);
  bad[0].growth.position = {nan, 1.0};
  bad[1].growth.position = {1.0, nan};
  bad[2].growth.position = {inf, 1.0};
  bad[3].growth.position = {1.0, -inf};
  for (std::size_t i = 0; i < bad.size(); ++i) {
    const auto direct = fleet::run_query(*snap, bad[i]);
    EXPECT_EQ(direct.status, fleet::QueryStatus::kInvalidQuery) << "i=" << i;
    EXPECT_FALSE(direct.feasible);
  }

  fleet::WhatIfEngine engine(2);
  fleet::WhatIfEngine::Job valid;
  valid.snapshot = snap;
  valid.query = growth;
  fleet::WhatIfEngine::Job invalid = valid;
  invalid.query = bad[0];
  const auto results = engine.run_batch({valid, invalid, valid});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].status, fleet::QueryStatus::kOk);
  EXPECT_EQ(results[1].status, fleet::QueryStatus::kInvalidQuery);
  EXPECT_EQ(results[2].status, fleet::QueryStatus::kOk);
  EXPECT_EQ(results[0].fingerprint(), results[2].fingerprint());
  EXPECT_EQ(engine.rejected_invalid(), 1);
}

// A query that throws inside a worker thread surfaces as an exception from
// run_batch on the calling thread, after every worker joined.
TEST(FleetQuery, WorkerExceptionRethrownAfterJoin) {
  const auto params = small_fleet(1, 8);
  fleet::Fleet fleet(params);
  fleet.start();
  fleet.join();
  const auto snap = fleet.snapshot(0);
  ASSERT_NE(snap, nullptr);

  fleet::WhatIfEngine::Job drill;
  drill.snapshot = snap;
  drill.query.kind = fleet::QueryKind::kFailureDrill;
  fleet::WhatIfEngine::Job broken;
  broken.snapshot = snap;
  broken.query.kind = fleet::QueryKind::kGrowth;
  broken.query.growth.capacity_fibers = 0;  // add_dc rejects a 0-fiber DC
  for (const int threads : {1, 2, 4}) {
    fleet::WhatIfEngine engine(threads);
    EXPECT_THROW((void)engine.run_batch({drill, broken, drill, broken}),
                 std::invalid_argument)
        << "threads " << threads;
  }
}

// A job whose snapshot is null (region not yet published) degrades to an
// infeasible result tagged region -1 instead of crashing a worker.
TEST(FleetQuery, NullSnapshotYieldsInfeasible) {
  fleet::WhatIfEngine engine(2);
  std::vector<fleet::WhatIfEngine::Job> jobs(3);
  const auto results = engine.run_batch(jobs);
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) {
    EXPECT_EQ(r.region, -1);
    EXPECT_FALSE(r.feasible);
  }
}

// ---------------------------------------------------------------------------
// Config derivation and metric merging.
TEST(FleetShard, DerivedConfigsAreDecorrelated) {
  const auto params = small_fleet(4, 10);
  const auto a = fleet::derive_region_config(params, 0);
  const auto b = fleet::derive_region_config(params, 3);
  EXPECT_NE(a.region_seed, b.region_seed);
  EXPECT_NE(a.faults.seed, b.faults.seed);
  // Derivation is pure: same inputs, same config.
  EXPECT_EQ(fleet::derive_region_config(params, 3).region_seed, b.region_seed);
}

TEST(FleetMetrics, MergeIsDeterministicAndComplete) {
  const auto params = small_fleet(2, 10);
  fleet::Fleet fleet(params);
  fleet.start();
  fleet.join();

  obs::MetricsRegistry merged_a;
  obs::MetricsRegistry merged_b;
  fleet.merge_metrics(merged_a);
  fleet.merge_metrics(merged_b);
  const auto counters = merged_a.counters();
  EXPECT_EQ(counters, merged_b.counters());
#ifndef IRIS_OBS_OFF
  const auto it = counters.find("fleet.snapshots.published");
  ASSERT_NE(it, counters.end());
  EXPECT_EQ(it->second, 2 * 10);  // every region published every tick
#endif
}

// ---------------------------------------------------------------------------
// Crash containment (ISSUE 9): supervised shards recover in place from their
// journals and the recovered traces stay bit-identical across fleet sizes.
TEST(FleetSupervisor, RecoversAndMatchesSoloBitIdentical) {
  std::string region0_trace;
  for (const int regions : {1, 2, 8}) {
    auto params = small_fleet(regions, 16);
    params.base.supervisor.crash_every_cmds = 40;
    fleet::Fleet fleet(params);
    fleet.start();
    fleet.join();
    EXPECT_TRUE(fleet.ok());
    EXPECT_GT(fleet.supervisor().total_recoveries(), 0) << "M=" << regions;
    EXPECT_EQ(fleet.supervisor().quarantined_regions(), 0);
    for (int r = 0; r < regions; ++r) {
      const auto solo = fleet::run_region_solo(params, r);
      const auto& in_fleet = fleet.shard(r).result();
      EXPECT_EQ(in_fleet.trace, solo.trace) << "M=" << regions << " r=" << r;
      EXPECT_TRUE(in_fleet.audit_clean) << "M=" << regions << " r=" << r;
    }
    if (region0_trace.empty()) {
      region0_trace = fleet.shard(0).result().trace;
    } else {
      EXPECT_EQ(fleet.shard(0).result().trace, region0_trace)
          << "recovered region 0 trace changed with fleet size " << regions;
    }
  }
}

// Supervised recovery over the async command plane: shards run batched
// pipelined applies, the supervisor kills them on schedule, and recovered
// fleet traces still match the solo run bit-for-bit -- the async schedule
// changes the virtual clock, not the recoverable state.
TEST(FleetSupervisor, RecoversOverAsyncCommandPlane) {
  std::string region0_trace;
  for (const int regions : {1, 2}) {
    auto params = small_fleet(regions, 16);
    params.base.command_plane = control::CommandPlaneMode::kAsync;
    params.base.supervisor.crash_every_cmds = 40;
    fleet::Fleet fleet(params);
    fleet.start();
    fleet.join();
    EXPECT_TRUE(fleet.ok());
    EXPECT_GT(fleet.supervisor().total_recoveries(), 0) << "M=" << regions;
    EXPECT_EQ(fleet.supervisor().quarantined_regions(), 0);
    for (int r = 0; r < regions; ++r) {
      const auto solo = fleet::run_region_solo(params, r);
      const auto& in_fleet = fleet.shard(r).result();
      EXPECT_EQ(in_fleet.trace, solo.trace) << "M=" << regions << " r=" << r;
      EXPECT_TRUE(in_fleet.audit_clean) << "M=" << regions << " r=" << r;
    }
    if (region0_trace.empty()) {
      region0_trace = fleet.shard(0).result().trace;
    } else {
      EXPECT_EQ(fleet.shard(0).result().trace, region0_trace)
          << "async region 0 trace changed with fleet size " << regions;
    }
  }
}

// Repeated crashes inside the window exhaust the budget: the region lands in
// kQuarantined, the run is abandoned (partial result, no process abort) and
// the fleet-level view reports it. The second crash fires on the first
// command of the recovery from the first.
TEST(FleetSupervisor, QuarantineAfterRepeatedCrashes) {
  auto params = small_fleet(1, 16);
  params.base.supervisor.crash_every_cmds = 40;
  params.base.supervisor.arm_during_recovery = 1;
  params.base.supervisor.quarantine_crashes = 2;
  params.base.supervisor.crash_window_s = 1000.0;  // every crash counts
  fleet::Fleet fleet(params);
  fleet.start();
  fleet.join();
  EXPECT_TRUE(fleet.ok());  // quarantine is contained, not an escaped error
  EXPECT_EQ(fleet.shard(0).health(), fleet::RegionHealth::kQuarantined);
  EXPECT_EQ(fleet.shard(0).result().health,
            fleet::RegionHealth::kQuarantined);
  EXPECT_EQ(fleet.supervisor().quarantined_regions(), 1);
  EXPECT_GE(fleet.shard(0).slot().crashes(), 2);
  // The abandoned loop stopped early: fewer sample attempts than requested.
  EXPECT_LT(fleet.shard(0).result().loop.samples, 16);
}

// A crash firing during journal replay itself (the arm_during_recovery test
// hook) retries recovery after its own backoff and still converges.
TEST(FleetSupervisor, CrashDuringRecoveryRetries) {
  auto params = small_fleet(1, 16);
  params.base.supervisor.crash_every_cmds = 40;
  params.base.supervisor.arm_during_recovery = 20;  // one-shot
  fleet::Fleet fleet(params);
  fleet.start();
  fleet.join();
  EXPECT_TRUE(fleet.ok());
  const auto& slot = fleet.shard(0).slot();
  EXPECT_GE(slot.recovery_retries(), 1);
  EXPECT_GT(slot.recoveries(), 0);
  EXPECT_TRUE(fleet.shard(0).result().audit_clean);
  EXPECT_EQ(fleet.supervisor().quarantined_regions(), 0);
}

// ---------------------------------------------------------------------------
// Graceful what-if degradation: health-aware jobs (Job::shard set) route on
// the region's live health and tag answers with staleness.

// A region stuck in its post-recovery hold serves the last-good snapshot:
// queries succeed but come back kStale with a nonzero staleness, and the
// shard's registry mirrors the lag in the fleet.snapshots.age_ticks gauge.
TEST(FleetDegraded, StaleSnapshotServedWithStaleness) {
  auto params = small_fleet(1, 30);
  // The first apply (and so the first crash) waits out the 3 s hysteresis:
  // ticks 0-2 publish cleanly, then the region crashes and holds forever.
  params.base.supervisor.crash_every_cmds = 60;
  params.base.supervisor.recover_hold_ticks = 1LL << 40;
  fleet::Fleet fleet(params);
  fleet.start();
  fleet.join();
  ASSERT_TRUE(fleet.ok());
  const auto& shard = fleet.shard(0);
  ASSERT_GT(shard.slot().crashes(), 0) << "schedule never fired; tune knobs";
  ASSERT_GT(shard.store().published(), 0);
  // Held forever after the first recovery: the run ends still recovering,
  // with the head several ticks past the last published snapshot.
  EXPECT_EQ(shard.health(), fleet::RegionHealth::kRecovering);
  EXPECT_GT(shard.store().staleness_ticks(), 0);
#ifndef IRIS_OBS_OFF
  EXPECT_GT(shard.metrics().gauge("fleet.snapshots.age_ticks"), 0.0);
#endif

  fleet::WhatIfEngine engine(2);
  fleet::WhatIfEngine::Job job;
  job.shard = &shard;  // resolve the snapshot from the shard, health-aware
  job.query.kind = fleet::QueryKind::kFailureDrill;
  job.query.duct = 0;
  const auto results = engine.run_batch({job});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, fleet::QueryStatus::kStale);
  EXPECT_TRUE(results[0].feasible);  // a real answer, just tagged stale
  EXPECT_GT(results[0].staleness_ticks, 0);
  EXPECT_EQ(engine.stale_served(), 1);
}

// Quarantined regions reject queries with a structured status instead of
// serving arbitrarily stale state.
TEST(FleetDegraded, QuarantinedRegionRejectsQueries) {
  auto params = small_fleet(1, 16);
  params.base.supervisor.crash_every_cmds = 40;
  params.base.supervisor.arm_during_recovery = 1;  // crash again, recovering
  params.base.supervisor.quarantine_crashes = 2;
  params.base.supervisor.crash_window_s = 1000.0;
  fleet::Fleet fleet(params);
  fleet.start();
  fleet.join();
  ASSERT_EQ(fleet.shard(0).health(), fleet::RegionHealth::kQuarantined);

  fleet::WhatIfEngine engine(2);
  fleet::WhatIfEngine::Job job;
  job.shard = &fleet.shard(0);
  job.query.kind = fleet::QueryKind::kFailureDrill;
  const auto results = engine.run_batch({job});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, fleet::QueryStatus::kRegionQuarantined);
  EXPECT_FALSE(results[0].feasible);
  EXPECT_EQ(engine.rejected_quarantined(), 1);
}

// A query whose deadline budget elapsed before its turn is rejected with a
// structured status, never silently dropped or run anyway.
TEST(FleetDegraded, DeadlineExpiryStructuredRejection) {
  const auto params = small_fleet(1, 8);
  fleet::Fleet fleet(params);
  fleet.start();
  fleet.join();
  const auto snap = fleet.snapshot(0);
  ASSERT_NE(snap, nullptr);

  fleet::WhatIfEngine engine(2);
  fleet::WhatIfEngine::Job ok_job;
  ok_job.snapshot = snap;
  ok_job.query.kind = fleet::QueryKind::kFailureDrill;
  fleet::WhatIfEngine::Job doomed = ok_job;
  doomed.query.deadline_ms = 1e-9;  // expires before any worker's turn
  const auto results = engine.run_batch({ok_job, doomed});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status, fleet::QueryStatus::kOk);
  EXPECT_TRUE(results[0].feasible);
  EXPECT_EQ(results[1].status, fleet::QueryStatus::kDeadlineExpired);
  EXPECT_FALSE(results[1].feasible);
  EXPECT_EQ(engine.deadline_expired(), 1);
}

// ---------------------------------------------------------------------------
// Shard-thread error containment: an exception escaping an UNSUPERVISED
// shard surfaces as structured per-shard status, never a process abort, and
// wait_ready() does not hang on the dead region.
TEST(FleetEngine, JoinSurfacesShardErrors) {
  auto params = small_fleet(1, 8);
  params.base.loop.duration_s = -1.0;  // run_closed_loop rejects this
  fleet::Fleet fleet(params);
  fleet.start();
  fleet.wait_ready();  // returns because the shard thread finished (errored)
  fleet.join();
  EXPECT_FALSE(fleet.ok());
  const auto errors = fleet.shard_errors();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].region, 0);
  EXPECT_FALSE(errors[0].message.empty());
}

// Staleness bookkeeping on the store itself: head declarations without a
// matching publish open a lag window; publishing closes it.
TEST(FleetSnapshot, StalenessTracksHead) {
  fleet::SnapshotStore store;
  store.begin_tick(0);
  auto snap = std::make_unique<fleet::RegionSnapshot>();
  snap->tick = 0;
  store.publish(std::move(snap));
  EXPECT_EQ(store.staleness_ticks(), 0);  // healthy cadence: no lag
  store.begin_tick(1);
  EXPECT_EQ(store.staleness_ticks(), 0);  // tick 1 still in flight
  store.begin_tick(2);
  EXPECT_EQ(store.staleness_ticks(), 1);  // tick 1 never published
  store.begin_tick(3);
  EXPECT_EQ(store.staleness_ticks(), 2);
  auto next = std::make_unique<fleet::RegionSnapshot>();
  next->tick = 3;
  store.publish(std::move(next));
  EXPECT_EQ(store.staleness_ticks(), 0);
}

TEST(FleetSnapshot, StorePinsLatest) {
  fleet::SnapshotStore store;
  EXPECT_EQ(store.current(), nullptr);
  EXPECT_EQ(store.published(), 0);
  auto snap = std::make_unique<fleet::RegionSnapshot>();
  snap->tick = 5;
  store.publish(std::move(snap));
  const fleet::RegionSnapshot* first = store.current();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->tick, 5);
  EXPECT_EQ(store.published(), 1);
  auto next = std::make_unique<fleet::RegionSnapshot>();
  next->tick = 6;
  store.publish(std::move(next));
  EXPECT_EQ(store.current()->tick, 6);
  // The superseded snapshot stays pinned by the arena.
  EXPECT_EQ(first->tick, 5);
}

/// A snapshot whose books a weak_ptr can watch: the books die with it.
std::unique_ptr<fleet::RegionSnapshot> watched_snapshot(
    long long tick, std::vector<std::weak_ptr<const void>>& watch) {
  auto snap = std::make_unique<fleet::RegionSnapshot>();
  snap->tick = tick;
  snap->books = std::make_shared<const control::ControllerCheckpoint>();
  watch.emplace_back(snap->books);
  return snap;
}

long long alive(const std::vector<std::weak_ptr<const void>>& watch) {
  long long n = 0;
  for (const auto& w : watch) n += w.expired() ? 0 : 1;
  return n;
}

// Until a reader pins a snapshot, a publish frees the one it supersedes:
// a store nobody read holds one snapshot however long the loop runs.
TEST(FleetSnapshot, UnpinnedStoreHoldsOneSnapshot) {
  std::vector<std::weak_ptr<const void>> watch;
  {
    fleet::SnapshotStore store;
    for (long long t = 0; t < 100; ++t) {
      store.publish(watched_snapshot(t, watch));
      EXPECT_EQ(alive(watch), 1) << "tick " << t;
    }
    EXPECT_EQ(store.published(), 100);
    EXPECT_FALSE(watch.back().expired());
  }
  EXPECT_EQ(alive(watch), 0);
}

// A pointer pinned before 100 more publishes stays valid, and from the
// first pin on the store keeps every snapshot. A reader thread pins while
// the writer publishes, so the sanitizers see the handshake.
TEST(FleetSnapshot, PinnedPointerOutlivesLaterPublishes) {
  std::vector<std::weak_ptr<const void>> watch;
  fleet::SnapshotStore store;
  for (long long t = 0; t < 10; ++t) store.publish(watched_snapshot(t, watch));
  const fleet::RegionSnapshot* pinned = store.current();
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->tick, 9);
  for (long long t = 10; t < 110; ++t) store.publish(watched_snapshot(t, watch));
  EXPECT_EQ(pinned->tick, 9);
  EXPECT_EQ(store.current()->tick, 109);
  EXPECT_EQ(alive(watch), 101);  // tick 9 onwards

  fleet::SnapshotStore raced;
  std::vector<std::weak_ptr<const void>> raced_watch;
  raced.publish(watched_snapshot(0, raced_watch));
  std::atomic<bool> stop{false};
  long long seen = 0;
  std::thread reader([&] {
    const fleet::RegionSnapshot* first = raced.current();
    while (!stop.load(std::memory_order_acquire)) {
      seen = std::max(seen, raced.current()->tick);
    }
    seen = std::max(seen, first->tick);  // still readable after every publish
  });
  for (long long t = 1; t <= 200; ++t) {
    raced.publish(watched_snapshot(t, raced_watch));
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_LE(seen, 200);
  EXPECT_EQ(raced.current()->tick, 200);
}

}  // namespace
