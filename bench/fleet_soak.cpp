// Fleet soak: the region-fleet subsystem's acceptance gate.
//
// Phase 1 runs M independently seeded regions' closed loops concurrently
// with no query load and times the loops. Phase 2 runs a fresh fleet from
// the same parameters while a WhatIfEngine hammers the published snapshots
// with failure drills, growth studies and SLO probes, and times both the
// loops and the queries. The gates:
//
//  * bit-identity: every region's canonical trace fingerprint must be
//    identical across phase 1, phase 2 and a solo single-region run of the
//    same seed -- queries never perturb the hot loops;
//  * isolation: mean loop tick latency under full query load must stay
//    within `latency_gate` (default 2x) of the query-free run;
//  * service: what-if QPS and fleet tick throughput are reported (the
//    ROADMAP's "planner/controller as a service" number).
//
// With crash_every_cmds > 0 the soak doubles as the crash-containment gate
// (ISSUE 9): every region runs supervised, its controller dying on a fixed
// command schedule and recovering from its journal mid-trace. The identity
// gate then proves recovered traces are bit-identical across fleet sizes
// and query load, and more gates demand a clean post-run device audit in
// every region, at least one recovery fleet-wide, and liveness: every
// region reconfigures at least once and crashes on fewer than half its
// ticks.
//
// Keys: samples (closed-loop samples per region), queries (what-if queries
// per batch), query_threads (engine pool size), chaos (scripted duct-chaos
// period, 0 = off), crash_every_cmds (supervised crash schedule, 0 = off),
// latency_gate (allowed tick-latency ratio under load).
// Malformed or unknown arguments exit 2. --metrics exports the merged
// fleet registry (all regions folded in region order, plus fleet.queries.*).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "fleet/engine.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace iris;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A deterministic mixed batch of queries against the fleet's current
/// snapshots: mostly drills, some growth studies, a few SLO probes.
std::vector<fleet::WhatIfEngine::Job> make_batch(const fleet::Fleet& fleet,
                                                 int queries, long long round) {
  std::vector<fleet::WhatIfEngine::Job> jobs;
  jobs.reserve(static_cast<std::size_t>(queries));
  for (int q = 0; q < queries; ++q) {
    fleet::WhatIfEngine::Job job;
    const int region = q % fleet.regions();
    job.snapshot = fleet.snapshot(region);
    job.shard = &fleet.shard(region);  // health-aware routing + staleness
    if (job.snapshot == nullptr) continue;  // region has not published yet
    const long long salt = round * queries + q;
    if (q % 10 == 9) {
      job.query.kind = fleet::QueryKind::kSloProbe;
      job.query.availability_slo = 0.995;
      job.query.slo_max_tolerance = 1;
      job.query.demand_waves = 2;
      job.query.max_oversubscription = 2.0;
    } else if (q % 10 >= 7) {
      job.query.kind = fleet::QueryKind::kGrowth;
      job.query.growth.position = {12.0 + static_cast<double>(salt % 5) * 4.0,
                                   18.0 + static_cast<double>(salt % 3) * 6.0};
      job.query.growth.capacity_fibers = 8;
      job.query.growth.name = "dc-whatif";
    } else {
      job.query.kind = fleet::QueryKind::kFailureDrill;
      const auto ducts = static_cast<long long>(
          job.snapshot->map->graph().edge_count());
      job.query.duct = static_cast<graph::EdgeId>(salt % ducts);
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

}  // namespace

int main(int argc, char** argv) {
  int regions = 2;
  std::uint64_t seed = 7;
  int samples = 4000;
  int queries = 16;
  int query_threads = 4;
  long long chaos = 40;
  long long crash_every_cmds = 0;
  double latency_gate = 2.0;
  obs::Args args("bench_fleet_soak");
  args.positional("regions", regions, obs::in(1, 64))
      .positional("seed", seed)
      .option("samples", samples, obs::at_least(1))
      .option("queries", queries, obs::at_least(1))
      .option("query_threads", query_threads, obs::in(1, 256))
      .option("chaos", chaos, obs::at_least(0))
      .option("crash_every_cmds", crash_every_cmds, obs::at_least(0))
      .option("latency_gate", latency_gate, obs::above(0.0))
      .metrics();
  if (const int rc = args.parse(argc, argv)) return rc;

  fleet::FleetParams params;
  params.regions = regions;
  params.base_seed = seed;
  params.base.loop.duration_s = static_cast<double>(samples);
  params.base.loop.sample_interval_s = 1.0;
  params.base.chaos_duct_period = chaos;
  params.base.supervisor.crash_every_cmds = crash_every_cmds;

  std::printf(
      "# fleet soak: %d regions x %d samples, seed %llu, chaos %lld, "
      "crash_every_cmds %lld\n",
      regions, samples, static_cast<unsigned long long>(seed), chaos,
      crash_every_cmds);

  const auto report_shard_errors = [](const fleet::Fleet& fleet,
                                      const char* phase) {
    if (fleet.ok()) return false;
    for (const auto& err : fleet.shard_errors()) {
      std::fprintf(stderr, "fleet soak: %s shard %d died: %s\n", phase,
                   err.region, err.message.c_str());
    }
    return true;
  };

  // ---- phase 1: query-free fleet ----
  fleet::Fleet quiet(params);
  const double t0 = now_s();
  quiet.start();
  quiet.join();
  const double quiet_s = now_s() - t0;
  if (report_shard_errors(quiet, "quiet")) return 1;
  const long long total_ticks =
      static_cast<long long>(regions) * static_cast<long long>(samples);
  const double quiet_tick_us = quiet_s * 1e6 / static_cast<double>(total_ticks);

  // ---- phase 2: fresh fleet under sustained query load ----
  fleet::Fleet loaded(params);
  fleet::WhatIfEngine engine(query_threads);
  const double t1 = now_s();
  loaded.start();
  loaded.wait_ready();
  // The query driver runs beside the loops on its own thread so the loaded
  // wall time below measures the loops alone; at least one round always
  // runs even when the loops outrun the first batch. Termination rides a
  // done flag set after join() rather than published-snapshot counts, which
  // undercount when a supervised region holds publishes after a recovery.
  std::atomic<bool> loops_done{false};
  long long rounds = 0;
  double query_busy_s = 0.0;
  bool bad_drill = false;
  std::thread driver([&] {
    do {
      const auto batch = make_batch(loaded, queries, rounds);
      const double q0 = now_s();
      const auto results = engine.run_batch(batch);
      query_busy_s += now_s() - q0;
      ++rounds;
      for (const auto& res : results) {
        // Only answers that actually ran can be judged: structured
        // rejections (quarantine, deadline, no snapshot) are not drills
        // gone wrong.
        if (res.region >= 0 && !res.feasible &&
            res.kind == fleet::QueryKind::kFailureDrill &&
            (res.status == fleet::QueryStatus::kOk ||
             res.status == fleet::QueryStatus::kStale)) {
          bad_drill = true;
        }
      }
    } while (!loops_done.load(std::memory_order_acquire));
  });
  loaded.join();
  const double loaded_s = now_s() - t1;
  loops_done.store(true, std::memory_order_release);
  driver.join();
  if (report_shard_errors(loaded, "loaded")) return 1;
  if (bad_drill) {
    std::fprintf(stderr, "fleet soak: infeasible drill result\n");
    return 1;
  }
  const double loaded_tick_us =
      loaded_s * 1e6 / static_cast<double>(total_ticks);

  // ---- bit-identity: phase 1 == phase 2 == solo, per region ----
  bool identical = true;
  for (int r = 0; r < regions; ++r) {
    const auto solo = fleet::run_region_solo(params, r);
    const auto& f1 = quiet.shard(r).result();
    const auto& f2 = loaded.shard(r).result();
    const bool ok = f1.fingerprint == solo.fingerprint &&
                    f2.fingerprint == solo.fingerprint &&
                    f1.trace == solo.trace && f2.trace == solo.trace;
    identical = identical && ok;
    std::printf("region %d fingerprint 0x%016llx identical %s\n", r,
                static_cast<unsigned long long>(solo.fingerprint),
                ok ? "yes" : "NO");
  }

  const double qps = query_busy_s > 0.0
                         ? static_cast<double>(engine.total()) / query_busy_s
                         : 0.0;
  const double ratio = quiet_tick_us > 0.0 ? loaded_tick_us / quiet_tick_us
                                           : 0.0;
  std::printf("fleet throughput %.0f ticks/s quiet, %.0f ticks/s loaded\n",
              static_cast<double>(total_ticks) / quiet_s,
              static_cast<double>(total_ticks) / loaded_s);
  std::printf("loop tick latency %.1f us -> %.1f us under load (x%.2f, gate x%.2f)\n",
              quiet_tick_us, loaded_tick_us, ratio, latency_gate);
  std::printf("what-if QPS %.1f (%lld queries, %lld rounds, %d threads)\n",
              qps, engine.total(), rounds, query_threads);

  if (args.metrics_requested()) {
    obs::MetricsRegistry merged;
    loaded.merge_metrics(merged);
    engine.fold_into(merged);
    const obs::ScopedRegistry bind(merged);
    if (bench::finish(args) != 0) return 1;
  }

  int failures = 0;
  if (crash_every_cmds > 0) {
    // Crash-containment gates: every region must end with a clean device
    // audit (recovery converged journaled intent with live hardware), no
    // region may be quarantined, and the schedule must have actually
    // exercised recovery somewhere in the fleet.
    std::fputs(loaded.supervisor().trace().c_str(), stdout);
    bool audits_clean = true;
    for (int r = 0; r < regions; ++r) {
      const bool clean =
          quiet.shard(r).result().audit_clean &&
          loaded.shard(r).result().audit_clean;
      std::printf("region %d audit %s\n", r, clean ? "clean" : "DIRTY");
      audits_clean = audits_clean && clean;
    }
    if (!audits_clean) {
      std::fprintf(stderr, "fleet soak FAILED: dirty post-recovery audit\n");
      ++failures;
    }
    if (loaded.supervisor().quarantined_regions() > 0) {
      std::fprintf(stderr, "fleet soak FAILED: region quarantined\n");
      ++failures;
    }
    // Liveness: a crash schedule must not livelock a region. Each one
    // reconfigures at least once and crashes on fewer than half its ticks.
    bool live = true;
    for (int r = 0; r < regions; ++r) {
      const int reconfigs = loaded.shard(r).result().loop.reconfigurations;
      const long long crashes = loaded.shard(r).slot().crashes();
      const bool ok = reconfigs > 0 && 2 * crashes < samples;
      std::printf("region %d liveness %s: %d reconfigurations, %lld crashes "
                  "in %d ticks\n",
                  r, ok ? "ok" : "FAILED", reconfigs, crashes, samples);
      live = live && ok;
    }
    if (!live) {
      std::fprintf(stderr,
                   "fleet soak FAILED: a region never reconfigured or "
                   "crashed on half its ticks\n");
      ++failures;
    }
    if (loaded.supervisor().total_recoveries() == 0) {
      std::fprintf(stderr,
                   "fleet soak FAILED: crash schedule armed but no "
                   "recoveries happened\n");
      ++failures;
    }
    std::printf("supervisor crashes %lld recoveries %lld (fleet-wide)\n",
                loaded.supervisor().total_crashes(),
                loaded.supervisor().total_recoveries());
  }
  if (!identical) {
    std::fprintf(stderr, "fleet soak FAILED: traces diverged from solo runs\n");
    ++failures;
  }
  if (engine.total() == 0) {
    std::fprintf(stderr, "fleet soak FAILED: no queries executed\n");
    ++failures;
  }
  if (crash_every_cmds == 0 && ratio > latency_gate) {
    // The isolation gate measures snapshot-publishing contention; under
    // crash injection the ratio is dominated by recovery churn, so the
    // crash soak relies on the audit/recovery/identity gates instead.
    std::fprintf(stderr,
                 "fleet soak FAILED: tick latency x%.2f exceeds gate x%.2f\n",
                 ratio, latency_gate);
    ++failures;
  }
  if (failures > 0) return 1;
  std::printf("fleet soak OK\n");
  return 0;
}
