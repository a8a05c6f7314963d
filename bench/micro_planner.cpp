// Microbenchmarks for the planner's building blocks, plus the paper's
// "executes within a few minutes for even large region sizes with 20 DCs"
// runtime claim (SS4.3), and the serial-vs-parallel scenario-sweep speedup
// table (run before the google-benchmark timings).
//
// `--replan` switches to the incremental-replan mode: a 20-DC / tolerance-2
// single-duct cut and repair, timing the full from-scratch sweep against the
// incremental replan, asserting bit-identical plans and a >= 10x speedup.
// `--metrics[=path]` dumps the metrics registry on exit (either mode).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "bench_util.hpp"
#include "core/plan_diff.hpp"
#include "core/replan.hpp"
#include "graph/failures.hpp"
#include "graph/hose.hpp"
#include "graph/shortest_path.hpp"

namespace {

using namespace iris;

double timed_ms(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Serial-vs-parallel provision() at failure tolerance 2, asserting the
/// parallel sweep reproduces the serial provisioning bit for bit.
void print_parallel_speedup() {
  const auto map = bench::make_eval_region(11, 10, 8);
  auto params = bench::eval_params(2, 40);

  params.threads = 1;
  core::provision(map, params);  // warm-up: caches, allocator, page-ins
  core::ProvisionedNetwork serial;
  const double serial_ms =
      timed_ms([&] { serial = core::provision(map, params); });

  std::printf(
      "# provision() scenario-sweep speedup (10 DCs, tolerance 2, %lld "
      "scenarios, %d hardware threads)\n",
      serial.scenarios_evaluated, graph::resolve_thread_count(0));
  std::printf("%8s %12s %10s %10s\n", "threads", "ms", "speedup", "identical");
  std::printf("%8d %12.1f %10.2f %10s\n", 1, serial_ms, 1.0, "ref");

  std::vector<int> thread_counts;
  for (const int t : {2, 4, graph::resolve_thread_count(0)}) {
    if (t > 1 && std::find(thread_counts.begin(), thread_counts.end(), t) ==
                     thread_counts.end()) {
      thread_counts.push_back(t);
    }
  }
  for (const int threads : thread_counts) {
    params.threads = threads;
    core::ProvisionedNetwork parallel;
    const double ms = timed_ms([&] { parallel = core::provision(map, params); });
    const bool identical =
        parallel.edge_capacity_wavelengths == serial.edge_capacity_wavelengths &&
        parallel.base_fibers == serial.base_fibers &&
        parallel.scenarios_evaluated == serial.scenarios_evaluated &&
        parallel.pair_paths_skipped_unreachable ==
            serial.pair_paths_skipped_unreachable &&
        parallel.pair_paths_beyond_sla == serial.pair_paths_beyond_sla;
    std::printf("%8d %12.1f %10.2f %10s\n", threads, ms, serial_ms / ms,
                identical ? "yes" : "NO");
    if (!identical) {
      std::fprintf(stderr,
                   "FATAL: parallel sweep (threads=%d) diverged from serial "
                   "provisioning\n",
                   threads);
      std::abort();
    }
  }
}

void BM_Dijkstra(benchmark::State& state) {
  const auto map = bench::make_eval_region(11, static_cast<int>(state.range(0)), 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::dijkstra(map.graph(), map.dcs()[0]));
  }
}
BENCHMARK(BM_Dijkstra)->Arg(5)->Arg(10)->Arg(20);

void BM_HoseEdgeLoad(benchmark::State& state) {
  std::vector<graph::OrientedPair> pairs;
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j) pairs.push_back({i, n + j});
    }
  }
  const auto cap = [](graph::NodeId) -> graph::Capacity { return 320; };
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::hose_edge_load(pairs, cap));
  }
}
BENCHMARK(BM_HoseEdgeLoad)->Arg(5)->Arg(10)->Arg(20);

void BM_FailureEnumeration(benchmark::State& state) {
  const auto map = bench::make_eval_region(11, 10, 8);
  for (auto _ : state) {
    long long count = 0;
    core::planner_scenarios(map, bench::eval_params(2, 40))
        .for_each([&](const graph::EdgeMask&, std::span<const graph::EdgeId>,
                      int) {
          ++count;
        });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_FailureEnumeration)->Unit(benchmark::kMillisecond);

void BM_FullProvision(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const auto tol = static_cast<int>(state.range(1));
  const auto map = bench::make_eval_region(11, n, 8);
  auto params = bench::eval_params(tol, 40);
  params.threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::provision(map, params));
  }
}
BENCHMARK(BM_FullProvision)
    ->Args({5, 1})
    ->Args({10, 1})
    ->Args({10, 2})
    ->Args({20, 2})
    ->Unit(benchmark::kMillisecond);

void BM_FullProvisionParallel(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const auto tol = static_cast<int>(state.range(1));
  const auto map = bench::make_eval_region(11, n, 8);
  auto params = bench::eval_params(tol, 40);
  params.threads = 0;  // hardware_concurrency
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::provision(map, params));
  }
}
BENCHMARK(BM_FullProvisionParallel)
    ->Args({10, 2})
    ->Args({20, 2})
    ->Unit(benchmark::kMillisecond);

/// Appendix A placement alone on a provisioned region, single-threaded.
/// The counters are the run's deterministic work: scenarios routed, DC-pair
/// paths seen across them, and the distinct paths among those.
void BM_AmpCut(benchmark::State& state) {
  const auto map =
      bench::make_eval_region(11, static_cast<int>(state.range(0)), 8);
  auto params = bench::eval_params(static_cast<int>(state.range(1)), 40);
  params.threads = 1;
  const auto net = core::provision(map, params);
  core::AmpCutStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::place_amplifiers_and_cutthroughs(map, net, &stats));
  }
  state.counters["scenarios"] = static_cast<double>(stats.scenarios);
  state.counters["pair_paths"] = static_cast<double>(stats.pair_paths);
  state.counters["distinct_paths"] = static_cast<double>(stats.distinct_paths);
}
BENCHMARK(BM_AmpCut)
    ->Args({5, 1})
    ->Args({10, 2})
    ->Args({20, 2})
    ->Unit(benchmark::kMillisecond);

/// A failure drill as the what-if engine answers it: copy a warm base
/// planner and make the first cut of one duct, cycling through every duct.
/// `routed` is the machine-independent work per drill: scenarios the cut's
/// sweep patched or routed instead of serving from a cached record, averaged
/// over the first cut of every duct.
void BM_DrillOnClone(benchmark::State& state) {
  const auto map =
      bench::make_eval_region(7, static_cast<int>(state.range(0)), 8);
  auto params = bench::eval_params(static_cast<int>(state.range(1)), 40);
  params.threads = 1;
  const core::IncrementalPlanner base(map, params);
  const graph::EdgeId ducts = map.graph().edge_count();
  long long routed = 0;
  for (graph::EdgeId e = 0; e < ducts; ++e) {
    core::IncrementalPlanner drill(base);
    (void)drill.cut_duct(e);
    routed += drill.last_stats().scenarios - drill.last_stats().pruned;
  }
  graph::EdgeId next = 0;
  for (auto _ : state) {
    core::IncrementalPlanner drill(base);
    benchmark::DoNotOptimize(drill.cut_duct(next));
    next = (next + 1) % ducts;
  }
  state.counters["routed"] =
      static_cast<double>(routed) / static_cast<double>(ducts);
  state.counters["scenarios"] =
      static_cast<double>(base.current().scenarios_evaluated);
}
BENCHMARK(BM_DrillOnClone)
    ->Args({10, 2})
    ->Args({15, 2})
    ->Args({20, 2})
    ->Unit(benchmark::kMillisecond);

void BM_EndToEndPlan20Dcs(benchmark::State& state) {
  // The paper's planning-runtime envelope: a 20-DC region, tolerance 2.
  const auto map = bench::make_eval_region(22, 20, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::plan_region(map, bench::eval_params(2, 40)));
  }
}
BENCHMARK(BM_EndToEndPlan20Dcs)->Unit(benchmark::kSecond)->Iterations(1);

/// Best of three runs: replan timings are milliseconds-scale, so a single
/// sample is at the mercy of the scheduler.
double best_of_ms(const std::function<void()>& fn) {
  double best = timed_ms(fn);
  for (int i = 0; i < 2; ++i) best = std::min(best, timed_ms(fn));
  return best;
}

/// Incremental-replan table (ISSUE 6 acceptance): cut the busiest duct of a
/// 20-DC / tolerance-2 region, replan, repair, replan; every plan must be
/// bit-identical to the full from-scratch sweep. With `gate` set the run
/// fails (nonzero) unless both replans are >= 10x faster than the full
/// sweep re-run they replace.
int run_replan_table(bool gate) {
  const auto map = bench::make_eval_region(22, 20, 8);
  const auto params = bench::eval_params(2, 40);
  auto oracle_params = params;
  oracle_params.incremental = false;

  bool ok = true;
  const auto check = [&](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "FATAL: %s\n", what);
      ok = false;
    }
  };

  core::provision(map, params);  // warm-up: caches, allocator, page-ins
  core::ProvisionedNetwork full_plan;
  const double full_ms =
      timed_ms([&] { full_plan = core::provision(map, oracle_params); });
  core::ProvisionedNetwork inc_plan;
  const double inc_ms =
      timed_ms([&] { inc_plan = core::provision(map, params); });
  check(core::same_plan(inc_plan, full_plan),
        "incremental provision diverged from the full-sweep oracle");

  core::IncrementalPlanner planner(map, params);
  const core::ProvisionedNetwork before_cut = planner.current();
  check(core::same_plan(before_cut, full_plan),
        "IncrementalPlanner initial plan diverged from the oracle");

  // The busiest duct: worst case for a replan, since every scenario that
  // routed over it changes.
  graph::EdgeId busiest = 0;
  for (graph::EdgeId e = 1;
       e < static_cast<graph::EdgeId>(
               before_cut.edge_capacity_wavelengths.size());
       ++e) {
    if (before_cut.edge_capacity_wavelengths[e] >
        before_cut.edge_capacity_wavelengths[busiest]) {
      busiest = e;
    }
  }

  // Cut/repair cycles: each replan mutates planner state, so time whole
  // cycles and keep the best cut and repair samples.
  core::PlanDiff cut_diff;
  double replan_cut_ms = 0.0;
  double replan_repair_ms = 0.0;
  core::ProvisionedNetwork cut_plan;
  for (int i = 0; i < 3; ++i) {
    const double c = timed_ms([&] { cut_diff = planner.cut_duct(busiest); });
    if (i == 0) cut_plan = planner.current();
    const double r = timed_ms([&] { planner.repair_duct(busiest); });
    replan_cut_ms = i == 0 ? c : std::min(replan_cut_ms, c);
    replan_repair_ms = i == 0 ? r : std::min(replan_repair_ms, r);
  }
  auto oracle_cut_params = oracle_params;
  oracle_cut_params.cut_ducts = {busiest};
  core::ProvisionedNetwork full_cut_plan;
  const double full_cut_ms = best_of_ms(
      [&] { full_cut_plan = core::provision(map, oracle_cut_params); });
  check(core::same_plan(cut_plan, full_cut_plan),
        "post-cut replan diverged from the full-sweep oracle");
  check(core::same_plan(core::apply_diff(before_cut, cut_diff), cut_plan),
        "applying the cut PlanDiff did not reproduce the fresh plan");
  check(core::same_plan(planner.current(), full_plan),
        "post-repair replan diverged from the full-sweep oracle");
  const double full_repair_ms =
      best_of_ms([&] { core::provision(map, oracle_params); });

  std::printf(
      "# incremental replan (20 DCs, tolerance 2, %lld scenarios, cut duct "
      "%d, %lld pruned on replan)\n",
      full_plan.scenarios_evaluated, busiest, planner.current().scenarios_pruned);
  std::printf("%-28s %12s %12s %10s\n", "step", "full ms", "replan ms",
              "speedup");
  std::printf("%-28s %12.2f %12.2f %10s\n", "initial provision", full_ms,
              inc_ms, "-");
  std::printf("%-28s %12.2f %12.2f %10.1f\n", "cut busiest duct", full_cut_ms,
              replan_cut_ms, full_cut_ms / replan_cut_ms);
  std::printf("%-28s %12.2f %12.2f %10.1f\n", "repair duct", full_repair_ms,
              replan_repair_ms, full_repair_ms / replan_repair_ms);
  std::printf("# cut diff: %zu capacity changes, %zu path changes\n",
              cut_diff.capacity_changes.size(), cut_diff.path_changes.size());

  if (gate && core::planner_oracle_enabled()) {
    // Every timed replan above also ran the full-sweep oracle inside
    // cut_duct()/repair_duct(), so the timings only witness identity, not
    // speed. Re-run without IRIS_PLANNER_ORACLE to gate the speedup.
    std::printf("# IRIS_PLANNER_ORACLE set: speedup gate skipped\n");
  } else if (gate) {
    check(full_cut_ms / replan_cut_ms >= 10.0,
          "cut replan is not >= 10x faster than the full sweep");
    check(full_repair_ms / replan_repair_ms >= 10.0,
          "repair replan is not >= 10x faster than the full sweep");
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool replan_mode = false;
  obs::Args args("bench_micro_planner");
  args.flag("--replan", replan_mode,
            "20-DC incremental-replan table and its >= 10x gate")
      .metrics()
      .benchmark_flags();
  if (const int rc = args.parse(argc, argv)) return rc;

  if (replan_mode) return bench::finish(args, run_replan_table(/*gate=*/true));
  print_parallel_speedup();
  return bench::run_benchmarks(args);
}
