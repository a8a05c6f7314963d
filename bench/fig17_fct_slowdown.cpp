// Fig. 17: 99th-percentile FCT slowdown (Iris / EPS) vs traffic-change
// interval, at 40% and 70% utilization, with 50%-bounded and unbounded
// traffic changes.
//
// Paper claims: with bounded (<= 50%) changes the slowdown is under ~2%
// even at 70% utilization; only unbounded changes at second-scale intervals
// hurt, and the effect vanishes for intervals >= 10 s.
//
// Overrides parse strictly (whole-token, exit 2 on garbage -- the atof
// family used to turn `seed=abc` into silent zeros); with no arguments the
// table is byte-identical to the historical unparameterized run.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.hpp"
#include "simflow/simulator.hpp"

namespace {

using namespace iris;
using namespace iris::simflow;

long long g_seed = 99;
double g_duration_s = 12.0;

double slowdown(double util, double change_fraction, double interval_s,
                double p, double max_bytes = -1.0) {
  SimParams params;
  params.duration_s = g_duration_s;
  params.utilization = util;
  params.change_interval_s = interval_s;
  params.traffic.pair_count = 45;  // a 10-DC region
  params.traffic.total_gbps = 9.0;
  params.traffic.change_fraction = change_fraction;
  params.traffic.seed = static_cast<std::uint64_t>(g_seed);
  params.seed = static_cast<std::uint64_t>(g_seed);

  const auto workload = FlowSizeDistribution::facebook_web();
  params.fabric = Fabric::kIris;
  const auto iris_run = simulate(workload, params);
  params.fabric = Fabric::kEps;
  const auto eps = simulate(workload, params);
  const double denom = fct_percentile(eps, p, max_bytes);
  return denom > 0.0 ? fct_percentile(iris_run, p, max_bytes) / denom : 1.0;
}

void print_series(double util, double change_fraction, const char* label) {
  std::printf("# Fig. 17: %.0f%% utilization, %s changes\n", util * 100.0,
              label);
  std::printf("%12s %12s %12s\n", "interval(s)", "all-flows", "short-flows");
  for (double interval : {1.0, 2.0, 5.0, 10.0, 30.0}) {
    std::printf("%12.0f %11.3fx %11.3fx\n", interval,
                slowdown(util, change_fraction, interval, 0.99),
                slowdown(util, change_fraction, interval, 0.99,
                         kShortFlowBytes));
  }
  std::printf("\n");
}

void print_table() {
  print_series(0.40, 0.5, "50%-bounded");
  print_series(0.70, 0.5, "50%-bounded");
  print_series(0.40, -1.0, "unbounded");
  print_series(0.70, -1.0, "unbounded");
  std::printf("# paper: bounded changes -> <2%% slowdown at all intervals;\n"
              "# unbounded changes hurt only at ~1 s intervals and high load\n\n");
}

void BM_SimulateOneConfig(benchmark::State& state) {
  SimParams params;
  params.duration_s = 3.0;
  params.utilization = 0.4;
  params.change_interval_s = 1.0;
  params.traffic.pair_count = 45;
  params.traffic.total_gbps = 4.0;
  const auto workload = FlowSizeDistribution::facebook_web();
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate(workload, params));
  }
}
BENCHMARK(BM_SimulateOneConfig)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  obs::Args args("bench_fig17_fct_slowdown");
  args.option("seed", g_seed, obs::at_least(0))
      .option("duration", g_duration_s, obs::above(0.0))
      .metrics()
      .benchmark_flags();
  if (const int rc = args.parse(argc, argv)) return rc;

  print_table();
  return bench::run_benchmarks(args);
}
