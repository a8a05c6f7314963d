// Fig. 18: 99th-percentile FCT slowdown per workload (web1, web2, hadoop,
// cache) at 40% utilization, 50% traffic changes, reconfiguration every 5 s.
//
// Paper claims: Iris's slowdown is < 2% vs EPS across all four workloads,
// for all flows and for small flows.
//
// Overrides parse strictly (whole-token, exit 2 on garbage); with no
// arguments the table is byte-identical to the historical run (seed 77,
// 12 s, 3 replicas).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <stdexcept>

#include "bench_util.hpp"
#include "simflow/experiment.hpp"

namespace {

using namespace iris;
using namespace iris::simflow;

long long g_seed = 77;
double g_duration_s = 12.0;
int g_replicas = 3;

SimParams fig18_params(Fabric fabric) {
  SimParams params;
  params.duration_s = g_duration_s;
  params.utilization = 0.40;
  params.change_interval_s = 5.0;
  params.traffic.pair_count = 45;
  params.traffic.total_gbps = 9.0;
  params.traffic.change_fraction = 0.5;
  params.traffic.seed = static_cast<std::uint64_t>(g_seed);
  params.seed = static_cast<std::uint64_t>(g_seed);
  params.fabric = fabric;
  return params;
}

void print_table() {
  std::printf("# Fig. 18: 99th-pct FCT slowdown by workload "
              "(40%% util, 50%% changes, 5 s reconfig; %d seeds)\n",
              g_replicas);
  std::printf("%10s %22s %22s\n", "workload", "all-flows (mean,max)",
              "short-flows (mean,max)");
  for (const auto& workload : FlowSizeDistribution::paper_presets()) {
    const auto all = replicated_slowdown(workload, fig18_params(Fabric::kIris),
                                         g_replicas);
    const auto small = replicated_slowdown(
        workload, fig18_params(Fabric::kIris), g_replicas, kShortFlowBytes);
    std::printf("%10s %11.3fx %8.3fx %11.3fx %8.3fx\n",
                workload.name().c_str(), all.mean, all.max, small.mean,
                small.max);
  }
  std::printf("\n# paper: < 2%% slowdown for every workload\n\n");
}

void BM_WorkloadSampling(benchmark::State& state) {
  const auto workload = FlowSizeDistribution::hadoop();
  std::mt19937_64 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload.sample(rng));
  }
}
BENCHMARK(BM_WorkloadSampling);

}  // namespace

int main(int argc, char** argv) {
  obs::Args args("bench_fig18_workloads");
  args.option("seed", g_seed, obs::at_least(0))
      .option("duration", g_duration_s, obs::above(0.0))
      .option("replicas", g_replicas, obs::in(1, 1000))
      .metrics()
      .benchmark_flags();
  if (const int rc = args.parse(argc, argv)) return rc;

  try {
    print_table();
  } catch (const std::invalid_argument& e) {
    // Keys in range can still ask the simulator for more than it runs, such
    // as a duration that expects too many flow arrivals.
    std::fprintf(stderr, "bench_fig18_workloads: %s\n", e.what());
    return 2;
  }
  return bench::run_benchmarks(args);
}
