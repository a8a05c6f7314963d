// Fig. 3: CDF of latency inflation (DC-hub-DC / DC-DC) across regions.
//
// Paper claims: latency improves for >= 60% of DC pairs when going direct;
// for > 20% of pairs the hub detour is more than 2x longer.
//
// Overrides parse strictly (whole-token, exit 2 on garbage); with no
// arguments the table is byte-identical to the historical run.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "topology/latency.hpp"

namespace {

using namespace iris;

// 22 regions by default (the paper analyzes 22 Azure regions), 5-15 DCs each.
int g_regions = 22;

std::vector<double> all_inflations() {
  std::vector<double> inflations;
  for (int r = 0; r < g_regions; ++r) {
    const int dcs = 5 + (r * 7) % 11;
    const auto map = bench::make_eval_region(1000 + r, dcs, 8);
    const auto positions = map.dc_positions();
    // Operators often end up with hubs near each other (SS2.2): 4-7 km.
    const double separation = 4.0 + (r % 4);
    const auto hubs = topology::place_two_hubs(positions, separation);
    for (const auto& pl : topology::pair_latencies(positions, hubs)) {
      inflations.push_back(pl.inflation());
    }
  }
  return inflations;
}

void print_table() {
  const auto inflations = all_inflations();
  bench::print_cdf("latency inflation (DC-hub-DC / DC-DC)", inflations, 20);
  std::printf("\n# paper: >=60%% of pairs improve; >20%% of pairs see >2x\n");
  std::printf("measured: fraction with inflation > 1.0x: %.3f\n",
              bench::fraction_above(inflations, 1.0 + 1e-9));
  std::printf("measured: fraction with inflation > 2.0x: %.3f\n",
              bench::fraction_above(inflations, 2.0));
  std::printf("measured: median inflation: %.2fx\n\n",
              bench::median(inflations));
}

void BM_LatencyInflationAnalysis(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(all_inflations());
  }
}
BENCHMARK(BM_LatencyInflationAnalysis)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  obs::Args args("bench_fig3_latency_inflation");
  args.option("regions", g_regions, obs::in(1, 10000))
      .metrics()
      .benchmark_flags();
  if (const int rc = args.parse(argc, argv)) return rc;

  print_table();
  return bench::run_benchmarks(args);
}
