// Fig. 6: x-fold increase in permissible DC siting area, distributed vs
// centralized, across regions.
//
// Paper claims: the area increases 2-5x across 33 regions; regions with more
// DCs show smaller but still >= 2x gains.
//
// Overrides parse strictly (whole-token, exit 2 on garbage); with no
// arguments the table is byte-identical to the historical run.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "topology/latency.hpp"
#include "topology/siting.hpp"

namespace {

using namespace iris;

// 33 synthetic regions by default, matching the paper's evaluation set.
int g_regions = 33;

struct RegionRow {
  int region;
  int dc_count;
  double increase;
};

std::vector<RegionRow> analyze_regions() {
  std::vector<RegionRow> rows;
  for (int r = 0; r < g_regions; ++r) {
    const int dcs = 5 + (r * 3) % 11;  // 5-15 DCs, as in the paper
    const auto map = bench::make_eval_region(2000 + r, dcs, 8);
    const auto positions = map.dc_positions();
    const double separation = (r % 2 == 0) ? 5.0 : 22.0;
    const auto hubs = topology::place_two_hubs(positions, separation);
    const auto cmp = topology::compare_siting(positions, hubs, {}, 256);
    rows.push_back({r + 1, dcs, cmp.area_increase()});
  }
  return rows;
}

void print_table() {
  std::printf("# Fig. 6: service-area increase, distributed vs centralized\n");
  std::printf("%7s %4s %10s\n", "region", "DCs", "increase");
  const auto rows = analyze_regions();
  std::vector<double> increases;
  for (const auto& row : rows) {
    std::printf("%7d %4d %9.2fx\n", row.region, row.dc_count, row.increase);
    increases.push_back(row.increase);
  }
  std::printf("\n# paper: 2-5x across regions; >= 2x even for large regions\n");
  std::printf("measured: median %.2fx, min %.2fx, max %.2fx\n\n",
              bench::median(increases),
              *std::min_element(increases.begin(), increases.end()),
              *std::max_element(increases.begin(), increases.end()));
}

void BM_SitingAnalysisPerRegion(benchmark::State& state) {
  const auto map = bench::make_eval_region(2000, 8, 8);
  const auto positions = map.dc_positions();
  const auto hubs = topology::place_two_hubs(positions, 5.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(topology::compare_siting(positions, hubs, {}, 256));
  }
}
BENCHMARK(BM_SitingAnalysisPerRegion)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  obs::Args args("bench_fig6_siting_flexibility");
  args.option("regions", g_regions, obs::in(1, 10000))
      .metrics()
      .benchmark_flags();
  if (const int rc = args.parse(argc, argv)) return rc;

  print_table();
  return bench::run_benchmarks(args);
}
