// Ablation: how robust is Iris's cost advantage to component price shifts?
//
// The paper argues the advantage is "not ephemeral" (SS6.1) because it rests
// on the transceiver-vs-fiber cost structure. This bench sweeps the two
// decisive prices -- DCI transceiver and fiber-pair lease -- and reports the
// EPS/Iris cost ratio, locating the crossover where electrical switching
// would win. At paper prices the ratio is ~7x; fiber would have to cost
// tens of times more (or transceivers collapse below electrical-port cost)
// before EPS breaks even.
//
// Overrides parse strictly (whole-token, exit 2 on garbage); with no
// arguments the table is byte-identical to the historical run.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

namespace {

using namespace iris;

// DC count of the reference region the price sweeps are evaluated on.
int g_dc_count = 10;

struct PlannedRegion {
  fibermap::FiberMap map;
  core::DesignBom eps;
  core::DesignBom iris;
};

PlannedRegion plan_reference_region() {
  PlannedRegion out{bench::make_eval_region(11, g_dc_count, 16), {}, {}};
  const auto net = core::provision(out.map, bench::eval_params(1, 40));
  const auto plan = core::place_amplifiers_and_cutthroughs(out.map, net);
  out.eps = core::build_eps(out.map, net);
  out.iris = core::build_iris(out.map, net, plan);
  return out;
}

void print_table() {
  const auto region = plan_reference_region();

  std::printf("# Ablation: EPS/Iris cost ratio vs transceiver price multiplier\n");
  std::printf("%12s %12s\n", "txcv-mult", "EPS/Iris");
  for (double mult : {0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0}) {
    auto prices = cost::PriceBook::paper_defaults();
    prices.dci_transceiver *= mult;
    std::printf("%12.2f %11.2fx\n", mult,
                region.eps.total_cost(prices) / region.iris.total_cost(prices));
  }

  std::printf("\n# Ablation: EPS/Iris cost ratio vs fiber lease multiplier\n");
  std::printf("%12s %12s\n", "fiber-mult", "EPS/Iris");
  double crossover = -1.0;
  for (double mult : {0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0}) {
    auto prices = cost::PriceBook::paper_defaults();
    prices.fiber_pair_per_span *= mult;
    const double ratio =
        region.eps.total_cost(prices) / region.iris.total_cost(prices);
    if (ratio < 1.0 && crossover < 0.0) crossover = mult;
    std::printf("%12.1f %11.2fx\n", mult, ratio);
  }
  if (crossover > 0.0) {
    std::printf("\nmeasured: fiber must cost >%.0fx today's lease before EPS"
                " breaks even\n\n", crossover);
  } else {
    std::printf("\nmeasured: EPS never breaks even within the swept range\n\n");
  }

  // Joint sweep: the frontier in (transceiver, fiber) price space.
  std::printf("# EPS/Iris ratio over the joint price grid (rows: txcv mult,"
              " cols: fiber mult)\n");
  std::printf("%10s", "");
  for (double fm : {0.3, 1.0, 10.0, 100.0}) std::printf(" %9.1f", fm);
  std::printf("\n");
  for (double tm : {0.1, 0.5, 1.0, 2.0}) {
    std::printf("%10.1f", tm);
    for (double fm : {0.3, 1.0, 10.0, 100.0}) {
      auto prices = cost::PriceBook::paper_defaults();
      prices.dci_transceiver *= tm;
      prices.fiber_pair_per_span *= fm;
      std::printf(" %8.2fx", region.eps.total_cost(prices) /
                                 region.iris.total_cost(prices));
    }
    std::printf("\n");
  }
  std::printf("\n# paper: the cost differences are not ephemeral (SS6.1)\n\n");
}

void BM_CostRollup(benchmark::State& state) {
  const auto region = plan_reference_region();
  const auto prices = cost::PriceBook::paper_defaults();
  for (auto _ : state) {
    benchmark::DoNotOptimize(region.eps.total_cost(prices));
    benchmark::DoNotOptimize(region.iris.total_cost(prices));
  }
}
BENCHMARK(BM_CostRollup);

}  // namespace

int main(int argc, char** argv) {
  obs::Args args("bench_ablation_prices");
  args.option("dc_count", g_dc_count, obs::in(2, 100))
      .metrics()
      .benchmark_flags();
  if (const int rc = args.parse(argc, argv)) return rc;

  print_table();
  return bench::run_benchmarks(args);
}
