// Appendix B: the hybrid fiber+wavelength design's residual-fiber savings.
//
// Paper claims: combining residual fibers (up to 4 into 1 at a shared-
// subpath hut, Observation 2) reduces the residual fiber overhead by ~50%,
// but the resulting cost savings are small -- not enough to justify the
// added device complexity.
//
// Overrides parse strictly (whole-token, exit 2 on garbage); with no
// arguments the table is byte-identical to the historical run.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

namespace {

using namespace iris;

// Wavelengths per fiber in the planner's channel plan.
int g_lambda = 40;

void print_table() {
  const auto prices = cost::PriceBook::paper_defaults();
  std::vector<double> reductions;
  std::vector<double> cost_savings;

  std::printf("# Appendix B: hybrid residual-fiber combining\n");
  std::printf("%6s %4s %10s %10s %10s %8s %12s\n", "seed", "DCs", "before",
              "after", "reduction", "devices", "cost-saving");
  for (std::uint64_t seed : bench::base_map_seeds()) {
    for (int n : {5, 10, 15}) {
      const auto map = bench::make_eval_region(seed, n, 8);
      const auto plan = core::plan_region(map, bench::eval_params(1, g_lambda));
      const auto& hybrid = plan.hybrid;
      const double saving =
          1.0 - hybrid.bom.total_cost(prices) / plan.iris.total_cost(prices);
      reductions.push_back(hybrid.residual_reduction());
      cost_savings.push_back(saving);
      std::printf("%6llu %4d %10lld %10lld %9.1f%% %8d %11.2f%%\n",
                  static_cast<unsigned long long>(seed), n,
                  hybrid.residual_fiber_spans_before,
                  hybrid.residual_fiber_spans_after,
                  100.0 * hybrid.residual_reduction(),
                  hybrid.wavelength_devices, 100.0 * saving);
    }
  }
  std::printf("\n# paper: ~50%% residual reduction; small overall cost gain\n");
  std::printf("measured: median reduction %.1f%%, median cost saving %.2f%%\n\n",
              100.0 * bench::median(reductions),
              100.0 * bench::median(cost_savings));

  // Pure wavelength switching (Appendix B's first analysis): pricier than
  // Iris's n^2 extra fibers, and TC4-infeasible on multi-hop paths.
  std::printf("# pure wavelength switching vs Iris\n");
  std::printf("%6s %4s %12s %14s\n", "seed", "DCs", "cost-ratio",
              "infeasible-paths");
  std::vector<double> pure_ratios;
  for (std::uint64_t seed : {bench::base_map_seeds()[0],
                             bench::base_map_seeds()[1],
                             bench::base_map_seeds()[2]}) {
    for (int n : {5, 10}) {
      const auto map = bench::make_eval_region(seed, n, 8);
      const auto net = core::provision(map, bench::eval_params(1, g_lambda));
      const auto plan = core::place_amplifiers_and_cutthroughs(map, net);
      const auto iris = core::build_iris(map, net, plan);
      const auto pure = core::build_pure_wavelength(map, net, plan);
      const double ratio =
          pure.bom.total_cost(prices) / iris.total_cost(prices);
      pure_ratios.push_back(ratio);
      std::printf("%6llu %4d %11.2fx %14lld\n",
                  static_cast<unsigned long long>(seed), n, ratio,
                  pure.paths_beyond_oxc_budget);
    }
  }
  std::printf("\n# paper: pure wavelength switching is pricier than the n^2"
              " residual fibers\n");
  std::printf("measured: median pure/iris cost ratio %.2fx\n\n",
              bench::median(pure_ratios));
}

void BM_HybridConstruction(benchmark::State& state) {
  const auto map = bench::make_eval_region(11, 10, 8);
  const auto net = core::provision(map, bench::eval_params(1, 40));
  const auto plan = core::place_amplifiers_and_cutthroughs(map, net);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_hybrid(map, net, plan));
  }
}
BENCHMARK(BM_HybridConstruction)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  obs::Args args("bench_appB_hybrid");
  args.option("lambda", g_lambda, obs::in(1, 1000))
      .metrics()
      .benchmark_flags();
  if (const int rc = args.parse(argc, argv)) return rc;

  print_table();
  return bench::run_benchmarks(args);
}
