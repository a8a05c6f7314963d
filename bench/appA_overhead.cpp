// Appendix A: cost overhead of the greedy amplifier and cut-through
// placement heuristics relative to total network cost.
//
// Paper claims: 3% on average, 8% in the worst case, across all test
// scenarios -- and the heuristics always leave every path feasible.
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
  std::vector<double> overheads;
  long long infeasible = 0;

  std::printf("# Appendix A: amplifier + cut-through overhead per region\n");
  std::printf("%6s %4s %6s %8s %12s %10s\n", "seed", "DCs", "amps", "cutthru",
              "overhead", "validated");
  for (std::uint64_t seed : bench::base_map_seeds()) {
    for (int n : {5, 10, 15}) {
      const auto map = bench::make_eval_region(seed, n, 8);
      const auto plan = core::plan_region(map, bench::eval_params(1, g_lambda));
      const auto report = core::validate_plan(map, plan.network, plan.amp_cut);
      const double overhead = plan.amp_cut_overhead(prices);
      overheads.push_back(overhead);
      if (!report.ok()) ++infeasible;
      std::printf("%6llu %4d %6lld %8lld %11.2f%% %10s\n",
                  static_cast<unsigned long long>(seed), n,
                  plan.amp_cut.total_amplifiers(),
                  plan.amp_cut.cut_through_fiber_spans(), overhead * 100.0,
                  report.ok() ? "ok" : "FAIL");
    }
  }
  double sum = 0.0, worst = 0.0;
  for (double o : overheads) {
    sum += o;
    worst = std::max(worst, o);
  }
  std::printf("\n# paper: 3%% average, 8%% worst case; constraints always met\n");
  std::printf("measured: average %.2f%%, worst %.2f%%, infeasible plans: %lld\n\n",
              100.0 * sum / overheads.size(), 100.0 * worst, infeasible);
}

void BM_AmpCutPlacement(benchmark::State& state) {
  const auto map = bench::make_eval_region(11, 10, 8);
  const auto net = core::provision(map, bench::eval_params(1, 40));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::place_amplifiers_and_cutthroughs(map, net));
  }
}
BENCHMARK(BM_AmpCutPlacement)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  obs::Args args("bench_appA_overhead");
  args.option("lambda", g_lambda, obs::in(1, 1000))
      .metrics()
      .benchmark_flags();
  if (const int rc = args.parse(argc, argv)) return rc;

  print_table();
  return bench::run_benchmarks(args);
}
