// SS3.4's motivating example (Fig. 10): the 4-DC semi-distributed toy region
// implemented both electrically and with Iris.
//
// Paper claims: F_E = 60 fiber pairs and T_E = 4800 transceivers for the
// electrical design; T_O = 1600 transceivers, F_O ~ 78 fiber pairs and ~312
// OSS ports for Iris; electrical costs ~2.7x more.
//
// Overrides parse strictly (whole-token, exit 2 on garbage); with no
// arguments the table is byte-identical to the historical run.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

namespace {

using namespace iris;

// Wavelengths per fiber in the toy region's channel plan.
int g_lambda = 40;

void print_table() {
  const auto map = fibermap::toy_example_fig10();
  const auto net = core::provision(map, bench::eval_params(0, g_lambda));
  const auto amp_cut = core::place_amplifiers_and_cutthroughs(map, net);
  const auto eps = core::build_eps(map, net);
  const auto iris_design = core::build_iris(map, net, amp_cut);
  const auto prices = cost::PriceBook::paper_defaults();

  std::printf("# SS3.4 toy example (Fig. 10), 4 DCs x 160 Tbps, lambda=40\n");
  std::printf("%-22s %12s %12s\n", "component", "electrical", "iris");
  std::printf("%-22s %12lld %12lld\n", "fiber pairs", eps.total.fiber_pairs,
              iris_design.total.fiber_pairs);
  std::printf("%-22s %12lld %12lld\n", "DCI transceivers",
              eps.total.dci_transceivers, iris_design.total.dci_transceivers);
  std::printf("%-22s %12lld %12lld\n", "electrical ports",
              eps.total.electrical_ports, iris_design.total.electrical_ports);
  std::printf("%-22s %12lld %12lld\n", "OSS ports", eps.total.oss_ports,
              iris_design.total.oss_ports);
  std::printf("%-22s %12lld %12lld\n", "amplifiers", eps.total.amplifiers,
              iris_design.total.amplifiers);
  std::printf("%-22s %12.0f %12.0f\n", "cost ($/yr)", eps.total_cost(prices),
              iris_design.total_cost(prices));

  std::printf("\n# paper: F_E=60, T_E=4800, T_O=1600, F_O~78, ~312 OSS ports,"
              " ratio ~2.7x\n");
  std::printf("measured: cost ratio electrical/iris: %.2fx\n",
              eps.total_cost(prices) / iris_design.total_cost(prices));
  std::printf("measured: fiber+transceiver-only ratio (footnote 4): %.2fx\n\n",
              (1300.0 * eps.total.dci_transceivers +
               3600.0 * eps.total.fiber_pairs) /
                  (1300.0 * iris_design.total.dci_transceivers +
                   3600.0 * iris_design.total.fiber_pairs));
}

void BM_ToyExamplePlanning(benchmark::State& state) {
  const auto map = fibermap::toy_example_fig10();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::plan_region(map, bench::eval_params(0, 40)));
  }
}
BENCHMARK(BM_ToyExamplePlanning)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  obs::Args args("bench_sec34_toy_example");
  args.option("lambda", g_lambda, obs::in(1, 1000))
      .metrics()
      .benchmark_flags();
  if (const int rc = args.parse(argc, argv)) return rc;

  print_table();
  return bench::run_benchmarks(args);
}
