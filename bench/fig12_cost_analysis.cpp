// Fig. 12(a)-(d): cost analysis across the SS6.1 evaluation grid --
// 10 fiber maps x n in {5,10,15,20} DCs x f in {8,16,32} fibers x
// lambda in {40,64} wavelengths = 240 scenarios.
//
// Paper claims:
//   (a) EPS >= 5x more expensive than Iris/hybrid in 80% of scenarios;
//       in-network-only comparison >= 10x in 80%; hybrid ~= Iris.
//   (b) even with DCI transceivers (unrealistically) at short-reach prices,
//       Iris keeps a clear advantage.
//   (c) EPS needs many times more in-network ports per DC port than Iris.
//   (d) Iris guaranteeing capacity under 2 cuts is >2x cheaper than an EPS
//       with no failure guarantees.
//
// Uniform DC capacities let each (map, n) pair be planned once at unit
// capacity and scaled to every (f, lambda) exactly (see
// scale_uniform_provision); the planning itself still enumerates every
// <=2-cut failure scenario.
//
// max_dcs trims the DC-count axis of the grid (keeps n <= N; default 20,
// the full paper grid). Overrides parse strictly (whole-token, exit 2 on
// garbage); with no arguments the table is byte-identical to the
// historical run.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

namespace {

using namespace iris;

long long g_max_dcs = 20;

struct Scenario {
  double eps_over_iris;
  double eps_over_hybrid;
  double eps_over_iris_in_network;
  double eps_ports_ratio;   // in-network / DC ports, EPS
  double iris_ports_ratio;  // in-network / DC ports, Iris
  double eps_over_iris_sr;  // with SR-priced DCI transceivers
  double eps0_over_iris2;   // EPS tolerance-0 vs Iris tolerance-2
};

std::vector<Scenario> run_grid(const std::vector<int>& dc_counts) {
  const auto prices = cost::PriceBook::paper_defaults();
  const auto sr_prices = cost::PriceBook::dci_at_sr_price();
  std::vector<Scenario> grid;

  for (std::uint64_t seed : bench::base_map_seeds()) {
    for (int n : dc_counts) {
      // Unit-capacity planning (tolerance 2 and, for 12(d), tolerance 0).
      const auto unit_map = bench::make_eval_region(seed, n, 1);
      const auto unit_net2 = core::provision(unit_map, bench::eval_params(2, 1));
      const auto unit_plan2 =
          core::place_amplifiers_and_cutthroughs(unit_map, unit_net2);
      const auto unit_net0 = core::provision(unit_map, bench::eval_params(0, 1));

      for (int f : {8, 16, 32}) {
        const auto map = bench::make_eval_region(seed, n, f);
        for (int lambda : {40, 64}) {
          const auto net2 = core::scale_uniform_provision(unit_net2, f, lambda);
          const auto plan2 = core::scale_uniform_amp_cut(unit_plan2, f);
          const auto net0 = core::scale_uniform_provision(unit_net0, f, lambda);

          const auto eps = core::build_eps(map, net2);
          const auto iris_design = core::build_iris(map, net2, plan2);
          const auto hybrid = core::build_hybrid(map, net2, plan2);
          const auto eps0 = core::build_eps(map, net0);

          Scenario s;
          s.eps_over_iris =
              eps.total_cost(prices) / iris_design.total_cost(prices);
          s.eps_over_hybrid =
              eps.total_cost(prices) / hybrid.bom.total_cost(prices);
          s.eps_over_iris_in_network =
              eps.in_network.total_cost(prices) /
              iris_design.in_network.total_cost(prices);
          const double dc_ports =
              static_cast<double>(eps.dc_side.total_ports());
          s.eps_ports_ratio = eps.in_network.total_ports() / dc_ports;
          s.iris_ports_ratio = iris_design.in_network.total_ports() / dc_ports;
          s.eps_over_iris_sr = eps.total_cost(sr_prices) /
                               iris_design.total_cost(sr_prices);
          s.eps0_over_iris2 =
              eps0.total_cost(prices) / iris_design.total_cost(prices);
          grid.push_back(s);
        }
      }
    }
  }
  return grid;
}

void print_table() {
  std::vector<int> dc_counts;
  for (int n : {5, 10, 15, 20}) {
    if (n <= g_max_dcs) dc_counts.push_back(n);
  }
  const auto grid = run_grid(dc_counts);
  std::printf("# Fig. 12 cost analysis: %zu scenarios\n\n", grid.size());

  auto extract = [&](auto member) {
    std::vector<double> v;
    v.reserve(grid.size());
    for (const auto& s : grid) v.push_back(s.*member);
    return v;
  };

  const auto a1 = extract(&Scenario::eps_over_iris);
  const auto a2 = extract(&Scenario::eps_over_hybrid);
  const auto a3 = extract(&Scenario::eps_over_iris_in_network);
  bench::print_cdf("(a) EPS / Iris total cost", a1, 10);
  bench::print_cdf("(a) EPS / Hybrid total cost", a2, 10);
  bench::print_cdf("(a) EPS / Iris, in-network only", a3, 10);
  std::printf("\n# paper (a): EPS >=5x in 80%% of scenarios; in-network >=10x"
              " in 80%%\n");
  std::printf("measured: frac(EPS/Iris >= 5): %.2f; frac(in-network >= 10):"
              " %.2f; median EPS/Iris: %.1fx\n\n",
              bench::fraction_above(a1, 5.0), bench::fraction_above(a3, 10.0),
              bench::median(a1));

  const auto b = extract(&Scenario::eps_over_iris_sr);
  bench::print_cdf("(b) EPS / Iris at SR transceiver prices", b, 10);
  std::printf("# paper (b): Iris keeps a clear advantage even at SR prices\n");
  std::printf("measured: median %.2fx, frac > 1: %.2f\n\n", bench::median(b),
              bench::fraction_above(b, 1.0));

  const auto c_eps = extract(&Scenario::eps_ports_ratio);
  const auto c_iris = extract(&Scenario::iris_ports_ratio);
  bench::print_cdf("(c) EPS in-network ports / DC ports", c_eps, 10);
  bench::print_cdf("(c) Iris in-network ports / DC ports", c_iris, 10);
  std::printf("# paper (c): EPS uses many times more in-network ports\n");
  std::printf("measured: median EPS %.2f vs Iris %.2f\n\n",
              bench::median(c_eps), bench::median(c_iris));

  const auto d = extract(&Scenario::eps0_over_iris2);
  bench::print_cdf("(d) EPS(no guarantees) / Iris(2-cut tolerant)", d, 10);
  std::printf("# paper (d): ratio > 2x across all scenarios\n");
  std::printf("measured: min %.2fx, median %.2fx, frac > 2: %.2f\n\n",
              *std::min_element(d.begin(), d.end()), bench::median(d),
              bench::fraction_above(d, 2.0));
}

void BM_PlanOneRegionTol2(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const auto map = bench::make_eval_region(11, n, 1);
  for (auto _ : state) {
    const auto net = core::provision(map, bench::eval_params(2, 1));
    benchmark::DoNotOptimize(core::place_amplifiers_and_cutthroughs(map, net));
  }
}
BENCHMARK(BM_PlanOneRegionTol2)->Arg(5)->Arg(10)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  obs::Args args("bench_fig12_cost_analysis");
  args.option("max_dcs", g_max_dcs, obs::at_least(5))
      .metrics()
      .benchmark_flags();
  if (const int rc = args.parse(argc, argv)) return rc;

  print_table();
  return bench::run_benchmarks(args);
}
