// Fig. 7: relative port-cost breakdown as a 16-DC region's topology moves
// from centralized (G=1) to fully distributed (G=16), for plain electrical,
// electrical with short-reach transceivers inside groups, and optical
// switching.
//
// Paper claims: the fully meshed electrical topology costs ~7x the
// centralized one; transceivers dominate; the optical variant stays nearly
// flat across the whole spectrum.
//
// Overrides parse strictly (whole-token, exit 2 on garbage); with no
// arguments the table is byte-identical to the historical run.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "topology/port_model.hpp"

namespace {

using namespace iris;

int g_dc_count = 16;
int g_ports_per_dc = 100;

void print_table() {
  const auto prices = cost::PriceBook::paper_defaults();
  topology::PortModelInput in;
  in.dc_count = g_dc_count;
  in.ports_per_dc = g_ports_per_dc;

  in.groups = 1;
  const double base =
      topology::port_model_cost(in, topology::SwitchingVariant::kElectrical,
                                prices)
          .total();

  std::printf("# Fig. 7: relative port cost vs groups (N=%d DCs)\n",
              g_dc_count);
  std::printf("%6s %10s %12s %12s %12s | %10s %12s\n", "G", "elec", "elec+SR",
              "optical", "ports", "elecPorts$", "transceiv$");
  for (int g : {1, 2, 4, 8, 16}) {
    if (g > g_dc_count || g_dc_count % g != 0) continue;
    in.groups = g;
    const auto elec = topology::port_model_cost(
        in, topology::SwitchingVariant::kElectrical, prices);
    const auto sr = topology::port_model_cost(
        in, topology::SwitchingVariant::kElectricalWithSr, prices);
    const auto opt = topology::port_model_cost(
        in, topology::SwitchingVariant::kOptical, prices);
    std::printf("%6d %9.2fx %11.2fx %11.2fx %12lld | %10.0f %12.0f\n", g,
                elec.total() / base, sr.total() / base, opt.total() / base,
                topology::total_ports(in), elec.electrical_ports,
                elec.dci_transceivers);
  }
  in.groups = g_dc_count;
  const double mesh =
      topology::port_model_cost(in, topology::SwitchingVariant::kElectrical,
                                prices)
          .total();
  std::printf("\n# paper: fully distributed electrical ~7x centralized\n");
  std::printf("measured: %.2fx\n\n", mesh / base);
}

void BM_PortModelSweep(benchmark::State& state) {
  const auto prices = cost::PriceBook::paper_defaults();
  topology::PortModelInput in;
  in.dc_count = 16;
  in.ports_per_dc = 100;
  for (auto _ : state) {
    for (int g : {1, 2, 4, 8, 16}) {
      in.groups = g;
      benchmark::DoNotOptimize(topology::port_model_cost(
          in, topology::SwitchingVariant::kElectrical, prices));
    }
  }
}
BENCHMARK(BM_PortModelSweep);

}  // namespace

int main(int argc, char** argv) {
  obs::Args args("bench_fig7_port_cost");
  args.option("dc_count", g_dc_count, obs::in(1, 1000000))
      .option("ports_per_dc", g_ports_per_dc, obs::in(1, 1000000))
      .metrics()
      .benchmark_flags();
  if (const int rc = args.parse(argc, argv)) return rc;

  print_table();
  return bench::run_benchmarks(args);
}
