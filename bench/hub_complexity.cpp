// Hub complexity: electrical Clos vs Iris OSS (paper SS2.3, SS3.3).
//
// The centralized hub must house a non-blocking electrical fabric for the
// whole region's capacity -- rack-scale gear, provisioned up front for the
// maximum predicted region size. An Iris hub switches fibers on OSS chassis
// that are "just a few rack-units" and mostly passive. This bench sizes both
// for growing regions.
//
// Overrides parse strictly (whole-token, exit 2 on garbage); with no
// arguments the table is byte-identical to the historical run.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.hpp"
#include "clos/ecmp.hpp"
#include "clos/fabric.hpp"

namespace {

using namespace iris::clos;

int g_lambda = 40;           // wavelengths per fiber in the sizing model
long long g_flows = 1000000; // flows in the ECMP spread experiment

void print_table() {
  std::printf("# Hub footprint: electrical Clos vs Iris OSS\n");
  std::printf("%5s %5s | %9s %9s %9s | %9s %9s %9s | %8s\n", "DCs", "f",
              "el-sw", "el-RU", "el-kW", "oss-ch", "oss-RU", "oss-kW",
              "kW-ratio");
  for (int dcs : {5, 10, 16, 20}) {
    for (int fibers : {8, 16, 32}) {
      const int lambda = g_lambda;
      const long long electrical_ports =
          static_cast<long long>(dcs) * fibers * lambda;
      // The Iris hub terminates each DC's fibers plus residuals, two
      // unidirectional ports per fiber pair.
      const long long fiber_ports =
          2LL * (static_cast<long long>(dcs) * fibers + dcs * (dcs - 1));
      const auto el = electrical_hub_footprint(electrical_ports);
      const auto op = optical_hub_footprint(fiber_ports);
      std::printf("%5d %5d | %9lld %9.0f %9.1f | %9lld %9.0f %9.2f | %7.0fx\n",
                  dcs, fibers, el.devices, el.rack_units, el.kilowatts,
                  op.devices, op.rack_units, op.kilowatts,
                  el.kilowatts / std::max(op.kilowatts, 1e-9));
    }
  }
  std::printf("\n# paper SS3.3: passive optics need orders of magnitude less"
              " power; OSS chassis are a few RU\n");

  // SS5.1's ECMP leaf: wavelengths per destination spread over T2 uplinks.
  const auto counts = spread_flows(g_flows, 16, 5);
  std::printf("\n# ECMP spread of %gM flows over 16 T2 uplinks: imbalance"
              " %.3f (1.0 = perfect)\n\n", static_cast<double>(g_flows) / 1e6,
              imbalance(counts));
}

void BM_ClosDesign(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        design_nonblocking_fabric(state.range(0), 32));
  }
}
BENCHMARK(BM_ClosDesign)->Arg(1024)->Arg(10240)->Arg(102400);

void BM_EcmpHash(benchmark::State& state) {
  std::uint64_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(select_uplink(++id, 16));
  }
}
BENCHMARK(BM_EcmpHash);

}  // namespace

int main(int argc, char** argv) {
  iris::obs::Args args("bench_hub_complexity");
  args.option("lambda", g_lambda, iris::obs::in(1, 1000))
      .option("flows", g_flows, iris::obs::in(1, 1e9))
      .metrics()
      .benchmark_flags();
  if (const int rc = args.parse(argc, argv)) return rc;

  print_table();
  return iris::bench::run_benchmarks(args);
}
