// Fig. 9: OSNR penalty vs number of cascaded on-path amplifiers.
//
// Paper's testbed measurement: the first amplifier costs its ~4.5 dB noise
// figure; each doubling of the cascade adds ~3 dB, matching theory [32].
// With a 9 dB amplifier budget, at most 3 amplifiers fit end-to-end (TC2).
//
// Overrides parse strictly (whole-token, exit 2 on garbage); with no
// arguments the table is byte-identical to the historical run.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.hpp"
#include "optical/lightpath.hpp"
#include "optical/osnr.hpp"

namespace {

using namespace iris::optical;

int g_max_amps = 8;

void print_table() {
  const OpticalSpec spec;
  std::printf("# Fig. 9: OSNR penalty vs amplifier count\n");
  std::printf("%6s %12s %14s %14s %10s\n", "amps", "penalty(dB)", "rxOSNR(dB)",
              "preFEC-BER", "decodable");
  for (int n = 0; n <= g_max_amps; ++n) {
    const double penalty = cascade_osnr_penalty_db(n, spec);
    const double osnr = received_osnr_db(n, 2.0, spec);
    const double ber = dp16qam_pre_fec_ber(osnr);
    std::printf("%6d %12.2f %14.2f %14.3e %10s\n", n, penalty, osnr, ber,
                ber < spec.sd_fec_ber_threshold ? "yes" : "no");
  }
  std::printf("\n# paper: ~4.5 dB first amp, ~3 dB per doubling; budget 9 dB"
              " -> max 3 amps\n");
  std::printf("measured: penalty(1)=%.2f dB, penalty(2)-penalty(1)=%.2f dB,"
              " penalty(3)=%.2f dB\n\n",
              cascade_osnr_penalty_db(1, spec),
              cascade_osnr_penalty_db(2, spec) - cascade_osnr_penalty_db(1, spec),
              cascade_osnr_penalty_db(3, spec));
}

void BM_PathEvaluation(benchmark::State& state) {
  LightPath path;
  path.amplifier().fiber(60.0).oss().amplifier().oss().fiber(60.0).amplifier();
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluate(path));
  }
}
BENCHMARK(BM_PathEvaluation);

void BM_BerModel(benchmark::State& state) {
  double osnr = 20.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp16qam_pre_fec_ber(osnr));
    osnr = 20.0 + (osnr > 35.0 ? -15.0 : 0.01);
  }
}
BENCHMARK(BM_BerModel);

}  // namespace

int main(int argc, char** argv) {
  iris::obs::Args args("bench_fig9_osnr_cascade");
  args.option("max_amps", g_max_amps, iris::obs::in(0, 1000))
      .metrics()
      .benchmark_flags();
  if (const int rc = args.parse(argc, argv)) return rc;

  print_table();
  return iris::bench::run_benchmarks(args);
}
