// Fig. 14: pre-FEC BER over time while the network reconfigures.
//
// Reproduces the testbed experiment of SS6.2 with emulated devices: 3 DCs,
// 4 fiber spans, one intermediate hut whose loopback amplifier serves
// whichever path currently needs it. Every minute the controller swaps the
// span pairing between configurations A(60-60, 20-10) and B(20-60, 60-10).
//
// Paper claims: ~50 ms to recover the signal after a reconfiguration (70 ms
// across two huts); pre-FEC BER stays well below the SD-FEC threshold
// (2e-2) at all other times, like an equivalent static link.
//
// Overrides parse strictly (whole-token, exit 2 on garbage); with no
// arguments the table is byte-identical to the historical run.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <random>

#include "bench_util.hpp"
#include "control/controller.hpp"
#include "optical/lightpath.hpp"

namespace {

using namespace iris;

// BER timeline length; the paper's testbed trace runs two minutes.
double g_duration_s = 120.0;

/// Builds the Fig. 13(b) testbed map: DC1 sends to DC2 and DC3 through a
/// hut; span lengths chosen so one path needs the hut amplifier at a time.
fibermap::FiberMap testbed_map() {
  fibermap::FiberMap map;
  const auto dc1 = map.add_dc("DC1", {0.0, 0.0}, 2);
  const auto hut = map.add_hut("hut", {30.0, 0.0});
  const auto dc2 = map.add_dc("DC2", {60.0, 0.0}, 2);
  const auto dc3 = map.add_dc("DC3", {35.0, 5.0}, 2);
  map.add_duct_with_length(dc1, hut, 60.0);
  map.add_duct_with_length(hut, dc2, 60.0);  // 120 km path: needs the amp
  map.add_duct_with_length(hut, dc3, 10.0);
  return map;
}

struct BerSample {
  double t_s;
  double ber_dc2;
  double ber_dc3;
};

/// BER timeline: steady-state BER from the optical model per path, a signal
/// gap during each reconfiguration, and small measurement jitter.
std::vector<BerSample> ber_timeline(double duration_s, double reconfig_every_s,
                                    double recovery_ms) {
  const optical::OpticalSpec spec;
  // Path DC1->DC2: 120 km, amp at the hut -> 3 amplifiers end to end.
  const double osnr_dc2 = optical::received_osnr_db(3, 2.0, spec);
  // Path DC1->DC3: 70 km, terminal amps only.
  const double osnr_dc3 = optical::received_osnr_db(2, 2.0, spec);

  std::mt19937_64 rng(42);
  std::normal_distribution<double> jitter_db(0.0, 0.3);
  std::vector<BerSample> samples;
  for (double t = 0.0; t < duration_s; t += 0.01) {  // 10 ms sampling as paper
    const double phase = std::fmod(t, reconfig_every_s);
    const bool in_gap = phase < recovery_ms / 1000.0;
    BerSample s;
    s.t_s = t;
    if (in_gap) {
      s.ber_dc2 = 0.5;  // no light during the switch: receiver sees noise
      s.ber_dc3 = 0.5;
    } else {
      s.ber_dc2 = optical::dp16qam_pre_fec_ber(osnr_dc2 + jitter_db(rng));
      s.ber_dc3 = optical::dp16qam_pre_fec_ber(osnr_dc3 + jitter_db(rng));
    }
    samples.push_back(s);
  }
  return samples;
}

void print_table() {
  const auto map = testbed_map();
  const auto net = core::provision(map, bench::eval_params(0, 40));
  const auto plan = core::place_amplifiers_and_cutthroughs(map, net);
  control::DeviceLayer devices(map, net, plan);
  control::IrisController controller(map, net, plan, devices);

  const auto& dcs = map.dcs();
  control::TrafficMatrix tm;
  tm[core::DcPair(dcs[0], dcs[1])] = 2;  // DC1 -> DC2, two wavelengths
  tm[core::DcPair(dcs[0], dcs[2])] = 2;  // DC1 -> DC3
  const auto report = controller.apply_traffic_matrix(tm);

  std::printf("# Fig. 14 testbed reconfiguration (emulated devices)\n");
  std::printf("amplifiers placed at hut: %lld\n", plan.total_amplifiers());
  std::printf("reconfiguration capacity gap: %.0f ms (paper: ~50 ms one hut,"
              " ~70 ms two huts)\n", report.capacity_gap_ms());
  std::printf("oss operations: %lld, verified: %s\n\n", report.oss_operations,
              report.verified ? "yes" : "no");

  const auto samples = ber_timeline(g_duration_s, 60.0, report.capacity_gap_ms());
  const optical::OpticalSpec spec;
  double worst_steady = 0.0;
  int gap_samples = 0;
  for (const auto& s : samples) {
    if (s.ber_dc2 >= 0.4) {
      ++gap_samples;
    } else {
      worst_steady = std::max({worst_steady, s.ber_dc2, s.ber_dc3});
    }
  }
  std::printf("# BER-vs-time summary over %.0f s with reconfig every 60 s\n",
              samples.back().t_s);
  std::printf("%16s %12s\n", "metric", "value");
  std::printf("%16s %12.3e\n", "worst steady BER", worst_steady);
  std::printf("%16s %12.1e\n", "SD-FEC threshold", spec.sd_fec_ber_threshold);
  std::printf("%16s %9d ms\n", "signal gap",
              static_cast<int>(gap_samples * 10.0 / 2));  // two reconfigs
  std::printf("\n# timeline excerpt around the t=60 s reconfiguration:\n");
  std::printf("%8s %12s %12s\n", "t(s)", "BER(DC2)", "BER(DC3)");
  for (const auto& s : samples) {
    if (s.t_s >= 59.95 && s.t_s <= 60.15) {
      std::printf("%8.2f %12.3e %12.3e\n", s.t_s, s.ber_dc2, s.ber_dc3);
    }
  }
  std::printf("\n# paper: steady BER well below 2e-2; recovery <= 70 ms\n");
  std::printf("measured: steady BER %.1e (%s threshold), gap %.0f ms\n\n",
              worst_steady,
              worst_steady < spec.sd_fec_ber_threshold ? "below" : "ABOVE",
              report.capacity_gap_ms());
}

void BM_ReconfigurationApply(benchmark::State& state) {
  const auto map = testbed_map();
  const auto net = core::provision(map, bench::eval_params(0, 40));
  const auto plan = core::place_amplifiers_and_cutthroughs(map, net);
  const auto& dcs = map.dcs();
  for (auto _ : state) {
    control::DeviceLayer devices(map, net, plan);
    control::IrisController controller(map, net, plan, devices);
    control::TrafficMatrix tm;
    tm[core::DcPair(dcs[0], dcs[1])] = 2;
    benchmark::DoNotOptimize(controller.apply_traffic_matrix(tm));
    tm[core::DcPair(dcs[0], dcs[2])] = 2;
    tm.erase(core::DcPair(dcs[0], dcs[1]));
    benchmark::DoNotOptimize(controller.apply_traffic_matrix(tm));
  }
}
BENCHMARK(BM_ReconfigurationApply)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  obs::Args args("bench_fig14_reconfig_ber");
  args.option("duration_s", g_duration_s, obs::above(0.0, 1e6))
      .metrics()
      .benchmark_flags();
  if (const int rc = args.parse(argc, argv)) return rc;

  print_table();
  return bench::run_benchmarks(args);
}
