// Ablation: reconfiguration cadence vs policy hysteresis and strategy.
//
// The paper's premise is that regional DC-DC traffic is slow-changing, so a
// circuit-switched core reconfigures rarely (SS1, SS6.3). This bench runs
// the full closed loop -- heavy-tailed demand with bounded drift, EWMA +
// hysteresis policy, real controller applies on emulated devices -- and
// shows how reconfiguration count and cumulative capacity-gap time shrink
// as the hysteresis widens, and vanish under make-before-break.
//
// Overrides parse strictly (whole-token, exit 2 on garbage); with no
// arguments the table is byte-identical to the historical run.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.hpp"
#include "control/closed_loop.hpp"
#include "simflow/traffic.hpp"

namespace {

using namespace iris;

// Closed-loop horizon per (hysteresis, strategy) cell.
double g_duration_s = 600.0;

struct LoopSetup {
  fibermap::FiberMap map;
  core::ProvisionedNetwork net;
  core::AmpCutPlan plan;
};

LoopSetup make_setup() {
  LoopSetup s{bench::make_eval_region(11, 6, 16), {}, {}};
  s.net = core::provision(s.map, bench::eval_params(1, 40));
  s.plan = core::place_amplifiers_and_cutthroughs(s.map, s.net);
  return s;
}

/// Heavy-tailed demand over the region's pairs, drifting 10% per 10 s, in
/// wavelengths scaled to ~35% of each DC's capacity.
control::DemandAt make_demand(const fibermap::FiberMap& map,
                              std::uint64_t seed) {
  const auto& dcs = map.dcs();
  std::vector<core::DcPair> pairs;
  for (std::size_t i = 0; i < dcs.size(); ++i) {
    for (std::size_t j = i + 1; j < dcs.size(); ++j) {
      pairs.emplace_back(dcs[i], dcs[j]);
    }
  }
  simflow::TrafficModelParams tp;
  tp.pair_count = static_cast<int>(pairs.size());
  tp.total_gbps = 1.0;  // weights only; scaled below
  tp.change_fraction = 0.1;
  tp.seed = seed;
  auto model = std::make_shared<simflow::TrafficModel>(tp);
  auto last_shift = std::make_shared<double>(0.0);
  const long long budget =
      map.dc_capacity_wavelengths(dcs[0], 40) * 35 / 100;

  return [pairs, model, last_shift, budget](double t) {
    while (t - *last_shift >= 10.0) {
      model->shift();
      *last_shift += 10.0;
    }
    control::TrafficMatrix tm;
    const auto& demands = model->demands_gbps();
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      const auto waves = static_cast<long long>(demands[p] * budget);
      if (waves > 0) tm[pairs[p]] = waves;
    }
    return tm;
  };
}

void print_table() {
  const auto setup = make_setup();
  std::printf("# Closed loop over %.0f s of drifting demand (10%%/10s)\n",
              g_duration_s);
  std::printf("%14s %10s | %9s %9s %12s %12s\n", "hysteresis(s)", "strategy",
              "reconfigs", "rejected", "gap(ms)", "spacing(s)");
  for (double hysteresis : {2.0, 10.0, 30.0, 60.0}) {
    for (const bool mbb : {false, true}) {
      control::DeviceLayer devices(setup.map, setup.net, setup.plan);
      control::IrisController controller(setup.map, setup.net, setup.plan,
                                         devices);
      control::PolicyParams pp;
      pp.hysteresis_s = hysteresis;
      pp.headroom = 1.25;
      control::ReconfigPolicy policy(pp);
      control::ClosedLoopParams lp;
      lp.duration_s = g_duration_s;
      lp.sample_interval_s = 1.0;
      lp.strategy = mbb ? control::ReconfigStrategy::kMakeBeforeBreak
                        : control::ReconfigStrategy::kBreakBeforeMake;
      const auto result = control::run_closed_loop(
          controller, policy, make_demand(setup.map, 5), lp);
      std::printf("%14.0f %10s | %9d %9d %12.0f %12.1f\n", hysteresis,
                  mbb ? "MBB" : "BBM", result.reconfigurations,
                  result.rejected, result.total_capacity_gap_ms,
                  result.mean_reconfig_spacing_s(lp.duration_s));
    }
  }
  std::printf("\n# wider hysteresis -> fewer reconfigs; make-before-break"
              " eliminates the capacity gap when spares allow\n\n");
}

void BM_ClosedLoopStep(benchmark::State& state) {
  const auto setup = make_setup();
  control::DeviceLayer devices(setup.map, setup.net, setup.plan);
  control::IrisController controller(setup.map, setup.net, setup.plan,
                                     devices);
  control::ReconfigPolicy policy(control::PolicyParams{});
  const auto demand = make_demand(setup.map, 5);
  double t = 0.0;
  for (auto _ : state) {
    policy.observe(demand(t), t);
    benchmark::DoNotOptimize(policy.propose(t));
    t += 1.0;
  }
}
BENCHMARK(BM_ClosedLoopStep)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  obs::Args args("bench_ablation_policy");
  args.option("duration_s", g_duration_s, obs::above(0.0, 1e7))
      .metrics()
      .benchmark_flags();
  if (const int rc = args.parse(argc, argv)) return rc;

  print_table();
  return bench::run_benchmarks(args);
}
