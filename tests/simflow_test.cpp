#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "simflow/simulator.hpp"
#include "simflow/traffic.hpp"
#include "simflow/workloads.hpp"

namespace iris::simflow {
namespace {

TEST(Workloads, PresetsAreWellFormed) {
  for (const auto& dist : FlowSizeDistribution::paper_presets()) {
    EXPECT_FALSE(dist.name().empty());
    EXPECT_GE(dist.points().size(), 2u);
    EXPECT_DOUBLE_EQ(dist.points().back().cdf, 1.0);
    EXPECT_GT(dist.mean_bytes(), 0.0);
  }
}

TEST(Workloads, RejectsMalformedCdfs) {
  using P = FlowSizeDistribution::Point;
  EXPECT_THROW(FlowSizeDistribution("bad", {P{1e3, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(FlowSizeDistribution("bad", {P{1e3, 0.5}, P{2e3, 0.5}}),
               std::invalid_argument);
  EXPECT_THROW(FlowSizeDistribution("bad", {P{2e3, 0.0}, P{1e3, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(FlowSizeDistribution("bad", {P{1e3, 0.0}, P{2e3, 0.9}}),
               std::invalid_argument);
}

TEST(Workloads, SamplesRespectSupportBounds) {
  std::mt19937_64 rng(1);
  const auto dist = FlowSizeDistribution::web_search();
  for (int i = 0; i < 10000; ++i) {
    const double bytes = dist.sample(rng);
    EXPECT_GE(bytes, dist.points().front().bytes);
    EXPECT_LE(bytes, dist.points().back().bytes);
  }
}

TEST(Workloads, EmpiricalMeanMatchesAnalyticalMean) {
  std::mt19937_64 rng(7);
  const auto dist = FlowSizeDistribution::facebook_web();
  double sum = 0.0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) sum += dist.sample(rng);
  const double empirical = sum / kSamples;
  EXPECT_NEAR(empirical / dist.mean_bytes(), 1.0, 0.05);
}

TEST(Workloads, HadoopIsHeavierThanWeb) {
  EXPECT_GT(FlowSizeDistribution::hadoop().mean_bytes(),
            FlowSizeDistribution::facebook_web().mean_bytes());
}

TEST(Workloads, FromCsvParsesAndSamples) {
  const auto dist = FlowSizeDistribution::from_csv(
      "custom",
      "# bytes cdf\n"
      "1000 0.0\n"
      "50000 0.5\n"
      "2000000 1.0\n");
  EXPECT_EQ(dist.name(), "custom");
  EXPECT_EQ(dist.points().size(), 3u);
  std::mt19937_64 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double b = dist.sample(rng);
    EXPECT_GE(b, 1000.0);
    EXPECT_LE(b, 2000000.0);
  }
}

TEST(Workloads, FromCsvRejectsGarbage) {
  EXPECT_THROW((void)FlowSizeDistribution::from_csv("x", "abc 0.5\n"),
               std::invalid_argument);
  EXPECT_THROW((void)FlowSizeDistribution::from_csv("x", "1000\n"),
               std::invalid_argument);
  EXPECT_THROW((void)FlowSizeDistribution::from_csv("x", "1000 0.0\n"),
               std::invalid_argument);  // fewer than 2 points
  EXPECT_THROW(
      (void)FlowSizeDistribution::from_csv("x", "1000 0.0\n2000 0.9\n"),
      std::invalid_argument);  // does not end at 1
}

TEST(Traffic, DemandsSumToTotal) {
  TrafficModelParams params;
  params.pair_count = 30;
  params.total_gbps = 100.0;
  params.seed = 3;
  TrafficModel model(params);
  double sum = 0.0;
  for (double d : model.demands_gbps()) {
    EXPECT_GT(d, 0.0);
    sum += d;
  }
  EXPECT_NEAR(sum, 100.0, 1e-9);
  model.shift();
  sum = 0.0;
  for (double d : model.demands_gbps()) sum += d;
  EXPECT_NEAR(sum, 100.0, 1e-9);
}

TEST(Traffic, HeavyTailConcentratesLoad) {
  TrafficModelParams params;
  params.pair_count = 100;
  params.total_gbps = 100.0;
  params.seed = 5;
  TrafficModel model(params);
  auto demands = model.demands_gbps();
  std::sort(demands.begin(), demands.end(), std::greater<>());
  double top10 = 0.0;
  for (int i = 0; i < 10; ++i) top10 += demands[i];
  // A few pairs exchange most of the traffic (SS6.3).
  EXPECT_GT(top10, 35.0);
}

TEST(Traffic, BoundedShiftStaysBounded) {
  TrafficModelParams params;
  params.pair_count = 50;
  params.change_fraction = 0.1;
  params.seed = 9;
  TrafficModel model(params);
  const auto before = model.demands_gbps();
  model.shift();
  const auto after = model.demands_gbps();
  for (std::size_t i = 0; i < before.size(); ++i) {
    // Renormalization adds a little slack beyond the raw 10% bound.
    EXPECT_NEAR(after[i] / before[i], 1.0, 0.25);
  }
}

TEST(Traffic, UnboundedShiftRedraws) {
  TrafficModelParams params;
  params.pair_count = 50;
  params.change_fraction = -1.0;  // unbounded
  params.seed = 11;
  TrafficModel model(params);
  const auto before = model.demands_gbps();
  model.shift();
  const auto after = model.demands_gbps();
  int big_moves = 0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (after[i] > 2.0 * before[i] || after[i] < 0.5 * before[i]) ++big_moves;
  }
  EXPECT_GT(big_moves, 5);  // cold pairs became hot and vice versa
}

TEST(Traffic, StaysRenormalizedOverLongHorizons) {
  // Renormalization must not drift: after thousands of bounded shifts the
  // aggregate is still exactly the configured load and no pair has decayed
  // to zero or gone negative.
  TrafficModelParams params;
  params.pair_count = 40;
  params.total_gbps = 250.0;
  params.change_fraction = 0.5;
  params.seed = 17;
  TrafficModel model(params);
  for (int step = 0; step < 2000; ++step) {
    model.shift();
    double sum = 0.0;
    for (double d : model.demands_gbps()) {
      ASSERT_GE(d, 0.0);
      sum += d;
    }
    ASSERT_NEAR(sum, 250.0, 1e-6) << "drifted by step " << step;
  }
}

TEST(Traffic, BoundedShiftRespectsChangeFractionEveryStep) {
  // Each pair's per-step ratio is a draw in [1-cf, 1+cf] times the global
  // renormalization, itself within [1/(1+cf), 1/(1-cf)] -- so the ratio is
  // bounded by (1-cf)/(1+cf) and (1+cf)/(1-cf) on EVERY step, not just the
  // first.
  TrafficModelParams params;
  params.pair_count = 25;
  params.change_fraction = 0.3;
  params.seed = 23;
  TrafficModel model(params);
  const double lo = (1.0 - params.change_fraction) /
                    (1.0 + params.change_fraction);
  const double hi = (1.0 + params.change_fraction) /
                    (1.0 - params.change_fraction);
  auto before = model.demands_gbps();
  for (int step = 0; step < 500; ++step) {
    model.shift();
    const auto& after = model.demands_gbps();
    for (std::size_t i = 0; i < before.size(); ++i) {
      const double ratio = after[i] / before[i];
      ASSERT_GE(ratio, lo - 1e-9) << "pair " << i << " step " << step;
      ASSERT_LE(ratio, hi + 1e-9) << "pair " << i << " step " << step;
    }
    before = after;
  }
}

TEST(Traffic, RejectsBadParams) {
  TrafficModelParams params;
  params.pair_count = 0;
  EXPECT_THROW(TrafficModel{params}, std::invalid_argument);
}

SimParams small_sim(Fabric fabric, std::uint64_t seed = 7) {
  SimParams params;
  params.duration_s = 3.0;
  params.utilization = 0.4;
  params.change_interval_s = 1.0;
  params.fabric = fabric;
  params.traffic.pair_count = 10;
  params.traffic.total_gbps = 10.0;
  params.traffic.seed = seed;
  params.seed = seed;
  return params;
}

TEST(Simulator, ProducesFlowsAndIsDeterministic) {
  const auto workload = FlowSizeDistribution::facebook_web();
  const auto a = simulate(workload, small_sim(Fabric::kIris));
  const auto b = simulate(workload, small_sim(Fabric::kIris));
  ASSERT_GT(a.flow_count(), 1000u);
  ASSERT_EQ(a.flow_count(), b.flow_count());
  for (std::size_t i = 0; i < std::min<std::size_t>(100, a.flow_count()); ++i) {
    EXPECT_DOUBLE_EQ(a.flows[i].fct_s, b.flows[i].fct_s);
    EXPECT_DOUBLE_EQ(a.flows[i].bytes, b.flows[i].bytes);
  }
}

TEST(Simulator, SameArrivalsAcrossFabrics) {
  const auto workload = FlowSizeDistribution::facebook_web();
  const auto iris = simulate(workload, small_sim(Fabric::kIris));
  const auto eps = simulate(workload, small_sim(Fabric::kEps));
  // Same seed -> same flow population; only completion times may differ.
  EXPECT_EQ(iris.flow_count(), eps.flow_count());
}

TEST(Simulator, AllFctsArePositiveAndFinite) {
  const auto workload = FlowSizeDistribution::web_search();
  const auto result = simulate(workload, small_sim(Fabric::kIris));
  for (const auto& f : result.flows) {
    EXPECT_GT(f.fct_s, 0.0);
    EXPECT_LT(f.fct_s, 1e4);
    EXPECT_GT(f.bytes, 0.0);
  }
}

TEST(Simulator, ZeroDemandIntervalsProduceNoFlows) {
  // Regression: the event loop used to treat a zero-demand interval's
  // boundary as an arrival, injecting one spurious flow per boundary. A
  // region with zero offered load must complete zero flows.
  auto params = small_sim(Fabric::kIris);
  params.traffic.total_gbps = 0.0;
  const auto result = simulate(FlowSizeDistribution::facebook_web(), params);
  EXPECT_EQ(result.flow_count(), 0u);
  // And EPS likewise, across several zero-demand boundaries.
  params.fabric = Fabric::kEps;
  EXPECT_EQ(simulate(FlowSizeDistribution::web_search(), params).flow_count(),
            0u);
}

TEST(Simulator, EpsNeverReconfigures) {
  const auto workload = FlowSizeDistribution::facebook_web();
  const auto eps = simulate(workload, small_sim(Fabric::kEps));
  EXPECT_EQ(eps.reconfigurations, 0);
  const auto iris = simulate(workload, small_sim(Fabric::kIris));
  EXPECT_GT(iris.reconfigurations, 0);
}

TEST(Simulator, IrisSlowdownIsSmallAtModerateLoad) {
  // The paper's headline: <2% 99th-percentile slowdown at reasonable
  // reconfiguration intervals.
  const auto workload = FlowSizeDistribution::facebook_web();
  auto params = small_sim(Fabric::kIris);
  params.duration_s = 5.0;
  params.change_interval_s = 5.0;
  const auto iris = simulate(workload, params);
  params.fabric = Fabric::kEps;
  const auto eps = simulate(workload, params);
  const double slowdown = fct_percentile(iris, 0.99) / fct_percentile(eps, 0.99);
  EXPECT_LT(slowdown, 1.2);
  // Both fabrics share the capacity trajectory, so Iris can only be slower.
  EXPECT_GE(slowdown, 1.0 - 1e-9);
}

TEST(Simulator, FrequentReconfigurationHurtsMore) {
  const auto workload = FlowSizeDistribution::facebook_web();
  auto frequent = small_sim(Fabric::kIris);
  frequent.duration_s = 4.0;
  frequent.change_interval_s = 0.5;
  frequent.utilization = 0.7;
  frequent.traffic.change_fraction = -1.0;
  auto rare = frequent;
  rare.change_interval_s = 4.0;

  const auto f = simulate(workload, frequent);
  const auto r = simulate(workload, rare);
  EXPECT_GT(f.reconfigurations, r.reconfigurations);
}

TEST(Simulator, PercentilesAreOrdered) {
  const auto workload = FlowSizeDistribution::cache_follower();
  const auto result = simulate(workload, small_sim(Fabric::kIris));
  const double p50 = fct_percentile(result, 0.5);
  const double p90 = fct_percentile(result, 0.9);
  const double p99 = fct_percentile(result, 0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GT(p50, 0.0);
}

TEST(Simulator, ShortFlowFilterSelectsSubset) {
  const auto workload = FlowSizeDistribution::web_search();
  const auto result = simulate(workload, small_sim(Fabric::kIris));
  const double all99 = fct_percentile(result, 0.99);
  const double short99 = fct_percentile(result, 0.99, kShortFlowBytes);
  EXPECT_GT(all99, 0.0);
  EXPECT_GT(short99, 0.0);
  // Short flows finish faster at the tail than the full population, which
  // includes multi-MB transfers.
  EXPECT_LT(short99, all99);
}

TEST(Simulator, RejectsBadParameters) {
  const auto workload = FlowSizeDistribution::facebook_web();
  SimParams params = small_sim(Fabric::kIris);
  params.utilization = 1.5;
  EXPECT_THROW((void)simulate(workload, params), std::invalid_argument);
  params = small_sim(Fabric::kIris);
  params.duration_s = -1.0;
  EXPECT_THROW((void)simulate(workload, params), std::invalid_argument);

  const auto rejects = [&](const SimParams& p, const std::string& what) {
    try {
      (void)simulate(workload, p);
      ADD_FAILURE() << "accepted: " << what;
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };

  // Every floating-point number, nested ones included, must be finite.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::function<void(SimParams&, double)>> fields{
      [](SimParams& p, double v) { p.duration_s = v; },
      [](SimParams& p, double v) { p.utilization = v; },
      [](SimParams& p, double v) { p.change_interval_s = v; },
      [](SimParams& p, double v) { p.reconfig_outage_s = v; },
      [](SimParams& p, double v) { p.fiber_granularity_gbps = v; },
      [](SimParams& p, double v) { p.traffic.total_gbps = v; },
      [](SimParams& p, double v) { p.traffic.pareto_alpha = v; },
      [](SimParams& p, double v) { p.traffic.change_fraction = v; },
      [](SimParams& p, double v) { p.cuts.push_back({v, 0.2, 0.11}); },
      [](SimParams& p, double v) { p.cuts.push_back({1.0, v, 0.11}); },
      [](SimParams& p, double v) { p.cuts.push_back({1.0, 0.2, v}); }};
  for (std::size_t f = 0; f < fields.size(); ++f) {
    for (const double v : {nan, inf, -inf}) {
      params = small_sim(Fabric::kIris);
      fields[f](params, v);
      EXPECT_EQ(rejects(params, "field " + std::to_string(f)),
                "simulate: non-finite parameter");
    }
  }

  // A finite but huge run: the interval count would overflow an int, or
  // the arrivals would not fit in memory.
  params = small_sim(Fabric::kIris);
  params.duration_s = 1e300;
  EXPECT_EQ(rejects(params, "duration 1e300"),
            "simulate: more than 1e6 change intervals in the arrival window");
  params = small_sim(Fabric::kIris);
  params.change_interval_s = 1e-6;  // 3e6 intervals
  EXPECT_EQ(rejects(params, "interval 1e-6 s"),
            "simulate: more than 1e6 change intervals in the arrival window");
  params = small_sim(Fabric::kIris);
  params.duration_s = 1e6;  // 1e6 intervals, but ~1e10 arrivals
  EXPECT_EQ(rejects(params, "duration 1e6"),
            "simulate: more than 1e7 expected flow arrivals");
}

TEST(Simulator, SummaryIsConsistent) {
  const auto workload = FlowSizeDistribution::web_search();
  const auto result = simulate(workload, small_sim(Fabric::kIris));
  const auto s = summarize(result);
  EXPECT_EQ(s.flows, result.flow_count());
  EXPECT_GT(s.short_flows, 0u);
  EXPECT_LT(s.short_flows, s.flows);
  EXPECT_LE(s.p50_s, s.p90_s);
  EXPECT_LE(s.p90_s, s.p99_s);
  EXPECT_LE(s.p99_s, s.p999_s);
  EXPECT_GT(s.mean_s, 0.0);
  EXPECT_DOUBLE_EQ(s.p99_s, fct_percentile(result, 0.99));
}

TEST(Simulator, EmptySummaryIsZero) {
  const auto s = summarize(SimResult{});
  EXPECT_EQ(s.flows, 0u);
  EXPECT_DOUBLE_EQ(s.mean_s, 0.0);
}

TEST(Simulator, SlowdownHelperMatchesManualComputation) {
  const auto workload = FlowSizeDistribution::facebook_web();
  auto params = small_sim(Fabric::kIris);
  const double helper = iris_vs_eps_p99_slowdown(workload, params);
  const auto iris = simulate(workload, params);
  params.fabric = Fabric::kEps;
  const auto eps = simulate(workload, params);
  EXPECT_DOUBLE_EQ(helper,
                   fct_percentile(iris, 0.99) / fct_percentile(eps, 0.99));
}

TEST(Simulator, FiberCutStallsAffectedPairsOnly) {
  const auto workload = FlowSizeDistribution::facebook_web();
  auto params = small_sim(Fabric::kIris);
  params.duration_s = 4.0;
  auto with_cut = params;
  with_cut.cuts.push_back(CutEvent{2.0, 0.3, 0.110});

  const auto clean = simulate(workload, params);
  const auto cut = simulate(workload, with_cut);
  // Same flow population (arrivals are capacity-independent).
  EXPECT_EQ(clean.flow_count(), cut.flow_count());
  // The cut inflates the tail, but everything still completes.
  EXPECT_GE(fct_percentile(cut, 0.999), fct_percentile(clean, 0.999));
  for (const auto& f : cut.flows) EXPECT_GT(f.fct_s, 0.0);
}

TEST(Simulator, LongerRerouteHurtsMore) {
  const auto workload = FlowSizeDistribution::facebook_web();
  auto params = small_sim(Fabric::kIris);
  params.duration_s = 4.0;
  params.utilization = 0.7;
  auto quick = params;
  quick.cuts.push_back(CutEvent{2.0, 0.5, 0.110});
  auto slow = params;
  slow.cuts.push_back(CutEvent{2.0, 0.5, 1.5});

  const auto q = summarize(simulate(workload, quick));
  const auto s = summarize(simulate(workload, slow));
  EXPECT_GT(s.p999_s, q.p999_s);
}

class UtilizationSweep : public ::testing::TestWithParam<double> {};

TEST_P(UtilizationSweep, HigherUtilizationRaisesTailFct) {
  const auto workload = FlowSizeDistribution::facebook_web();
  auto params = small_sim(Fabric::kIris);
  params.utilization = GetParam();
  const auto here = simulate(workload, params);
  params.utilization = GetParam() / 2.0;
  const auto lighter = simulate(workload, params);
  EXPECT_GE(fct_percentile(here, 0.99), 0.8 * fct_percentile(lighter, 0.99));
}

INSTANTIATE_TEST_SUITE_P(Utils, UtilizationSweep,
                         ::testing::Values(0.2, 0.4, 0.7));

}  // namespace
}  // namespace iris::simflow
