// Observability layer: registry semantics, export determinism (including
// across provisioning thread counts), virtual-clock span nesting, strict
// bench and example argv parsing, and the degraded-time accounting regression.
//
// Every registry-dependent test resets the process-wide registry first and
// skips under -DIRIS_OBS=OFF, where the whole subsystem is no-op stubs.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "control/closed_loop.hpp"
#include "control/controller.hpp"
#include "control/policy.hpp"
#include "core/provision.hpp"
#include "fibermap/generator.hpp"
#include "obs/argparse.hpp"
#include "obs/clock.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace iris::obs {
namespace {

using core::DcPair;

class ObsRegistry : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!compiled_in()) GTEST_SKIP() << "built with IRIS_OBS=OFF";
    registry().reset();
    registry().set_enabled(true);
    registry().set_clock(std::make_unique<VirtualClock>());
  }
  void TearDown() override {
    if (compiled_in()) registry().reset();
  }
};

TEST(ObsKey, LabelsRenderSorted) {
  EXPECT_EQ(key("m.n", {}), "m.n");
  EXPECT_EQ(key("m.n", {{"b", "2"}, {"a", "1"}}), "m.n{a=1,b=2}");
  EXPECT_EQ(key("m.n", {{"outcome", "committed"}}), "m.n{outcome=committed}");
}

TEST_F(ObsRegistry, CountersAccumulateAndMissingReadsZero) {
  auto& reg = registry();
  EXPECT_EQ(reg.counter("nope"), 0);
  reg.add("a.b");
  reg.add("a.b", 4);
  EXPECT_EQ(reg.counter("a.b"), 5);
  reg.set_enabled(false);
  reg.add("a.b", 100);
  EXPECT_EQ(reg.counter("a.b"), 5);  // frozen while disabled
}

TEST_F(ObsRegistry, HistogramBucketEdgesAreInclusiveUpperBounds) {
  auto& reg = registry();
  reg.declare_histogram("h", {1.0, 2.0, 4.0});
  reg.observe("h", 1.0);  // exactly on an edge: belongs to that bucket
  reg.observe("h", 1.5);
  reg.observe("h", 4.0);
  reg.observe("h", 5.0);  // beyond the last edge: overflow bucket
  const auto h = reg.histogram("h");
  ASSERT_EQ(h.edges.size(), 3u);
  ASSERT_EQ(h.buckets.size(), 4u);
  EXPECT_EQ(h.buckets[0], 1);
  EXPECT_EQ(h.buckets[1], 1);
  EXPECT_EQ(h.buckets[2], 1);
  EXPECT_EQ(h.buckets[3], 1);
  EXPECT_EQ(h.count, 4);
  EXPECT_DOUBLE_EQ(h.sum, 11.5);
}

TEST_F(ObsRegistry, HistogramDeclarationIsValidated) {
  auto& reg = registry();
  EXPECT_THROW(reg.declare_histogram("bad", {}), std::invalid_argument);
  EXPECT_THROW(reg.declare_histogram("bad", {2.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(reg.declare_histogram("bad", {1.0, 1.0}),
               std::invalid_argument);
  reg.declare_histogram("h", {1.0, 2.0});
  EXPECT_NO_THROW(reg.declare_histogram("h", {1.0, 2.0}));  // same edges: ok
  EXPECT_THROW(reg.declare_histogram("h", {1.0, 3.0}), std::invalid_argument);
}

TEST_F(ObsRegistry, SpansNestUnderTheVirtualClock) {
  auto& reg = registry();
  {
    const Span outer("outer");
    reg.advance_virtual(1.0);
    {
      const Span inner("inner");
      reg.advance_virtual(0.25);
    }
    reg.advance_virtual(1.0);
  }
  EXPECT_EQ(reg.counter("span.outer.count"), 1);
  EXPECT_EQ(reg.counter("span.outer/inner.count"), 1);
  EXPECT_DOUBLE_EQ(reg.gauge("span.outer.seconds"), 2.25);
  EXPECT_DOUBLE_EQ(reg.gauge("span.outer/inner.seconds"), 0.25);
  EXPECT_EQ(reg.open_spans(), 0);
  const auto h = reg.histogram("span.outer/inner.duration_s");
  EXPECT_EQ(h.count, 1);
  EXPECT_DOUBLE_EQ(h.sum, 0.25);
}

TEST_F(ObsRegistry, VirtualClockIgnoresAdvanceOnRealClocks) {
  auto& reg = registry();
  EXPECT_TRUE(reg.clock().is_virtual());
  reg.advance_virtual(5.0);
  EXPECT_DOUBLE_EQ(reg.now_s(), 5.0);
  reg.set_clock(std::make_unique<SteadyClock>());
  EXPECT_FALSE(reg.clock().is_virtual());
  const double before = reg.now_s();
  reg.advance_virtual(100.0);  // must be a no-op on wall time
  EXPECT_LT(reg.now_s() - before, 50.0);
}

TEST_F(ObsRegistry, ExportFormatsAreStable) {
  auto& reg = registry();
  reg.add("z.last", 2);
  reg.add("a.first", 1);
  reg.set_gauge("g.v", 0.5);
  reg.declare_histogram("h.d", {1.0});
  reg.observe("h.d", 0.5);
  EXPECT_EQ(export_text(reg),
            "# iris-obs v1\n"
            "counter a.first 1\n"
            "counter z.last 2\n"
            "gauge g.v 0.5\n"
            "hist h.d count 1 sum 0.5 le 1 1 inf 0\n");
  EXPECT_EQ(export_json(reg),
            "{\"counters\":{\"a.first\":1,\"z.last\":2},"
            "\"gauges\":{\"g.v\":0.5},"
            "\"histograms\":{\"h.d\":{\"count\":1,\"sum\":0.5,"
            "\"edges\":[1],\"buckets\":[1,0]}}}");
}

core::PlannerParams sweep_params(int threads = 0) {
  core::PlannerParams params;
  params.failure_tolerance = 1;
  params.channels.wavelengths_per_fiber = 40;
  if (threads > 0) params.threads = threads;
  return params;
}

TEST_F(ObsRegistry, ProvisionMetricsAreByteIdenticalAcrossThreadCounts) {
  fibermap::RegionParams region;
  region.seed = 7;
  region.dc_count = 4;
  region.hut_count = 8;
  region.capacity_fibers = 8;
  const auto map = fibermap::generate_region(region);

  std::vector<std::string> exports;
  for (const int threads : {1, 2, 8}) {
    registry().reset();
    (void)core::provision(map, sweep_params(threads));
    exports.push_back(export_text(registry()));
  }
  EXPECT_GT(registry().counter("sweep.tasks.total"), 0);
  EXPECT_EQ(exports[0], exports[1]);
  EXPECT_EQ(exports[0], exports[2]);
}

// ---- strict bench argv parsing (the atof/atoi replacement) ----

TEST(ObsArgparse, ParseDoubleRejectsWhatAtofSwallowed) {
  EXPECT_FALSE(parse_double("abc").has_value());
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("1.5x").has_value());
  EXPECT_FALSE(parse_double(" 1.5").has_value());
  EXPECT_FALSE(parse_double("inf").has_value());
  EXPECT_FALSE(parse_double("nan").has_value());
  EXPECT_DOUBLE_EQ(parse_double("0.5").value(), 0.5);
  EXPECT_DOUBLE_EQ(parse_double("1e3").value(), 1000.0);
  EXPECT_DOUBLE_EQ(parse_double("-0.25").value(), -0.25);
}

TEST(ObsArgparse, ParseIntegersRejectTrailingJunk) {
  EXPECT_FALSE(parse_ll("xyz").has_value());
  EXPECT_FALSE(parse_ll("3.5").has_value());
  EXPECT_FALSE(parse_ll("12abc").has_value());
  EXPECT_EQ(parse_ll("-3").value(), -3);
  EXPECT_EQ(parse_ll("10000").value(), 10000);
  EXPECT_FALSE(parse_ull("-1").has_value());
  EXPECT_FALSE(parse_ull("5eed").has_value());
  EXPECT_EQ(parse_ull("0x5eed").value(), 0x5eedULL);  // seeds stay hex
  EXPECT_EQ(parse_ull("42").value(), 42ULL);
}

/// An argv for Args::parse with "prog" as argv[0]; owns the token storage,
/// which benchmark_argv() points into.
struct Argv {
  explicit Argv(std::initializer_list<const char*> tokens) {
    strings.emplace_back("prog");
    strings.insert(strings.end(), tokens.begin(), tokens.end());
    for (auto& s : strings) ptrs.push_back(s.data());
    ptrs.push_back(nullptr);
  }
  /// Parses and returns the exit code, keeping stderr in `err`.
  int parse(Args& args) {
    ::testing::internal::CaptureStderr();
    const int rc = args.parse(static_cast<int>(ptrs.size()) - 1, ptrs.data());
    err = ::testing::internal::GetCapturedStderr();
    return rc;
  }
  std::vector<std::string> strings;
  std::vector<char*> ptrs;
  std::string err;
};

TEST(ObsArgparse, SplitKvRequiresAKey) {
  double amp_dead = 0.0;
  std::string text = "unset";
  const auto make = [&] {
    Args args("prog");
    args.option("amp_dead", amp_dead, in(0.0, 1.0)).option("k", text);
    return args;
  };
  for (const char* bad : {"novalue", "=3"}) {
    auto args = make();
    Argv argv{bad};
    EXPECT_EQ(argv.parse(args), 2) << bad;
    EXPECT_NE(argv.err.find(std::string("unknown argument '") + bad + "'"),
              std::string::npos);
  }
  auto args = make();
  Argv argv{"amp_dead=0.1", "k="};
  ASSERT_EQ(argv.parse(args), 0) << argv.err;
  EXPECT_DOUBLE_EQ(amp_dead, 0.1);
  EXPECT_EQ(text, "");  // an empty value is still a value
  // "=3" has no key, so it is a positional's token, not an option's.
  std::string pos;
  Args with_pos("prog");
  with_pos.positional("pos", pos).option("k", text);
  Argv eq{"=3"};
  ASSERT_EQ(eq.parse(with_pos), 0) << eq.err;
  EXPECT_EQ(pos, "=3");
}

TEST(ObsArgparse, MetricsFlagForms) {
  for (const char* bad : {"--metricsfoo", "metrics"}) {
    Args args("prog");
    args.metrics();
    Argv argv{bad};
    EXPECT_EQ(argv.parse(args), 2) << bad;
    EXPECT_FALSE(args.metrics_requested());
  }
  const auto metrics_path = [](std::initializer_list<const char*> tokens) {
    Args args("prog");
    args.metrics();
    Argv argv(tokens);
    EXPECT_EQ(argv.parse(args), 0) << argv.err;
    EXPECT_TRUE(args.metrics_requested());
    return args.metrics_path();
  };
  EXPECT_EQ(metrics_path({"--metrics"}), "");
  EXPECT_EQ(metrics_path({"--metrics=/tmp/m.txt"}), "/tmp/m.txt");
  EXPECT_EQ(metrics_path({"--metrics="}), "");  // empty path means stdout
  EXPECT_EQ(metrics_path({"--metrics=/tmp/m.txt", "--metrics"}), "");
  // A main that does not declare the export rejects the flag.
  Args bare("prog");
  Argv argv{"--metrics"};
  EXPECT_EQ(argv.parse(bare), 2);
}

TEST(ObsArgs, PositionalsFillInDeclarationOrder) {
  double duration = 600.0;
  std::uint64_t seed = 11;
  double fraction = 0.5;
  const auto make = [&] {
    Args args("prog");
    args.positional("duration_s", duration, above(0.0))
        .positional("seed", seed)
        .positional("change_fraction", fraction, in(0.0, 1.0));
    return args;
  };
  auto args = make();
  Argv one{"120"};
  ASSERT_EQ(one.parse(args), 0);
  EXPECT_EQ(duration, 120.0);
  EXPECT_EQ(seed, 11u);  // unset positionals keep their defaults
  auto args3 = make();
  Argv three{"30", "0x5eed", "0.25"};
  ASSERT_EQ(three.parse(args3), 0);
  EXPECT_EQ(seed, 0x5eedu);
  EXPECT_EQ(fraction, 0.25);
  auto args4 = make();
  Argv four{"30", "7", "0.5", "extra"};
  EXPECT_EQ(four.parse(args4), 2);
  EXPECT_NE(four.err.find("prog: unknown argument 'extra'"), std::string::npos);
  auto bad = make();
  Argv garbage{"30", "5eed"};
  EXPECT_EQ(garbage.parse(bad), 2);
  EXPECT_NE(garbage.err.find("prog: malformed seed '5eed'"), std::string::npos);

  std::string path;
  int tolerance = 1;
  Args req("prog");
  req.required("map-file", path).positional("tolerance", tolerance,
                                            at_least(0));
  Argv none{};
  EXPECT_EQ(none.parse(req), 2);
  EXPECT_NE(none.err.find("prog: missing argument 'map-file'"),
            std::string::npos);
}

TEST(ObsArgs, KeyValueBoundsAreInclusiveOrExclusive) {
  struct Case {
    const char* token;
    int rc;
  };
  int regions = 0;
  double gate = 0.0;
  double rate = 0.0;
  int samples = 0;
  long long chaos = 0;
  bool async = false;
  const auto make = [&] {
    Args args("prog");
    args.option("regions", regions, in(1, 64))
        .option("gate", gate, above(0.0))
        .option("rate", rate, in(0.0, 1.0))
        .option("samples", samples, at_least(0))
        .option("chaos", chaos, at_least(0))
        .option("async", async);
    return args;
  };
  for (const Case& c : std::vector<Case>{
           {"regions=1", 0}, {"regions=64", 0}, {"regions=0", 2},
           {"regions=65", 2}, {"regions=1.5", 2}, {"gate=1e-9", 0},
           {"gate=0", 2}, {"gate=-1", 2}, {"rate=0", 0}, {"rate=1", 0},
           {"rate=1.5", 2}, {"rate=nan", 2}, {"samples=2147483647", 0},
           // int targets also stop at the type's own limit
           {"samples=2147483648", 2}, {"chaos=2147483648", 0},
           {"chaos=-1", 2}, {"async=1", 0}, {"async=2", 2}}) {
    auto args = make();
    Argv argv{c.token};
    EXPECT_EQ(argv.parse(args), c.rc) << c.token;
    if (c.rc == 2) {
      EXPECT_NE(argv.err.find(std::string("'") + c.token + "'"),
                std::string::npos);
    }
  }
}

TEST(ObsArgs, BareFlagsSetTheirTarget) {
  bool replan = false;
  const auto make = [&] {
    Args args("prog");
    args.flag("--replan", replan, "replan table");
    return args;
  };
  auto args = make();
  Argv argv{"--replan"};
  ASSERT_EQ(argv.parse(args), 0);
  EXPECT_TRUE(replan);
  for (const char* bad : {"--replan=1", "--repla", "replan", "--bogus"}) {
    auto strict = make();
    Argv b{bad};
    EXPECT_EQ(b.parse(strict), 2) << bad;
  }
}

TEST(ObsArgs, RepeatedKeyLastValueWins) {
  int lambda = 40;
  Args args("prog");
  args.option("lambda", lambda, in(1, 1000));
  Argv argv{"lambda=8", "lambda=64"};
  ASSERT_EQ(argv.parse(args), 0);
  EXPECT_EQ(lambda, 64);
  // Each occurrence is checked on its own.
  Args strict("prog");
  strict.option("lambda", lambda, in(1, 1000));
  Argv bad{"lambda=0", "lambda=64"};
  EXPECT_EQ(bad.parse(strict), 2);
}

TEST(ObsArgs, BenchmarkFlagsForwardOnlyWhenDeclared) {
  Args args("prog");
  args.metrics().benchmark_flags();
  Argv argv{"--benchmark_filter=NONE", "--metrics", "--benchmark_min_time=0"};
  ASSERT_EQ(argv.parse(args), 0);
  const auto& fwd = args.benchmark_argv();
  ASSERT_EQ(fwd.size(), 4u);
  EXPECT_STREQ(fwd[0], "prog");
  EXPECT_STREQ(fwd[1], "--benchmark_filter=NONE");
  EXPECT_STREQ(fwd[2], "--benchmark_min_time=0");
  EXPECT_EQ(fwd[3], nullptr);

  Args plain("prog");
  plain.metrics();
  Argv rejected{"--benchmark_filter=NONE"};
  EXPECT_EQ(rejected.parse(plain), 2);
}

TEST(ObsArgs, UsageListsEveryDeclaredKey) {
  int samples = 0;
  std::uint64_t seed = 0;
  double rate = 0.0;
  double gate = 1.0;
  bool async = false;
  bool steady = false;
  Args args("bench_x");
  args.positional("samples", samples, at_least(0))
      .positional("seed", seed)
      .option("amp_dead", rate, in(0.0, 1.0))
      .option("latency_gate", gate, above(0.0))
      .option("async", async)
      .flag("--steady-clock", steady, "wall-clock spans")
      .metrics()
      .benchmark_flags();
  const std::string usage = args.usage();
  EXPECT_EQ(usage.rfind(
                "usage: bench_x [samples] [seed] [key=value...] "
                "[--steady-clock] [--metrics[=path]] [--benchmark_...]\n",
                0),
            0u)
      << usage;
  for (const char* line :
       {"  samples               integer >= 0\n",
        "  seed                  unsigned integer\n",
        "  amp_dead=             number in [0, 1]\n",
        "  latency_gate=         number > 0\n",
        "  async=                0 or 1\n",
        "  --steady-clock        wall-clock spans\n"}) {
    EXPECT_NE(usage.find(line), std::string::npos) << line << usage;
  }
  // Errors print the same usage after the offending token.
  Argv argv{"amp_dead=2"};
  EXPECT_EQ(argv.parse(args), 2);
  EXPECT_EQ(argv.err, "bench_x: malformed amp_dead 'amp_dead=2'\n" + usage);
}

// ---- degraded-time accounting regression ----

control::TrafficMatrix wobble_demand(const fibermap::FiberMap& map, double t) {
  control::TrafficMatrix tm;
  const auto& dcs = map.dcs();
  const auto tick = static_cast<long long>(t);
  for (std::size_t i = 0; i + 1 < dcs.size(); ++i) {
    const long long base = 40 + 20 * static_cast<long long>(i);
    const long long wobble =
        40 * ((tick / 25 + static_cast<long long>(i)) % 3);
    tm[DcPair(dcs[i], dcs[i + 1])] = base + wobble;
  }
  return tm;
}

/// Seeded faulty closed-loop run with a duct failure and repair injected
/// from the demand callback (which the loop calls once per sample).
control::ClosedLoopResult faulty_loop_run(std::uint64_t seed) {
  fibermap::RegionParams region;
  region.seed = 7;
  region.dc_count = 4;
  region.hut_count = 8;
  region.capacity_fibers = 8;
  const auto map = fibermap::generate_region(region);
  const auto net = core::provision(map, sweep_params());
  const auto plan = core::place_amplifiers_and_cutthroughs(map, net);

  control::FaultConfig faults;
  faults.rates.oss_connect_fail = 0.15;
  faults.rates.oss_disconnect_fail = 0.05;
  faults.rates.tx_tune_fail = 0.05;
  faults.rates.amp_dead = 0.03;
  faults.rates.timeout_fraction = 0.5;
  // A lean retry budget so some applies genuinely fail (the default budget
  // masks nearly every transient): the degraded-time window must both open
  // (failed applies) and close (successful ones) during the run.
  faults.retry.max_command_attempts = 2;
  faults.retry.max_circuit_attempts = 2;
  faults.seed = seed;
  control::IrisController controller(map, net, plan,
                                     control::DeviceLatencies{}, faults);

  control::PolicyParams pp;
  pp.ewma_alpha = 0.5;
  pp.hysteresis_s = 3.0;
  pp.retry_backoff_s = 5.0;
  control::ReconfigPolicy policy(pp);

  control::ClosedLoopParams lp;
  lp.duration_s = 240.0;
  graph::EdgeId victim = graph::kInvalidEdge;
  return control::run_closed_loop(
      controller, policy,
      [&](double t) {
        // Fail a duct that is actually carrying circuits, so the loop's
        // escape hatch fires (an arbitrary victim may be idle).
        if (t == 80.0 && !controller.active_circuits().empty()) {
          victim = controller.active_circuits()[0].route.edges.front();
          controller.fail_duct(victim);
        }
        if (t == 160.0 && victim != graph::kInvalidEdge) {
          controller.restore_duct(victim);
          victim = graph::kInvalidEdge;
        }
        return wobble_demand(map, t);
      },
      lp);
}

TEST_F(ObsRegistry, DegradedTimeIsCountedOncePerIntervalAndMirrorsTheGauge) {
  const double gauge_before = registry().gauge("loop.time_degraded_s");
  const auto result = faulty_loop_run(0xdeadbeef);

  // With per-command faults and a mid-run duct failure some applies must
  // fail, so degraded time is nonzero -- but each interval is counted
  // exactly once, so it can never exceed the run duration (the bug fixed
  // here double-counted intervals spanning escape-hatch reroutes). The
  // exact value is pinned: virtual time advances in whole seconds, so the
  // sum of window lengths is an exact double.
  EXPECT_GT(result.time_degraded_s, 0.0);
  EXPECT_LE(result.time_degraded_s, 240.0);
  EXPECT_DOUBLE_EQ(result.time_degraded_s, 117.0);
  EXPECT_GT(result.escape_hatch_replans, 0);  // the duct failure fired it
  EXPECT_GT(result.rolled_back, 0);           // windows opened...
  EXPECT_GT(result.reconfigurations, 0);      // ...and closed

  // The gauge mirrors the result field increment for increment.
  EXPECT_DOUBLE_EQ(registry().gauge("loop.time_degraded_s") - gauge_before,
                   result.time_degraded_s);

  // Seeded determinism: the accounting is replayable run after run.
  const auto again = faulty_loop_run(0xdeadbeef);
  EXPECT_EQ(result.time_degraded_s, again.time_degraded_s);
  EXPECT_EQ(result.samples, again.samples);
  EXPECT_EQ(result.reconfigurations, again.reconfigurations);
  EXPECT_EQ(result.rejected, again.rejected);
  EXPECT_EQ(result.escape_hatch_replans, again.escape_hatch_replans);
}

TEST_F(ObsRegistry, ClosedLoopResultIsAViewOverTheRegistry) {
  const auto result = faulty_loop_run(0x5eed);
  auto& reg = registry();
  // The loop mirrors every tally it keeps into a loop.* counter; with a
  // fresh registry the absolute counters equal the result fields.
  EXPECT_EQ(reg.counter("loop.samples"), result.samples);
  EXPECT_EQ(reg.counter("loop.reconfigurations"), result.reconfigurations);
  EXPECT_EQ(reg.counter("loop.rejected"), result.rejected);
  EXPECT_EQ(reg.counter("loop.escape_hatch_replans"),
            result.escape_hatch_replans);
  EXPECT_EQ(reg.counter("loop.oss_operations"), result.oss_operations);
  EXPECT_EQ(reg.counter("loop.command_retries"), result.command_retries);
  EXPECT_EQ(reg.counter("loop.rolled_back"), result.rolled_back);
  EXPECT_EQ(reg.counter("loop.degraded_applies"), result.degraded_applies);
  EXPECT_GT(reg.counter("controller.commands.total"), 0);
  EXPECT_GT(reg.counter("span.loop.tick.count"), 0);
}

}  // namespace
}  // namespace iris::obs
