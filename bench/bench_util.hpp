// Shared helpers for the reproduction benches: the fixed synthetic region
// set standing in for the paper's 10 Azure fiber maps, CDF printing, small
// formatting utilities, and the shared tail of every main. Every bench
// prints its table before running its google-benchmark timings, so
// `./bench_x` regenerates the figure's series directly.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/plan_region.hpp"
#include "fibermap/generator.hpp"
#include "obs/argparse.hpp"
#include "obs/export.hpp"

namespace iris::bench {

/// The 10 base fiber maps (seeded) used across Fig. 12 and the appendices.
inline std::vector<std::uint64_t> base_map_seeds() {
  return {11, 22, 33, 44, 55, 66, 77, 88, 99, 110};
}

/// Region generation matching the SS6.1 evaluation setup: n DCs placed on a
/// backbone; capacities in fibers applied per scenario.
inline fibermap::FiberMap make_eval_region(std::uint64_t seed, int dc_count,
                                           int capacity_fibers) {
  fibermap::RegionParams params;
  params.seed = seed;
  params.dc_count = dc_count;
  params.hut_count = 8;
  params.dc_attach_huts = 2;
  params.capacity_fibers = capacity_fibers;
  params.extent_km = 45.0;
  return fibermap::generate_region(params);
}

inline core::PlannerParams eval_params(int tolerance, int lambda) {
  core::PlannerParams params;
  params.failure_tolerance = tolerance;
  params.channels.wavelengths_per_fiber = lambda;
  return params;
}

/// Prints a CDF of `values` at the given resolution: "value cdf" rows.
inline void print_cdf(const std::string& header, std::vector<double> values,
                      int rows = 20) {
  std::sort(values.begin(), values.end());
  std::printf("# CDF: %s (%zu samples)\n", header.c_str(), values.size());
  std::printf("%12s %8s\n", "value", "cdf");
  if (values.empty()) return;
  for (int r = 1; r <= rows; ++r) {
    const double q = static_cast<double>(r) / rows;
    const auto idx = static_cast<std::size_t>(
        q * (static_cast<double>(values.size()) - 1.0));
    std::printf("%12.3f %8.3f\n", values[idx], q);
  }
}

/// Fraction of values strictly greater than a threshold.
inline double fraction_above(const std::vector<double>& values, double thr) {
  if (values.empty()) return 0.0;
  const auto count = std::count_if(values.begin(), values.end(),
                                   [&](double v) { return v > thr; });
  return static_cast<double>(count) / static_cast<double>(values.size());
}

/// Median of a (copied) value set.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Writes the `--metrics` export when it was asked for. Returns `rc`, or 1
/// when the export cannot be written (2 stays reserved for usage errors).
inline int finish(const obs::Args& args, int rc = 0) {
  const bool failed = args.metrics_requested() &&
                      !obs::dump_default_registry(args.metrics_path());
  return failed ? 1 : rc;
}

/// The tail of a figure bench: runs the google-benchmark timings selected by
/// the forwarded `--benchmark_*` flags, then finish().
inline int run_benchmarks(obs::Args& args) {
  auto& argv = args.benchmark_argv();
  int argc = static_cast<int>(argv.size()) - 1;
  benchmark::Initialize(&argc, argv.data());
  benchmark::RunSpecifiedBenchmarks();
  return finish(args);
}

}  // namespace iris::bench
