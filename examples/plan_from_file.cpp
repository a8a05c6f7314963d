// Ops-style CLI: read a fiber map from a file (or generate a starter one),
// audit its resilience, plan it, and print the full report with an ASCII
// map -- the end-to-end workflow a deployment team would run per region.
//
// Usage:
//   ./build/examples/plan_from_file <map-file> [tolerance] [lambda]
//   ./build/examples/plan_from_file --generate <map-file>   # write a sample
#include <cstdio>
#include <fstream>
#include <string>

#include "core/plan_region.hpp"
#include "core/report.hpp"
#include "fibermap/generator.hpp"
#include "fibermap/render.hpp"
#include "fibermap/serialize.hpp"
#include "graph/resilience.hpp"
#include "obs/argparse.hpp"

namespace {

int generate_sample(const std::string& path) {
  iris::fibermap::RegionParams params;
  params.dc_count = 6;
  params.capacity_fibers = 16;
  params.dc_attach_huts = 3;
  params.seed = 42;
  const auto map = iris::fibermap::generate_region(params);
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  iris::fibermap::save(map, out);
  std::printf("wrote sample region to %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace iris;
  std::string path;
  int tolerance = 1;
  int lambda = 40;
  bool generate = false;
  obs::Args args("plan_from_file");
  args.required("map-file", path)
      .positional("tolerance", tolerance, obs::at_least(0))
      .positional("lambda", lambda, obs::at_least(1))
      .flag("--generate", generate, "write a sample region to <map-file>");
  if (const int rc = args.parse(argc, argv)) return rc;
  if (generate) return generate_sample(path);

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 1;
  }
  fibermap::FiberMap map;
  try {
    map = fibermap::load(in);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "parse error: %s\n", e.what());
    return 1;
  }
  core::PlannerParams params;
  params.failure_tolerance = tolerance;
  params.channels.wavelengths_per_fiber = lambda;
  const auto plan = core::plan_region(map, params);
  const auto check = core::validate_plan(map, plan.network, plan.amp_cut);

  core::ReportOptions options;
  options.include_pair_table = map.dcs().size() <= 8;
  std::printf("%s", core::region_report(map, plan, options).c_str());
  std::printf("\noptical validation: %s (%lld paths checked)\n",
              check.ok() ? "PASS" : "FAIL", check.paths_checked);
  return check.ok() ? 0 : 1;
}
