// Failure drill: exhaustively verify that a planned region really delivers
// its OC4 guarantee -- every DC pair keeps a feasible shortest path under
// every failure scenario up to the tolerance -- and measure how path
// lengths degrade as ducts are cut.
//
// Usage: ./build/examples/failure_drill [tolerance]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/plan_region.hpp"
#include "fibermap/generator.hpp"
#include "graph/shortest_path.hpp"
#include "obs/argparse.hpp"

int main(int argc, char** argv) {
  using namespace iris;

  int tolerance = 2;
  obs::Args args("failure_drill");
  args.positional("tolerance", tolerance, obs::at_least(0));
  if (const int rc = args.parse(argc, argv)) return rc;

  fibermap::RegionParams region;
  region.seed = 31;
  region.dc_count = 6;
  region.hut_count = 10;
  region.capacity_fibers = 8;
  region.dc_attach_huts = 3;
  const auto map = fibermap::generate_region(region);

  core::PlannerParams params;
  params.failure_tolerance = tolerance;
  std::printf("planning %zu-DC region with %d-cut tolerance...\n",
              map.dcs().size(), tolerance);
  const auto plan = core::plan_region(map, params);
  const auto check = core::validate_plan(map, plan.network, plan.amp_cut);

  std::printf("scenarios evaluated: %lld\n", plan.network.scenarios_evaluated);
  std::printf("paths checked:       %lld\n", check.paths_checked);
  std::printf("infeasible paths:    %lld\n", check.infeasible_paths);
  std::printf("disconnected pairs:  %lld (DC cut off entirely)\n",
              check.pairs_disconnected);

  // Path-length degradation under cuts: compare each pair's baseline path
  // with its worst surviving path across all scenarios.
  const auto& dcs = map.dcs();
  std::vector<double> stretch;
  const graph::ScenarioSet scenarios = core::planner_scenarios(map, params);
  scenarios.for_each([&](const graph::EdgeMask& mask,
                         std::span<const graph::EdgeId>, int) {
    for (std::size_t i = 0; i < dcs.size(); ++i) {
      const auto tree = graph::dijkstra(map.graph(), dcs[i], mask);
      for (std::size_t j = i + 1; j < dcs.size(); ++j) {
        if (!tree.reachable(dcs[j])) continue;
        const auto& base =
            plan.network.baseline_paths.at(core::DcPair(dcs[i], dcs[j]));
        stretch.push_back(tree.dist_km[dcs[j]] / base.length_km);
      }
    }
  });
  std::sort(stretch.begin(), stretch.end());
  std::printf("\npath stretch under failures (surviving / baseline):\n");
  std::printf("  median %.2fx   p99 %.2fx   max %.2fx\n",
              stretch[stretch.size() / 2], stretch[stretch.size() * 99 / 100],
              stretch.back());

  const auto prices = cost::PriceBook::paper_defaults();
  std::printf("\nresilience price: Iris with %d-cut tolerance costs $%.0f/yr\n",
              tolerance, plan.iris.total_cost(prices));
  std::printf("(an EPS fabric with NO guarantees: $%.0f/yr)\n",
              plan.eps.total_cost(prices));
  return check.ok() ? 0 : 1;
}
