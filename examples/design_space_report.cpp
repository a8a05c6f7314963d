// Design-space report: the SS2 analysis for one region -- latency inflation,
// siting flexibility, and the port-count cost spectrum from centralized to
// fully distributed.
//
// Usage: ./build/examples/design_space_report [seed] [dc_count]
#include <algorithm>
#include <cstdio>

#include "core/centralized.hpp"
#include "core/plan_region.hpp"
#include "fibermap/generator.hpp"
#include "obs/argparse.hpp"
#include "topology/latency.hpp"
#include "topology/port_model.hpp"
#include "topology/siting.hpp"

int main(int argc, char** argv) {
  using namespace iris;

  long long seed = 7;
  int dc_count = 8;
  obs::Args args("design_space_report");
  args.positional("seed", seed, obs::at_least(0))
      .positional("dc_count", dc_count, obs::at_least(1));
  if (const int rc = args.parse(argc, argv)) return rc;

  fibermap::RegionParams region;
  region.seed = seed;
  region.dc_count = dc_count;
  region.capacity_fibers = 16;
  const auto map = fibermap::generate_region(region);
  const auto dcs = map.dc_positions();

  std::printf("=== Region (seed %llu): %d DCs ===\n\n",
              static_cast<unsigned long long>(seed), dc_count);

  // --- Outcome #1: latency (SS2.1) ---------------------------------------
  for (double separation : {5.0, 22.0}) {
    const auto hubs = topology::place_two_hubs(dcs, separation);
    const auto pairs = topology::pair_latencies(dcs, hubs);
    double worst = 0.0;
    for (const auto& p : pairs) worst = std::max(worst, p.inflation());
    std::printf("hubs %4.0f km apart: %4.0f%% of pairs slower via hub, "
                "%4.0f%% by >2x, worst %.1fx\n",
                separation, 100.0 * topology::fraction_above(pairs, 1.0 + 1e-9),
                100.0 * topology::fraction_above(pairs, 2.0), worst);
  }

  // --- Outcome #2: siting flexibility (SS2.2) ----------------------------
  std::printf("\nsiting flexibility (permissible area for one new DC):\n");
  for (double separation : {5.0, 22.0}) {
    const auto hubs = topology::place_two_hubs(dcs, separation);
    const auto cmp = topology::compare_siting(dcs, hubs);
    std::printf("hubs %4.0f km apart: centralized %7.0f km^2, distributed "
                "%7.0f km^2 -> %.1fx\n",
                separation, cmp.centralized_area_km2, cmp.distributed_area_km2,
                cmp.area_increase());
  }

  // --- Outcome #4: cost across the spectrum (SS2.4) ----------------------
  std::printf("\nport-cost spectrum (16 DCs, relative to centralized):\n");
  const auto prices = cost::PriceBook::paper_defaults();
  topology::PortModelInput in;
  in.dc_count = 16;
  in.ports_per_dc = 100;
  in.groups = 1;
  const double base = topology::port_model_cost(
      in, topology::SwitchingVariant::kElectrical, prices).total();
  for (int g : {1, 2, 4, 8, 16}) {
    in.groups = g;
    std::printf("  G=%2d  electrical %5.2fx   optical %5.2fx\n", g,
                topology::port_model_cost(
                    in, topology::SwitchingVariant::kElectrical, prices)
                        .total() / base,
                topology::port_model_cost(
                    in, topology::SwitchingVariant::kOptical, prices)
                        .total() / base);
  }
  // --- The same trade-off on the real fiber map (core planner) -----------
  core::PlannerParams params;
  params.failure_tolerance = 0;
  const auto distributed = core::provision(map, params);

  geo::Point centroid{};
  for (const auto& p : dcs) centroid = centroid + p;
  centroid = centroid / static_cast<double>(dcs.size());
  auto huts = map.huts();
  std::sort(huts.begin(), huts.end(), [&](graph::NodeId a, graph::NodeId b) {
    return geo::distance_sq(centroid, map.site(a).position) <
           geo::distance_sq(centroid, map.site(b).position);
  });
  const auto central = core::plan_centralized(
      map, {huts[0], huts[1]}, params);

  double worst_inflation = 1.0;
  double mean_direct = 0.0, mean_hub = 0.0;
  for (const auto& [pair, path] : distributed.baseline_paths) {
    const double via = central.pair_fiber_km.at(pair);
    mean_direct += path.length_km;
    mean_hub += via;
    worst_inflation = std::max(worst_inflation, via / path.length_km);
  }
  const auto n_pairs = static_cast<double>(distributed.baseline_paths.size());
  std::printf("\non this map's actual fiber (dual-homed hubs %s + %s):\n",
              map.site(huts[0]).name.c_str(), map.site(huts[1]).name.c_str());
  std::printf("  mean pair fiber distance: %.1f km direct vs %.1f km via"
              " hubs (worst inflation %.1fx)\n",
              mean_direct / n_pairs, mean_hub / n_pairs, worst_inflation);
  std::printf("  centralized access fiber: %d pairs; electrical hubs"
              " $%.0f/yr vs optical big-switch $%.0f/yr\n",
              central.total_base_fibers(),
              central.eps_total.total_cost(prices),
              central.optical_total.total_cost(prices));

  std::printf("\nThe distributed design wins on latency and siting but is\n"
              "several times pricier electrically -- Iris's optical core\n"
              "keeps the whole spectrum near centralized cost.\n");
  return 0;
}
