// Availability report: how many nines does each design deliver on this
// region? Extends the paper's SS2.2 reliability discussion with the
// Monte-Carlo failure model (duct cuts + regional disasters).
//
// Usage: ./build/examples/availability_report [seed] [years]
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "fibermap/generator.hpp"
#include "obs/argparse.hpp"
#include "reliability/events.hpp"

namespace {

double nines(double availability) {
  return availability >= 1.0 ? 9.99 : -std::log10(1.0 - availability);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace iris;
  long long seed = 33;
  double years = 300.0;
  obs::Args args("availability_report");
  args.positional("seed", seed, obs::at_least(0))
      .positional("years", years, obs::above(0.0));
  if (const int rc = args.parse(argc, argv)) return rc;

  fibermap::RegionParams region;
  region.seed = seed;
  region.dc_count = 6;
  region.hut_count = 10;
  region.capacity_fibers = 8;
  region.dc_attach_huts = 3;
  const auto map = fibermap::generate_region(region);

  reliability::CorrelatedFailureModel model;
  model.base.cuts_per_km_year = 0.02;
  model.base.mean_repair_hours = 12.0;
  model.base.disasters_per_year = 0.2;
  model.base.disaster_radius_km = 10.0;
  model.base.disaster_repair_days = 30.0;
  model.base.horizon_years = years;
  model.base.seed = seed;
  model.ci_batches = 0;

  std::printf("=== availability over %.0f simulated years, seed %llu ===\n\n",
              years, static_cast<unsigned long long>(seed));

  // Hub pair for the centralized comparison: two most central huts.
  geo::Point centroid{};
  for (const auto& p : map.dc_positions()) centroid = centroid + p;
  centroid = centroid / static_cast<double>(map.dcs().size());
  auto huts = map.huts();
  std::sort(huts.begin(), huts.end(), [&](graph::NodeId a, graph::NodeId b) {
    return geo::distance_sq(centroid, map.site(a).position) <
           geo::distance_sq(centroid, map.site(b).position);
  });
  huts.resize(2);

  const auto dist = reliability::simulate_availability_correlated(
                        map, model, reliability::any_path_criterion(map))
                        .summary;
  const auto cent = reliability::simulate_availability_correlated(
                        map, model, reliability::via_hub_criterion(map, huts))
                        .summary;

  std::printf("%-14s %14s %14s %10s\n", "design", "worst-avail", "min/yr",
              "nines");
  const auto print_row = [&](const char* name,
                             const reliability::AvailabilityReport& r) {
    double worst_down = 0.0;
    for (const auto& p : r.pairs) {
      worst_down = std::max(worst_down, p.downtime_minutes_per_year());
    }
    std::printf("%-14s %14.6f %14.1f %10.1f\n", name, r.worst_availability,
                worst_down, nines(r.worst_availability));
  };
  print_row("distributed", dist);
  print_row("centralized", cent);

  std::printf("\nper-pair detail (distributed):\n");
  for (const auto& p : dist.pairs) {
    std::printf("  %s - %s: %.6f (%.1f min/yr)\n", map.site(p.a).name.c_str(),
                map.site(p.b).name.c_str(), p.availability,
                p.downtime_minutes_per_year());
  }
  std::printf("\n%lld failure events simulated\n", dist.cut_events);
  return 0;
}
