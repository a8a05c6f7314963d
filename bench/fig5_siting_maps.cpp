// Fig. 5: the siting-flexibility maps, rendered in ASCII.
//
// Top row of the paper's figure: hubs 4-7 km apart; bottom row: 20-24 km.
// The shaded area is where a new DC may be placed. Centralized shading is
// the intersection of the hubs' 30 km-geo leg radii; distributed shading is
// the intersection of the existing DCs' 60 km direct radii -- always a
// superset (the extended area the paper highlights).
//
// Overrides parse strictly (whole-token, exit 2 on garbage); with no
// arguments the maps are byte-identical to the historical run.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "bench_util.hpp"
#include "fibermap/render.hpp"
#include "geo/service_area.hpp"
#include "topology/latency.hpp"
#include "topology/siting.hpp"

namespace {

using namespace iris;

// Monte-carlo sample grid per axis for the siting-area comparison.
int g_samples = 256;

void print_region(std::uint64_t seed, double hub_separation_km) {
  const auto map = bench::make_eval_region(seed, 6, 8);
  const auto dcs = map.dc_positions();
  const auto hubs = topology::place_two_hubs(dcs, hub_separation_km);
  const geo::SitingSla sla;

  fibermap::RenderOptions central;
  central.width = 34;
  central.height = 16;
  central.draw_ducts = false;
  central.shade = [&](geo::Point p) {
    return std::all_of(hubs.begin(), hubs.end(), [&](geo::Point h) {
      return geo::distance(h, p) <= sla.hub_leg_geo_radius_km();
    });
  };
  fibermap::RenderOptions distributed = central;
  distributed.shade = [&](geo::Point p) {
    return std::all_of(dcs.begin(), dcs.end(), [&](geo::Point d) {
      return geo::distance(d, p) <= sla.direct_geo_radius_km();
    });
  };

  const auto cmp = topology::compare_siting(dcs, hubs, sla, g_samples);
  std::printf("--- seed %llu, hubs %.0f km apart: centralized %0.f km^2 vs"
              " distributed %.0f km^2 (%.1fx) ---\n",
              static_cast<unsigned long long>(seed), hub_separation_km,
              cmp.centralized_area_km2, cmp.distributed_area_km2,
              cmp.area_increase());
  const std::string left = fibermap::render_ascii(map, central);
  const std::string right = fibermap::render_ascii(map, distributed);
  // Print side by side.
  std::istringstream ls(left), rs(right);
  std::string l, r;
  std::printf("%-36s %s\n", "centralized (+ = new DC ok)", "distributed");
  while (std::getline(ls, l) && std::getline(rs, r)) {
    std::printf("%-36s %s\n", l.c_str(), r.c_str());
  }
  std::printf("\n");
}

void print_table() {
  std::printf("# Fig. 5: permissible siting areas, ASCII rendering\n\n");
  for (std::uint64_t seed : {1000ULL, 2000ULL}) {
    print_region(seed, 5.0);   // top row: hubs close
    print_region(seed, 22.0);  // bottom row: hubs far apart
  }
  std::printf("# paper: the distributed shading strictly contains the"
              " centralized one; closer hubs shrink it less but cost"
              " latency and reliability\n\n");
}

void BM_RenderSitingMap(benchmark::State& state) {
  const auto map = bench::make_eval_region(1000, 6, 8);
  const auto dcs = map.dc_positions();
  const geo::SitingSla sla;
  fibermap::RenderOptions options;
  options.shade = [&](geo::Point p) {
    return std::all_of(dcs.begin(), dcs.end(), [&](geo::Point d) {
      return geo::distance(d, p) <= sla.direct_geo_radius_km();
    });
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(fibermap::render_ascii(map, options));
  }
}
BENCHMARK(BM_RenderSitingMap)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  obs::Args args("bench_fig5_siting_maps");
  args.option("samples", g_samples, obs::in(2, 100000))
      .metrics()
      .benchmark_flags();
  if (const int rc = args.parse(argc, argv)) return rc;

  print_table();
  return bench::run_benchmarks(args);
}
