// Growing a region (paper SS2.2-2.3): show where a new DC may be sited
// under the latency SLA, then price the best candidates with a full replan.
//
// The shaded map is the text-mode version of Fig. 5's service areas; the
// candidate table connects siting flexibility to the incremental equipment
// bill -- the decision a deployment team actually faces.
//
// Usage: ./build/examples/grow_region [seed]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/expansion.hpp"
#include "fibermap/generator.hpp"
#include "fibermap/render.hpp"
#include "geo/service_area.hpp"
#include "obs/argparse.hpp"

int main(int argc, char** argv) {
  using namespace iris;
  long long seed = 77;
  obs::Args args("grow_region");
  args.positional("seed", seed, obs::at_least(0));
  if (const int rc = args.parse(argc, argv)) return rc;

  fibermap::RegionParams region;
  region.seed = seed;
  region.dc_count = 5;
  region.hut_count = 10;
  region.capacity_fibers = 8;
  region.dc_attach_huts = 3;
  const auto map = fibermap::generate_region(region);

  core::PlannerParams params;
  params.failure_tolerance = 1;

  // Shade the permissible siting area: every existing DC within the direct
  // SLA radius (distributed model).
  const auto dcs = map.dc_positions();
  const geo::SitingSla sla;
  fibermap::RenderOptions options;
  options.shade = [&](geo::Point p) {
    return std::all_of(dcs.begin(), dcs.end(), [&](geo::Point dc) {
      return geo::distance(dc, p) <= sla.direct_geo_radius_km();
    });
  };
  std::printf("=== region seed %llu: permissible area for DC #6 (shaded) ===\n\n",
              static_cast<unsigned long long>(seed));
  std::printf("%s\n", fibermap::render_ascii(map, options).c_str());

  // Scan a coarse candidate grid, keep SLA-feasible sites, replan the best.
  struct Candidate {
    geo::Point at;
    double reach_km;
  };
  std::vector<Candidate> feasible;
  const auto box = geo::bounding_box(dcs).expanded(10.0);
  for (int gy = 0; gy < 6; ++gy) {
    for (int gx = 0; gx < 6; ++gx) {
      core::ExpansionRequest request;
      request.position = {box.lo.x + (gx + 0.5) * box.width() / 6,
                          box.lo.y + (gy + 0.5) * box.height() / 6};
      const auto reach = core::expansion_fiber_reach_km(map, params, request);
      if (reach && *reach <= params.spec.max_path_km) {
        feasible.push_back({request.position, *reach});
      }
    }
  }
  std::sort(feasible.begin(), feasible.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.reach_km < b.reach_km;
            });
  std::printf("%zu of 36 grid candidates satisfy the 120 km fiber SLA\n\n",
              feasible.size());

  const auto prices = cost::PriceBook::paper_defaults();
  std::printf("%22s %12s %14s %14s\n", "site (km)", "worst-pair", "Iris delta$",
              "EPS delta$");
  const int show = std::min<std::size_t>(3, feasible.size());
  for (int i = 0; i < show; ++i) {
    core::ExpansionRequest request;
    request.position = feasible[i].at;
    request.capacity_fibers = 8;
    const auto report = core::plan_expansion(map, params, request);
    std::printf("      (%6.1f, %6.1f) %9.1f km %14.0f %14.0f\n",
                feasible[i].at.x, feasible[i].at.y, feasible[i].reach_km,
                report.iris_delta_cost(prices), report.eps_delta_cost(prices));
  }
  std::printf("\nIris keeps growth cheap: the new DC brings its own\n"
              "transceivers, and the network only adds fiber and OSS ports.\n");
  return 0;
}
