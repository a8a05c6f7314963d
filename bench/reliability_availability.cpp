// Availability analysis (extends paper SS2.2's reliability discussion).
//
// The paper argues centralized designs trade reliability for siting
// flexibility: all traffic transits the hubs, so hub reachability bounds
// every pair's availability, and placing the hubs close together couples
// their failure domains. This bench quantifies that with the Monte-Carlo
// failure model: per-pair availability under the distributed (any surviving
// path) criterion versus the centralized (must transit a hub) criterion.
//
// Malformed or unknown arguments exit with code 2; with no arguments the
// table is byte-identical to the unparameterized run.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "bench_util.hpp"
#include "core/slo.hpp"
#include "obs/metrics.hpp"
#include "reliability/availability.hpp"
#include "reliability/events.hpp"

namespace {

using namespace iris;

/// Huts ordered by distance from the DC centroid.
std::vector<graph::NodeId> huts_by_centrality(const fibermap::FiberMap& map) {
  geo::Point centroid{};
  for (const auto& p : map.dc_positions()) centroid = centroid + p;
  centroid = centroid / static_cast<double>(map.dcs().size());
  std::vector<graph::NodeId> huts = map.huts();
  std::sort(huts.begin(), huts.end(), [&](graph::NodeId a, graph::NodeId b) {
    return geo::distance_sq(centroid, map.site(a).position) <
           geo::distance_sq(centroid, map.site(b).position);
  });
  return huts;
}

/// Hub pair for the centralized design: the two most central huts ("close"),
/// or the most central plus the most distant ("far apart") -- the paper's
/// Fig. 4/5 comparison.
std::vector<graph::NodeId> hub_pair(const fibermap::FiberMap& map, bool close) {
  auto huts = huts_by_centrality(map);
  if (huts.size() < 2) return huts;
  if (close) return {huts[0], huts[1]};
  return {huts[0], huts.back()};
}

/// The stressed default model the table has always used: duct-cut rate well
/// above folklore, a regional catastrophe every ~5 years, point estimates.
reliability::CorrelatedFailureModel table_model() {
  reliability::CorrelatedFailureModel model;
  model.base.cuts_per_km_year = 0.02;
  model.base.disasters_per_year = 0.2;
  model.base.disaster_radius_km = 10.0;
  model.base.disaster_repair_days = 30.0;
  model.base.mean_repair_hours = 12.0;
  model.base.horizon_years = 400.0;
  model.ci_batches = 0;
  return model;
}

void print_table(reliability::CorrelatedFailureModel model) {
  std::printf("# Worst-pair downtime (min/yr): distributed vs centralized,"
              " hubs close vs far apart\n");
  std::printf("%6s %4s | %12s %14s %14s\n", "seed", "DCs", "distributed",
              "hubs-close", "hubs-far");
  double dist_sum = 0.0, close_sum = 0.0, far_sum = 0.0;
  int rows = 0;
  for (std::uint64_t seed : {11ULL, 22ULL, 33ULL, 44ULL}) {
    for (int n : {5, 8}) {
      auto params = fibermap::RegionParams{};
      params.seed = seed;
      params.dc_count = n;
      params.hut_count = 10;
      params.capacity_fibers = 8;
      params.dc_attach_huts = 3;
      const auto map = fibermap::generate_region(params);
      model.base.seed = seed * 1000 + n;

      const auto worst_downtime = [&](const reliability::PairUpFn& pair_up) {
        double worst = 0.0;
        for (const auto& p : reliability::simulate_availability_correlated(
                                 map, model, pair_up)
                                 .summary.pairs) {
          worst = std::max(worst, p.downtime_minutes_per_year());
        }
        return worst;
      };
      const double dist = worst_downtime(reliability::any_path_criterion(map));
      const double close = worst_downtime(
          reliability::via_hub_criterion(map, hub_pair(map, true)));
      const double far = worst_downtime(
          reliability::via_hub_criterion(map, hub_pair(map, false)));

      std::printf("%6llu %4d | %12.1f %14.1f %14.1f\n",
                  static_cast<unsigned long long>(seed), n, dist, close, far);
      dist_sum += dist;
      close_sum += close;
      far_sum += far;
      ++rows;
    }
  }
  std::printf("\n# paper SS2.2: nearby hubs couple failure domains; the"
              " distributed design dodges hubs entirely\n");
  std::printf("measured: mean worst-pair downtime %.1f min/yr (distributed)"
              " vs %.1f (hubs close) vs %.1f (hubs far)\n\n",
              dist_sum / rows, close_sum / rows, far_sum / rows);
}

void BM_AvailabilitySimulation(benchmark::State& state) {
  auto params = fibermap::RegionParams{};
  params.seed = 11;
  params.dc_count = 5;
  params.dc_attach_huts = 3;
  const auto map = fibermap::generate_region(params);
  reliability::CorrelatedFailureModel model;
  model.base.cuts_per_km_year = 0.02;
  model.base.horizon_years = 50.0;
  model.ci_batches = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(reliability::simulate_availability_correlated(
        map, model, reliability::any_path_criterion(map)));
  }
}
BENCHMARK(BM_AvailabilitySimulation)->Unit(benchmark::kMillisecond);

/// The inputs of one what-if SLO probe on an n-DC region, shaped like the
/// fleet's (fleet/query.cpp): the probe's failure model, SLO 0.995 at
/// tolerance 1, two wavelengths of demand and a bisection up to
/// oversubscription 2.
struct SloProbe {
  fibermap::FiberMap map;
  core::PlannerParams params;
  reliability::CorrelatedFailureModel model;
  core::SloCostOptions cost;
};

SloProbe slo_probe(int dcs) {
  SloProbe probe;
  fibermap::RegionParams region;
  region.seed = 7;
  region.dc_count = dcs;
  region.hut_count = 10;
  region.capacity_fibers = 8;
  probe.map = fibermap::generate_region(region);
  probe.params.failure_tolerance = 1;
  probe.params.slo_max_tolerance = 1;
  probe.params.availability_slo = 0.995;
  probe.params.channels.wavelengths_per_fiber = 40;
  probe.params.threads = 1;
  probe.model.base.cuts_per_km_year = 0.25;
  probe.model.base.mean_repair_hours = 24.0;
  probe.model.base.horizon_years = 40.0;
  probe.model.base.seed = 0x510bULL;
  probe.model.ci_batches = 0;
  probe.cost.max_oversubscription = 2.0;
  probe.cost.demand_waves = 2;
  probe.cost.bisect_iters = 4;
  return probe;
}

/// Runs `search` once per iteration and reports the search's work per
/// probe: `maxflows` (planner.slo.maxflows) and `verdict_asks`
/// (reliability.timeline.verdict_asks, one per failure state and pair per
/// candidate).
template <typename Search>
void time_slo_search(benchmark::State& state, const Search& search) {
  const auto& reg = obs::registry();
  const long long flows0 = reg.counter("planner.slo.maxflows");
  const long long asks0 = reg.counter("reliability.timeline.verdict_asks");
  for (auto _ : state) benchmark::DoNotOptimize(search());
  const auto per_probe = [&](const char* name, long long before) {
    return benchmark::Counter(static_cast<double>(reg.counter(name) - before),
                              benchmark::Counter::kAvgIterations);
  };
  state.counters["maxflows"] = per_probe("planner.slo.maxflows", flows0);
  state.counters["verdict_asks"] =
      per_probe("reliability.timeline.verdict_asks", asks0);
}

/// A cold probe: records the failure timeline, then searches over it.
void BM_SloProbe(benchmark::State& state) {
  const SloProbe p = slo_probe(static_cast<int>(state.range(0)));
  time_slo_search(state, [&] {
    return core::provision_to_availability_slo(p.map, p.params, p.model,
                                               p.cost);
  });
}
BENCHMARK(BM_SloProbe)
    ->Arg(5)
    ->Arg(10)
    ->Arg(15)
    ->Unit(benchmark::kMillisecond);

/// A repeat probe as the what-if engine runs it: the search over a timeline
/// recorded beforehand.
void BM_SloProbeWarm(benchmark::State& state) {
  const SloProbe p = slo_probe(static_cast<int>(state.range(0)));
  const reliability::FailureTimeline timeline =
      reliability::record_timeline(p.map, p.model);
  time_slo_search(state, [&] {
    return core::provision_to_availability_slo(p.map, p.params, timeline,
                                               p.cost);
  });
}
BENCHMARK(BM_SloProbeWarm)
    ->Arg(5)
    ->Arg(10)
    ->Arg(15)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  reliability::CorrelatedFailureModel model = table_model();
  reliability::FailureModel& base = model.base;
  obs::Args args("bench_reliability_availability");
  const auto non_negative = obs::at_least(0.0);
  args.option("cut_rate", base.cuts_per_km_year, non_negative)
      .option("disasters_per_year", base.disasters_per_year, non_negative)
      .option("disaster_radius_km", base.disaster_radius_km, non_negative)
      .option("disaster_repair_days", base.disaster_repair_days, non_negative)
      .option("mean_repair_hours", base.mean_repair_hours, obs::above(0.0))
      .option("horizon_years", base.horizon_years, obs::above(0.0))
      .metrics()
      .benchmark_flags();
  if (const int rc = args.parse(argc, argv)) return rc;

  try {
    print_table(model);
  } catch (const std::invalid_argument& e) {
    // Keys in range can still make a model the event stream refuses, such
    // as a horizon that expects too many events.
    std::fprintf(stderr, "bench_reliability_availability: %s\n", e.what());
    return 2;
  }
  return bench::run_benchmarks(args);
}
