#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <tuple>
#include <vector>

#include "core/provision.hpp"
#include "core/slo.hpp"
#include "fibermap/generator.hpp"
#include "fibermap/srlg.hpp"
#include "obs/metrics.hpp"
#include "reliability/availability.hpp"
#include "reliability/events.hpp"
#include "topology/latency.hpp"

namespace iris::reliability {
namespace {

using graph::EdgeId;
using graph::NodeId;

/// Point estimates only: no batch-means CIs.
CorrelatedFailureModel point_model() {
  CorrelatedFailureModel model;
  model.ci_batches = 0;
  return model;
}

CorrelatedFailureModel fast_model(std::uint64_t seed = 1) {
  CorrelatedFailureModel model = point_model();
  // Aggressive rates so a short horizon produces plenty of events.
  model.base.cuts_per_km_year = 0.5;
  model.base.mean_repair_hours = 24.0;
  model.base.horizon_years = 300.0;
  model.base.seed = seed;
  return model;
}

TEST(Availability, SeriesChainAnalyticFormula) {
  FailureModel model;
  model.cuts_per_km_year = 0.005;
  model.mean_repair_hours = 12.0;
  // One 100 km duct: lambda = 0.5/yr, MTTR 12 h.
  const double lambda = 0.5 / (365.25 * 24.0);
  const double mu = 1.0 / 12.0;
  EXPECT_NEAR(series_chain_availability({100.0}, model), mu / (mu + lambda),
              1e-12);
  // Two ducts in series multiply.
  EXPECT_NEAR(series_chain_availability({100.0, 100.0}, model),
              std::pow(mu / (mu + lambda), 2), 1e-12);
}

TEST(Availability, MonteCarloMatchesAnalyticOnAChain) {
  // DC - hut - DC chain: the pair is up only when both ducts are up.
  fibermap::FiberMap map;
  const auto a = map.add_dc("a", {0, 0}, 4);
  const auto hut = map.add_hut("h", {20, 0});
  const auto b = map.add_dc("b", {40, 0}, 4);
  map.add_duct_with_length(a, hut, 30.0);
  map.add_duct_with_length(hut, b, 30.0);

  const auto model = fast_model(7);
  const auto report =
      simulate_availability_correlated(map, model, any_path_criterion(map))
          .summary;
  ASSERT_EQ(report.pairs.size(), 1u);
  EXPECT_GT(report.cut_events, 100);  // enough samples to trust the estimate
  const double analytic = series_chain_availability({30.0, 30.0}, model.base);
  EXPECT_NEAR(report.pairs[0].availability, analytic,
              4.0 * (1.0 - analytic));  // generous CI, deterministic seed
  EXPECT_LT(report.pairs[0].availability, 1.0);
}

TEST(Availability, RedundantPathsBeatSinglePath) {
  // Ring vs chain between the same two DCs.
  fibermap::FiberMap chain;
  const auto ca = chain.add_dc("a", {0, 0}, 4);
  const auto ch = chain.add_hut("h", {20, 0});
  const auto cb = chain.add_dc("b", {40, 0}, 4);
  chain.add_duct_with_length(ca, ch, 30.0);
  chain.add_duct_with_length(ch, cb, 30.0);

  fibermap::FiberMap ring = chain;  // plus a disjoint southern route
  const auto south = ring.add_hut("s", {20, -10});
  ring.add_duct_with_length(ca, south, 35.0);
  ring.add_duct_with_length(south, cb, 35.0);

  const auto model = fast_model(11);
  const auto chain_report =
      simulate_availability_correlated(chain, model, any_path_criterion(chain))
          .summary;
  const auto ring_report =
      simulate_availability_correlated(ring, model, any_path_criterion(ring))
          .summary;
  EXPECT_GT(ring_report.pairs[0].availability,
            chain_report.pairs[0].availability);
}

TEST(Availability, HubCriterionIsStricterThanAnyPath) {
  // Square: two DCs joined by a northern hub route and a direct southern
  // duct. Centralized traffic must transit the hub; distributed may not.
  fibermap::FiberMap map;
  const auto a = map.add_dc("a", {0, 0}, 4);
  const auto b = map.add_dc("b", {40, 0}, 4);
  const auto hub = map.add_hut("hub", {20, 10});
  map.add_duct_with_length(a, hub, 30.0);
  map.add_duct_with_length(hub, b, 30.0);
  map.add_duct_with_length(a, b, 45.0);  // direct southern route

  const auto model = fast_model(13);
  const auto any_report =
      simulate_availability_correlated(map, model, any_path_criterion(map))
          .summary;
  const auto hub_report = simulate_availability_correlated(
                              map, model, via_hub_criterion(map, {hub}))
                              .summary;
  EXPECT_GT(any_report.pairs[0].availability,
            hub_report.pairs[0].availability);
}

TEST(Availability, ZeroFailureRateIsAlwaysUp) {
  fibermap::FiberMap map;
  const auto a = map.add_dc("a", {0, 0}, 4);
  const auto b = map.add_dc("b", {10, 0}, 4);
  map.add_duct_with_length(a, b, 15.0);
  CorrelatedFailureModel model = point_model();
  model.base.cuts_per_km_year = 0.0;
  model.base.horizon_years = 10.0;
  const auto report =
      simulate_availability_correlated(map, model, any_path_criterion(map))
          .summary;
  EXPECT_EQ(report.cut_events, 0);
  EXPECT_DOUBLE_EQ(report.pairs[0].availability, 1.0);
}

TEST(Availability, RejectsBadModels) {
  const auto map = fibermap::toy_example_fig10();
  CorrelatedFailureModel model = point_model();
  model.base.horizon_years = -1.0;
  EXPECT_THROW((void)simulate_availability_correlated(map, model,
                                                      any_path_criterion(map)),
               std::invalid_argument);
  EXPECT_THROW((void)via_hub_criterion(map, {}), std::invalid_argument);
}

TEST(Availability, GeneratedRegionReport) {
  fibermap::RegionParams region;
  region.seed = 5;
  region.dc_count = 5;
  region.dc_attach_huts = 3;
  const auto map = fibermap::generate_region(region);
  const auto model = fast_model(17);
  const auto report =
      simulate_availability_correlated(map, model, any_path_criterion(map))
          .summary;
  EXPECT_EQ(report.pairs.size(), 10u);
  EXPECT_LE(report.worst_availability, report.mean_availability);
  for (const auto& pa : report.pairs) {
    EXPECT_GE(pa.availability, 0.9);  // triple attachment survives most cuts
    EXPECT_GE(pa.downtime_minutes_per_year(), 0.0);
  }
}

TEST(Availability, DisasterAtHubsKillsCentralizedNotDistributed) {
  // Two DCs with a direct duct AND a hub route; disasters centered on the
  // map will regularly flatten the (central) hub. Centralized traffic must
  // transit the hub; distributed shrugs and uses the direct duct.
  fibermap::FiberMap map;
  const auto a = map.add_dc("a", {0, 0}, 4);
  const auto b = map.add_dc("b", {40, 0}, 4);
  const auto hub = map.add_hut("hub", {20, 0});
  map.add_duct_with_length(a, hub, 25.0);
  map.add_duct_with_length(hub, b, 25.0);
  map.add_duct_with_length(a, b, 55.0);

  CorrelatedFailureModel model = point_model();
  model.base.cuts_per_km_year = 0.0;  // isolate the disaster mechanism
  model.base.disasters_per_year = 1.0;
  model.base.disaster_radius_km = 6.0;  // only the hub neighbourhood
  model.base.disaster_repair_days = 30.0;
  model.base.horizon_years = 300.0;
  model.base.seed = 3;

  const auto dist =
      simulate_availability_correlated(map, model, any_path_criterion(map))
          .summary;
  const auto cent = simulate_availability_correlated(
                        map, model, via_hub_criterion(map, {hub}))
                        .summary;
  ASSERT_EQ(dist.pairs.size(), 1u);
  // Disasters never take a whole pair down in the distributed design...
  EXPECT_GT(dist.pairs[0].availability, 0.999);
  // ...but hub-transit loses whole weeks per year in expectation.
  EXPECT_LT(cent.pairs[0].availability, 0.99);
}

TEST(Availability, EndpointDestructionDoesNotCountAsNetworkDowntime) {
  // One DC pair, disasters that can only hit DC "a" itself: the pair's
  // availability must stay 1.0 (no network fault).
  fibermap::FiberMap map;
  const auto a = map.add_dc("a", {0, 0}, 4);
  const auto b = map.add_dc("b", {100, 0}, 4);
  map.add_duct_with_length(a, b, 60.0);
  map.add_hut("decoy", {0, 100});  // stretches the region box northward

  CorrelatedFailureModel model = point_model();
  model.base.cuts_per_km_year = 0.0;
  model.base.disasters_per_year = 2.0;
  model.base.disaster_radius_km = 5.0;
  model.base.horizon_years = 100.0;
  model.base.seed = 5;
  const auto report =
      simulate_availability_correlated(map, model, any_path_criterion(map))
          .summary;
  EXPECT_DOUBLE_EQ(report.pairs[0].availability, 1.0);
}

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, EstimatesAreStableAcrossSeeds) {
  fibermap::FiberMap map;
  const auto a = map.add_dc("a", {0, 0}, 4);
  const auto h = map.add_hut("h", {20, 0});
  const auto b = map.add_dc("b", {40, 0}, 4);
  map.add_duct_with_length(a, h, 30.0);
  map.add_duct_with_length(h, b, 30.0);
  const auto model = fast_model(GetParam());
  const auto report =
      simulate_availability_correlated(map, model, any_path_criterion(map))
          .summary;
  const double analytic = series_chain_availability({30.0, 30.0}, model.base);
  EXPECT_NEAR(report.pairs[0].availability, analytic, 6.0 * (1.0 - analytic));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Exactness of the simulator. The correlated run below folds every event
// kind into the failure mask (duct cuts, a declared trench with a
// maintenance calendar, inferred hut outages, site-level disasters) with
// batch-means CIs on; its report doubles were captured from earlier
// versions of the simulator, so any drift in the downtime accounting shows
// up as a changed bit.

struct CorrelatedRun {
  fibermap::FiberMap map;
  CorrelatedFailureModel model;
  core::ProvisionedNetwork net;
};

const CorrelatedRun& correlated_run() {
  static const CorrelatedRun run = [] {
    CorrelatedRun r;
    fibermap::RegionParams region;
    region.seed = 9;
    region.dc_count = 5;
    region.hut_count = 10;
    region.capacity_fibers = 8;
    r.map = fibermap::generate_region(region);
    fibermap::infer_and_add_srlgs(r.map);
    const auto dc0 = r.map.graph().incident(r.map.dcs()[0]);
    const auto trench = r.map.add_srlg(
        {"dc0-trench", fibermap::SrlgKind::kTrench, {dc0[0], dc0[1]}, 2.0});

    r.model.base.cuts_per_km_year = 0.5;
    r.model.base.mean_repair_hours = 24.0;
    r.model.base.disasters_per_year = 0.5;
    r.model.base.disaster_radius_km = 4.0;
    r.model.base.disaster_repair_days = 5.0;
    r.model.base.horizon_years = 40.0;
    r.model.base.seed = 0x901d;
    r.model.trench_hits_per_km_year = 1.0;
    r.model.hut_outages_per_year = 2.0;
    r.model.maintenance.push_back({trench, 100.0, 2000.0, 8.0});
    r.model.ci_batches = 4;

    core::PlannerParams params;
    params.failure_tolerance = 1;
    params.channels.wavelengths_per_fiber = 40;
    r.net = core::provision(r.map, params);
    return r;
  }();
  return run;
}

/// {availability, ci_low, ci_high} per pair, then worst and mean.
struct PinnedReport {
  std::array<std::array<double, 3>, 10> pairs;
  double worst;
  double mean;
};

void expect_pinned(const CorrelatedAvailabilityReport& r,
                   const PinnedReport& pin) {
  EXPECT_GT(r.trench_events, 0);
  EXPECT_GT(r.hut_events, 0);
  EXPECT_GT(r.maintenance_events, 0);
  EXPECT_GT(r.disaster_events, 0);
  ASSERT_EQ(r.summary.pairs.size(), pin.pairs.size());
  for (std::size_t i = 0; i < pin.pairs.size(); ++i) {
    // Bit-for-bit: exact double equality, not EXPECT_NEAR.
    EXPECT_EQ(r.summary.pairs[i].availability, pin.pairs[i][0]) << "pair " << i;
    EXPECT_EQ(r.summary.pairs[i].ci_low, pin.pairs[i][1]) << "pair " << i;
    EXPECT_EQ(r.summary.pairs[i].ci_high, pin.pairs[i][2]) << "pair " << i;
  }
  EXPECT_EQ(r.summary.worst_availability, pin.worst);
  EXPECT_EQ(r.summary.mean_availability, pin.mean);
}

TEST(Availability, PinnedCorrelatedReportAnyPath) {
  const auto& run = correlated_run();
  expect_pinned(
      simulate_availability_correlated(run.map, run.model,
                                       any_path_criterion(run.map)),
      {{{{0x1.f9eb4cab7df4ap-1, 0x1.f915a355526b1p-1, 0x1.fac0f601a97e3p-1},
         {0x1.f99ac8049c84bp-1, 0x1.f8c70e4f0aa86p-1, 0x1.fa6e81ba2e61p-1},
         {0x1.f9e0a5256002p-1, 0x1.f952d87bfe2aap-1, 0x1.fa6e71cec1d96p-1},
         {0x1.f99002261d3b1p-1, 0x1.f919daa4f8885p-1, 0x1.fa0629a741eddp-1},
         {0x1.fe439dc15f293p-1, 0x1.fd5bf2aa8b33ep-1, 0x1.ff2b48d8331e8p-1},
         {0x1.fe8c9e82d063p-1, 0x1.fe0a80d57eeacp-1, 0x1.ff0ebc3021db4p-1},
         {0x1.fe395952f43fdp-1, 0x1.fd8482c1d89fp-1, 0x1.feee2fe40fe0ap-1},
         {0x1.fe3cf9bbe9c0ap-1, 0x1.fd9e70fa3f63ep-1, 0x1.fedb827d941d6p-1},
         {0x1.fde926c6f203cp-1, 0x1.fd6e434d46766p-1, 0x1.fe640a409d912p-1},
         {0x1.fe2fcd1b7cd76p-1, 0x1.fdb2498e214ebp-1, 0x1.fead50a8d8601p-1}}},
       0x1.f99002261d3b1p-1, 0x1.fc6f0651b5363p-1});
}

TEST(Availability, PinnedCorrelatedReportViaHub) {
  const auto& run = correlated_run();
  expect_pinned(
      simulate_availability_correlated(
          run.map, run.model,
          via_hub_criterion(run.map, {run.map.huts()[0], run.map.huts()[1]})),
      {{{{0x1.f9df2d3c8fdfp-1, 0x1.f90e56cc1e89bp-1, 0x1.fab003ad01345p-1},
         {0x1.f99190c7b06efp-1, 0x1.f8c69e28f5fadp-1, 0x1.fa5c83666ae31p-1},
         {0x1.f9e0a5256002p-1, 0x1.f952d87bfe2aap-1, 0x1.fa6e71cec1d96p-1},
         {0x1.f983e2b72f257p-1, 0x1.f9102129489bdp-1, 0x1.f9f7a44515af1p-1},
         {0x1.fe3a668473138p-1, 0x1.fd5c1451c5773p-1, 0x1.ff18b8b720afdp-1},
         {0x1.fe8c9e82d063p-1, 0x1.fe0a80d57eeacp-1, 0x1.ff0ebc3021db4p-1},
         {0x1.fe2d39e4062a4p-1, 0x1.fd79600c654d2p-1, 0x1.fee113bba7076p-1},
         {0x1.fe3cf9bbe9c0ap-1, 0x1.fd9e70fa3f63ep-1, 0x1.fedb827d941d6p-1},
         {0x1.fddfef8a05ee1p-1, 0x1.fd69686693d19p-1, 0x1.fe5676ad780a9p-1},
         {0x1.fe2fcd1b7cd76p-1, 0x1.fdb2498e214ebp-1, 0x1.fead50a8d8601p-1}}},
       0x1.f983e2b72f257p-1, 0x1.fc689f848d5c6p-1});
}

TEST(Availability, PinnedCorrelatedReportPlannedCapacity) {
  const auto& run = correlated_run();
  expect_pinned(
      simulate_availability_correlated(
          run.map, run.model,
          core::planned_capacity_criterion(run.map, run.net, 2)),
      {{{{0x1.f9eb4cab7df4ap-1, 0x1.f915a355526b1p-1, 0x1.fac0f601a97e3p-1},
         {0x1.f99ac8049c84bp-1, 0x1.f8c70e4f0aa86p-1, 0x1.fa6e81ba2e61p-1},
         {0x1.f9aebc66e7929p-1, 0x1.f92fea441286fp-1, 0x1.fa2d8e89bc9e3p-1},
         {0x1.f99002261d3b1p-1, 0x1.f919daa4f8885p-1, 0x1.fa0629a741eddp-1},
         {0x1.fe439dc15f293p-1, 0x1.fd5bf2aa8b33ep-1, 0x1.ff2b48d8331e8p-1},
         {0x1.fe5a83c2ecfd6p-1, 0x1.fde88054f0e64p-1, 0x1.fecc8730e9148p-1},
         {0x1.fe395952f43fdp-1, 0x1.fd8482c1d89fp-1, 0x1.feee2fe40fe0ap-1},
         {0x1.fe0adefc065bp-1, 0x1.fd7bf1e1145a4p-1, 0x1.fe99cc16f85bcp-1},
         {0x1.fde926c6f203cp-1, 0x1.fd6e434d46766p-1, 0x1.fe640a409d912p-1},
         {0x1.fdfdb25b9971cp-1, 0x1.fd7b34df3198p-1, 0x1.fe802fd8014b8p-1}}},
       0x1.f99002261d3b1p-1, 0x1.fc5b009eb1bfdp-1});
}

// The all-pairs class pass must answer exactly what the per-pair criterion
// answers, on every failure state the correlated run records (duct cuts,
// trench hits, hut outages, maintenance, disasters), from connectivity
// (demand 1) through a capacity-bound demand to one no pair can carry.
TEST(Availability, CapacityClassesMatchPerPairCriterion) {
  const auto& run = correlated_run();
  const FailureTimeline timeline = record_timeline(run.map, run.model);
  ASSERT_GT(timeline.state_count(), 100);
  const auto& dcs = run.map.dcs();
  for (const long long demand : {1LL, 2LL, 1'000'000LL}) {
    const PairUpFn oracle =
        core::planned_capacity_criterion(run.map, run.net, demand);
    long long flows = 0;
    long long splits = 0;  // pairs the classes keep apart
    for (int s = 0; s < timeline.state_count(); ++s) {
      const graph::EdgeMask mask = timeline.failed_mask(s);
      const std::vector<int> labels = core::planned_capacity_classes(
          run.map, run.net, mask, demand, &flows);
      ASSERT_EQ(labels.size(), dcs.size());
      for (std::size_t i = 0; i < dcs.size(); ++i) {
        for (std::size_t j = i + 1; j < dcs.size(); ++j) {
          const bool together = labels[i] == labels[j];
          EXPECT_EQ(together, oracle(mask, dcs[i], dcs[j]))
              << "demand " << demand << " state " << s << " pair " << i
              << "," << j;
          if (!together) ++splits;
        }
      }
    }
    // At most k(k-1)/2 flows per state, and k-1 when every pair is up.
    EXPECT_LE(flows, static_cast<long long>(timeline.state_count()) * 10);
    EXPECT_GT(splits, 0) << "demand " << demand;
  }
  const graph::EdgeMask nothing_failed(run.map.graph().edge_count());
  EXPECT_THROW((void)core::planned_capacity_classes(run.map, run.net,
                                                    nothing_failed, 0),
               std::invalid_argument);
}

/// The per-step downtime integrator, written out plainly: after every step
/// ask every pair with both ends up, open or close its downtime interval,
/// and split closed intervals over the batch-means windows.
CorrelatedAvailabilityReport per_step_reference(
    const FailureTimeline& tl, const std::vector<std::vector<bool>>& up) {
  const std::size_t n = tl.dcs.size();
  const int batches = tl.ci_batches;
  const double batch_h =
      batches > 0 ? tl.horizon_h / static_cast<double>(batches) : 0.0;
  std::vector<double> down_h(n * n, 0.0);
  std::vector<double> batch_down(static_cast<std::size_t>(batches) * n * n,
                                 0.0);
  std::vector<bool> down(n * n, false);
  std::vector<double> since(n * n, 0.0);
  const auto close = [&](std::size_t idx, double from, double to) {
    down_h[idx] += to - from;
    for (int b = 0; b < batches; ++b) {
      const double lo = std::max(from, static_cast<double>(b) * batch_h);
      const double hi = std::min(to, static_cast<double>(b + 1) * batch_h);
      if (hi > lo) {
        batch_down[static_cast<std::size_t>(b) * n * n + idx] += hi - lo;
      }
    }
  };
  for (const FailureTimeline::Step& step : tl.steps) {
    std::size_t p = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j, ++p) {
        const std::size_t idx = i * n + j;
        const bool ok = tl.dc_down(step.state, i) ||
                        tl.dc_down(step.state, j) ||
                        up[static_cast<std::size_t>(step.state)][p];
        if (!ok && !down[idx]) {
          down[idx] = true;
          since[idx] = step.at_h;
        } else if (ok && down[idx]) {
          down[idx] = false;
          close(idx, since[idx], step.at_h);
        }
      }
    }
  }
  CorrelatedAvailabilityReport out;
  static_cast<EventTallies&>(out) = tl.tallies;
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const std::size_t idx = i * n + j;
      if (down[idx]) close(idx, since[idx], tl.horizon_h);
      PairAvailability pa;
      pa.a = tl.dcs[i];
      pa.b = tl.dcs[j];
      pa.availability = 1.0 - down_h[idx] / tl.horizon_h;
      pa.ci_low = pa.ci_high = pa.availability;
      if (batches > 0) {
        std::vector<double> a(static_cast<std::size_t>(batches));
        double mean = 0.0;
        for (int b = 0; b < batches; ++b) {
          a[static_cast<std::size_t>(b)] =
              1.0 - batch_down[static_cast<std::size_t>(b) * n * n + idx] /
                        batch_h;
          mean += a[static_cast<std::size_t>(b)];
        }
        mean /= static_cast<double>(batches);
        double var = 0.0;
        for (const double a_b : a) var += (a_b - mean) * (a_b - mean);
        var /= static_cast<double>(batches - 1);
        const double half =
            1.96 * std::sqrt(var / static_cast<double>(batches));
        pa.ci_low = std::max(0.0, pa.availability - half);
        pa.ci_high = std::min(1.0, pa.availability + half);
      }
      out.summary.worst_availability =
          std::min(out.summary.worst_availability, pa.availability);
      sum += pa.availability;
      out.summary.pairs.push_back(pa);
    }
  }
  out.summary.mean_availability =
      sum / static_cast<double>(out.summary.pairs.size());
  return out;
}

// The state-row integrator must give exactly the per-step reference's
// doubles (CIs included) on a run with every event kind, under a
// connectivity and a capacity verdict, while asking each (state, pair) at
// most once.
TEST(Availability, StateRowsMatchPerStepReference) {
  const auto& run = correlated_run();
  const FailureTimeline timeline = record_timeline(run.map, run.model);
  ASSERT_GT(timeline.ci_batches, 0);
  ASSERT_GT(timeline.steps.size(),
            4 * static_cast<std::size_t>(timeline.state_count()));
  const auto& dcs = run.map.dcs();
  const std::vector<PairUpFn> criteria{
      any_path_criterion(run.map),
      core::planned_capacity_criterion(run.map, run.net, 2)};
  for (std::size_t c = 0; c < criteria.size(); ++c) {
    // Every verdict, precomputed per (state, pair).
    std::vector<std::vector<bool>> up;
    for (int s = 0; s < timeline.state_count(); ++s) {
      const graph::EdgeMask mask = timeline.failed_mask(s);
      std::vector<bool> row;
      for (std::size_t i = 0; i < dcs.size(); ++i) {
        for (std::size_t j = i + 1; j < dcs.size(); ++j) {
          row.push_back(criteria[c](mask, dcs[i], dcs[j]));
        }
      }
      up.push_back(std::move(row));
    }
    std::set<std::tuple<int, std::size_t, std::size_t>> asked;
    long long asks = 0;
    const long long asks0 =
        obs::registry().counter("reliability.timeline.verdict_asks");
    const CorrelatedAvailabilityReport got = integrate_timeline(
        timeline, [&](int state, std::size_t i, std::size_t j) {
          ++asks;
          EXPECT_TRUE(asked.emplace(state, i, j).second)
              << "state " << state << " pair " << i << "," << j;
          const std::size_t p =
              i * dcs.size() - i * (i + 1) / 2 + (j - i - 1);
          return static_cast<bool>(up[static_cast<std::size_t>(state)][p]);
        });
    EXPECT_GT(asks, 0);
    EXPECT_LE(asks, static_cast<long long>(timeline.state_count()) * 10);
    if (obs::compiled_in()) {
      EXPECT_EQ(
          obs::registry().counter("reliability.timeline.verdict_asks") - asks0,
          asks);
    }
    const CorrelatedAvailabilityReport want =
        per_step_reference(timeline, up);
    ASSERT_EQ(got.summary.pairs.size(), want.summary.pairs.size());
    for (std::size_t p = 0; p < want.summary.pairs.size(); ++p) {
      const PairAvailability& g = got.summary.pairs[p];
      const PairAvailability& w = want.summary.pairs[p];
      EXPECT_EQ(g.a, w.a);
      EXPECT_EQ(g.b, w.b);
      // Bit-for-bit: exact double equality.
      EXPECT_EQ(g.availability, w.availability)
          << "criterion " << c << " pair " << p;
      EXPECT_EQ(g.ci_low, w.ci_low) << "criterion " << c << " pair " << p;
      EXPECT_EQ(g.ci_high, w.ci_high) << "criterion " << c << " pair " << p;
    }
    EXPECT_EQ(got.summary.worst_availability, want.summary.worst_availability);
    EXPECT_EQ(got.summary.mean_availability, want.summary.mean_availability);
    EXPECT_LT(got.summary.worst_availability, 1.0);
    EXPECT_EQ(got.disaster_events, want.disaster_events);
  }
}

// Recording keeps every event: steps follow the stream one for one, the
// tallies match a simulation's, and states are distinct.
TEST(Availability, TimelineRecordsEveryEventOnce) {
  const auto& run = correlated_run();
  const FailureTimeline timeline = record_timeline(run.map, run.model);
  EventStream stream(run.map, run.model);
  std::size_t events = 0;
  while (const auto ev = stream.next()) {
    ASSERT_LT(events, timeline.steps.size());
    EXPECT_EQ(timeline.steps[events].at_h, ev->at_h);
    ++events;
  }
  EXPECT_EQ(events, timeline.steps.size());
  const auto report = simulate_availability_correlated(
      run.map, run.model, any_path_criterion(run.map));
  EXPECT_EQ(timeline.tallies.duct_cut_events, report.duct_cut_events);
  EXPECT_EQ(timeline.tallies.trench_events, report.trench_events);
  EXPECT_EQ(timeline.tallies.hut_events, report.hut_events);
  EXPECT_EQ(timeline.tallies.maintenance_events, report.maintenance_events);
  EXPECT_EQ(timeline.tallies.disaster_events, report.disaster_events);
  std::set<std::vector<std::uint64_t>> states;
  for (int s = 0; s < timeline.state_count(); ++s) {
    const auto* first = timeline.state_bits.data() +
                        static_cast<std::size_t>(s) * timeline.stride;
    EXPECT_TRUE(states.emplace(first, first + timeline.stride).second);
  }
}

}  // namespace
}  // namespace iris::reliability
