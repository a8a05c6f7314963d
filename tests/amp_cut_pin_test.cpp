// Byte pins for amplifier and cut-through placement (Appendix A) and for
// plan validation.
//
// Each AmpCutPin case plans a generated region and folds every AmpCutPlan
// field -- per-site amplifier counts, each cut-through's nodes, ducts and
// fiber pairs, and the unresolved and beyond-SLA path tallies -- into one
// FNV-1a digest pinned as a hex literal, beside the run's AmpCutStats work
// counters. Each ValidatePin case folds the four ValidationReport counters
// of validate_plan() at 1 and 4 threads. Any change to a greedy choice or to
// the scenarios a sweep routes moves a value, so a rewrite of the placement
// or validation sweep must reproduce these values exactly rather than
// re-capture them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

#include <algorithm>
#include <vector>

#include "core/amp_cut.hpp"
#include "core/plan_region.hpp"
#include "fibermap/generator.hpp"
#include "fibermap/srlg.hpp"

namespace iris::core {
namespace {

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// FNV-1a over the plan's canonical text.
std::uint64_t digest(const AmpCutPlan& plan) {
  std::string text = "amps";
  for (int a : plan.amps_at_node) text += " " + std::to_string(a);
  for (const CutThrough& ct : plan.cut_throughs) {
    text += "\nct nodes";
    for (graph::NodeId n : ct.nodes) text += " " + std::to_string(n);
    text += " ducts";
    for (graph::EdgeId e : ct.ducts) text += " " + std::to_string(e);
    text += " fibers " + std::to_string(ct.fiber_pairs);
  }
  text += "\nunresolved " + std::to_string(plan.unresolved_paths);
  text += "\nbeyond_sla " + std::to_string(plan.beyond_sla_paths);
  return fnv1a(text);
}

/// FNV-1a over the report's four counters.
std::uint64_t digest(const ValidationReport& r) {
  return fnv1a("checked " + std::to_string(r.paths_checked) +
               "\ninfeasible " + std::to_string(r.infeasible_paths) +
               "\ndisconnected " + std::to_string(r.pairs_disconnected) +
               "\nbeyond_sla " + std::to_string(r.paths_beyond_sla));
}

/// The fleet shards' region shape: 10 huts, 8 fibers per DC.
fibermap::FiberMap region(int dcs, std::uint64_t seed) {
  fibermap::RegionParams rp;
  rp.seed = seed;
  rp.dc_count = dcs;
  rp.hut_count = 10;
  rp.capacity_fibers = 8;
  return fibermap::generate_region(rp);
}

AmpCutPlan place(const fibermap::FiberMap& map, int tolerance,
                 AmpCutStats* stats = nullptr) {
  PlannerParams params;
  params.failure_tolerance = tolerance;
  return place_amplifiers_and_cutthroughs(map, provision(map, params), stats);
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct PinCase {
  int dcs;
  int tolerance;
  std::uint64_t seed;
  std::uint64_t digest;
  AmpCutStats stats{};  // unused by ValidatePin
};

void PrintTo(const PinCase& c, std::ostream* os) {
  *os << "dcs=" << c.dcs << " k=" << c.tolerance << " seed=" << c.seed;
}

class AmpCutPin : public ::testing::TestWithParam<PinCase> {};

TEST_P(AmpCutPin, PlanBytesArePinned) {
  const PinCase& c = GetParam();
  AmpCutStats stats;
  const AmpCutPlan plan = place(region(c.dcs, c.seed), c.tolerance, &stats);
  EXPECT_EQ(hex(digest(plan)), hex(c.digest));
  EXPECT_EQ(stats.scenarios, c.stats.scenarios);
  EXPECT_EQ(stats.pair_paths, c.stats.pair_paths);
  EXPECT_EQ(stats.distinct_paths, c.stats.distinct_paths);
}

INSTANTIATE_TEST_SUITE_P(
    Regions, AmpCutPin,
    ::testing::Values(
        PinCase{5, 1, 1, 0x4bd101dbbc272830ULL, {28, 280, 34}},
        PinCase{5, 1, 2, 0x488caad6c0cd4fa0ULL, {29, 290, 44}},
        PinCase{5, 1, 3, 0x57e277d8f51c3005ULL, {29, 290, 29}},
        PinCase{5, 2, 1, 0x6a5f64c82e3c7e16ULL, {379, 3758, 76}},
        PinCase{5, 2, 2, 0x6f4c54aa4c875347ULL, {407, 4038, 102}},
        PinCase{5, 2, 3, 0x538583c3079a15aaULL, {407, 4050, 62}},
        PinCase{10, 1, 1, 0x5eefe264457c8d8bULL, {38, 1710, 156}},
        PinCase{10, 1, 2, 0x97d5f7c0327aef7bULL, {39, 1755, 178}},
        PinCase{10, 1, 3, 0xdbf2176a5fcfdc57ULL, {39, 1755, 144}},
        PinCase{10, 2, 1, 0x283e55c497595497ULL, {704, 31545, 325}},
        PinCase{10, 2, 2, 0x8b0190429fff250bULL, {742, 33276, 433}},
        PinCase{10, 2, 3, 0xd42631e7cfa41ee2ULL, {742, 33300, 313}},
        PinCase{20, 1, 1, 0xfa4ba52a7dfeeb9eULL, {58, 11020, 664}},
        PinCase{20, 1, 2, 0x8a81324a97dd41f4ULL, {59, 11210, 785}},
        PinCase{20, 1, 3, 0x36cce3d933cc6857ULL, {59, 11210, 673}},
        PinCase{20, 2, 1, 0xe8afd69f5f8600e5ULL, {1654, 313685, 1489}},
        PinCase{20, 2, 2, 0x5e14c5009a8deb87ULL, {1712, 324900, 2073}},
        PinCase{20, 2, 3, 0x0b378d898584f00cULL, {1712, 324900, 1451}}),
    [](const ::testing::TestParamInfo<PinCase>& info) {
      return "dcs" + std::to_string(info.param.dcs) + "_k" +
             std::to_string(info.param.tolerance) + "_seed" +
             std::to_string(info.param.seed);
    });

// SRLG events fail several ducts at once, so the sweep visits scenarios an
// independent-cut domain never reaches.
TEST(AmpCutPinSrlg, RegionBytesArePinned) {
  fibermap::FiberMap map = region(10, 4);
  fibermap::infer_and_add_srlgs(map);
  const auto dc0 = map.graph().incident(map.dcs()[0]);
  map.add_srlg(
      {"dc0-trench", fibermap::SrlgKind::kTrench, {dc0[0], dc0[1]}, 2.0});
  AmpCutStats stats;
  EXPECT_EQ(hex(digest(place(map, 2, &stats))), hex(0x88086a09bbd34c8eULL));
  EXPECT_EQ(stats.scenarios, 1486);
  EXPECT_EQ(stats.pair_paths, 65890);
  EXPECT_EQ(stats.distinct_paths, 460);
}

// Lossy fiber leaves paths that neither an amplifier nor a corridor can
// close, so the cut-through stage gives up on some scenarios (821 unresolved
// paths here) as well as leasing 17 corridors.
TEST(AmpCutPinLossy, UnresolvedBytesArePinned) {
  const fibermap::FiberMap map = region(10, 5);
  PlannerParams params;
  params.failure_tolerance = 2;
  params.spec.fiber_loss_db_per_km = 0.5;
  const AmpCutPlan plan =
      place_amplifiers_and_cutthroughs(map, provision(map, params));
  EXPECT_EQ(plan.unresolved_paths, 821);
  EXPECT_EQ(hex(digest(plan)), hex(0xcbd40d9c29d97e0aULL));
}

/// Provisions and places at `params`, then validates the placement (or
/// `plan`, when given) at 1 and at 4 threads and expects both to hit `want`.
void expect_validation_pinned(const fibermap::FiberMap& map,
                              PlannerParams params, std::uint64_t want,
                              const AmpCutPlan* plan = nullptr) {
  params.threads = 1;
  ProvisionedNetwork net = provision(map, params);
  const AmpCutPlan placed = place_amplifiers_and_cutthroughs(map, net);
  for (const int threads : {1, 4}) {
    net.params.threads = threads;
    const ValidationReport report =
        validate_plan(map, net, plan != nullptr ? *plan : placed);
    EXPECT_EQ(hex(digest(report)), hex(want)) << "threads " << threads;
  }
}

class ValidatePin : public ::testing::TestWithParam<PinCase> {};

TEST_P(ValidatePin, ReportIsPinned) {
  const PinCase& c = GetParam();
  PlannerParams params;
  params.failure_tolerance = c.tolerance;
  expect_validation_pinned(region(c.dcs, c.seed), params, c.digest);
}

INSTANTIATE_TEST_SUITE_P(
    Regions, ValidatePin,
    ::testing::Values(
        PinCase{5, 1, 1, 0xbb364bb8d221538bULL},
        PinCase{5, 1, 2, 0xa489c44895c92f4cULL},
        PinCase{5, 1, 3, 0xa489c44895c92f4cULL},
        PinCase{5, 2, 1, 0xb343247b26cd797bULL},
        PinCase{5, 2, 2, 0xe63c36fda62dc587ULL},
        PinCase{5, 2, 3, 0x57697118670cdef8ULL},
        PinCase{10, 1, 1, 0xd1d4bb9fbee46793ULL},
        PinCase{10, 1, 2, 0x6ca72445d49e7921ULL},
        PinCase{10, 1, 3, 0xb082f7a03f7a018bULL},
        PinCase{10, 2, 1, 0x3f96ad3bb6e31260ULL},
        PinCase{10, 2, 2, 0xdecd9e5b47b69962ULL},
        PinCase{10, 2, 3, 0xb4b116521b440ac1ULL},
        PinCase{15, 1, 1, 0xc58b9245d71cf1abULL},
        PinCase{15, 1, 2, 0xae534786fbb5c4eeULL},
        PinCase{15, 1, 3, 0xae534786fbb5c4eeULL},
        PinCase{15, 2, 1, 0x435df09df6c058d1ULL},
        PinCase{15, 2, 2, 0xa7bb425b5e8c33f1ULL},
        PinCase{15, 2, 3, 0x39cfe131e982f576ULL}),
    [](const ::testing::TestParamInfo<PinCase>& info) {
      return "dcs" + std::to_string(info.param.dcs) + "_k" +
             std::to_string(info.param.tolerance) + "_seed" +
             std::to_string(info.param.seed);
    });

// ProvisionPinSrlg's map: SRLG events fail several ducts at once.
TEST(ValidatePinSrlg, ReportIsPinned) {
  fibermap::FiberMap map = region(10, 4);
  fibermap::infer_and_add_srlgs(map);
  const auto dc0 = map.graph().incident(map.dcs()[0]);
  map.add_srlg(
      {"dc0-trench", fibermap::SrlgKind::kTrench, {dc0[0], dc0[1]}, 2.0});
  PlannerParams params;
  params.failure_tolerance = 2;
  expect_validation_pinned(map, params, 0x8d5db88216e9b5d2ULL);
}

// ProvisionPinLiveCuts' cut set: the three ducts the uncut plan loads most.
TEST(ValidatePinLiveCuts, ReportIsPinned) {
  const fibermap::FiberMap map = region(10, 2);
  PlannerParams params;
  params.failure_tolerance = 2;
  params.threads = 1;
  const ProvisionedNetwork uncut = provision(map, params);
  std::vector<graph::EdgeId> ducts(uncut.edge_capacity_wavelengths.size());
  for (std::size_t e = 0; e < ducts.size(); ++e) {
    ducts[e] = static_cast<graph::EdgeId>(e);
  }
  std::stable_sort(ducts.begin(), ducts.end(), [&](auto a, auto b) {
    return uncut.edge_capacity_wavelengths[static_cast<std::size_t>(a)] >
           uncut.edge_capacity_wavelengths[static_cast<std::size_t>(b)];
  });
  params.cut_ducts.assign(ducts.begin(), ducts.begin() + 3);
  expect_validation_pinned(map, params, 0x7520971b036cab07ULL);
}

// No amplifiers and no cut-throughs: every path that needs help counts as
// infeasible, so the memoized feasibility verdicts are pinned too.
TEST(ValidatePinEmptyPlan, InfeasibleCountIsPinned) {
  const fibermap::FiberMap map = region(10, 1);
  AmpCutPlan empty;
  empty.amps_at_node.assign(
      static_cast<std::size_t>(map.graph().node_count()), 0);
  PlannerParams params;
  params.failure_tolerance = 2;
  params.threads = 1;
  const ValidationReport report =
      validate_plan(map, provision(map, params), empty);
  EXPECT_GT(report.infeasible_paths, 0);
  expect_validation_pinned(map, params, 0x2895c332e9d3c275ULL, &empty);
}

}  // namespace
}  // namespace iris::core
