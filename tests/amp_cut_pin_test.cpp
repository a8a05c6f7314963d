// Byte pins for amplifier and cut-through placement (Appendix A).
//
// Each case plans a generated region and folds every AmpCutPlan field --
// per-site amplifier counts, each cut-through's nodes, ducts and fiber
// pairs, and the unresolved and beyond-SLA path tallies -- into one FNV-1a
// digest pinned as a hex literal. Any change to a greedy choice moves a
// digest, so a rewrite of the placement engine must reproduce these values
// exactly rather than re-capture them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

#include "core/amp_cut.hpp"
#include "fibermap/generator.hpp"
#include "fibermap/srlg.hpp"

namespace iris::core {
namespace {

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
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
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

AmpCutPlan place(const fibermap::FiberMap& map, int tolerance) {
  PlannerParams params;
  params.failure_tolerance = tolerance;
  return place_amplifiers_and_cutthroughs(map, provision(map, params));
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
};

void PrintTo(const PinCase& c, std::ostream* os) {
  *os << "dcs=" << c.dcs << " k=" << c.tolerance << " seed=" << c.seed;
}

class AmpCutPin : public ::testing::TestWithParam<PinCase> {};

TEST_P(AmpCutPin, PlanBytesArePinned) {
  const PinCase& c = GetParam();
  const AmpCutPlan plan = place(region(c.dcs, c.seed), c.tolerance);
  EXPECT_EQ(hex(digest(plan)), hex(c.digest));
}

INSTANTIATE_TEST_SUITE_P(
    Regions, AmpCutPin,
    ::testing::Values(
        PinCase{5, 1, 1, 0x4bd101dbbc272830ULL},
        PinCase{5, 1, 2, 0x488caad6c0cd4fa0ULL},
        PinCase{5, 1, 3, 0x57e277d8f51c3005ULL},
        PinCase{5, 2, 1, 0x6a5f64c82e3c7e16ULL},
        PinCase{5, 2, 2, 0x6f4c54aa4c875347ULL},
        PinCase{5, 2, 3, 0x538583c3079a15aaULL},
        PinCase{10, 1, 1, 0x5eefe264457c8d8bULL},
        PinCase{10, 1, 2, 0x97d5f7c0327aef7bULL},
        PinCase{10, 1, 3, 0xdbf2176a5fcfdc57ULL},
        PinCase{10, 2, 1, 0x283e55c497595497ULL},
        PinCase{10, 2, 2, 0x8b0190429fff250bULL},
        PinCase{10, 2, 3, 0xd42631e7cfa41ee2ULL},
        PinCase{20, 1, 1, 0xfa4ba52a7dfeeb9eULL},
        PinCase{20, 1, 2, 0x8a81324a97dd41f4ULL},
        PinCase{20, 1, 3, 0x36cce3d933cc6857ULL},
        PinCase{20, 2, 1, 0xe8afd69f5f8600e5ULL},
        PinCase{20, 2, 2, 0x5e14c5009a8deb87ULL},
        PinCase{20, 2, 3, 0x0b378d898584f00cULL}),
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
  EXPECT_EQ(hex(digest(place(map, 2))), hex(0x88086a09bbd34c8eULL));
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

}  // namespace
}  // namespace iris::core
