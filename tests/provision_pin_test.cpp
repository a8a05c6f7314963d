// Byte pins for Algorithm 1 (provision()).
//
// Each case provisions a generated region and folds every plan field the
// sweep computes -- per-duct capacity in wavelengths, base fibers, every
// baseline path, and the four sweep tallies (scenarios evaluated, scenarios
// pruned, unreachable pairs, beyond-SLA pairs) -- into one FNV-1a digest
// pinned as a hex literal. Each case runs at 1 and 4 threads. A rewrite of
// the sweep must reproduce these values exactly rather than re-capture them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "core/provision.hpp"
#include "fibermap/generator.hpp"
#include "fibermap/srlg.hpp"

namespace iris::core {
namespace {

/// FNV-1a over the plan's canonical text. Path lengths print as hex floats
/// so the digest sees every bit.
std::uint64_t digest(const ProvisionedNetwork& net) {
  std::string text = "waves";
  for (long long w : net.edge_capacity_wavelengths) {
    text += " " + std::to_string(w);
  }
  text += "\nfibers";
  for (int f : net.base_fibers) text += " " + std::to_string(f);
  char km[40];
  for (const auto& [pair, path] : net.baseline_paths) {
    text += "\npath " + std::to_string(pair.a) + "-" + std::to_string(pair.b) +
            " nodes";
    for (graph::NodeId n : path.nodes) text += " " + std::to_string(n);
    text += " edges";
    for (graph::EdgeId e : path.edges) text += " " + std::to_string(e);
    std::snprintf(km, sizeof km, " km %a", path.length_km);
    text += km;
  }
  text += "\nevaluated " + std::to_string(net.scenarios_evaluated);
  text += "\npruned " + std::to_string(net.scenarios_pruned);
  text += "\nunreachable " + std::to_string(net.pair_paths_skipped_unreachable);
  text += "\nbeyond_sla " + std::to_string(net.pair_paths_beyond_sla);
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

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Provisions at 1 and at 4 threads and expects both to hit `want`.
void expect_pinned(const fibermap::FiberMap& map, PlannerParams params,
                   std::uint64_t want) {
  for (const int threads : {1, 4}) {
    params.threads = threads;
    EXPECT_EQ(hex(digest(provision(map, params))), hex(want))
        << "threads " << threads;
  }
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

class ProvisionPin : public ::testing::TestWithParam<PinCase> {};

TEST_P(ProvisionPin, PlanBytesArePinned) {
  const PinCase& c = GetParam();
  PlannerParams params;
  params.failure_tolerance = c.tolerance;
  expect_pinned(region(c.dcs, c.seed), params, c.digest);
}

INSTANTIATE_TEST_SUITE_P(
    Regions, ProvisionPin,
    ::testing::Values(
        PinCase{5, 1, 1, 0xd657f5bbf3bfb0d1ULL},
        PinCase{5, 1, 2, 0x745027712a77b3ffULL},
        PinCase{5, 1, 3, 0x1e15a67ea74f2853ULL},
        PinCase{5, 2, 1, 0x6bf201d604384710ULL},
        PinCase{5, 2, 2, 0xcacf7d594f63368dULL},
        PinCase{5, 2, 3, 0xdb2c4b2d6071bc1eULL},
        PinCase{10, 1, 1, 0xb59061ffbb36d51aULL},
        PinCase{10, 1, 2, 0xd4d3ea249f18809eULL},
        PinCase{10, 1, 3, 0x2a7c8c667cfa3c30ULL},
        PinCase{10, 2, 1, 0xff786da81ea9a4ecULL},
        PinCase{10, 2, 2, 0xb6cd908791350489ULL},
        PinCase{10, 2, 3, 0xd4f33ae2c09e78adULL},
        PinCase{15, 1, 1, 0x673f283f2685e1c0ULL},
        PinCase{15, 1, 2, 0x40cf284cb50f6aceULL},
        PinCase{15, 1, 3, 0xba04a6b17690e818ULL},
        PinCase{15, 2, 1, 0xa8e48f630f17f705ULL},
        PinCase{15, 2, 2, 0xfa35174c2de74c5dULL},
        PinCase{15, 2, 3, 0xb79623a8c7d54693ULL}),
    [](const ::testing::TestParamInfo<PinCase>& info) {
      return "dcs" + std::to_string(info.param.dcs) + "_k" +
             std::to_string(info.param.tolerance) + "_seed" +
             std::to_string(info.param.seed);
    });

// SRLG events fail several ducts at once, so the sweep visits scenarios an
// independent-cut domain never reaches.
TEST(ProvisionPinSrlg, RegionBytesArePinned) {
  fibermap::FiberMap map = region(10, 4);
  fibermap::infer_and_add_srlgs(map);
  const auto dc0 = map.graph().incident(map.dcs()[0]);
  map.add_srlg(
      {"dc0-trench", fibermap::SrlgKind::kTrench, {dc0[0], dc0[1]}, 2.0});
  PlannerParams params;
  params.failure_tolerance = 2;
  expect_pinned(map, params, 0x8c3832a359cab9f2ULL);
}

// Live cuts fail ducts in every scenario: here the three ducts the uncut
// plan loads most, so every pair reroutes somewhere.
TEST(ProvisionPinLiveCuts, RegionBytesArePinned) {
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
  expect_pinned(map, params, 0x66a9c262ebac8bebULL);
}

}  // namespace
}  // namespace iris::core
