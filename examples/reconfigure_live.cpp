// Live reconfiguration walk-through: drive the Iris controller through a
// day-in-the-life sequence of traffic matrices and print every drain /
// switch / verify step, as the SS5.2 control plane would execute it.
//
// Usage: ./build/examples/reconfigure_live
#include <cstdio>

#include "control/controller.hpp"
#include "fibermap/generator.hpp"

namespace {

void describe(const char* title, const iris::control::ReconfigReport& report) {
  std::printf("\n--- %s ---\n", title);
  std::printf("circuits: +%zu / -%zu, OSS ops: %lld, retuned: %lld\n",
              report.set_up.size(), report.torn_down.size(),
              report.oss_operations, report.transceivers_retuned);
  std::printf("timing: drain %.0f ms, switch %.0f ms, recovery %.0f ms "
              "(capacity gap %.0f ms)\n",
              report.drain_ms, report.switch_ms, report.recovery_ms,
              report.capacity_gap_ms());
  for (const auto& step : report.timeline) {
    std::printf("  t=%6.1f ms  %s\n", step.at_ms, step.action.c_str());
  }
  std::printf("verify: %s\n", report.verified ? "device state OK" : "FAILED");
}

}  // namespace

int main() {
  using namespace iris;
  using core::DcPair;

  fibermap::RegionParams region;
  region.seed = 5;
  region.dc_count = 6;
  region.capacity_fibers = 8;
  region.dc_attach_huts = 3;
  const auto map = fibermap::generate_region(region);

  core::PlannerParams params;
  params.failure_tolerance = 1;
  const auto net = core::provision(map, params);
  const auto plan = core::place_amplifiers_and_cutthroughs(map, net);
  control::DeviceLayer devices(map, net, plan);
  control::IrisController controller(map, net, plan, devices);
  const auto& dcs = map.dcs();

  // Morning: replication traffic between the two big DCs.
  control::TrafficMatrix morning;
  morning[DcPair(dcs[0], dcs[1])] = 200;
  morning[DcPair(dcs[2], dcs[3])] = 80;
  describe("08:00 morning matrix", controller.apply_traffic_matrix(morning));

  // Midday: a cold pair becomes hot; one circuit grows, one shrinks.
  control::TrafficMatrix midday = morning;
  midday[DcPair(dcs[0], dcs[1])] = 120;
  midday[DcPair(dcs[4], dcs[5])] = 160;
  describe("12:00 midday shift", controller.apply_traffic_matrix(midday));

  // A fiber cut: reroute the affected circuit without touching the rest.
  const auto victim = controller.active_circuits()[0].route.edges.front();
  std::printf("\n!!! fiber cut on duct %d\n", victim);
  controller.fail_duct(victim);
  describe("14:37 cut response", controller.apply_traffic_matrix(midday));

  // Repair and settle back.
  controller.restore_duct(victim);
  describe("18:00 post-repair", controller.apply_traffic_matrix(midday));

  std::printf("\nactive circuits at end of day: %zu\n",
              controller.active_circuits().size());
  return 0;
}
