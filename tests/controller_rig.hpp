// A controller together with the device layer it drives, for tests that
// neither crash the controller nor raise a successor over the same
// hardware. Tests that do keep the DeviceLayer themselves.
#pragma once

#include <utility>

#include "control/controller.hpp"

namespace iris::control {

struct ControllerRig {
  ControllerRig(const fibermap::FiberMap& map,
                const core::ProvisionedNetwork& network,
                const core::AmpCutPlan& amp_cut, FaultConfig faults = {})
      : devices(map, network, amp_cut, std::move(faults)),
        controller(map, network, amp_cut, devices) {}

  DeviceLayer devices;
  IrisController controller;
};

}  // namespace iris::control
