// FNV-1a digests that pin a controller run's bytes.
//
// The crash k-sweeps and the crash-restart soak compare a run against
// itself or against a crash-free run, so on their own they cannot notice a
// change that moves the journal text or the recovery commands of every run
// alike. A RunDigest folds, after every step, the journal text, the
// controller's command trace and its state fingerprint into one 64-bit
// FNV-1a value; tests pin that value as a hex literal.
#pragma once

#include <cstdint>
#include <string_view>

#include "control/commands.hpp"
#include "control/controller.hpp"
#include "control/journal.hpp"

namespace iris::control {

class RunDigest {
 public:
  void fold(std::string_view bytes) {
    for (const unsigned char c : bytes) {
      hash_ ^= c;
      hash_ *= 0x100000001b3ULL;
    }
    fold_separator();
  }

  /// Folds the journal text, the last command trace and the fingerprint.
  void fold_step(const IntentJournal& journal, const IrisController& ctl) {
    fold(journal.to_text());
    for (const DeviceCommand& cmd : ctl.last_command_trace()) {
      fold(to_string(cmd));
    }
    fold(ctl.state_fingerprint());
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  void fold_separator() {
    hash_ ^= 0xffU;
    hash_ *= 0x100000001b3ULL;
  }

  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace iris::control
