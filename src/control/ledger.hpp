// The controller's resource ledger (paper SS5.2): which duct fibers, add/drop
// pairs and amplifier units are free, quarantined or held by a circuit.
//
// The rule for how a pool splits into those three parts lives here only. A
// Census tallies each index's states over the free and quarantine lists and
// one walk of the held allocations, then checks one of two rules:
//   at rest          each index is exactly one of free, quarantined or held
//                    (between transactions: the device audit);
//   mid-transaction  no index twice in one state, none free and also
//                    quarantined or held (recovery, checkpoint validation).
//                    Held-and-quarantined is allowed: a resource can fail
//                    while a circuit holds it, and is not freed on return.
//                    So is an index in no state: an establish is drawing it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "control/circuits.hpp"
#include "control/journal.hpp"

namespace iris::control {

/// Resource kinds; the values are the journal's quarantine record kinds.
enum class ResKind : int {
  kFiber = 0, kAddDrop = 1, kAmp = 2, kTransceiver = 3,
};

/// A pool: its kind and owner (a duct for fibers, a site or DC otherwise).
using PoolId = std::pair<ResKind, int>;
/// One resource: (kind, owner, index).
using ResKey = std::tuple<ResKind, int, int>;

/// One pool of `total` interchangeable units, indices 0..total-1.
struct Pool {
  int total = 0;
  /// Sorted descending, smallest index at the back, so take() pops in O(n).
  std::vector<int> free;
  std::vector<int> quarantined;  ///< in quarantine order

  static Pool all_free(int total);
  /// Units neither free nor quarantined.
  [[nodiscard]] int in_use() const {
    return total - static_cast<int>(free.size() + quarantined.size());
  }
  /// Pops the `n` smallest free indices, ascending. Throws
  /// std::runtime_error naming `what` when fewer are free.
  std::vector<int> take(int n, const char* what);
  /// Gives held `items` back: an index already quarantined stays there, one
  /// listed in `culprits` is quarantined, the rest are freed. Returns the
  /// newly quarantined indices in item order.
  std::vector<int> release(const std::vector<int>& items,
                           const std::vector<int>& culprits = {});
  /// Moves `idx` from the free list to quarantine; false if it is not free.
  bool quarantine_if_free(int idx);
};

/// Every pool of the controller's inventory.
using Ledger = std::map<PoolId, Pool>;

enum class PartitionRule { kAtRest, kMidTransaction };

/// Which of free, quarantined and held each index of every pool is, and per
/// pool the first index out of range or counted twice in one use.
class Census {
 public:
  /// One bit per use, so an index's uses form a mask.
  enum Use : std::uint8_t { kFree = 1, kQuarantined = 2, kHeld = 4 };

  /// No inventory: pools and their sizes grow with what is counted, so only
  /// negative indices are out of range.
  Census() = default;
  /// `ledger`'s pools and sizes, with their free and quarantine lists.
  explicit Census(const Ledger& ledger);

  /// Counts `items` of pool `id` in one state; false when the pool is not
  /// in the inventory.
  bool count(PoolId id, Use use, const std::vector<int>& items);
  /// Counts one circuit's allocation as held. False when its hops do not
  /// match the route or it names a pool not in the inventory; what matches
  /// is counted anyway.
  bool hold(const Circuit& c, const AllocationRecord& a);

  /// Every pool breaking `rule`, in pool order, with its first bad index.
  [[nodiscard]] std::vector<std::pair<PoolId, std::string>> faults(
      PartitionRule rule) const;
  /// Indices of pool `id` in no state, descending: the canonical free list
  /// once everything held and quarantined is counted.
  [[nodiscard]] std::vector<int> unused(PoolId id) const;

 private:
  struct Tally {
    int total = -1;  ///< -1: no inventory
    std::vector<std::uint8_t> uses;  ///< per index: the Use bits counted
    std::string fault;  ///< first index out of range or twice in one Use
  };

  bool sized_ = false;
  std::vector<std::pair<PoolId, Tally>> tallies_;  ///< sorted by PoolId
};

}  // namespace iris::control
