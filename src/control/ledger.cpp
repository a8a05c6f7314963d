#include "control/ledger.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace iris::control {

Pool Pool::all_free(int total) {
  Pool p;
  p.total = total;
  for (int k = total - 1; k >= 0; --k) p.free.push_back(k);
  return p;
}

std::vector<int> Pool::take(int n, const char* what) {
  if (std::ssize(free) < n) {
    throw std::runtime_error(std::string("IrisController: ") + what +
                             " pool exhausted");
  }
  std::vector<int> taken(free.rbegin(), free.rbegin() + n);
  free.erase(free.end() - n, free.end());
  return taken;
}

std::vector<int> Pool::release(const std::vector<int>& items,
                               const std::vector<int>& culprits) {
  const auto listed = [](const std::vector<int>& list, int idx) {
    return std::find(list.begin(), list.end(), idx) != list.end();
  };
  std::vector<int> pulled;
  std::vector<int> freed;
  for (int idx : items) {
    if (!listed(quarantined, idx)) {
      (listed(culprits, idx) ? pulled : freed).push_back(idx);
    }
  }
  quarantined.insert(quarantined.end(), pulled.begin(), pulled.end());
  std::sort(freed.begin(), freed.end(), std::greater<>());
  free.insert(free.end(), freed.begin(), freed.end());
  std::inplace_merge(free.begin(), free.end() - std::ssize(freed), free.end(),
                     std::greater<>());
  return pulled;
}

bool Pool::quarantine_if_free(int idx) {
  const auto it = std::find(free.begin(), free.end(), idx);
  if (it == free.end()) return false;
  free.erase(it);
  quarantined.push_back(idx);
  return true;
}

namespace {

std::string describe(PoolId id, const char* what, long long idx) {
  static constexpr const char* kNames[] = {"fiber", "add/drop", "amplifier"};
  return std::string(what) + ' ' + kNames[static_cast<int>(id.first)] +
         " index " + std::to_string(idx);
}

/// The first entry of a PoolId-sorted tally list not before `id`.
template <class Tallies>
auto lower(Tallies& tallies, PoolId id) {
  return std::lower_bound(
      tallies.begin(), tallies.end(), id,
      [](const auto& entry, PoolId key) { return entry.first < key; });
}

}  // namespace

Census::Census(const Ledger& ledger) : sized_(true) {
  tallies_.reserve(ledger.size());
  for (const auto& [id, p] : ledger) {
    Tally& t = tallies_.emplace_back(id, Tally{}).second;
    t.total = p.total;
    t.uses.resize(static_cast<std::size_t>(std::max(0, p.total)));
  }
  for (const auto& [id, p] : ledger) {
    count(id, Use::kFree, p.free);
    count(id, Use::kQuarantined, p.quarantined);
  }
}

bool Census::count(PoolId id, Use use, const std::vector<int>& items) {
  auto it = lower(tallies_, id);
  if (it == tallies_.end() || it->first != id) {
    if (sized_) return false;
    it = tallies_.insert(it, {id, Tally{}});
  }
  Tally& t = it->second;
  for (int idx : items) {
    if (idx < 0 || (t.total >= 0 && idx >= t.total)) {
      if (t.fault.empty()) t.fault = describe(id, "out-of-range", idx);
      continue;
    }
    const auto i = static_cast<std::size_t>(idx);
    if (i >= t.uses.size()) t.uses.resize(i + 1);
    if ((t.uses[i] & use) != 0 && t.fault.empty()) {
      t.fault = describe(id, "duplicate", idx);
    }
    t.uses[i] |= use;
  }
  return true;
}

bool Census::hold(const Circuit& c, const AllocationRecord& a) {
  const auto& route = c.route.edges;
  bool ok = a.fibers_per_hop.size() == route.size();
  for (std::size_t h = 0; h < std::min(a.fibers_per_hop.size(), route.size());
       ++h) {
    ok &= count({ResKind::kFiber, route[h]}, Use::kHeld, a.fibers_per_hop[h]);
  }
  if (a.amp_site) {
    ok &= count({ResKind::kAmp, *a.amp_site}, Use::kHeld, a.amp_units);
  }
  ok &= count({ResKind::kAddDrop, c.pair.a}, Use::kHeld, a.add_drop_a);
  ok &= count({ResKind::kAddDrop, c.pair.b}, Use::kHeld, a.add_drop_b);
  return ok;
}

std::vector<std::pair<PoolId, std::string>> Census::faults(
    PartitionRule rule) const {
  const bool at_rest = rule == PartitionRule::kAtRest;
  std::vector<std::pair<PoolId, std::string>> out;
  for (const auto& [id, t] : tallies_) {
    std::string fault = t.fault;
    for (std::size_t i = 0; fault.empty() && i < t.uses.size(); ++i) {
      // Both rules keep free apart from the other uses; only at rest must
      // every index have exactly one.
      const int u = t.uses[i];
      if (((u & kFree) != 0 && u != kFree) ||
          (at_rest && u == (kQuarantined | kHeld))) {
        fault = describe(id, "duplicate", static_cast<long long>(i));
      } else if (at_rest && u == 0) {
        fault = describe(id, "unaccounted", static_cast<long long>(i));
      }
    }
    if (!fault.empty()) out.emplace_back(id, std::move(fault));
  }
  return out;
}

std::vector<int> Census::unused(PoolId id) const {
  std::vector<int> out;
  const auto it = lower(tallies_, id);
  if (it == tallies_.end() || it->first != id) return out;
  const auto& uses = it->second.uses;
  for (std::size_t i = uses.size(); i-- > 0;) {
    if (uses[i] == 0) out.push_back(static_cast<int>(i));
  }
  return out;
}

}  // namespace iris::control
