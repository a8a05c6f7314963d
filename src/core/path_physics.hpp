// Power-budget feasibility of a routed path in a fiber-switched network.
//
// Between two amplification points, a signal loses power to fiber and to the
// OSS it traverses at every switching site; the loss must stay within one
// amplifier's gain (TC1 generalized). The DC-terminal OSS/mux losses are part
// of the transceiver's own link budget (Fig. 8) and are excluded here. An
// in-line amplifier is attached to its site's OSS in loopback (SS5.1), so the
// signal crosses that OSS twice -- one traversal is attributed to each
// adjacent segment. Cut-through links (Appendix A) bypass the OSS at the
// sites they cover, removing those traversals.
//
// This per-segment budget reproduces the paper's headline numbers: an 80 km
// hop-free span is exactly feasible; at 120 km with one in-line amplifier,
// ~10 dB of OSS budget remains end-to-end (TC4).
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <vector>

#include "graph/shortest_path.hpp"
#include "optical/spec.hpp"

namespace iris::core {

/// A set of sites as a bitset over node ids: the bypassed (cut-through)
/// sites of a path. Grows on insert; absent ids are not members.
class SiteSet {
 public:
  SiteSet() = default;
  SiteSet(std::initializer_list<graph::NodeId> sites) {
    for (graph::NodeId n : sites) insert(n);
  }

  [[nodiscard]] bool contains(graph::NodeId n) const {
    const auto w = static_cast<std::size_t>(n) / 64;
    return w < words_.size() && ((words_[w] >> (n % 64)) & 1U) != 0;
  }
  void insert(graph::NodeId n) {
    const auto w = static_cast<std::size_t>(n) / 64;
    if (w >= words_.size()) words_.resize(w + 1, 0);
    words_[w] |= std::uint64_t{1} << (n % 64);
  }
  SiteSet& operator|=(const SiteSet& other) {
    if (other.words_.size() > words_.size()) {
      words_.resize(other.words_.size(), 0);
    }
    for (std::size_t w = 0; w < other.words_.size(); ++w) {
      words_[w] |= other.words_[w];
    }
    return *this;
  }
  /// Empties the set, keeping its storage.
  void clear() { std::fill(words_.begin(), words_.end(), 0); }

 private:
  std::vector<std::uint64_t> words_;
};

/// Fiber length of the path between node indices [from, to].
double path_fiber_km(const graph::Graph& g, const graph::Path& path, int from,
                     int to);

/// Loss in dB of the segment between path node indices [from, to], given the
/// set of bypassed (cut-through) sites. Counts fiber loss plus one OSS
/// traversal per non-bypassed interior site. Boundary sites are excluded;
/// the caller adds amplifier-loopback traversals where applicable.
double segment_loss_db(const graph::Graph& g, const graph::Path& path, int from,
                       int to, const SiteSet& bypassed,
                       const optical::OpticalSpec& spec);

/// True if the path closes its power budget with an optional in-line
/// amplifier at path node index `amp_idx` (strictly interior), given the
/// bypassed sites.
bool path_feasible(const graph::Graph& g, const graph::Path& path,
                   std::optional<int> amp_idx,
                   const SiteSet& bypassed,
                   const optical::OpticalSpec& spec);

/// Does the path need in-line amplification on fiber length alone (TC1)?
bool needs_amplification(const graph::Path& path,
                         const optical::OpticalSpec& spec);

/// Interior node indices where an in-line amplifier splits the path into two
/// fiber spans each within the span limit. Empty if the path cannot be fixed
/// with one amplifier.
std::vector<int> amp_candidate_indices(const graph::Graph& g,
                                       const graph::Path& path,
                                       const optical::OpticalSpec& spec);

/// Interior node indices where an in-line amplifier closes the *full* power
/// budget (fiber + OSS losses per segment), given the bypassed sites.
/// Appendix A: amplifiers can fix hop-heavy paths too, not only long ones.
/// Sites in `bypassed` are excluded -- their OSS is patched through, so no
/// amplifier can be looped in there.
std::vector<int> feasible_amp_indices(const graph::Graph& g,
                                      const graph::Path& path,
                                      const SiteSet& bypassed,
                                      const optical::OpticalSpec& spec);

}  // namespace iris::core
