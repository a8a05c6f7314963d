#include "core/path_physics.hpp"

#include <stdexcept>

namespace iris::core {

double path_fiber_km(const graph::Graph& g, const graph::Path& path, int from,
                     int to) {
  if (from < 0 || to >= static_cast<int>(path.nodes.size()) || from > to) {
    throw std::out_of_range("path_fiber_km: bad index range");
  }
  double km = 0.0;
  for (int i = from; i < to; ++i) km += g.edge(path.edges[i]).length_km;
  return km;
}

double segment_loss_db(const graph::Graph& g, const graph::Path& path, int from,
                       int to, const SiteSet& bypassed,
                       const optical::OpticalSpec& spec) {
  double loss = path_fiber_km(g, path, from, to) * spec.fiber_loss_db_per_km;
  for (int i = from + 1; i < to; ++i) {
    if (!bypassed.contains(path.nodes[i])) loss += spec.oss_loss_db;
  }
  return loss;
}

bool path_feasible(const graph::Graph& g, const graph::Path& path,
                   std::optional<int> amp_idx,
                   const SiteSet& bypassed,
                   const optical::OpticalSpec& spec) {
  const int last = static_cast<int>(path.nodes.size()) - 1;
  if (last <= 0) return true;
  if (!amp_idx) {
    return segment_loss_db(g, path, 0, last, bypassed, spec) <=
           spec.amp_gain_db;
  }
  const int m = *amp_idx;
  if (m <= 0 || m >= last) {
    throw std::invalid_argument("path_feasible: amp index must be interior");
  }
  // The loopback amplifier makes the signal cross the site's OSS once on the
  // way in and once on the way out: one traversal charged to each segment.
  const double first = segment_loss_db(g, path, 0, m, bypassed, spec) +
                       spec.oss_loss_db;
  const double second = segment_loss_db(g, path, m, last, bypassed, spec) +
                        spec.oss_loss_db;
  return first <= spec.amp_gain_db && second <= spec.amp_gain_db;
}

bool needs_amplification(const graph::Path& path,
                         const optical::OpticalSpec& spec) {
  return path.length_km > spec.max_span_km;
}

std::vector<int> amp_candidate_indices(const graph::Graph& g,
                                       const graph::Path& path,
                                       const optical::OpticalSpec& spec) {
  std::vector<int> out;
  const int last = static_cast<int>(path.nodes.size()) - 1;
  for (int m = 1; m < last; ++m) {
    if (path_fiber_km(g, path, 0, m) <= spec.max_span_km &&
        path_fiber_km(g, path, m, last) <= spec.max_span_km) {
      out.push_back(m);
    }
  }
  return out;
}

std::vector<int> feasible_amp_indices(const graph::Graph& g,
                                      const graph::Path& path,
                                      const SiteSet& bypassed,
                                      const optical::OpticalSpec& spec) {
  std::vector<int> out;
  const int last = static_cast<int>(path.nodes.size()) - 1;
  for (int m = 1; m < last; ++m) {
    if (bypassed.contains(path.nodes[m])) continue;
    if (path_feasible(g, path, m, bypassed, spec)) out.push_back(m);
  }
  return out;
}

}  // namespace iris::core
