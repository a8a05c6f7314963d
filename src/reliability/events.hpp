// Correlated failure-event processes over a fiber map.
//
// The independent per-duct Poisson model underestimates real outage risk:
// ducts sharing a trench are cut by the same backhoe, ducts fanning into one
// hut die with the hut's power, and maintenance takes whole groups down on a
// calendar. EventStream is the one seeded sampling engine for all of it —
// the Monte-Carlo availability runs and the chaos generator both pull from
// it, so the two can never drift apart in how failures are drawn.
//
// Processes (all exponential inter-arrival except maintenance):
//  - per-duct cuts: rate = cuts_per_km_year x duct length (the classic
//    model; a duct under repair draws its next cut at repair time),
//  - trench hits: one process per trench-kind SRLG, rate proportional to
//    the shared corridor length; a hit cuts every member duct atomically,
//  - hut outages: one process per hut-kind SRLG; an outage severs every
//    duct terminating at the hut,
//  - regional disasters: the legacy site-level model (uniform epicenter,
//    every site in radius down),
//  - maintenance windows: deterministic scheduled events that take an
//    SRLG's ducts down start + k*period for `duration` hours.
//
// Determinism: the stream is a pure function of (map, model). With every
// group rate zero and no maintenance, the draw sequence is the independent
// per-duct model's — ducts pre-drawn in EdgeId order, repairs drawn at
// failure pop, next arrivals at repair pop — and group processes only ever
// extend it, which is what keeps the no-SRLG availability output
// byte-identical.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "fibermap/fibermap.hpp"
#include "reliability/availability.hpp"

namespace iris::reliability {

/// A scheduled maintenance window on one SRLG's ducts.
struct MaintenanceWindow {
  fibermap::SrlgId srlg = -1;
  double start_h = 0.0;     ///< first window start, hours from t=0
  double period_h = 0.0;    ///< repeat interval; 0 = one-shot
  double duration_h = 4.0;  ///< ducts down for this long per window
};

/// The correlated failure model: the legacy per-duct/disaster model plus
/// group processes over the map's declared SRLGs.
struct CorrelatedFailureModel {
  FailureModel base;  ///< per-duct cuts, disasters, horizon, seed

  /// Trench-hit rate per km of shared corridor per year, applied to every
  /// trench-kind SRLG (rate = this x srlg.shared_km). 0 disables.
  double trench_hits_per_km_year = 0.0;
  double trench_repair_hours = 24.0;

  /// Outage rate per hut-kind SRLG per year. 0 disables.
  double hut_outages_per_year = 0.0;
  double hut_repair_hours = 6.0;

  std::vector<MaintenanceWindow> maintenance;

  /// Batch count for the batch-means confidence intervals reported by
  /// simulate_availability_correlated; < 2 disables CIs.
  int ci_batches = 10;
};

enum class EventKind {
  kDuctCut,
  kDuctRepair,
  kTrenchHit,
  kTrenchRepair,
  kHutOutage,
  kHutRepair,
  kMaintenanceStart,
  kMaintenanceEnd,
  kDisaster,
  kDisasterRepair,
};

/// True for kinds that take ducts/sites down (their matching repair/end
/// kinds bring the same ones back).
[[nodiscard]] constexpr bool event_is_failure(EventKind k) {
  return k == EventKind::kDuctCut || k == EventKind::kTrenchHit ||
         k == EventKind::kHutOutage || k == EventKind::kMaintenanceStart ||
         k == EventKind::kDisaster;
}

/// One event on the failure timeline. `ducts` lists the ducts failing (or
/// recovering) atomically; disasters list affected `sites` instead (a down
/// site implicitly kills its incident ducts — consumers track site state).
struct TimelineEvent {
  double at_h = 0.0;
  EventKind kind = EventKind::kDuctCut;
  /// Duct id, SRLG id, maintenance-window index, or -1 (disasters).
  int subject = -1;
  std::vector<graph::EdgeId> ducts;
  std::vector<graph::NodeId> sites;
};

/// Seeded pull-based generator of the failure timeline, in time order and
/// strictly before the model's horizon. The map must outlive the stream.
class EventStream {
 public:
  /// Throws std::invalid_argument on a malformed model: a non-finite
  /// number anywhere, a non-positive horizon or repair mean, a negative
  /// rate, disaster radius or disaster repair time, or maintenance on an
  /// unknown SRLG, starting before t=0, with a negative period or with a
  /// non-positive duration.
  EventStream(const fibermap::FiberMap& map,
              const CorrelatedFailureModel& model);
  EventStream(EventStream&&) noexcept;
  ~EventStream();

  /// The next event, or std::nullopt once the horizon is reached.
  std::optional<TimelineEvent> next();

  [[nodiscard]] double horizon_hours() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Failure events by kind over one timeline.
struct EventTallies {
  long long duct_cut_events = 0;
  long long trench_events = 0;
  long long hut_events = 0;
  long long maintenance_events = 0;
  long long disaster_events = 0;
};

/// One simulation's result: per-kind event tallies alongside the classic
/// summary. Pair entries carry batch-means confidence intervals when
/// `model.ci_batches >= 2`.
struct CorrelatedAvailabilityReport : EventTallies {
  AvailabilityReport summary;
};

/// The failure timeline of one (map, model), recorded once so any number of
/// criteria can be integrated over it: the EventStream is a pure function of
/// (map, model), so every criterion would replay the same events.
///
/// A *state* is what a pair verdict can depend on after an event: the
/// effective failed-duct set (ducts covered by an active event, plus every
/// duct with a down end site) and the set of down DCs (the endpoint rule in
/// integrate_timeline). Distinct states are interned in order of first
/// appearance; the timeline is the sequence of (time, state) steps, one per
/// event.
struct FailureTimeline {
  struct Step {
    double at_h = 0.0;
    int state = 0;
  };

  std::vector<graph::NodeId> dcs;  ///< map.dcs(); pair (i, j) = dcs[i], dcs[j]
  graph::EdgeId edge_count = 0;
  double horizon_h = 0.0;
  int ci_batches = 0;  ///< batch-means windows; 0 = no CIs
  EventTallies tallies;
  std::vector<Step> steps;

  /// Words per state: the failed-duct bits (EdgeId e is bit e % 64 of word
  /// e / 64), then the down-DC bits (DC index i, same packing).
  std::size_t duct_words = 0;
  std::size_t stride = 0;
  std::vector<std::uint64_t> state_bits;  ///< state s at [s * stride, +stride)

  [[nodiscard]] int state_count() const noexcept {
    return stride == 0 ? 0 : static_cast<int>(state_bits.size() / stride);
  }
  [[nodiscard]] bool duct_failed(int state, graph::EdgeId e) const noexcept {
    return bit(state, static_cast<std::size_t>(e));
  }
  [[nodiscard]] bool dc_down(int state, std::size_t dc) const noexcept {
    return bit(state, duct_words * 64 + dc);
  }
  /// The state's effective failed-duct set as a mask.
  [[nodiscard]] graph::EdgeMask failed_mask(int state) const;

  /// Groups states by their failed-duct set restricted to the ducts with
  /// `keep[e]` set (one flag per EdgeId): returns one id per state, dense
  /// from 0 in order of first appearance. States that agree on every kept
  /// duct share an id.
  [[nodiscard]] std::vector<int> project_states(
      const std::vector<bool>& keep) const;

 private:
  /// Bit `at` of state `state`'s words (ducts first, then DCs).
  [[nodiscard]] bool bit(int state, std::size_t at) const noexcept {
    const std::uint64_t word =
        state_bits[static_cast<std::size_t>(state) * stride + at / 64];
    return ((word >> (at % 64)) & 1U) != 0;
  }
};

/// Drains EventStream(map, model) into a timeline. Throws like EventStream
/// on a malformed model.
FailureTimeline record_timeline(const fibermap::FiberMap& map,
                                const CorrelatedFailureModel& model);

/// A pair verdict under a recorded state: is DC pair (i, j) (indices into
/// FailureTimeline::dcs, i < j) up in state `state`?
using StateVerdictFn =
    std::function<bool(int state, std::size_t i, std::size_t j)>;

/// The one downtime integrator. It asks `pair_up` about each (state, DC
/// pair) once: state by state in id order (the order of their first steps),
/// pairs in (i, j) order, skipping pairs with a down endpoint (a destroyed
/// DC is not the network's downtime, so such intervals count as up). The
/// answers form one down-pair bit row per state; the step walk XORs
/// consecutive rows and touches only the pairs whose verdict changed,
/// accumulating per-pair downtime and the batch-means CIs. Tallies come
/// from the timeline. Records `reliability.timeline.verdict_asks` (calls
/// made to `pair_up`).
CorrelatedAvailabilityReport integrate_timeline(const FailureTimeline& timeline,
                                                const StateVerdictFn& pair_up);

/// Records one correlated run in the metrics registry:
/// `reliability.correlated.runs` and `reliability.events{kind=...}` for
/// every nonzero event kind.
void record_run_metrics(const EventTallies& tallies);

/// Event-driven Monte Carlo over the correlated failure model, the one
/// availability simulator: records the timeline and integrates it, asking
/// `pair_up` once per (state, pair) with the state's failed-duct mask
/// (built once per state). Set `model.ci_batches = 0` for point estimates
/// only. Records run metrics (record_run_metrics) plus
/// `reliability.timeline.verdict_asks`.
CorrelatedAvailabilityReport simulate_availability_correlated(
    const fibermap::FiberMap& map, const CorrelatedFailureModel& model,
    const PairUpFn& pair_up);

}  // namespace iris::reliability
