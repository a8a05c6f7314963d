#include "reliability/events.hpp"

#include <cmath>
#include <queue>
#include <random>
#include <stdexcept>
#include <unordered_map>

#include "geo/service_area.hpp"

namespace iris::reliability {

using graph::EdgeId;
using graph::NodeId;

namespace {

constexpr double kHoursPerYear = 365.25 * 24.0;
/// Most failure events a model may expect over its horizon. A finite but
/// huge horizon or rate would otherwise run the stream until memory or time
/// runs out.
constexpr double kMaxExpectedEvents = 1e7;

// Model checks, written so NaN and infinities fail them.
bool positive(double v) { return std::isfinite(v) && v > 0.0; }
bool non_negative(double v) { return std::isfinite(v) && v >= 0.0; }

/// Interns packed bit-set keys to dense ids in order of first appearance.
class KeyIds {
 public:
  /// The key's id and whether this call assigned it.
  std::pair<int, bool> intern(const std::vector<std::uint64_t>& key) {
    const auto [it, fresh] =
        ids_.try_emplace(key, static_cast<int>(ids_.size()));
    return {it->second, fresh};
  }

 private:
  struct Hash {
    std::size_t operator()(const std::vector<std::uint64_t>& key) const
        noexcept {
      std::uint64_t h = 0x9e3779b97f4a7c15ULL;
      for (std::uint64_t word : key) {
        h ^= word + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      }
      return static_cast<std::size_t>(h);
    }
  };
  std::unordered_map<std::vector<std::uint64_t>, int, Hash> ids_;
};

}  // namespace

struct EventStream::Impl {
  /// Queue element: comparator looks at time only, exactly like the legacy
  /// loop, so the pop order (and therefore the draw order) is identical for
  /// the degenerate no-group configuration.
  struct Event {
    double at_h;
    EventKind kind;
    int subject;
    std::vector<NodeId> sites;  // disaster repairs
    bool operator>(const Event& o) const { return at_h > o.at_h; }
  };

  const fibermap::FiberMap& map;
  CorrelatedFailureModel model;
  double horizon_h;
  std::mt19937_64 rng;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;

  std::vector<double> duct_rate_per_hour;
  /// Stochastic group processes: trench groups then hut groups, each in
  /// SrlgId order. Rates in events/hour; repairs in mean hours.
  struct GroupProcess {
    fibermap::SrlgId srlg;
    EventKind hit_kind;
    double rate_per_hour;
    double mean_repair_hours;
  };
  std::vector<GroupProcess> groups;

  std::vector<geo::Point> site_pos;
  geo::Box region{};

  Impl(const fibermap::FiberMap& m, const CorrelatedFailureModel& cm)
      : map(m), model(cm), rng(cm.base.seed) {
    const FailureModel& base = model.base;
    if (!positive(base.horizon_years) || !non_negative(base.cuts_per_km_year) ||
        !positive(base.mean_repair_hours) ||
        !non_negative(base.disasters_per_year) ||
        !non_negative(base.disaster_radius_km) ||
        !non_negative(base.disaster_repair_days)) {
      throw std::invalid_argument("EventStream: bad base failure model");
    }
    if (!non_negative(model.trench_hits_per_km_year) ||
        !positive(model.trench_repair_hours) ||
        !non_negative(model.hut_outages_per_year) ||
        !positive(model.hut_repair_hours)) {
      throw std::invalid_argument("EventStream: bad group failure model");
    }
    horizon_h = base.horizon_years * kHoursPerYear;
    const graph::Graph& g = map.graph();

    // Per-duct cut processes, pre-drawn in EdgeId order (legacy discipline).
    duct_rate_per_hour.assign(static_cast<std::size_t>(g.edge_count()), 0.0);
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      duct_rate_per_hour[static_cast<std::size_t>(e)] =
          base.cuts_per_km_year * g.edge(e).length_km / kHoursPerYear;
      if (duct_rate_per_hour[static_cast<std::size_t>(e)] <= 0.0) continue;
      std::exponential_distribution<double> next_failure(
          duct_rate_per_hour[static_cast<std::size_t>(e)]);
      queue.push(Event{next_failure(rng), EventKind::kDuctCut, e, {}});
    }

    // Regional disasters (legacy position in the draw order: right after
    // the per-duct pre-draws).
    for (NodeId n = 0; n < g.node_count(); ++n) {
      site_pos.push_back(map.site(n).position);
    }
    region = geo::bounding_box(site_pos);
    if (base.disasters_per_year > 0.0) {
      std::exponential_distribution<double> next_disaster(
          base.disasters_per_year / kHoursPerYear);
      queue.push(Event{next_disaster(rng), EventKind::kDisaster, -1, {}});
    }

    // Group processes: every trench group, then every hut group. New draw
    // kinds only ever extend the legacy sequence — they come after it.
    const auto& srlgs = map.srlgs();
    for (std::size_t i = 0; i < srlgs.size(); ++i) {
      if (srlgs[i].kind != fibermap::SrlgKind::kTrench) continue;
      const double rate =
          model.trench_hits_per_km_year * srlgs[i].shared_km / kHoursPerYear;
      if (rate <= 0.0) continue;
      groups.push_back(GroupProcess{static_cast<fibermap::SrlgId>(i),
                                    EventKind::kTrenchHit, rate,
                                    model.trench_repair_hours});
    }
    for (std::size_t i = 0; i < srlgs.size(); ++i) {
      if (srlgs[i].kind != fibermap::SrlgKind::kHut) continue;
      const double rate = model.hut_outages_per_year / kHoursPerYear;
      if (rate <= 0.0) continue;
      groups.push_back(GroupProcess{static_cast<fibermap::SrlgId>(i),
                                    EventKind::kHutOutage, rate,
                                    model.hut_repair_hours});
    }
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      std::exponential_distribution<double> next_hit(groups[gi].rate_per_hour);
      queue.push(Event{next_hit(rng), groups[gi].hit_kind,
                       static_cast<int>(gi), {}});
    }

    // Maintenance calendar: deterministic, no draws.
    for (std::size_t w = 0; w < model.maintenance.size(); ++w) {
      const MaintenanceWindow& win = model.maintenance[w];
      if (win.srlg < 0 ||
          static_cast<std::size_t>(win.srlg) >= srlgs.size()) {
        throw std::invalid_argument("EventStream: maintenance on unknown SRLG");
      }
      if (!positive(win.duration_h) || !non_negative(win.start_h) ||
          !non_negative(win.period_h)) {
        throw std::invalid_argument("EventStream: bad maintenance window");
      }
      if (win.start_h < horizon_h) {
        queue.push(Event{win.start_h, EventKind::kMaintenanceStart,
                         static_cast<int>(w), {}});
      }
    }

    // Expected failure events: every process's rate over the horizon, and
    // every maintenance window's starts.
    double rate_per_hour = base.disasters_per_year / kHoursPerYear;
    for (const double r : duct_rate_per_hour) rate_per_hour += r;
    for (const GroupProcess& gp : groups) rate_per_hour += gp.rate_per_hour;
    double expected = rate_per_hour * horizon_h;
    for (const MaintenanceWindow& win : model.maintenance) {
      expected += win.period_h > 0.0 ? horizon_h / win.period_h : 1.0;
    }
    if (!(expected <= kMaxExpectedEvents)) {
      throw std::invalid_argument(
          "EventStream: model expects more than 1e7 events over its horizon");
    }
  }

  std::vector<EdgeId> srlg_ducts(fibermap::SrlgId id) const {
    return map.srlg(id).ducts;
  }

  std::optional<TimelineEvent> next() {
    if (queue.empty() || queue.top().at_h >= horizon_h) return std::nullopt;
    Event ev = queue.top();
    queue.pop();
    TimelineEvent out;
    out.at_h = ev.at_h;
    out.kind = ev.kind;
    out.subject = ev.subject;
    switch (ev.kind) {
      case EventKind::kDuctCut: {
        out.ducts = {static_cast<EdgeId>(ev.subject)};
        std::exponential_distribution<double> repair(
            1.0 / model.base.mean_repair_hours);
        queue.push(Event{ev.at_h + repair(rng), EventKind::kDuctRepair,
                         ev.subject, {}});
        break;
      }
      case EventKind::kDuctRepair: {
        out.ducts = {static_cast<EdgeId>(ev.subject)};
        std::exponential_distribution<double> next_failure(
            duct_rate_per_hour[static_cast<std::size_t>(ev.subject)]);
        queue.push(Event{ev.at_h + next_failure(rng), EventKind::kDuctCut,
                         ev.subject, {}});
        break;
      }
      case EventKind::kTrenchHit:
      case EventKind::kHutOutage: {
        const GroupProcess& gp = groups[static_cast<std::size_t>(ev.subject)];
        out.subject = gp.srlg;
        out.ducts = srlg_ducts(gp.srlg);
        std::exponential_distribution<double> repair(1.0 /
                                                     gp.mean_repair_hours);
        queue.push(Event{ev.at_h + repair(rng),
                         ev.kind == EventKind::kTrenchHit
                             ? EventKind::kTrenchRepair
                             : EventKind::kHutRepair,
                         ev.subject, {}});
        break;
      }
      case EventKind::kTrenchRepair:
      case EventKind::kHutRepair: {
        const GroupProcess& gp = groups[static_cast<std::size_t>(ev.subject)];
        out.subject = gp.srlg;
        out.ducts = srlg_ducts(gp.srlg);
        std::exponential_distribution<double> next_hit(gp.rate_per_hour);
        queue.push(Event{ev.at_h + next_hit(rng), gp.hit_kind, ev.subject, {}});
        break;
      }
      case EventKind::kMaintenanceStart: {
        const MaintenanceWindow& win =
            model.maintenance[static_cast<std::size_t>(ev.subject)];
        out.ducts = srlg_ducts(win.srlg);
        queue.push(Event{ev.at_h + win.duration_h, EventKind::kMaintenanceEnd,
                         ev.subject, {}});
        if (win.period_h > 0.0 && ev.at_h + win.period_h < horizon_h) {
          queue.push(Event{ev.at_h + win.period_h, EventKind::kMaintenanceStart,
                           ev.subject, {}});
        }
        break;
      }
      case EventKind::kMaintenanceEnd: {
        const MaintenanceWindow& win =
            model.maintenance[static_cast<std::size_t>(ev.subject)];
        out.ducts = srlg_ducts(win.srlg);
        break;
      }
      case EventKind::kDisaster: {
        // Epicenter uniform over the region; every site in range goes down.
        std::uniform_real_distribution<double> ux(region.lo.x, region.hi.x);
        std::uniform_real_distribution<double> uy(region.lo.y, region.hi.y);
        const geo::Point epicenter{ux(rng), uy(rng)};
        Event repair_ev{ev.at_h + model.base.disaster_repair_days * 24.0,
                        EventKind::kDisasterRepair, -1, {}};
        const graph::Graph& g = map.graph();
        for (NodeId n = 0; n < g.node_count(); ++n) {
          if (geo::distance(site_pos[static_cast<std::size_t>(n)], epicenter) <=
              model.base.disaster_radius_km) {
            repair_ev.sites.push_back(n);
          }
        }
        out.sites = repair_ev.sites;
        queue.push(std::move(repair_ev));
        std::exponential_distribution<double> next_disaster(
            model.base.disasters_per_year / kHoursPerYear);
        queue.push(Event{ev.at_h + next_disaster(rng), EventKind::kDisaster,
                         -1, {}});
        break;
      }
      case EventKind::kDisasterRepair:
        out.sites = std::move(ev.sites);
        break;
    }
    return out;
  }
};

EventStream::EventStream(const fibermap::FiberMap& map,
                         const CorrelatedFailureModel& model)
    : impl_(std::make_unique<Impl>(map, model)) {}

EventStream::EventStream(EventStream&&) noexcept = default;
EventStream::~EventStream() = default;

std::optional<TimelineEvent> EventStream::next() { return impl_->next(); }

double EventStream::horizon_hours() const noexcept { return impl_->horizon_h; }

graph::EdgeMask FailureTimeline::failed_mask(int state) const {
  graph::EdgeMask mask(edge_count);
  for (EdgeId e = 0; e < edge_count; ++e) {
    if (duct_failed(state, e)) mask.fail(e);
  }
  return mask;
}

std::vector<int> FailureTimeline::project_states(
    const std::vector<bool>& keep) const {
  std::vector<std::uint64_t> kept(duct_words, 0);
  for (std::size_t e = 0; e < keep.size(); ++e) {
    if (keep[e]) kept[e / 64] |= std::uint64_t{1} << (e % 64);
  }
  KeyIds ids;
  std::vector<int> out(static_cast<std::size_t>(state_count()));
  std::vector<std::uint64_t> key(duct_words);
  for (std::size_t s = 0; s < out.size(); ++s) {
    for (std::size_t w = 0; w < duct_words; ++w) {
      key[w] = state_bits[s * stride + w] & kept[w];
    }
    out[s] = ids.intern(key).first;
  }
  return out;
}

FailureTimeline record_timeline(const fibermap::FiberMap& map,
                                const CorrelatedFailureModel& model) {
  const graph::Graph& g = map.graph();
  EventStream stream(map, model);
  FailureTimeline tl;
  tl.dcs = map.dcs();
  tl.edge_count = g.edge_count();
  tl.horizon_h = stream.horizon_hours();
  tl.ci_batches = model.ci_batches >= 2 ? model.ci_batches : 0;
  tl.duct_words = (static_cast<std::size_t>(g.edge_count()) + 63) / 64;
  tl.stride = tl.duct_words + (tl.dcs.size() + 63) / 64;

  // Duct state: down while any active event (cut, trench hit, hut outage,
  // maintenance) covers it, or implicitly dead because an end site is down.
  // `key` holds the current state's bits and is updated only where an event
  // touches it.
  std::vector<int> duct_down_count(g.edge_count(), 0);
  std::vector<int> site_down_count(g.node_count(), 0);
  std::vector<std::uint64_t> key(tl.stride, 0);
  const auto set_bit = [&](std::size_t bit, bool on) {
    const std::uint64_t mask = std::uint64_t{1} << (bit % 64);
    if (on) {
      key[bit / 64] |= mask;
    } else {
      key[bit / 64] &= ~mask;
    }
  };
  const auto refresh_duct = [&](EdgeId e) {
    const graph::Edge& edge = g.edge(e);
    set_bit(static_cast<std::size_t>(e), duct_down_count[e] > 0 ||
                                             site_down_count[edge.u] > 0 ||
                                             site_down_count[edge.v] > 0);
  };

  KeyIds states;
  while (const auto ev = stream.next()) {
    const int delta = event_is_failure(ev->kind) ? 1 : -1;
    for (EdgeId e : ev->ducts) duct_down_count[e] += delta;
    for (NodeId n : ev->sites) site_down_count[n] += delta;
    for (EdgeId e : ev->ducts) refresh_duct(e);
    for (NodeId n : ev->sites) {
      for (EdgeId e : g.incident(n)) refresh_duct(e);
    }
    if (!ev->sites.empty()) {
      for (std::size_t i = 0; i < tl.dcs.size(); ++i) {
        set_bit(tl.duct_words * 64 + i, site_down_count[tl.dcs[i]] > 0);
      }
    }
    switch (ev->kind) {
      case EventKind::kDuctCut: ++tl.tallies.duct_cut_events; break;
      case EventKind::kTrenchHit: ++tl.tallies.trench_events; break;
      case EventKind::kHutOutage: ++tl.tallies.hut_events; break;
      case EventKind::kMaintenanceStart: ++tl.tallies.maintenance_events; break;
      case EventKind::kDisaster: ++tl.tallies.disaster_events; break;
      default: break;
    }
    const auto [id, fresh] = states.intern(key);
    if (fresh) {
      tl.state_bits.insert(tl.state_bits.end(), key.begin(), key.end());
    }
    tl.steps.push_back({ev->at_h, id});
  }
  return tl;
}

}  // namespace iris::reliability
