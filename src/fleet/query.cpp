#include "fleet/query.hpp"

#include <cmath>
#include <cstdio>

#include "core/replan.hpp"
#include "core/slo.hpp"
#include "fleet/shard.hpp"
#include "obs/metrics.hpp"

namespace iris::fleet {

const char* query_kind_name(QueryKind kind) {
  switch (kind) {
    case QueryKind::kFailureDrill: return "drill";
    case QueryKind::kGrowth: return "growth";
    case QueryKind::kSloProbe: return "slo_probe";
  }
  return "unknown";
}

const char* query_status_name(QueryStatus status) {
  switch (status) {
    case QueryStatus::kOk: return "ok";
    case QueryStatus::kStale: return "stale";
    case QueryStatus::kRegionQuarantined: return "quarantined";
    case QueryStatus::kDeadlineExpired: return "deadline_expired";
    case QueryStatus::kNoSnapshot: return "no_snapshot";
    case QueryStatus::kInvalidQuery: return "invalid_query";
  }
  return "unknown";
}

std::string WhatIfResult::canonical() const {
  char buf[416];
  std::snprintf(
      buf, sizeof buf,
      "whatif kind=%s region=%d tick=%lld version=%llu feasible=%d "
      "capacity_changes=%d path_changes=%d pairs_disconnected=%d "
      "fibers_delta=%lld reach_km=%.6f fibers_added=%lld slo_met=%d "
      "tolerance=%d worst_availability=%.9f cost_fibers=%lld "
      "oversubscription=%.6f status=%s staleness_ticks=%lld",
      query_kind_name(kind), region, tick,
      static_cast<unsigned long long>(version), feasible ? 1 : 0,
      capacity_changes, path_changes, pairs_disconnected, fibers_delta,
      reach_km, fibers_added, slo_met ? 1 : 0, tolerance, worst_availability,
      cost_fibers, oversubscription, query_status_name(status),
      staleness_ticks);
  return buf;
}

std::uint64_t WhatIfResult::fingerprint() const { return fnv1a64(canonical()); }

namespace {

/// Planner knobs for scratch work inside a query: the snapshot's own
/// parameters, serialized onto the query thread.
core::PlannerParams scratch_params(const RegionSnapshot& snap) {
  core::PlannerParams p = snap.network->params;
  p.threads = 1;
  return p;
}

void run_failure_drill(const RegionSnapshot& snap, const WhatIfQuery& q,
                       const PlanProvider& plans, WhatIfResult& r) {
  core::IncrementalPlanner planner = plans.drill_planner(snap);
  const core::PlanDiff diff = planner.cut_duct(q.duct);
  r.feasible = true;
  r.capacity_changes = static_cast<int>(diff.capacity_changes.size());
  r.path_changes = static_cast<int>(diff.path_changes.size());
  for (const core::PathDelta& d : diff.path_changes) {
    if (d.old_path.has_value() && !d.new_path.has_value()) {
      ++r.pairs_disconnected;
    }
  }
  r.fibers_delta = planner.current().total_base_fibers() -
                   snap.network->total_base_fibers();
  r.replan_ms = planner.last_stats().replan_ms;
}

/// A growth study answers the siting reach and the expanded region's fiber
/// bill, so it provisions the expanded map and nothing else: no plan of the
/// current region, no amplifier placement, no bills of materials.
void run_growth(const RegionSnapshot& snap, const WhatIfQuery& q,
                WhatIfResult& r) {
  const core::PlannerParams p = scratch_params(snap);
  const core::ExpandedRegion grown = core::expand_region(*snap.map, q.growth);
  if (!grown.reach_km.has_value()) return;  // some DC unreachable
  r.reach_km = *grown.reach_km;
  // Siting SLA violated: a legitimate "no" answer, not an error.
  if (!grown.within_sla(p)) return;
  r.feasible = true;
  r.fibers_added = core::provision(grown.map, p).total_base_fibers() -
                   snap.network->total_base_fibers();
}

/// The planner knobs and search options of an SLO probe.
struct SloProbeInputs {
  core::PlannerParams params;
  core::SloCostOptions cost;
};

SloProbeInputs slo_probe_inputs(const RegionSnapshot& snap,
                                const WhatIfQuery& q) {
  SloProbeInputs in;
  in.params = scratch_params(snap);
  in.params.availability_slo = q.availability_slo;
  in.params.slo_max_tolerance = q.slo_max_tolerance;
  in.cost.max_oversubscription = q.max_oversubscription;
  in.cost.demand_waves = q.demand_waves;
  in.cost.bisect_iters = 4;
  return in;
}

void run_slo_probe(const RegionSnapshot& snap, const WhatIfQuery& q,
                   const PlanProvider& plans, WhatIfResult& r) {
  const SloProbeInputs in = slo_probe_inputs(snap, q);
  const std::shared_ptr<const reliability::FailureTimeline> timeline =
      plans.slo_timeline(snap);
  const core::SloProvisionReport rep = core::provision_to_availability_slo(
      *snap.map, in.params, *timeline, in.cost);
  r.feasible = true;
  r.slo_met = rep.met;
  r.tolerance = rep.tolerance;
  r.worst_availability = rep.availability.summary.worst_availability;
  r.cost_fibers = rep.cost_fibers;
  r.oversubscription = rep.oversubscription;
}

/// Checks that need no planner work: a drill's duct must exist, a growth
/// site must have a finite position (its attach ducts' lengths derive from
/// it) and an SLO probe must pass the SLO search's own argument rule.
bool query_is_valid(const RegionSnapshot& snap, const WhatIfQuery& q) {
  switch (q.kind) {
    case QueryKind::kFailureDrill:
      return q.duct >= 0 && q.duct < snap.map->graph().edge_count();
    case QueryKind::kGrowth:
      return std::isfinite(q.growth.position.x) &&
             std::isfinite(q.growth.position.y);
    case QueryKind::kSloProbe: {
      const SloProbeInputs in = slo_probe_inputs(snap, q);
      return core::slo_argument_error(in.params, in.cost) == nullptr;
    }
  }
  return false;
}

}  // namespace

core::IncrementalPlanner build_drill_planner(const RegionSnapshot& snap) {
  return core::IncrementalPlanner(*snap.map, scratch_params(snap));
}

reliability::CorrelatedFailureModel slo_probe_model(
    const RegionSnapshot& snap) {
  reliability::CorrelatedFailureModel model;
  model.base.cuts_per_km_year = 0.25;
  model.base.mean_repair_hours = 24.0;
  model.base.horizon_years = 40.0;
  model.base.seed = 0x510bULL + static_cast<std::uint64_t>(snap.region);
  model.ci_batches = 0;  // point estimates only; probes want speed
  return model;
}

std::shared_ptr<const reliability::FailureTimeline> record_slo_timeline(
    const RegionSnapshot& snap) {
  return std::make_shared<const reliability::FailureTimeline>(
      reliability::record_timeline(*snap.map, slo_probe_model(snap)));
}

WhatIfResult run_query(const RegionSnapshot& snap, const WhatIfQuery& query) {
  static const PlanProvider cold{build_drill_planner, record_slo_timeline};
  return run_query(snap, query, cold);
}

WhatIfResult run_query(const RegionSnapshot& snap, const WhatIfQuery& query,
                       const PlanProvider& plans) {
  WhatIfResult r;
  r.kind = query.kind;
  r.region = snap.region;
  r.tick = snap.tick;
  r.version = snap.version;
  if (!query_is_valid(snap, query)) {
    r.status = QueryStatus::kInvalidQuery;  // no planner work, no cache lookup
    return r;
  }
  switch (query.kind) {
    case QueryKind::kFailureDrill:
      run_failure_drill(snap, query, plans, r);
      break;
    case QueryKind::kGrowth: run_growth(snap, query, r); break;
    case QueryKind::kSloProbe: run_slo_probe(snap, query, plans, r); break;
  }
  obs::registry().add(
      obs::key("fleet.query.executed", {{"kind", query_kind_name(query.kind)}}));
  return r;
}

}  // namespace iris::fleet
