#include "core/plan_region.hpp"

#include <optional>

#include "core/path_physics.hpp"
#include "core/scenario_record.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace iris::core {

double RegionalPlan::amp_cut_overhead(const cost::PriceBook& prices) const {
  const double total = iris.total_cost(prices);
  if (total <= 0.0) return 0.0;
  double overhead = amp_cut.total_amplifiers() * prices.amplifier +
                    2.0 * amp_cut.total_amplifiers() * prices.oss_port;
  overhead += static_cast<double>(amp_cut.cut_through_fiber_spans()) *
              prices.fiber_pair_per_span;
  return overhead / total;
}

RegionalPlan plan_region(const fibermap::FiberMap& map,
                         const PlannerParams& params) {
  RegionalPlan plan;
  plan.network = provision(map, params);
  plan.amp_cut = place_amplifiers_and_cutthroughs(map, plan.network);
  plan.eps = build_eps(map, plan.network);
  plan.iris = build_iris(map, plan.network, plan.amp_cut);
  plan.hybrid = build_hybrid(map, plan.network, plan.amp_cut);
  return plan;
}

ValidationReport validate_plan(const fibermap::FiberMap& map,
                               const ProvisionedNetwork& net,
                               const AmpCutPlan& plan) {
  const obs::Span span("planner.validate");
  const graph::Graph& g = map.graph();
  const optical::OpticalSpec& spec = net.params.spec;

  // The baseline record is routed on the calling thread before the pool
  // spawns; every worker's recorder is a copy, so each starts its depth
  // stack from the baseline. The plan is fixed, so a path's verdict is
  // memoized per pool id. The counters are plain sums, so merging in worker
  // order is bit-identical to the serial sweep.
  const graph::ScenarioSet scenarios = planner_scenarios(map, net.params);
  ScenarioRecorder root(map, net.params, /*hose_loads=*/false);
  root.begin_sweep(scenarios.base_mask());
  (void)root.descend({}, 0);
  struct Worker {
    std::optional<ScenarioRecorder> recorder;
    std::vector<signed char> feasible;  // per pool id; -1 = not yet checked
    ValidationReport report;
  };
  const int workers = graph::resolve_thread_count(net.params.threads);
  std::vector<Worker> acc(static_cast<std::size_t>(workers));
  for (Worker& w : acc) w.recorder.emplace(root);

  scenarios.for_each_parallel(
      workers, [&](int worker) -> graph::ScenarioVisitor {
        Worker& w = acc[static_cast<std::size_t>(worker)];
        return [&](const graph::EdgeMask&,
                   std::span<const graph::EdgeId> failed, int depth) {
          const ScenarioRecord& rec = *w.recorder->descend(failed, depth);
          w.feasible.resize(w.recorder->path_count(), -1);
          w.report.pairs_disconnected += rec.unreachable;
          w.report.paths_beyond_sla += rec.beyond_sla;
          for (const std::int32_t id : rec.path_id) {
            if (id < 0) continue;
            const graph::Path& path = w.recorder->path(id);
            if (path.length_km > spec.max_path_km) continue;
            ++w.report.paths_checked;
            signed char& ok = w.feasible[static_cast<std::size_t>(id)];
            if (ok < 0) ok = path_feasible_with_plan(g, path, plan, spec);
            if (ok == 0) ++w.report.infeasible_paths;
          }
        };
      });

  ValidationReport report;
  for (const Worker& w : acc) {
    report.paths_checked += w.report.paths_checked;
    report.infeasible_paths += w.report.infeasible_paths;
    report.pairs_disconnected += w.report.pairs_disconnected;
    report.paths_beyond_sla += w.report.paths_beyond_sla;
  }

  auto& reg = obs::registry();
  reg.add("planner.validate.calls");
  reg.add("planner.validate.paths_checked", report.paths_checked);
  reg.add("planner.validate.infeasible_paths", report.infeasible_paths);
  reg.add("planner.validate.pairs_disconnected", report.pairs_disconnected);
  reg.add("planner.validate.paths_beyond_sla", report.paths_beyond_sla);
  return report;
}

}  // namespace iris::core
