#include "graph/failures.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "obs/metrics.hpp"

namespace iris::graph {

namespace {

/// Folds one finished sweep into the default registry. Scenario counts are
/// accumulated in per-worker longs and summed in worker order before this
/// single call, and `tasks` uses the same prefix-partition formula in the
/// serial and parallel paths, so the exported series are byte-identical
/// across thread counts.
void record_sweep(long long scenarios, long long tasks) {
  auto& reg = obs::registry();
  reg.add("sweep.runs.total");
  reg.add("sweep.scenarios.total", scenarios);
  reg.add("sweep.tasks.total", tasks);
}

/// First-failed-event prefix groups a sweep deals out: the no-failure
/// scenario plus one subtree per event (collapsing to a single task when
/// there is nothing to fail). The pruned sweep evaluates the no-failure
/// scenario up front but exports the same count.
long long sweep_task_count(std::size_t events, int tolerance) {
  if (tolerance == 0 || events == 0) return 1;
  return static_cast<long long>(events) + 1;
}

/// Per-worker sweep state: the live mask, a per-duct count of active events
/// covering it (events may overlap), and the flattened failed-duct list in
/// fail order, each duct appended exactly once (when its count goes 0 -> 1).
struct SweepState {
  EdgeMask mask;
  std::vector<int> cover;
  std::vector<EdgeId> failed;
};

SweepState make_state(const EdgeMask& base, EdgeId edge_count, int tolerance,
                      std::size_t max_event_edges) {
  SweepState s;
  s.mask = base;
  s.cover.assign(static_cast<std::size_t>(edge_count), 0);
  s.failed.reserve(std::min(static_cast<std::size_t>(edge_count),
                            static_cast<std::size_t>(std::max(tolerance, 0)) *
                                max_event_edges));
  return s;
}

/// Activates one event; returns how many ducts it newly failed (appended to
/// `s.failed`, which unwind pops from the tail).
std::size_t fail_event(const FailureEvent& ev, SweepState& s) {
  std::size_t appended = 0;
  for (EdgeId e : ev.edges) {
    if (s.cover[static_cast<std::size_t>(e)]++ == 0) {
      s.mask.fail(e);
      s.failed.push_back(e);
      ++appended;
    }
  }
  return appended;
}

/// Deactivates one event, restoring ducts no remaining event covers.
void unfail_event(const FailureEvent& ev, std::size_t appended,
                  SweepState& s) {
  for (auto it = ev.edges.rbegin(); it != ev.edges.rend(); ++it) {
    if (--s.cover[static_cast<std::size_t>(*it)] == 0) s.mask.restore(*it);
  }
  s.failed.resize(s.failed.size() - appended);
}

/// Depth-first prefix enumeration over events[first..): visits the current
/// scenario, then every extension with up to `remaining` more failed events.
void sweep_rec(std::span<const FailureEvent> events, int remaining,
               std::size_t first, SweepState& s, int depth,
               const ScenarioVisitor& visit) {
  visit(s.mask, s.failed, depth);
  if (remaining == 0) return;
  for (std::size_t i = first; i < events.size(); ++i) {
    const std::size_t appended = fail_event(events[i], s);
    sweep_rec(events, remaining - 1, i + 1, s, depth + 1, visit);
    unfail_event(events[i], appended, s);
  }
}

/// True when no duct of `ev` carries demand in `used` — ducts an ancestor
/// event already failed are unreachable in the parent's routing and thus
/// always demand-free, so checking every member is exact.
bool event_demand_free(const FailureEvent& ev, const std::vector<char>& used) {
  for (EdgeId e : ev.edges) {
    if (used[static_cast<std::size_t>(e)]) return false;
  }
  return true;
}

/// Depth-first pruned enumeration below an already-handled scenario,
/// failing one more event from events[first..last) (deeper levels draw
/// from the rest of `events`). `used[depth]` is the demand bitmap of the
/// current scenario; a child failing an event whose ducts that bitmap marks
/// unused is dominated (identical routing to its parent) and is reported
/// via `visit.pruned` instead of evaluated. The child's bitmap — parent's
/// copy when pruned, `visit.evaluate`'s result otherwise — lands in
/// used[depth + 1] before recursing.
void pruned_rec(std::span<const FailureEvent> events, int remaining,
                std::size_t first, std::size_t last, SweepState& s,
                const PrunedScenarioVisitor& visit,
                std::vector<std::vector<char>>& used, std::size_t depth,
                SweepStats& stats) {
  if (remaining == 0) return;
  for (std::size_t i = first; i < last; ++i) {
    const FailureEvent& ev = events[i];
    const std::size_t appended = fail_event(ev, s);
    const std::vector<char>& parent_used = used[depth];
    const int child_depth = static_cast<int>(depth) + 1;
    if (!parent_used.empty() && event_demand_free(ev, parent_used)) {
      ++stats.pruned;
      visit.pruned(s.failed, child_depth);
      used[depth + 1] = parent_used;
    } else {
      ++stats.visited;
      used[depth + 1] = visit.evaluate(s.mask, s.failed, child_depth);
    }
    pruned_rec(events, remaining - 1, i + 1, events.size(), s, visit, used,
               depth + 1, stats);
    unfail_event(ev, appended, s);
  }
}

/// Deals tasks [0, tasks) in order off a shared counter to `n` workers:
/// worker 0 is the calling thread, the rest are fresh threads. Each worker
/// calls `make_worker(w)` once on its own thread and runs every task it
/// claims through the returned callable, so per-worker scratch lives in that
/// callable. The first exception any worker throws is rethrown on the
/// caller's thread after all have joined.
template <typename MakeWorker>
void run_workers(int n, std::size_t tasks, const MakeWorker& make_worker) {
  std::atomic<std::size_t> next_task{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto worker_loop = [&](int w) {
    try {
      auto run_task = make_worker(w);
      for (std::size_t task = next_task.fetch_add(1); task < tasks;
           task = next_task.fetch_add(1)) {
        run_task(task);
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(n - 1));
  for (int w = 1; w < n; ++w) pool.emplace_back(worker_loop, w);
  worker_loop(0);
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace

ScenarioSet::ScenarioSet(EdgeId edge_count, std::vector<EdgeId> eligible_edges,
                         int tolerance, EdgeMask base_mask)
    : edge_count_(edge_count),
      tolerance_(tolerance),
      base_mask_(base_mask.empty() ? EdgeMask(edge_count)
                                   : std::move(base_mask)) {
  events_.reserve(eligible_edges.size());
  for (EdgeId e : eligible_edges) events_.push_back(FailureEvent{{e}});
  validate_events();
}

ScenarioSet::ScenarioSet(EdgeId edge_count, std::vector<FailureEvent> events,
                         int tolerance, EdgeMask base_mask)
    : edge_count_(edge_count),
      events_(std::move(events)),
      tolerance_(tolerance),
      base_mask_(base_mask.empty() ? EdgeMask(edge_count)
                                   : std::move(base_mask)) {
  validate_events();
}

void ScenarioSet::validate_events() {
  if (tolerance_ < 0) {
    throw std::invalid_argument("ScenarioSet: negative tolerance");
  }
  for (FailureEvent& ev : events_) {
    if (ev.edges.empty()) {
      throw std::invalid_argument("ScenarioSet: empty failure event");
    }
    std::sort(ev.edges.begin(), ev.edges.end());
    ev.edges.erase(std::unique(ev.edges.begin(), ev.edges.end()),
                   ev.edges.end());
    for (EdgeId e : ev.edges) {
      if (e < 0 || e >= edge_count_) {
        throw std::out_of_range("ScenarioSet: event edge out of range");
      }
      if (base_mask_.failed(e)) {
        throw std::invalid_argument(
            "ScenarioSet: event edge pre-failed in base mask");
      }
    }
  }
  eligible_.clear();
  for (const FailureEvent& ev : events_) {
    eligible_.insert(eligible_.end(), ev.edges.begin(), ev.edges.end());
  }
  std::sort(eligible_.begin(), eligible_.end());
  eligible_.erase(std::unique(eligible_.begin(), eligible_.end()),
                  eligible_.end());
}

ScenarioSet ScenarioSet::all_edges(const Graph& g, int tolerance) {
  std::vector<EdgeId> eligible(static_cast<std::size_t>(g.edge_count()));
  for (EdgeId e = 0; e < g.edge_count(); ++e) eligible[e] = e;
  return ScenarioSet(g.edge_count(), std::move(eligible), tolerance);
}

long long ScenarioSet::scenario_count() const {
  return failure_scenario_count(static_cast<EdgeId>(events_.size()),
                                tolerance_);
}

namespace {

std::size_t max_event_edges_of(const std::vector<FailureEvent>& events) {
  std::size_t m = 1;
  for (const FailureEvent& ev : events) m = std::max(m, ev.edges.size());
  return m;
}

}  // namespace

void ScenarioSet::for_each(const ScenarioVisitor& visit) const {
  for_each_parallel(1, [&](int) { return visit; });
}

/// Worker count for a sweep: one when there is nothing to fail.
int ScenarioSet::sweep_workers(int threads) const {
  return tolerance_ == 0 || events_.empty() ? 1
                                            : resolve_thread_count(threads);
}

void ScenarioSet::for_each_parallel(
    int threads,
    const std::function<ScenarioVisitor(int worker)>& make_visitor) const {
  // Task 0 is the no-failure scenario; task i >= 1 is the subtree of
  // scenarios whose first failed event is events_[i-1]. Subtree sizes
  // shrink geometrically with i, so dealing tasks in order off a shared
  // counter keeps the big prefixes spread across workers. One worker runs
  // the tasks in order, which is the serial depth-first sweep.
  const int n = sweep_workers(threads);
  std::vector<ScenarioVisitor> visitors;
  visitors.reserve(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w) visitors.push_back(make_visitor(w));

  // Per-worker scenario tallies: plain longs touched by one thread each,
  // summed in fixed worker order after the join so the registry sees one
  // deterministic fold regardless of how tasks were dealt.
  std::vector<long long> visited(static_cast<std::size_t>(n), 0);
  const std::size_t max_ev = max_event_edges_of(events_);
  const auto tasks =
      static_cast<std::size_t>(sweep_task_count(events_.size(), tolerance_));
  run_workers(n, tasks, [&](int w) {
    const auto i = static_cast<std::size_t>(w);
    const ScenarioVisitor counted = [&, i](const EdgeMask& m,
                                           std::span<const EdgeId> failed,
                                           int depth) {
      ++visited[i];
      visitors[i](m, failed, depth);
    };
    return [&, counted,
            s = make_state(base_mask_, edge_count_, tolerance_, max_ev)](
               std::size_t task) mutable {
      if (task == 0) {
        counted(s.mask, s.failed, 0);
        return;
      }
      const FailureEvent& ev = events_[task - 1];
      const std::size_t appended = fail_event(ev, s);
      sweep_rec(events_, tolerance_ - 1, task, s, 1, counted);
      unfail_event(ev, appended, s);
    };
  });

  long long total = 0;
  for (long long v : visited) total += v;
  record_sweep(total, static_cast<long long>(tasks));
}

SweepStats ScenarioSet::for_each_pruned_parallel(
    int threads,
    const std::function<PrunedScenarioVisitor(int worker)>& make_visitor)
    const {
  const int n = sweep_workers(threads);
  std::vector<PrunedScenarioVisitor> visitors;
  visitors.reserve(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w) visitors.push_back(make_visitor(w));

  // The no-failure scenario runs on the calling thread first: its demand
  // bitmap is the pruning root every subtree needs, and evaluating it
  // before the pool spawns publishes it to every worker without
  // synchronization.
  EdgeMask baseline_mask = base_mask_;
  std::vector<EdgeId> no_failures;
  const std::vector<char> baseline_used =
      visitors[0].evaluate(baseline_mask, no_failures, 0);

  // Task i is the subtree of scenarios whose first failed event is
  // events_[i]; same dealing as for_each_parallel minus the no-failure
  // scenario handled above.
  std::vector<SweepStats> worker_stats(static_cast<std::size_t>(n));
  const std::size_t max_ev = max_event_edges_of(events_);
  run_workers(n, events_.size(), [&](int w) {
    const auto i = static_cast<std::size_t>(w);
    std::vector<std::vector<char>> used(static_cast<std::size_t>(tolerance_) +
                                        1);
    used[0] = baseline_used;
    return [&, i, used = std::move(used),
            s = make_state(base_mask_, edge_count_, tolerance_, max_ev)](
               std::size_t task) mutable {
      pruned_rec(events_, tolerance_, task, task + 1, s, visitors[i], used, 0,
                 worker_stats[i]);
    };
  });

  SweepStats stats;
  stats.visited = 1;  // the no-failure scenario evaluated up front
  for (const SweepStats& s : worker_stats) {
    stats.visited += s.visited;
    stats.pruned += s.pruned;
  }
  record_sweep(stats.visited, sweep_task_count(events_.size(), tolerance_));
  obs::registry().add("sweep.scenarios.pruned", stats.pruned);
  return stats;
}

int resolve_thread_count(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

long long failure_scenario_count(EdgeId edge_count, int tolerance) {
  long long total = 0;
  long long binom = 1;  // C(edge_count, k)
  for (int k = 0; k <= tolerance && k <= edge_count; ++k) {
    total += binom;
    binom = binom * (edge_count - k) / (k + 1);
  }
  return total;
}

}  // namespace iris::graph
