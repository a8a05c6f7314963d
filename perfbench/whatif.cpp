// The what-if workloads. Closed loop: each client thread sends its next
// single-job WhatIfEngine::run_batch call only after the previous one
// returned, against the settled snapshots of a freshly run fleet.
//
//  * whatif-plan -- 2 clients, 4 regions of 10 DCs planned for 2 cuts. In
//    every block of 80 requests each region gets 19 failure drills on
//    seeded ducts and 1 growth study (a cold plan of N+1 DCs), shuffled by
//    the seed. Drills exercise planner build + incremental replan; growth is
//    the cold sweep and sets the tail.
//  * whatif-slo -- 3 clients, 4 regions of 5 DCs, every request an
//    availability-SLO probe with the fleet soak's probe mix (SLO 0.995,
//    demand_waves 2, oversubscription up to 2.0). Nearly all probe time is
//    the Monte Carlo's pair criterion.
//
// The traced run spends the first half of its time untraced and the second
// half traced. A traced request's engine call is the parent span; child
// spans replay, from the benchmark, the public calls run_query makes for
// that query kind, and each replay is checked against the engine's answer.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common.hpp"
#include "core/expansion.hpp"
#include "core/replan.hpp"
#include "core/slo.hpp"
#include "fleet/engine.hpp"
#include "reliability/events.hpp"

namespace perfbench {
namespace {

using namespace iris;
using fleet::QueryKind;

/// splitmix64: the benchmark's one source of seeded randomness.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

template <typename T>
void shuffle(std::vector<T>& v, std::size_t from, Rng& rng) {
  for (std::size_t i = v.size() - 1; i > from; --i) {
    const std::size_t j = from + rng.below(i - from + 1);
    std::swap(v[i], v[j]);
  }
}

struct Request {
  int region = 0;
  fleet::WhatIfQuery query;
};

constexpr int kRegions = 4;

fleet::FleetParams plan_fleet() {
  fleet::FleetParams p;
  p.regions = kRegions;
  p.base_seed = 7;
  p.base.dc_count = 10;
  p.base.planner.failure_tolerance = 2;
  return p;
}

fleet::FleetParams slo_fleet() {
  fleet::FleetParams p;
  p.regions = kRegions;
  p.base_seed = 7;
  return p;
}

/// Blocks of 80: per region 19 failure drills and one growth study at a
/// seeded point of the fleet soak's candidate grid. Each region's drills
/// walk seeded permutations of its ducts, so every duct is drilled equally
/// often and ducts repeat once per pass.
std::vector<Request> plan_requests(const fleet::Fleet& fl, std::uint64_t seed,
                                   std::size_t blocks) {
  Rng rng(seed ^ 0x706c616eULL);
  std::vector<std::vector<graph::EdgeId>> passes(kRegions);
  std::vector<std::size_t> cursor(kRegions, 0);
  std::vector<Request> out;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t from = out.size();
    for (int r = 0; r < kRegions; ++r) {
      auto& pass = passes[static_cast<std::size_t>(r)];
      auto& at = cursor[static_cast<std::size_t>(r)];
      for (int d = 0; d < 19; ++d) {
        if (at == pass.size()) {
          pass.clear();
          const graph::EdgeId ducts = fl.snapshot(r)->map->graph().edge_count();
          for (graph::EdgeId e = 0; e < ducts; ++e) pass.push_back(e);
          shuffle(pass, 0, rng);
          at = 0;
        }
        Request q;
        q.region = r;
        q.query.kind = QueryKind::kFailureDrill;
        q.query.duct = pass[at++];
        out.push_back(q);
      }
      Request g;
      g.region = r;
      g.query.kind = QueryKind::kGrowth;
      g.query.growth.position = {12.0 + 4.0 * static_cast<double>(rng.below(5)),
                                 18.0 + 6.0 * static_cast<double>(rng.below(3))};
      g.query.growth.capacity_fibers = 8;
      g.query.growth.name = "dc-whatif";
      out.push_back(g);
    }
    shuffle(out, from, rng);
  }
  return out;
}

/// Blocks of 16: every (region, oversubscription ceiling) pair once.
std::vector<Request> slo_requests(const fleet::Fleet&, std::uint64_t seed,
                                  std::size_t blocks) {
  Rng rng(seed ^ 0x736c6fULL);
  std::vector<Request> out;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t from = out.size();
    for (int r = 0; r < kRegions; ++r) {
      for (const double oversub : {1.25, 1.5, 1.75, 2.0}) {
        Request q;
        q.region = r;
        q.query.kind = QueryKind::kSloProbe;
        q.query.availability_slo = 0.995;
        q.query.slo_max_tolerance = 1;
        q.query.demand_waves = 2;
        q.query.max_oversubscription = oversub;
        out.push_back(q);
      }
    }
    shuffle(out, from, rng);
  }
  return out;
}

struct Workload {
  fleet::FleetParams params;
  int clients = 1;
  int setups = 1;          ///< set-up repetitions; the median is reported
  double blocks_per_s = 1; ///< generous upper bound on blocks served per s
  double tail_q = 0.99;    ///< highest percentile with >= 10 samples beyond
  std::size_t verify = 1;  ///< requests replayed on one client afterwards
  std::vector<Request> (*make)(const fleet::Fleet&, std::uint64_t,
                               std::size_t) = nullptr;
};

/// Runs the fleet's loops to completion: the settled snapshots the what-if
/// requests query. Checks audits and shard errors.
std::unique_ptr<fleet::Fleet> settle(const fleet::FleetParams& params,
                                     Report& report) {
  auto fl = std::make_unique<fleet::Fleet>(params);
  fl->start();
  fl->join();
  bool audits = true;
  for (int r = 0; r < fl->regions(); ++r) {
    audits = audits && fl->shard(r).result().audit_clean &&
             fl->snapshot(r) != nullptr;
  }
  if (!fl->ok() || !audits) {
    report.check(fl->ok(), "set-up fleet has no shard error");
    report.check(audits, "set-up fleet audits clean");
  }
  return fl;
}

struct Sample {
  long long index = 0;
  double latency_ms = 0.0;
  std::uint64_t fingerprint = 0;
  bool ok = false;
};

/// Per-layer sums from the traced replays.
struct Tally {
  long long requests = 0;
  double traced_wall_s = 0.0;  ///< engine call + replays, per request
  std::vector<double> dispatch_s;  ///< run_batch minus direct run_query
  long long drills = 0;
  double build_s = 0.0;
  double replan_s = 0.0;
  long long scenarios = 0;
  long long pruned = 0;
  long long growths = 0;
  double expansion_s = 0.0;
  long long probes = 0;
  double probe_replay_s = 0.0;
  long long provisions = 0;
  double provision_s = 0.0;
  long long sims = 0;
  double sim_s = 0.0;
  long long criterion_calls = 0;
  double criterion_s = 0.0;
  long long distinct_masks = 0;
  long long mismatches = 0;  ///< replays that disagree with the engine

  void add(const Tally& o) {
    requests += o.requests;
    traced_wall_s += o.traced_wall_s;
    dispatch_s.insert(dispatch_s.end(), o.dispatch_s.begin(),
                      o.dispatch_s.end());
    drills += o.drills;
    build_s += o.build_s;
    replan_s += o.replan_s;
    scenarios += o.scenarios;
    pruned += o.pruned;
    growths += o.growths;
    expansion_s += o.expansion_s;
    probes += o.probes;
    probe_replay_s += o.probe_replay_s;
    provisions += o.provisions;
    provision_s += o.provision_s;
    sims += o.sims;
    sim_s += o.sim_s;
    criterion_calls += o.criterion_calls;
    criterion_s += o.criterion_s;
    distinct_masks += o.distinct_masks;
    mismatches += o.mismatches;
  }
};

/// Planner knobs run_query uses for scratch work: the snapshot's own.
core::PlannerParams scratch_params(const fleet::RegionSnapshot& snap) {
  core::PlannerParams p = snap.network->params;
  p.threads = 1;
  return p;
}

void replay_drill(const fleet::RegionSnapshot& snap, const Request& req,
                  const fleet::WhatIfResult& res, long long idx, int parent,
                  SpanLog& log, Tally& t) {
  int s = log.open("core.planner_build", idx, parent);
  core::IncrementalPlanner planner(*snap.map, scratch_params(snap));
  t.build_s += log.close(s);
  s = log.open("core.replan", idx, parent);
  const core::PlanDiff diff = planner.cut_duct(req.query.duct);
  const core::ReplanStats& st = planner.last_stats();
  char attrs[96];
  std::snprintf(attrs, sizeof attrs, "\"scenarios\": %lld, \"pruned\": %lld",
                st.scenarios, st.pruned);
  t.replan_s += log.close(s, attrs);
  t.scenarios += st.scenarios;
  t.pruned += st.pruned;
  ++t.drills;
  if (static_cast<int>(diff.capacity_changes.size()) != res.capacity_changes ||
      static_cast<int>(diff.path_changes.size()) != res.path_changes) {
    ++t.mismatches;
  }
}

void replay_growth(const fleet::RegionSnapshot& snap, const Request& req,
                   const fleet::WhatIfResult& res, long long idx, int parent,
                   SpanLog& log, Tally& t) {
  const core::PlannerParams p = scratch_params(snap);
  int s = log.open("core.expansion_reach", idx, parent);
  const auto reach = core::expansion_fiber_reach_km(*snap.map, p, req.query.growth);
  log.close(s);
  if (!reach.has_value()) {
    if (res.feasible) ++t.mismatches;
    return;
  }
  s = log.open("core.expansion", idx, parent);
  const core::ExpansionReport rep =
      core::plan_expansion(*snap.map, p, req.query.growth);
  t.expansion_s += log.close(s);
  ++t.growths;
  if (rep.plan.network.total_base_fibers() - snap.network->total_base_fibers() !=
      res.fibers_added) {
    ++t.mismatches;
  }
}

/// The SLO search of core::provision_to_availability_slo (cost-optimizing
/// overload), replayed from its public parts so the pair criterion can be
/// wrapped: provision each candidate, simulate it under the probe's failure
/// model, then bisect the oversubscription.
void replay_slo_probe(const fleet::RegionSnapshot& snap, const Request& req,
                      const fleet::WhatIfResult& res, long long idx, int parent,
                      SpanLog& log, Tally& t) {
  const fleet::WhatIfQuery& q = req.query;
  const double t0 = now_s();
  core::PlannerParams p = scratch_params(snap);
  p.availability_slo = q.availability_slo;
  p.slo_max_tolerance = q.slo_max_tolerance;
  // The probe's deterministic failure model (fleet/query.cpp).
  reliability::CorrelatedFailureModel model;
  model.base.cuts_per_km_year = 0.25;
  model.base.mean_repair_hours = 24.0;
  model.base.horizon_years = 40.0;
  model.base.seed = 0x510bULL + static_cast<std::uint64_t>(snap.region);
  model.ci_batches = 0;
  constexpr int kBisectIters = 4;

  const fibermap::FiberMap& map = *snap.map;
  const auto provision = [&](const core::PlannerParams& c) {
    const int s = log.open("core.provision", idx, parent);
    core::ProvisionedNetwork net = core::provision(map, c);
    t.provision_s += log.close(s);
    ++t.provisions;
    return net;
  };
  const auto simulate = [&](const core::ProvisionedNetwork& net) {
    const reliability::PairUpFn inner =
        core::planned_capacity_criterion(map, net, q.demand_waves);
    long long calls = 0;
    double busy_s = 0.0;
    std::unordered_set<std::uint64_t> masks;
    const graph::EdgeId edges = map.graph().edge_count();
    // The simulation asks about every DC pair, in a fixed order, after each
    // event, all against one mask; so the mask is hashed only when the
    // first pair asked comes round again.
    graph::NodeId first_a = graph::kInvalidNode;
    graph::NodeId first_b = graph::kInvalidNode;
    const reliability::PairUpFn wrapped = [&](const graph::EdgeMask& m,
                                              graph::NodeId a,
                                              graph::NodeId b) {
      if (first_a == graph::kInvalidNode) {
        first_a = a;
        first_b = b;
      }
      if (a == first_a && b == first_b) {
        std::uint64_t h = 1469598103934665603ULL;
        for (graph::EdgeId e = 0; e < edges; ++e) {
          h = (h ^ (m.failed(e) ? 1U : 0U)) * 1099511628211ULL;
        }
        masks.insert(h);
      }
      const double c0 = now_s();
      const bool up = inner(m, a, b);
      busy_s += now_s() - c0;
      ++calls;
      return up;
    };
    const int s = log.open("reliability.simulate", idx, parent);
    reliability::CorrelatedAvailabilityReport rep =
        reliability::simulate_availability_correlated(map, model, wrapped);
    char attrs[128];
    std::snprintf(attrs, sizeof attrs,
                  "\"criterion_calls\": %lld, \"criterion_s\": %.9f, "
                  "\"distinct_masks\": %zu",
                  calls, busy_s, masks.size());
    t.sim_s += log.close(s, attrs);
    ++t.sims;
    t.criterion_calls += calls;
    t.criterion_s += busy_s;
    t.distinct_masks += static_cast<long long>(masks.size());
    return rep;
  };

  core::ProvisionedNetwork net;
  reliability::CorrelatedAvailabilityReport avail;
  int tolerance = 0;
  bool met = false;
  for (int k = p.failure_tolerance; k <= p.slo_max_tolerance; ++k) {
    core::PlannerParams candidate = p;
    candidate.failure_tolerance = k;
    net = provision(candidate);
    avail = simulate(net);
    tolerance = k;
    if (avail.summary.worst_availability >= p.availability_slo) {
      met = true;
      break;
    }
  }
  if (met && q.max_oversubscription > p.oversubscription) {
    core::PlannerParams candidate = p;
    candidate.failure_tolerance = tolerance;
    const auto feasible_at = [&](double oversub) {
      candidate.oversubscription = oversub;
      core::ProvisionedNetwork n = provision(candidate);
      auto a = simulate(n);
      const bool ok = a.summary.worst_availability >= p.availability_slo;
      if (ok) {
        net = std::move(n);
        avail = std::move(a);
      }
      return ok;
    };
    if (!feasible_at(q.max_oversubscription)) {
      double lo = p.oversubscription;
      double hi = q.max_oversubscription;
      for (int i = 0; i < kBisectIters; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (feasible_at(mid)) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
    }
  }
  t.probe_replay_s += now_s() - t0;
  ++t.probes;
  if (met != res.slo_met || tolerance != res.tolerance ||
      avail.summary.worst_availability != res.worst_availability ||
      net.total_base_fibers() != res.cost_fibers ||
      net.params.oversubscription != res.oversubscription) {
    ++t.mismatches;
  }
}

fleet::WhatIfEngine::Job make_job(const fleet::Fleet& fl, const Request& req) {
  fleet::WhatIfEngine::Job job;
  job.snapshot = fl.snapshot(req.region);
  job.shard = &fl.shard(req.region);
  job.query = req.query;
  return job;
}

/// Identifies a request by everything its answer depends on.
std::string request_key(const Request& req) {
  const fleet::WhatIfQuery& q = req.query;
  char buf[160];
  std::snprintf(buf, sizeof buf, "%d %d %d %.6f %.6f %.6f", req.region,
                static_cast<int>(q.kind), static_cast<int>(q.duct),
                q.growth.position.x, q.growth.position.y,
                q.max_oversubscription);
  return buf;
}

bool answered_ok(const fleet::WhatIfResult& r) {
  return r.status == fleet::QueryStatus::kOk && r.feasible;
}

/// One client thread's closed loop: take the next request index, send it,
/// wait for the answer, repeat until `until`. Traced requests also replay
/// the layer calls under child spans.
void client(fleet::WhatIfEngine& engine, const fleet::Fleet& fl,
            const std::vector<Request>& reqs, std::atomic<long long>& next,
            double until, bool traced, std::vector<Sample>& samples,
            SpanLog& log, Tally& t) {
  while (now_s() < until) {
    const long long idx = next.fetch_add(1, std::memory_order_relaxed);
    const Request& req = reqs[static_cast<std::size_t>(idx) % reqs.size()];
    const std::vector<fleet::WhatIfEngine::Job> batch{make_job(fl, req)};
    const double t0 = now_s();
    const int root = traced ? log.open("fleet.run_batch", idx) : -1;
    const fleet::WhatIfResult res = engine.run_batch(batch).front();
    const double batch_s = traced ? log.close(root) : now_s() - t0;
    samples.push_back({idx, batch_s * 1e3, res.fingerprint(), answered_ok(res)});
    if (!traced) continue;
    const fleet::RegionSnapshot& snap = *batch.front().snapshot;
    const int s = log.open("fleet.run_query", idx, root);
    const fleet::WhatIfResult direct = fleet::run_query(snap, req.query);
    t.dispatch_s.push_back(batch_s - log.close(s));
    if (direct.fingerprint() != res.fingerprint()) ++t.mismatches;
    switch (req.query.kind) {
      case QueryKind::kFailureDrill:
        replay_drill(snap, req, res, idx, root, log, t);
        break;
      case QueryKind::kGrowth:
        replay_growth(snap, req, res, idx, root, log, t);
        break;
      case QueryKind::kSloProbe:
        replay_slo_probe(snap, req, res, idx, root, log, t);
        break;
    }
    ++t.requests;
    t.traced_wall_s += now_s() - t0;
  }
}

/// Runs `clients` closed-loop client threads until `until`; returns the
/// samples ordered by request index.
std::vector<Sample> run_clients(fleet::WhatIfEngine& engine,
                                const fleet::Fleet& fl,
                                const std::vector<Request>& reqs, int clients,
                                std::atomic<long long>& next, double until,
                                bool traced, SpanLog& spans, Tally& tally) {
  std::vector<std::vector<Sample>> per(static_cast<std::size_t>(clients));
  std::vector<SpanLog> logs(static_cast<std::size_t>(clients));
  std::vector<Tally> tallies(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 1; c < clients; ++c) {
    const auto i = static_cast<std::size_t>(c);
    threads.emplace_back([&, i] {
      client(engine, fl, reqs, next, until, traced, per[i], logs[i],
             tallies[i]);
    });
  }
  client(engine, fl, reqs, next, until, traced, per[0], logs[0], tallies[0]);
  for (auto& th : threads) th.join();
  std::vector<Sample> out;
  for (std::size_t c = 0; c < per.size(); ++c) {
    out.insert(out.end(), per[c].begin(), per[c].end());
    spans.absorb(std::move(logs[c]));
    tally.add(tallies[c]);
  }
  std::sort(out.begin(), out.end(),
            [](const Sample& a, const Sample& b) { return a.index < b.index; });
  return out;
}

void report_layers(Report& report, const Tally& t, double untraced_ms) {
  const auto per = [](double sum, long long n) {
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
  };
  report.check(t.requests > 0, "traced requests ran");
  report.check(t.mismatches == 0,
               "traced replays agree with the engine's answers");
  report.metric("fleet.query_dispatch_us", quantile(t.dispatch_s, 0.5) * 1e6,
                "us");
  if (t.drills > 0) {
    report.metric("core.planner_build_ms", per(t.build_s, t.drills) * 1e3, "ms");
    report.metric("core.replan_ms", per(t.replan_s, t.drills) * 1e3, "ms");
    report.metric("core.replan.scenarios",
                  per(static_cast<double>(t.scenarios), t.drills), "count");
    report.metric("core.replan.pruned",
                  per(static_cast<double>(t.pruned), t.drills), "count");
  }
  if (t.growths > 0) {
    report.metric("core.expansion_ms", per(t.expansion_s, t.growths) * 1e3,
                  "ms");
  }
  if (t.probes > 0) {
    report.metric("core.provision.calls",
                  per(static_cast<double>(t.provisions), t.probes), "count");
    report.metric("core.provision_ms", per(t.provision_s, t.provisions) * 1e3,
                  "ms");
    report.metric("core.criterion.calls",
                  per(static_cast<double>(t.criterion_calls), t.probes),
                  "count");
    report.metric("core.criterion_us",
                  per(t.criterion_s, t.criterion_calls) * 1e6, "us");
    report.metric("core.criterion.distinct_masks",
                  per(static_cast<double>(t.distinct_masks), t.sims), "count");
    const double share = t.probe_replay_s > 0.0
                             ? 100.0 * t.criterion_s / t.probe_replay_s
                             : 0.0;
    report.metric("core.criterion_share_pct", share, "%");
    report.check(share > 50.0, "the pair criterion is most of the probe time");
    report.metric("reliability.sims", per(static_cast<double>(t.sims), t.probes),
                  "count");
    report.metric("reliability.sim_self_ms",
                  per(t.sim_s - t.criterion_s, t.sims) * 1e3, "ms");
  }
  const double traced_ms = per(t.traced_wall_s, t.requests) * 1e3;
  std::printf("tracing: %lld traced requests, %.3f ms each vs %.3f ms untraced\n",
              t.requests, traced_ms, untraced_ms);
  report.metric("trace.overhead_pct",
                untraced_ms > 0.0 ? 100.0 * (traced_ms / untraced_ms - 1.0) : 0.0,
                "%");
}

void run_whatif(const Workload& w, const Options& opt, Report& report,
                SpanLog& spans) {
  // ---- set-up: settle the fleet, several times; the median is reported ----
  // The first set-up's fleet answers the verification replays, the last
  // one's serves the measured requests.
  std::vector<double> setup_s;
  std::unique_ptr<fleet::Fleet> first;
  std::unique_ptr<fleet::Fleet> last;
  bool same = true;
  for (int i = 0; i < w.setups; ++i) {
    const double t0 = now_s();
    last = settle(w.params, report);
    setup_s.push_back(now_s() - t0);
    if (first == nullptr) {
      first = std::move(last);
      continue;
    }
    for (int r = 0; r < last->regions(); ++r) {
      same = same && last->shard(r).result().fingerprint ==
                         first->shard(r).result().fingerprint;
    }
  }
  report.check(last != nullptr && same,
               std::to_string(w.setups) +
                   " set-ups produced identical region traces");
  const fleet::Fleet& measured = *last;
  const fleet::Fleet& reference = *first;

  const auto blocks = static_cast<std::size_t>(
      opt.seconds * w.blocks_per_s + 2.0);
  const std::vector<Request> reqs = w.make(measured, opt.seed, blocks);
  std::printf("requests generated %zu, %d client threads\n", reqs.size(),
              w.clients);

  // ---- measure: untraced (the whole window, or its first half) ----
  fleet::WhatIfEngine engine(w.clients);
  std::atomic<long long> next{0};
  Tally tally;
  const double window = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  const double start = now_s();
  std::vector<Sample> samples = run_clients(engine, measured, reqs, w.clients,
                                            next, start + window, false, spans,
                                            tally);
  const double elapsed = now_s() - start;
  std::vector<double> latency_ms;
  long long failed = 0;
  for (const Sample& s : samples) {
    latency_ms.push_back(s.latency_ms);
    if (!s.ok) ++failed;
  }
  const auto served = static_cast<long long>(samples.size());
  std::vector<Sample> traced;
  if (opt.trace) {
    traced = run_clients(engine, measured, reqs, w.clients, next,
                         now_s() + opt.seconds / 2.0, true, spans, tally);
    for (const Sample& s : traced) {
      if (!s.ok) ++failed;
    }
  }
  const long long attempted = served + static_cast<long long>(traced.size());
  report.count(attempted, failed);
  std::printf("requests served %lld untraced in %.3f s, %zu traced; "
              "failed %lld, error rate %.6f\n",
              served, elapsed, traced.size(), failed,
              attempted > 0 ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 0.0);

  if (opt.trace) {
    report_layers(report, tally, mean(latency_ms));
  } else {
    report.metric("setup_s", quantile(setup_s, 0.5), "s");
    report_latency(report, latency_ms, w.tail_q);
    report.metric("throughput_ops_s", static_cast<double>(served) / elapsed,
                  "1/s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  }

  // ---- verify: the first requests again, on one client, against the
  // first set-up's fleet (1 vs N clients, and across independent builds) ----
  samples.insert(samples.end(), traced.begin(), traced.end());
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.index < b.index; });
  const auto request_at = [&](const Sample& s) -> const Request& {
    return reqs[static_cast<std::size_t>(s.index) % reqs.size()];
  };
  // Requests repeat (ducts, growth sites and probe mixes recur): every
  // repeat must get the same answer, whichever client served it.
  std::map<std::string, std::uint64_t> answers;
  bool repeats_agree = true;
  for (const Sample& s : samples) {
    const auto it = answers.emplace(request_key(request_at(s)), s.fingerprint);
    repeats_agree = repeats_agree && it.first->second == s.fingerprint;
  }
  report.check(repeats_agree, std::to_string(samples.size()) +
                                  " results agree across " +
                                  std::to_string(answers.size()) +
                                  " distinct requests and their repeats");
  const std::size_t n = std::min(w.verify, samples.size());
  std::uint64_t digest = 1469598103934665603ULL;
  bool identical = true;
  for (std::size_t i = 0; i < n; ++i) {
    const fleet::WhatIfResult r =
        engine.run_batch({make_job(reference, request_at(samples[i]))}).front();
    identical = identical && r.fingerprint() == samples[i].fingerprint;
    digest = (digest ^ r.fingerprint()) * 1099511628211ULL;
  }
  report.check(n > 0 && identical,
               "first " + std::to_string(n) +
                   " results identical on 1 client vs " +
                   std::to_string(w.clients) + " and across set-ups");
  std::printf("result digest 0x%016llx over the first %zu requests\n",
              static_cast<unsigned long long>(digest), n);
}

}  // namespace

void run_whatif_plan(const Options& opt, Report& report, SpanLog& spans) {
  Workload w;
  w.params = plan_fleet();
  w.clients = 2;
  w.setups = 9;
  w.blocks_per_s = 4.0;  // ~80 requests/s observed; 4x headroom
  w.tail_q = 0.99;
  w.verify = 40;
  w.make = plan_requests;
  run_whatif(w, opt, report, spans);
}

void run_whatif_slo(const Options& opt, Report& report, SpanLog& spans) {
  Workload w;
  w.params = slo_fleet();
  w.clients = 3;
  w.setups = 15;
  w.blocks_per_s = 2.0;  // ~6 probes/s observed
  w.tail_q = 0.90;
  w.verify = 4;
  w.make = slo_requests;
  run_whatif(w, opt, report, spans);
}

}  // namespace perfbench
