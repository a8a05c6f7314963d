// TE engine comparison: hose-only static allocation vs the reactive EWMA
// policy vs the demand-aware robust TE engine (src/te), on the paper's
// heavy-tailed drifting workload (SS6.3).
//
// All three schemes drive the same controller on the same region and the
// same demand trace; the table reports how often each reconfigures, the
// cumulative capacity-gap time those reconfigurations cost, the delivered
// throughput (offered demand actually carried by tuned wavelengths), and
// the steady-state circuit churn per reconfiguration. Exits non-zero if
// the demand-aware engine fails its acceptance contract: it must
// reconfigure no more often than EWMA, deliver equal or better worst-case
// throughput, and move strictly fewer fibers per steady-state
// reconfiguration -- so CI can run this as a gate. Malformed arguments
// exit 2 (atof used to turn garbage into a silent zero-duration run).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "bench_util.hpp"
#include "control/closed_loop.hpp"
#include "simflow/demand_adapter.hpp"
#include "te/engine.hpp"

namespace {

using namespace iris;
using control::TrafficMatrix;

/// Throughput is accounted from kWarmupS on, so every scheme's bring-up
/// transient (first proposal gated by hysteresis) is outside the window
/// and the numbers describe steady state.
constexpr double kWarmupS = 30.0;

struct RunStats {
  const char* name = "";
  int applies = 0;    ///< successful apply_traffic_matrix calls (incl. bring-up)
  int reconfigs = 0;  ///< applies that moved circuits; the rest were hitless
                      ///< wavelength retunes
  int rejected = 0;
  double gap_ms = 0.0;
  long long moved_fibers_steady = 0;  ///< torn + set up, excluding bring-up
  double offered = 0.0;    ///< wavelength-seconds of demand
  double delivered = 0.0;  ///< wavelength-seconds carried
  double worst_sample = 1.0;  ///< min over samples of delivered/offered
  long long suppressed = 0;

  [[nodiscard]] int steady_reconfigs() const {
    return std::max(0, reconfigs - 1);
  }
  [[nodiscard]] double moved_per_reconfig() const {
    return steady_reconfigs() > 0 ? static_cast<double>(moved_fibers_steady) /
                                        steady_reconfigs()
                                  : 0.0;
  }
  [[nodiscard]] double delivered_fraction() const {
    return offered > 0.0 ? delivered / offered : 1.0;
  }
};

long long fibers_in(const std::vector<control::Circuit>& circuits) {
  long long total = 0;
  for (const auto& c : circuits) total += c.fiber_pairs;
  return total;
}

/// One sample step of delivered-throughput accounting.
void account(RunStats& stats, const TrafficMatrix& demand,
             const TrafficMatrix& applied) {
  double offered = 0.0, delivered = 0.0;
  for (const auto& [pair, waves] : demand) {
    offered += static_cast<double>(waves);
    const auto it = applied.find(pair);
    if (it == applied.end()) continue;
    delivered += static_cast<double>(std::min(waves, it->second));
  }
  stats.offered += offered;
  stats.delivered += delivered;
  if (offered > 0.0) {
    stats.worst_sample = std::min(stats.worst_sample, delivered / offered);
  }
}

/// Drives a policy (or, with policy == nullptr, a static bring-up-only
/// allocation) against the controller over the demand trace.
RunStats drive(const char* name, control::IrisController& controller,
               control::Policy* policy, const TrafficMatrix& static_alloc,
               simflow::RegionDemand& demand, double duration_s) {
  RunStats stats;
  stats.name = name;
  TrafficMatrix applied;
  if (policy == nullptr) {
    const auto report = controller.apply_traffic_matrix(static_alloc);
    applied = static_alloc;
    stats.applies = 1;
    stats.reconfigs = 1;
    stats.gap_ms += report.capacity_gap_ms();
  }
  for (double t = 0.0; t < duration_s; t += 1.0) {
    const auto tm = demand.at(t);
    if (policy != nullptr) {
      policy->observe(tm, t);
      if (const auto proposal = policy->propose(t)) {
        try {
          const auto report = controller.apply_traffic_matrix(*proposal);
          if (report.target_reached()) {
            policy->mark_applied(*proposal);
            applied = *proposal;
            ++stats.applies;
            const auto moved =
                fibers_in(report.torn_down) + fibers_in(report.set_up);
            if (moved > 0) {
              ++stats.reconfigs;
              stats.gap_ms += report.capacity_gap_ms();
              if (stats.reconfigs > 1) stats.moved_fibers_steady += moved;
            }
          } else {
            policy->defer_retry(t);
          }
        } catch (const std::runtime_error&) {
          ++stats.rejected;
          policy->defer_retry(t);
        }
      }
    }
    if (t >= kWarmupS) account(stats, tm, applied);
  }
  if (policy != nullptr) stats.suppressed = policy->proposals_suppressed();
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  double duration_s = 600.0;
  std::uint64_t seed = 11;
  double change_fraction = 0.5;
  obs::Args args("bench_te_compare");
  args.positional("duration_s", duration_s, obs::above(0.0))
      .positional("seed", seed)
      .positional("change_fraction", change_fraction, obs::in(0.0, 1.0))
      .metrics();
  if (const int rc = args.parse(argc, argv)) return rc;

  constexpr int kLambda = 40;
  const auto map = bench::make_eval_region(11, 6, 16);
  const auto net = core::provision(map, bench::eval_params(1, kLambda));
  const auto amp_cut = core::place_amplifiers_and_cutthroughs(map, net);
  const auto limits = te::make_network_limits(map, net, amp_cut);

  simflow::RegionDemandParams dp;
  dp.change_interval_s = 10.0;
  dp.utilization = 0.35;
  dp.change_fraction = change_fraction;
  dp.seed = seed;
  const auto fresh_demand = [&] {
    return simflow::RegionDemand(map, kLambda, dp);
  };

  control::PolicyParams pp;  // shared by both policies, apples to apples
  pp.ewma_alpha = 0.3;
  pp.headroom = 1.25;
  pp.hysteresis_s = 10.0;
  pp.wavelengths_per_fiber = kLambda;

  te::DemandAwareParams da;
  da.base = pp;
  da.store.capacity = 128;
  da.store.min_spacing_s = 2.0;
  da.cluster.k = 4;
  da.replan_interval_s = 20.0;

  std::printf("# te_compare: %.0f s of heavy-tailed demand "
              "(drift %.0f%%/10 s, seed %llu)\n",
              duration_s, change_fraction * 100.0,
              static_cast<unsigned long long>(seed));

  // Hose-only baseline: the demand-oblivious allocation -- the offered
  // budget split uniformly across pairs -- applied once, never revisited.
  std::vector<RunStats> rows;
  {
    auto demand = fresh_demand();
    TrafficMatrix uniform;
    const auto share = static_cast<long long>(
        pp.headroom * static_cast<double>(demand.budget_wavelengths()) /
        static_cast<double>(demand.pairs().size()));
    for (const auto& pair : demand.pairs()) {
      uniform[pair] = std::max<long long>(1, share);
    }
    control::IrisController controller(map, net, amp_cut);
    rows.push_back(
        drive("hose-only", controller, nullptr, uniform, demand, duration_s));
  }
  for (const auto policy_kind : {control::PolicyStrategy::kEwma,
                                 control::PolicyStrategy::kDemandAware}) {
    auto demand = fresh_demand();
    control::ClosedLoopParams lp;
    lp.policy = policy_kind;
    const auto policy = te::make_policy(lp, da, limits);
    control::IrisController controller(map, net, amp_cut);
    const char* name =
        policy_kind == control::PolicyStrategy::kEwma ? "ewma" : "demand-aware";
    rows.push_back(
        drive(name, controller, policy.get(), {}, demand, duration_s));
  }

  std::printf("%14s | %7s %9s %9s %9s %10s %10s %9s %11s\n", "scheme",
              "applies", "reconfigs", "rejected", "gap(ms)", "delivered",
              "worst-case", "moved", "moved/recfg");
  for (const auto& r : rows) {
    std::printf("%14s | %7d %9d %9d %9.0f %9.1f%% %9.1f%% %9lld %11.1f\n",
                r.name, r.applies, r.reconfigs, r.rejected, r.gap_ms,
                100.0 * r.delivered_fraction(), 100.0 * r.worst_sample,
                r.moved_fibers_steady, r.moved_per_reconfig());
  }

  const RunStats& ewma = rows[1];
  const RunStats& da_run = rows[2];
  bool ok = true;
  const auto require = [&](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "ACCEPTANCE FAILED: %s\n", what);
      ok = false;
    }
  };
  require(da_run.reconfigs <= ewma.reconfigs,
          "demand-aware reconfigures more often than EWMA");
  require(da_run.worst_sample >= ewma.worst_sample,
          "demand-aware worst-case throughput below EWMA");
  require(da_run.delivered_fraction() >= ewma.delivered_fraction(),
          "demand-aware delivered throughput below EWMA");
  require(da_run.moved_per_reconfig() < ewma.moved_per_reconfig() ||
              (da_run.steady_reconfigs() == 0 && ewma.steady_reconfigs() > 0),
          "demand-aware does not move strictly fewer fibers per reconfig");

  std::printf("\n# %s: demand-aware reconfigures %dx vs EWMA %dx, worst-case "
              "%.1f%% vs %.1f%%, steady churn %.1f vs %.1f fibers/reconfig\n",
              ok ? "PASS" : "FAIL", da_run.reconfigs, ewma.reconfigs,
              100.0 * da_run.worst_sample, 100.0 * ewma.worst_sample,
              da_run.moved_per_reconfig(), ewma.moved_per_reconfig());
  return bench::finish(args, ok ? 0 : 1);
}
