// The fleet-loop workload: the control plane's write path, with no query
// load. A supervised 2-region fleet::Fleet runs its closed loops on the
// async command plane under scripted duct chaos and a deterministic crash
// schedule: controller applies, journal appends and recoveries, snapshot
// publishes and per-tick obs.
//
// Inputs (why each was chosen is recorded in perfbench/README.md):
//  * fleet seed 20: both regions' chaos victim ducts carry circuits, so the
//    failed-duct escape hatch replans in both (the default seed 7's victims
//    carry none, and no escape replan ever runs);
//  * a crash every 3000 device commands: at intervals up to 400 a region
//    crashes on nearly every tick and never reconfigures, while at 3000
//    each region crashes about once per 50 ticks and still completes all
//    its reconfigurations;
//  * the chaos period is 38 + seed % 4 samples: the seed moves the chaos
//    schedule, and with it which applies the escape hatch makes.
//
// The measured window alternates whole fleet runs (throughput, in
// region-ticks/s) with one region's loop run on the benchmark thread
// (per-tick latency, in the thread's CPU time). That solo loop is built
// from the same public parts as the fleet's shard -- world build, scripted
// chaos, journal-backed recovery through IrisController::recover -- without
// snapshot publishing, and must end in the same controller state as the
// shard. The traced run wraps its policy to split policy time from apply
// time and records spans.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/amp_cut.hpp"
#include "core/provision.hpp"
#include "fibermap/generator.hpp"
#include "fleet/engine.hpp"
#include "obs/metrics.hpp"

namespace perfbench {
namespace {

using namespace iris;

constexpr int kSamples = 5000;  ///< closed-loop samples per region and run

fleet::FleetParams loop_fleet(std::uint64_t seed) {
  fleet::FleetParams p;
  p.regions = 2;
  p.base_seed = 20;
  p.base.loop.duration_s = kSamples;
  p.base.loop.sample_interval_s = 1.0;
  p.base.chaos_duct_period = 38 + static_cast<long long>(seed % 4);
  p.base.supervisor.crash_every_cmds = 3000;
  p.base.command_plane = control::CommandPlaneMode::kAsync;
  return p;
}

/// What one solo loop run measured.
struct LoopRun {
  std::vector<double> tick_s;    ///< completed ticks: demand call -> on_tick
  /// Thread CPU time of the completed ticks that reconfigured: an apply
  /// (policy or escape hatch) moved the controller's state, or a crash was
  /// recovered.
  std::vector<double> reconfig_tick_cpu_s;
  std::vector<double> apply_s;   ///< policy applies: propose -> verdict
  std::vector<double> recover_s; ///< crash -> recovered successor
  double policy_s = 0.0;         ///< observe + propose
  long long commands = 0;        ///< device commands of the timed applies
  long long journal_records = 0; ///< records appended over the run
  control::ClosedLoopResult result;
  std::uint64_t state_hash = 0;  ///< fnv1a64 of the final state fingerprint
  bool audit_clean = false;
};

/// One region's world and closed loop on the calling thread, built from
/// the public parts fleet::RegionShard uses, minus snapshot publishing.
class SoloRegion {
 public:
  /// `log` non-null = traced: spans around the layer calls and a timing
  /// policy wrapper.
  SoloRegion(const fleet::FleetParams& params, int region, SpanLog* log)
      : cfg_(fleet::derive_region_config(params, region)), log_(log) {
    const obs::ScopedRegistry bind(registry_);
    cfg_.faults.crash_after_commands = cfg_.supervisor.crash_every_cmds;
    fibermap::RegionParams rp;
    rp.seed = cfg_.region_seed;
    rp.dc_count = cfg_.dc_count;
    rp.hut_count = cfg_.hut_count;
    rp.capacity_fibers = cfg_.capacity_fibers;
    map_ = std::make_unique<fibermap::FiberMap>(fibermap::generate_region(rp));
    network_ = std::make_unique<core::ProvisionedNetwork>(
        core::provision(*map_, cfg_.planner));
    amp_cut_ = std::make_unique<core::AmpCutPlan>(
        core::place_amplifiers_and_cutthroughs(*map_, *network_));
    devices_ = std::make_unique<control::DeviceLayer>(*map_, *network_,
                                                      *amp_cut_, cfg_.faults);
    controller_ = std::make_unique<control::IrisController>(
        *map_, *network_, *amp_cut_, *devices_);
    controller_->set_command_plane(cfg_.command_plane);
    controller_->attach_journal(&journal_);
    policy_ = std::make_unique<control::ReconfigPolicy>(cfg_.policy);
    victim_ = static_cast<graph::EdgeId>(
        cfg_.region_seed %
        static_cast<std::uint64_t>(map_->graph().edge_count()));
  }
  SoloRegion(const SoloRegion&) = delete;
  SoloRegion& operator=(const SoloRegion&) = delete;

  /// Runs the loop to completion with the region's registry bound;
  /// `obs_enabled` false freezes every obs series for the run.
  LoopRun run(bool obs_enabled) {
    registry_.set_enabled(obs_enabled);
    const obs::ScopedRegistry bind(registry_);
    TimingPolicy timed(*this);
    control::Policy& policy =
        log_ != nullptr ? static_cast<control::Policy&>(timed) : *policy_;
    control::ClosedLoopParams loop = cfg_.loop;
    loop.on_tick = [this](long long, double) { end_tick(); };
    const control::DemandAt demand = [this](double t) {
      begin_tick();
      scripted_chaos();
      version_ = controller_->state_version();
      return fleet::fleet_demand(*map_, cfg_.region_seed, t);
    };
    control::LoopCursor cursor;
    for (;;) {
      try {
        control::run_closed_loop(*controller_, policy, demand, loop, cursor);
        break;
      } catch (const control::ControllerCrash&) {
        abandon_tick();
        if (recover()) {
          cursor.next_t += loop.sample_interval_s;
          complete_tick(true);
        }
      }
    }
    count_journal();
    run_.result = cursor.result;
    run_.state_hash = fleet::fnv1a64(controller_->state_fingerprint());
    run_.audit_clean = controller_->audit_report().clean();
    return std::move(run_);
  }

 private:
  /// Splits policy time from apply time: an apply runs from when propose()
  /// returns a proposal until mark_applied, defer_retry or the tick's end.
  class TimingPolicy final : public control::Policy {
   public:
    explicit TimingPolicy(SoloRegion& r) : r_(r) {}
    void observe(const control::TrafficMatrix& sample, double now) override {
      const int s = r_.open("control.policy.observe", r_.tick_span_);
      r_.policy_->observe(sample, now);
      r_.run_.policy_s += r_.close(s);
    }
    std::optional<control::TrafficMatrix> propose(double now) override {
      const int s = r_.open("control.policy.propose", r_.tick_span_);
      auto p = r_.policy_->propose(now);
      r_.run_.policy_s += r_.close(s);
      if (p) r_.apply_span_ = r_.open("control.apply", r_.tick_span_);
      return p;
    }
    void mark_applied(const control::TrafficMatrix& applied) override {
      r_.end_apply(true);
      r_.policy_->mark_applied(applied);
    }
    void defer_retry(double now) override {
      r_.end_apply(true);
      r_.policy_->defer_retry(now);
    }
    [[nodiscard]] int diverging_pairs(double now) const override {
      return r_.policy_->diverging_pairs(now);
    }
    [[nodiscard]] long long proposals_suppressed() const override {
      return r_.policy_->proposals_suppressed();
    }

   private:
    SoloRegion& r_;
  };

  int open(const char* name, int parent) {
    return log_ != nullptr ? log_->open(name, ticks_, parent) : -1;
  }
  double close(int id) { return log_ != nullptr ? log_->close(id) : 0.0; }

  void begin_tick() {
    // A tick re-run after a crash keeps the crashed attempt's start: its
    // latency covers the crash and the recovery.
    if (!crashed_tick_) {
      tick_start_ = now_s();
      tick_cpu_start_ = thread_cpu_s();
    }
    tick_span_ = open("control.tick", -1);
  }
  void end_tick() {
    if (apply_span_ >= 0) end_apply(false);  // rejected before any device
    close(tick_span_);
    tick_span_ = -1;
    complete_tick(crashed_tick_ || controller_->state_version() != version_);
  }
  void complete_tick(bool reconfigured) {
    const double d = now_s() - tick_start_;
    run_.tick_s.push_back(d);
    if (reconfigured) {
      run_.reconfig_tick_cpu_s.push_back(thread_cpu_s() - tick_cpu_start_);
    }
    crashed_tick_ = false;
    ++ticks_;
  }
  void end_apply(bool verdict) {
    const double d = close(apply_span_);
    apply_span_ = -1;
    if (!verdict) return;
    run_.apply_s.push_back(d);
    run_.commands +=
        static_cast<long long>(controller_->last_command_trace().size());
  }
  /// A crash interrupted the tick: its spans end here, and its apply is
  /// not counted. The tick completes when recovery resolves it, or when
  /// its re-run reaches on_tick.
  void abandon_tick() {
    if (apply_span_ >= 0) close(apply_span_);
    if (tick_span_ >= 0) close(tick_span_);
    apply_span_ = -1;
    tick_span_ = -1;
    crashed_tick_ = true;
  }

  void scripted_chaos() {
    const long long period = cfg_.chaos_duct_period;
    if (period <= 0) return;
    const long long phase = chaos_calls_++ % period;
    if (phase == period / 3 && !chaos_down_) {
      controller_->fail_duct(victim_);
      chaos_down_ = true;
    } else if (phase == (2 * period) / 3 && chaos_down_) {
      controller_->restore_duct(victim_);
      chaos_down_ = false;
    }
  }

  void count_journal() {
    const auto size = static_cast<long long>(journal_.size());
    run_.journal_records += size - journal_seen_;
    journal_seen_ = size;
  }

  /// Journal-backed in-place recovery, as the fleet's supervisor does it:
  /// round-trip the journal through its text form and raise a successor
  /// controller over the surviving devices. Returns true when recovery
  /// resolved the crashed tick's in-flight apply (the tick is complete).
  bool recover() {
    const double t0 = now_s();
    const int s = open("control.recover", -1);
    count_journal();
    bool resolved = false;
    for (;;) {
      controller_.reset();
      journal_ = control::IntentJournal::from_text(journal_.to_text());
      journal_seen_ = static_cast<long long>(journal_.size());
      controller_ = std::make_unique<control::IrisController>(
          *map_, *network_, *amp_cut_, *devices_);
      controller_->set_command_plane(cfg_.command_plane);
      try {
        resolved = controller_->recover(journal_).had_in_flight;
        break;
      } catch (const control::ControllerCrash&) {
        count_journal();  // crashed during recovery: retry
      }
    }
    count_journal();
    journal_.compact();
    journal_seen_ = static_cast<long long>(journal_.size());
    devices_->fault_injector().arm_crash(cfg_.supervisor.crash_every_cmds);
    close(s);
    run_.recover_s.push_back(now_s() - t0);
    return resolved;
  }

  fleet::RegionConfig cfg_;
  SpanLog* log_;
  obs::MetricsRegistry registry_;
  std::unique_ptr<fibermap::FiberMap> map_;
  std::unique_ptr<core::ProvisionedNetwork> network_;
  std::unique_ptr<core::AmpCutPlan> amp_cut_;
  std::unique_ptr<control::DeviceLayer> devices_;
  control::IntentJournal journal_;
  std::unique_ptr<control::IrisController> controller_;
  std::unique_ptr<control::ReconfigPolicy> policy_;
  graph::EdgeId victim_ = graph::kInvalidEdge;
  long long chaos_calls_ = 0;
  bool chaos_down_ = false;
  long long journal_seen_ = 0;
  long long ticks_ = 0;
  double tick_start_ = 0.0;
  double tick_cpu_start_ = 0.0;
  bool crashed_tick_ = false;  ///< the current tick crashed, not yet done
  std::uint64_t version_ = 0;  ///< controller state version after chaos
  int tick_span_ = -1;
  int apply_span_ = -1;
  LoopRun run_;
};

/// The shard's final controller state hash, from its canonical trace.
std::uint64_t trace_state_hash(const std::string& trace) {
  const char* key = "state_fingerprint 0x";
  const auto at = trace.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(trace.c_str() + at + std::strlen(key), nullptr, 16);
}

/// Tallies over whole fleet runs.
struct FleetTally {
  std::vector<double> ticks_per_s;   ///< per run: region-ticks / wall
  std::vector<double> region_tick_us;  ///< per run: wall / samples
  long long attempted = 0;
  long long failed = 0;
  long long escapes = 0;
  long long published = 0;
  long long books_rebuilt = 0;
  long long applies = 0;
  double makespan_ms = 0.0;
  bool guards_ok = true;
  bool identical = true;   ///< every run's region traces match the first's
  std::vector<fleet::RegionRunResult> first;  ///< the first run's results
};

void fleet_run(const fleet::FleetParams& params, FleetTally& t) {
  fleet::Fleet fl(params);
  const double t0 = now_s();
  fl.start();
  fl.join();
  const double wall = now_s() - t0;
  t.ticks_per_s.push_back(params.regions * static_cast<double>(kSamples) / wall);
  t.region_tick_us.push_back(wall * 1e6 / kSamples);
  const bool record = t.first.empty();
  t.guards_ok = t.guards_ok && fl.ok();
  for (int r = 0; r < fl.regions(); ++r) {
    const fleet::RegionShard& shard = fl.shard(r);
    const fleet::RegionRunResult& res = shard.result();
    const control::ClosedLoopResult& loop = res.loop;
    const bool healthy = fl.ok() && res.health != fleet::RegionHealth::kQuarantined;
    t.attempted += kSamples;
    // A failed tick: its apply was rejected, rolled back or degraded; every
    // tick of an errored or quarantined region fails.
    t.failed += healthy ? loop.rejected + loop.rolled_back + loop.degraded_applies
                        : kSamples;
    t.escapes += loop.escape_hatch_replans;
    t.published += shard.metrics().counter("fleet.snapshots.published");
    t.books_rebuilt += shard.metrics().counter("fleet.snapshots.books_rebuilt");
    t.applies += loop.reconfigurations + loop.escape_hatch_replans +
                 shard.metrics().counter("loop.policy.deferred");
    t.makespan_ms += loop.total_makespan_ms;
    // Progress guard: the crash schedule must not livelock the loop.
    t.guards_ok = t.guards_ok && res.audit_clean && healthy &&
                  loop.reconfigurations > 0 &&
                  2 * shard.slot().crashes() < kSamples;
    if (record) {
      std::printf("region %d: %d reconfigurations, %d escape replans, "
                  "%lld crashes, %lld recoveries in %d ticks\n",
                  r, loop.reconfigurations, loop.escape_hatch_replans,
                  shard.slot().crashes(), shard.slot().recoveries(), kSamples);
      t.first.push_back(res);
    } else {
      t.identical = t.identical &&
                    res.fingerprint == t.first[static_cast<std::size_t>(r)].fingerprint;
    }
  }
}

/// Aggregates solo loop runs.
struct SoloTally {
  std::vector<double> tick_s;
  std::vector<double> reconfig_tick_cpu_s;
  std::vector<double> apply_s;
  std::vector<double> recover_s;
  double policy_s = 0.0;
  long long runs = 0;
  long long commands = 0;
  long long escapes = 0;
  long long journal_records = 0;
  bool matches_fleet = true;  ///< same final state and tallies as the shard

  void add(const LoopRun& run, const fleet::RegionRunResult& shard) {
    tick_s.insert(tick_s.end(), run.tick_s.begin(), run.tick_s.end());
    reconfig_tick_cpu_s.insert(reconfig_tick_cpu_s.end(),
                               run.reconfig_tick_cpu_s.begin(),
                               run.reconfig_tick_cpu_s.end());
    apply_s.insert(apply_s.end(), run.apply_s.begin(), run.apply_s.end());
    recover_s.insert(recover_s.end(), run.recover_s.begin(),
                     run.recover_s.end());
    policy_s += run.policy_s;
    commands += run.commands;
    escapes += run.result.escape_hatch_replans;
    journal_records += run.journal_records;
    ++runs;
    matches_fleet = matches_fleet && run.audit_clean &&
                    run.state_hash == trace_state_hash(shard.trace) &&
                    run.result.reconfigurations == shard.loop.reconfigurations &&
                    run.result.escape_hatch_replans ==
                        shard.loop.escape_hatch_replans &&
                    run.result.samples == shard.loop.samples;
  }
  [[nodiscard]] double per_run(double v) const {
    return runs > 0 ? v / static_cast<double>(runs) : 0.0;
  }
};

}  // namespace

void run_fleet_loop(const Options& opt, Report& report, SpanLog& spans) {
  const fleet::FleetParams params = loop_fleet(opt.seed);
  std::printf("fleet: %d regions x %d samples, seed %llu, chaos period %lld, "
              "crash every %lld commands, async command plane\n",
              params.regions, kSamples,
              static_cast<unsigned long long>(params.base_seed),
              params.base.chaos_duct_period,
              params.base.supervisor.crash_every_cmds);

  // ---- set-up: build every region's world, several times (median) ----
  std::vector<double> setup_s;
  for (int i = 0; i < 101; ++i) {
    const double t0 = now_s();
    for (int r = 0; r < params.regions; ++r) SoloRegion world(params, r, nullptr);
    setup_s.push_back(now_s() - t0);
  }

  // ---- measure: fleet runs alternating with untraced solo loops ----
  FleetTally fleet_t;
  SoloTally solo;
  const double window = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  const double until = now_s() + window;
  for (int i = 0; now_s() < until || fleet_t.first.empty(); ++i) {
    fleet_run(params, fleet_t);
    const int r = i % params.regions;
    SoloRegion region(params, r, nullptr);
    solo.add(region.run(true), fleet_t.first[static_cast<std::size_t>(r)]);
  }
  report.count(fleet_t.attempted, fleet_t.failed);
  const double untraced_tick_us = mean(solo.tick_s) * 1e6;
  std::printf("fleet runs %zu, solo loop runs %lld (%zu ticks, %zu reconfiguring); "
              "failed ticks "
              "%lld of %lld, error rate %.6f\n",
              fleet_t.ticks_per_s.size(), solo.runs, solo.tick_s.size(),
              solo.reconfig_tick_cpu_s.size(),
              fleet_t.failed, fleet_t.attempted,
              static_cast<double>(fleet_t.failed) /
                  static_cast<double>(fleet_t.attempted));

  // ---- checks ----
  bool solo_identical = true;
  for (int r = 0; r < params.regions; ++r) {
    const fleet::RegionRunResult ref = fleet::run_region_solo(params, r);
    solo_identical = solo_identical &&
                     ref.fingerprint ==
                         fleet_t.first[static_cast<std::size_t>(r)].fingerprint;
  }
  report.check(solo_identical && fleet_t.identical,
               "every fleet region trace equals fleet::run_region_solo");
  report.check(fleet_t.guards_ok,
               "no shard error, audits clean, every region reconfigured and "
               "crashed on fewer than half its ticks");
  report.check(fleet_t.escapes > 0, "the escape hatch replanned");
  report.check(solo.matches_fleet,
               "benchmark-thread loops end in the shard's state");

  if (!opt.trace) {
    // Latency per reconfiguration tick: quiet ticks only observe demand.
    // Timed in thread CPU time: the tick runs start to end on this thread
    // and the command plane waits on virtual time only, so wall time would
    // add just the time a shared host kept the thread off its core. That
    // swung the p99 by up to 2x between runs of the same code.
    std::vector<double> tick_ms;
    for (const double s : solo.reconfig_tick_cpu_s) tick_ms.push_back(s * 1e3);
    report.metric("setup_s", quantile(setup_s, 0.5), "s");
    report_latency(report, tick_ms, 0.99);
    report.metric("throughput_ops_s", quantile(fleet_t.ticks_per_s, 0.5), "1/s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  // ---- traced: solo loops untraced, traced with obs on, traced with obs
  // off, in rotation so the three see the same machine conditions. Spans of
  // the first traced run are kept; later runs record and drop theirs. ----
  SoloTally plain;
  SoloTally on;
  SoloTally off;
  const double traced_until = now_s() + opt.seconds / 2.0;
  for (int i = 0; now_s() < traced_until || off.runs == 0; ++i) {
    const int r = (i / 3) % params.regions;
    const fleet::RegionRunResult& shard = fleet_t.first[static_cast<std::size_t>(r)];
    if (i % 3 == 0) {
      SoloRegion region(params, r, nullptr);
      plain.add(region.run(true), shard);
      continue;
    }
    const bool obs_on = i % 3 == 1;
    SpanLog log;
    SoloRegion region(params, r, &log);
    (obs_on ? on : off).add(region.run(obs_on), shard);
    if (spans.size() == 0) spans.absorb(std::move(log));
  }
  report.check(plain.matches_fleet && on.matches_fleet && off.matches_fleet,
               "traced loops (obs on and off) end in the shard's state");
  const auto per = [](double sum, std::size_t n) {
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
  };
  std::vector<double> tick_us;
  for (const double s : on.tick_s) tick_us.push_back(s * 1e6);
  std::vector<double> apply_ms;
  for (const double s : on.apply_s) apply_ms.push_back(s * 1e3);
  report.metric("control.tick_us_p50", quantile(tick_us, 0.50), "us");
  report.metric("control.tick_us_p99", quantile(tick_us, 0.99), "us");
  report.metric("control.policy_us", per(on.policy_s, on.tick_s.size()) * 1e6,
                "us");
  report.metric("control.apply_ms_p50", quantile(apply_ms, 0.50), "ms");
  report.metric("control.apply_ms_p99", quantile(apply_ms, 0.99), "ms");
  report.metric("control.applies",
                on.per_run(static_cast<double>(on.apply_s.size() + on.escapes)),
                "count");
  report.metric("control.escape_replans",
                on.per_run(static_cast<double>(on.escapes)), "count");
  report.metric("control.commands_per_apply",
                per(static_cast<double>(on.commands), on.apply_s.size()),
                "count");
  report.metric("control.journal.records",
                on.per_run(static_cast<double>(on.journal_records)), "count");
  report.metric("control.recover_ms", mean(on.recover_s) * 1e3, "ms");
  report.metric("control.recoveries",
                on.per_run(static_cast<double>(on.recover_s.size())), "count");
  report.metric("control.reconfig_makespan_ms",
                per(fleet_t.makespan_ms, static_cast<std::size_t>(fleet_t.applies)),
                "ms");
  const auto fleet_runs = fleet_t.ticks_per_s.size();
  report.metric("fleet.publish_us",
                quantile(fleet_t.region_tick_us, 0.5) - untraced_tick_us, "us");
  report.metric("fleet.snapshots.published",
                per(static_cast<double>(fleet_t.published), fleet_runs), "count");
  report.metric("fleet.snapshots.books_rebuilt",
                per(static_cast<double>(fleet_t.books_rebuilt), fleet_runs),
                "count");
  const double plain_us = mean(plain.tick_s) * 1e6;
  const double on_us = mean(on.tick_s) * 1e6;
  const double off_us = mean(off.tick_s) * 1e6;
  std::printf("solo tick mean over %lld rotations: untraced %.3f us, traced "
              "obs on %.3f us, traced obs off %.3f us\n",
              off.runs, plain_us, on_us, off_us);
  report.metric("obs.tick_overhead_us", on_us - off_us, "us");
  report.metric("trace.overhead_pct",
                plain_us > 0.0 ? 100.0 * (on_us / plain_us - 1.0) : 0.0, "%");
}

}  // namespace perfbench
