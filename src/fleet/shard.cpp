#include "fleet/shard.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "core/amp_cut.hpp"
#include "core/provision.hpp"
#include "fibermap/generator.hpp"
#include "obs/export.hpp"

namespace iris::fleet {

using control::TrafficMatrix;
using core::DcPair;

namespace {

/// Restart backoff after the k-th consecutive crash: kBackoffBaseS *
/// kBackoffFactor^(k-1), capped at kBackoffMaxS (virtual seconds).
constexpr double kBackoffBaseS = 1.0;
constexpr double kBackoffFactor = 2.0;
constexpr double kBackoffMaxS = 60.0;

}  // namespace

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

RegionConfig derive_region_config(const FleetParams& params, int region) {
  if (region < 0 || region >= params.regions) {
    throw std::invalid_argument("derive_region_config: region out of range");
  }
  RegionConfig cfg = params.base;
  // Decorrelate the worlds: distinct map seeds, demand salts and fault
  // streams per region, all pure functions of (base_seed, region).
  const auto r = static_cast<std::uint64_t>(region);
  cfg.region_seed = params.base_seed + 7919ULL * r;
  cfg.faults.seed = params.base.faults.seed ^ (0x9e3779b97f4a7c15ULL * (r + 1));
  return cfg;
}

TrafficMatrix fleet_demand(const fibermap::FiberMap& map, std::uint64_t seed,
                           double t) {
  TrafficMatrix tm;
  const auto& dcs = map.dcs();
  const auto tick = static_cast<long long>(t);
  const auto salt = static_cast<long long>(seed % 7);
  // Ring demand with a slow three-phase wobble (same family as the chaos
  // soak's): sized so the policy's headroom usually fits the hose, while
  // the shifts still force periodic reconfigurations.
  for (std::size_t i = 0; i + 1 < dcs.size(); ++i) {
    const auto li = static_cast<long long>(i);
    const long long base = 30 + 10 * ((li + salt) % 3);
    const long long wobble = 40 * ((tick / 30 + li + salt) % 3);
    tm[DcPair(dcs[i], dcs[i + 1])] = base + wobble;
  }
  return tm;
}

RegionShard::RegionShard(int region, RegionConfig cfg)
    : region_(region), cfg_(std::move(cfg)) {}

RegionShard::~RegionShard() = default;

void RegionShard::build() {
  if (cfg_.supervisor.crash_every_cmds > 0) {
    // The supervisor owns the crash schedule; surface it to the injector
    // before the device layer (and its injector) is constructed, so the
    // first crash arms at world build time.
    cfg_.faults.crash_after_commands = cfg_.supervisor.crash_every_cmds;
  }
  fibermap::RegionParams rp;
  rp.seed = cfg_.region_seed;
  rp.dc_count = cfg_.dc_count;
  rp.hut_count = cfg_.hut_count;
  rp.capacity_fibers = cfg_.capacity_fibers;
  map_ = std::make_shared<const fibermap::FiberMap>(
      fibermap::generate_region(rp));
  network_ = std::make_shared<const core::ProvisionedNetwork>(
      core::provision(*map_, cfg_.planner));
  amp_cut_ = std::make_shared<const core::AmpCutPlan>(
      core::place_amplifiers_and_cutthroughs(*map_, *network_));
  devices_ = std::make_unique<control::DeviceLayer>(*map_, *network_,
                                                    *amp_cut_, cfg_.faults);
  controller_ = std::make_unique<control::IrisController>(
      *map_, *network_, *amp_cut_, *devices_);
  controller_->set_command_plane(cfg_.command_plane);
  if (supervised()) {
    // The journal lives in the shard -- outside the controller, like the
    // devices -- so it survives controller death and seeds recover().
    journal_ = std::make_unique<control::IntentJournal>();
    controller_->attach_journal(journal_.get());
  }
  policy_ = std::make_unique<control::ReconfigPolicy>(cfg_.policy);
  if (cfg_.chaos_duct_period > 0) {
    chaos_victim_ = static_cast<graph::EdgeId>(
        cfg_.region_seed %
        static_cast<std::uint64_t>(map_->graph().edge_count()));
  }
}

void RegionShard::scripted_chaos() {
  if (cfg_.chaos_duct_period <= 0) return;
  const long long phase = chaos_calls_++ % cfg_.chaos_duct_period;
  if (phase == cfg_.chaos_duct_period / 3 && !chaos_down_) {
    controller_->fail_duct(chaos_victim_);
    chaos_down_ = true;
  } else if (phase == (2 * cfg_.chaos_duct_period) / 3 && chaos_down_) {
    controller_->restore_duct(chaos_victim_);
    chaos_down_ = false;
  }
}

void RegionShard::publish(long long tick, double t_s) {
  auto& reg = obs::registry();  // the shard registry while run() is bound
  if (suppress_publishes_ > 0) {
    // Post-recovery hold: the region runs but keeps serving the last-good
    // snapshot, so readers see a bounded, tagged staleness window instead
    // of a half-warm controller.
    --suppress_publishes_;
    slot_.count_publish_suppressed();
    reg.add("fleet.supervisor.publishes_suppressed");
    return;
  }
  const std::uint64_t v = controller_->state_version();
  std::shared_ptr<const control::ControllerCheckpoint> books;
  if (last_books_ != nullptr && v == last_version_) {
    // Quiet tick: nothing moved since the last publish, so the previous
    // books are still the truth -- share them instead of re-copying.
    books = last_books_;
    reg.add("fleet.snapshots.books_reused");
  } else {
    books = std::make_shared<const control::ControllerCheckpoint>(
        controller_->snapshot());
    last_books_ = books;
    last_version_ = v;
    reg.add("fleet.snapshots.books_rebuilt");
  }
  auto snap = std::make_unique<RegionSnapshot>();
  snap->region = region_;
  snap->tick = tick;
  snap->t_s = t_s;
  snap->version = v;
  snap->map = map_;
  snap->network = network_;
  snap->amp_cut = amp_cut_;
  snap->books = std::move(books);
  store_.publish(std::move(snap));
  reg.add("fleet.snapshots.published");
  if (supervised()) {
    // A real publish means a full tick committed and went out: the crash
    // streak is over, and a held region is warm again.
    consecutive_crashes_ = 0;
    if (slot_.health() == RegionHealth::kRecovering) {
      slot_.set_health(RegionHealth::kHealthy);
    }
  }
}

const RegionRunResult& RegionShard::run() {
  if (ran_) throw std::logic_error("RegionShard::run: already ran");
  // The whole build + run records into the shard's private registry: every
  // series below is a pure function of the config, whatever other shards
  // (or query workers) are doing on their own threads.
  const obs::ScopedRegistry bind(registry_);
  build();
  control::ClosedLoopParams loop = cfg_.loop;
  loop.on_tick = [this](long long tick, double t_s) { publish(tick, t_s); };
  const control::DemandAt demand = [this](double t) {
    // The demand callback runs at the top of every sample: the one place a
    // shard may mutate its own controller outside an apply, so the head
    // declaration and the scripted chaos ride it (deterministically -- one
    // call per sample attempt).
    store_.begin_tick(demand_calls_++);
    scripted_chaos();
    return fleet_demand(*map_, cfg_.region_seed, t);
  };
  if (supervised()) {
    run_supervised(loop, demand);
  } else {
    result_.loop =
        control::run_closed_loop(*controller_, *policy_, demand, loop);
  }
  result_.health = slot_.health();
  result_.audit_clean = controller_->audit_report().clean();
  make_trace();
  ran_ = true;
  return result_;
}

void RegionShard::run_supervised(const control::ClosedLoopParams& loop,
                                 const control::DemandAt& demand) {
  control::LoopCursor cursor;
  for (;;) {
    try {
      control::run_closed_loop(*controller_, *policy_, demand, loop, cursor);
      result_.loop = cursor.result;
      return;
    } catch (const control::ControllerCrash&) {
      // The injected (or organic) controller death. The cursor pins the
      // crashed sample; contain_crash recovers in place. When recovery
      // resolved an in-flight apply (rolled it forward, or back when its
      // target was infeasible) the crashed sample is COMPLETE -- re-running
      // it would re-observe the demand into the policy EWMA and re-diff a
      // shifted target against the recovered state, reconfiguring (and
      // crashing) forever. So the cursor advances to the next tick; only a
      // crash outside any apply re-runs its sample. Both paths are pure
      // functions of the crash schedule, hence bit-identical across runs.
      const Containment c = contain_crash(cursor.next_t);
      if (c == Containment::kQuarantined) break;
      if (c == Containment::kTickComplete) {
        cursor.next_t += loop.sample_interval_s;
      }
    } catch (const std::logic_error&) {
      throw;  // caller bug (bad params, spent cursor): not containable
    } catch (const std::exception&) {
      // Organic failure inside the tick (planner, policy, device model):
      // same containment path -- the journal decides whether the tick's
      // apply was resolved by recovery or must re-run.
      const Containment c = contain_crash(cursor.next_t);
      if (c == Containment::kQuarantined) break;
      if (c == Containment::kTickComplete) {
        cursor.next_t += loop.sample_interval_s;
      }
    }
  }
  result_.loop = cursor.result;  // quarantined: partial result, no tail
}

RegionShard::Containment RegionShard::contain_crash(double t) {
  auto& reg = obs::registry();
  const SupervisorParams& sup = cfg_.supervisor;

  // Counts one crash (initial or during-recovery) against the quarantine
  // window; returns true when the budget is exhausted.
  const auto count_crash_toward_quarantine = [&](bool during_recovery) {
    slot_.count_crash();
    reg.add("fleet.supervisor.crashes");
    if (during_recovery) {
      slot_.count_recovery_retry();
      reg.add("fleet.supervisor.recovery_retries");
    }
    ++consecutive_crashes_;
    crash_times_.push_back(t);
    while (!crash_times_.empty() &&
           crash_times_.front() < t - sup.crash_window_s) {
      crash_times_.pop_front();
    }
    return sup.quarantine_crashes > 0 &&
           static_cast<int>(crash_times_.size()) >= sup.quarantine_crashes;
  };
  const auto quarantine = [&] {
    slot_.set_health(RegionHealth::kQuarantined);
    reg.add("fleet.supervisor.quarantined");
    return Containment::kQuarantined;
  };
  // Deterministic restart backoff: burns VIRTUAL clock time, so it shapes
  // the obs timeline identically on every run and never touches wall time.
  const auto backoff = [&] {
    double s = kBackoffBaseS;
    for (int i = 1; i < consecutive_crashes_ && s < kBackoffMaxS; ++i) {
      s *= kBackoffFactor;
    }
    if (s > kBackoffMaxS) s = kBackoffMaxS;
    reg.advance_virtual(s);
    reg.add_gauge("fleet.supervisor.backoff_s", s);
    slot_.add_backoff(s);
  };

  slot_.set_health(RegionHealth::kCrashed);
  if (count_crash_toward_quarantine(false)) return quarantine();
  backoff();
  slot_.set_health(RegionHealth::kRecovering);

  // Journal-backed in-place recovery (the PR 4 protocol): kill the dead
  // controller, round-trip the journal through its durable text form, and
  // raise a virgin successor over the SURVIVING device layer. recover()
  // itself can crash (arm_during_recovery, or an armed schedule firing on
  // recovery's own commands); each such crash counts toward quarantine and
  // retries after its own backoff.
  bool resolved_apply = false;
  for (;;) {
    controller_.reset();
    *journal_ = control::IntentJournal::from_text(journal_->to_text());
    controller_ = std::make_unique<control::IrisController>(
        *map_, *network_, *amp_cut_, *devices_);
    controller_->set_command_plane(cfg_.command_plane);
    if (sup.arm_during_recovery > 0 && !recovery_crash_armed_) {
      recovery_crash_armed_ = true;  // one-shot test hook
      devices_->fault_injector().arm_crash(sup.arm_during_recovery);
    }
    try {
      const control::RecoveryReport rr = controller_->recover(*journal_);
      resolved_apply = rr.had_in_flight;  // audit_clean gate covers rr.audit
      break;
    } catch (const control::ControllerCrash&) {
      if (count_crash_toward_quarantine(true)) {
        return quarantine();
      }
      backoff();
    }
  }
  slot_.count_recovery();
  reg.add("fleet.supervisor.recoveries");
  reg.add("fleet.supervisor.journal_compacted",
          static_cast<long long>(journal_->compact()));
  if (sup.crash_every_cmds > 0) {
    devices_->fault_injector().arm_crash(sup.crash_every_cmds);
  }
  suppress_publishes_ = sup.recover_hold_ticks;
  // The successor re-numbers state versions; drop the COW bookkeeping so
  // the next real publish rebuilds the books instead of trusting a stale
  // version match.
  last_books_ = nullptr;
  last_version_ = 0;
  return resolved_apply ? Containment::kTickComplete : Containment::kRerunTick;
}

void RegionShard::make_trace() {
  std::string out;
  char buf[192];
  const auto line = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof buf, fmt, args...);
    out += buf;
  };
  const control::ClosedLoopResult& r = result_.loop;
  line("# iris-fleet region trace v1\n");
  line("region %d seed %llu\n", region_,
       static_cast<unsigned long long>(cfg_.region_seed));
  line("samples %d\n", r.samples);
  line("reconfigurations %d\n", r.reconfigurations);
  line("rejected %d\n", r.rejected);
  line("escape_hatch_replans %d\n", r.escape_hatch_replans);
  line("oss_operations %lld\n", r.oss_operations);
  line("rolled_back %d\n", r.rolled_back);
  line("degraded_applies %d\n", r.degraded_applies);
  line("command_retries %lld\n", r.command_retries);
  line("commands_timed_out %lld\n", r.commands_timed_out);
  line("circuit_retries %lld\n", r.circuit_retries);
  line("resources_quarantined %lld\n", r.resources_quarantined);
  line("total_capacity_gap_ms %.6f\n", r.total_capacity_gap_ms);
  line("time_degraded_s %.6f\n", r.time_degraded_s);
  line("last_apply_s %.6f\n", r.last_apply_s);
  line("diverging_pairs_end %d\n", r.diverging_pairs_end);
  line("proposals_suppressed %lld\n", r.proposals_suppressed);
  line("snapshots_published %lld\n",
       registry_.counter("fleet.snapshots.published"));
  line("books_rebuilt %lld\n",
       registry_.counter("fleet.snapshots.books_rebuilt"));
  line("books_reused %lld\n",
       registry_.counter("fleet.snapshots.books_reused"));
  line("controller_version %llu\n",
       static_cast<unsigned long long>(controller_->state_version()));
  // The controller's canonical state fingerprint covers books + device
  // read-back; hashing it pins the final hardware state, not just tallies.
  line("state_fingerprint 0x%016llx\n",
       static_cast<unsigned long long>(
           fnv1a64(controller_->state_fingerprint())));
  if (supervised()) {
    // Supervision block: gated so an unsupervised trace stays byte-identical
    // to pre-supervision builds. Slot values are the authoritative tallies
    // (they survive IRIS_OBS=OFF, where the registry mirrors vanish).
    line("supervisor health %s\n", region_health_name(slot_.health()));
    line("supervisor crashes %lld recoveries %lld retries %lld\n",
         slot_.crashes(), slot_.recoveries(), slot_.recovery_retries());
    line("supervisor backoff_s %.6f suppressed %lld\n",
         slot_.backoff_total_s(), slot_.publishes_suppressed());
    line("supervisor journal_records %lld audit_clean %d\n",
         static_cast<long long>(journal_->size()),
         result_.audit_clean ? 1 : 0);
  }
  out += "-- metrics --\n";
  out += obs::export_text(registry_);
  result_.trace = std::move(out);
  result_.fingerprint = fnv1a64(result_.trace);
}

RegionRunResult run_region_solo(const FleetParams& params, int region) {
  RegionShard shard(region, derive_region_config(params, region));
  return shard.run();
}

}  // namespace iris::fleet
