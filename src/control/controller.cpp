#include "control/controller.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/path_physics.hpp"
#include "graph/shortest_path.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace iris::control {

using graph::EdgeId;
using graph::NodeId;

namespace {

/// Folds one finished (or refused) reconfiguration's accounting into the
/// default registry. Called at the transaction exits rather than per site so
/// the registry and the report can never drift apart.
void fold_apply_metrics(const ReconfigReport& r, std::string_view outcome) {
  auto& reg = obs::registry();
  reg.add(obs::key("controller.applies.total", {{"outcome", outcome}}));
  reg.add("controller.oss.operations", r.oss_operations);
  reg.add("controller.command.retries", r.command_retries);
  reg.add("controller.commands.timed_out", r.commands_timed_out);
  reg.add("controller.circuit.retries", r.circuit_retries);
  reg.add("controller.quarantines.total", r.resources_quarantined);
  reg.add("controller.transceivers.retuned", r.transceivers_retuned);
  reg.add("controller.wavelengths.untuned", r.wavelengths_untuned);
  reg.add_gauge("controller.fault_delay_ms.total", r.fault_delay_ms);
}

std::string_view outcome_name(ApplyOutcome o) {
  switch (o) {
    case ApplyOutcome::kCommitted:
      return "committed";
    case ApplyOutcome::kRolledBack:
      return "rolled_back";
    case ApplyOutcome::kDegraded:
      return "degraded";
  }
  return "unknown";
}

}  // namespace

std::string AuditReport::summary() const {
  if (clean()) return "device audit clean";
  std::ostringstream os;
  os << "device audit: " << total_mismatches() << " mismatch(es); first: "
     << first->detail;
  return os.str();
}

IrisController::IrisController(const fibermap::FiberMap& map,
                               const core::ProvisionedNetwork& network,
                               const core::AmpCutPlan& amp_cut,
                               DeviceLayer& devices, DeviceLatencies latencies)
    : map_(map),
      network_(network),
      amp_cut_(amp_cut),
      latencies_(latencies),
      devices_(devices) {
  init_books();
}

void IrisController::init_books() {
  const graph::Graph& g = map_.graph();
  duct_failed_.assign(g.edge_count(), false);
  const auto leased = leased_fibers_per_duct(map_, network_, amp_cut_);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    ledger_[{ResKind::kFiber, e}] = Pool::all_free(leased[e]);
  }
  for (NodeId n = 0; n < g.node_count(); ++n) {
    ledger_[{ResKind::kAmp, n}] = Pool::all_free(amp_cut_.amps_at_node[n]);
  }
  for (NodeId dc : map_.dcs()) {
    ledger_[{ResKind::kAddDrop, dc}] =
        Pool::all_free(devices_.port_map(dc).add_drop_pairs());
  }
}

// ---- journal plumbing ------------------------------------------------------

void IrisController::jrec(JournalEntry entry) {
  if (journal_ == nullptr) return;
  journal_->append(std::move(entry));
  obs::registry().add("controller.journal.records");
}

IrisController::Allocation IrisController::from_record(
    const Circuit& c, const AllocationRecord& rec) const {
  Allocation a;
  static_cast<AllocationRecord&>(a) = rec;
  a.connects = planned_connects(c, a);
  return a;
}

void IrisController::attach_journal(IntentJournal* journal) {
  journal_ = journal;
  if (journal_ != nullptr) jrec(CheckpointRecord{snapshot()});
}

void IrisController::maybe_checkpoint() {
  if (journal_ != nullptr && applies_completed_ % kCheckpointEvery == 0) {
    jrec(CheckpointRecord{snapshot()});
  }
}

// ---- circuit computation and device commands -------------------------------

long long IrisController::dc_capacity_wavelengths(NodeId dc) const {
  return map_.dc_capacity_wavelengths(
      dc, network_.params.channels.wavelengths_per_fiber);
}

TrafficMatrix IrisController::reroute_demand() const {
  TrafficMatrix tm;
  std::map<NodeId, long long> excess;
  for (const Circuit& c : active_) {
    tm[c.pair] += c.wavelengths;
    excess[c.pair.a] += c.wavelengths;
    excess[c.pair.b] += c.wavelengths;
  }
  for (auto& [dc, waves] : excess) waves -= usable_tx_count(dc);
  for (auto& [pair, waves] : tm) {
    const long long cut = std::clamp(
        std::max(excess.at(pair.a), excess.at(pair.b)), 0LL, waves);
    waves -= cut;
    excess.at(pair.a) -= cut;
    excess.at(pair.b) -= cut;
  }
  std::erase_if(tm, [](const auto& entry) { return entry.second == 0; });
  return tm;
}

long long IrisController::usable_tx_count(NodeId dc) const {
  const auto it = quarantined_txs_.find(dc);
  const long long quarantined =
      it == quarantined_txs_.end() ? 0
                                   : static_cast<long long>(it->second.size());
  return dc_capacity_wavelengths(dc) - quarantined;
}

std::vector<Circuit> IrisController::circuits_for(const TrafficMatrix& tm) const {
  const int lambda = network_.params.channels.wavelengths_per_fiber;
  graph::EdgeMask mask(map_.graph().edge_count());
  for (EdgeId e = 0; e < map_.graph().edge_count(); ++e) {
    if (duct_failed_[e] ||
        map_.graph().edge(e).length_km > network_.params.spec.max_span_km) {
      mask.fail(e);
    }
  }

  std::vector<Circuit> out;
  for (const auto& [pair, waves] : tm) {
    if (waves <= 0) continue;
    auto path = graph::shortest_path(map_.graph(), pair.a, pair.b, mask);
    if (!path) {
      throw std::runtime_error("circuits_for: DC pair disconnected");
    }
    Circuit c;
    c.pair = pair;
    c.route = std::move(*path);
    c.fiber_pairs = static_cast<int>((waves + lambda - 1) / lambda);
    c.wavelengths = waves;
    out.push_back(std::move(c));
  }
  return out;
}

CommandResult IrisController::run_with_retry(
    ReconfigReport& report, const std::function<CommandResult()>& attempt) {
  auto& reg = obs::registry();
  reg.add("controller.commands.total");
  reg.add("controller.commands.attempts");
  const FaultInjector& faults = devices_.fault_injector();
  CommandResult r = attempt();
  if (r.ok() || !faults.enabled()) return r;
  const RetryPolicy& rp = faults.retry();
  double backoff = rp.backoff_base_ms;
  for (int a = 1;; ++a) {
    if (r.status == CommandStatus::kTimeout) {
      ++report.commands_timed_out;
      report.fault_delay_ms += rp.command_timeout_ms;
    }
    if (a >= rp.max_command_attempts) return r;
    ++report.command_retries;
    report.fault_delay_ms += backoff;
    reg.add_gauge("controller.commands.backoff_ms", backoff);
    backoff *= rp.backoff_factor;
    reg.add("controller.commands.attempts");
    r = attempt();
    if (r.ok()) return r;
  }
}

ResKey IrisController::res_for_port(NodeId site, int port) const {
  const auto o = devices_.port_map(site).owner(port);
  using Kind = SitePortMap::PortOwner::Kind;
  switch (o.kind) {
    case Kind::kDuctIn:
    case Kind::kDuctOut:
      return ResKey{ResKind::kFiber, o.duct, o.index};
    case Kind::kAdd:
    case Kind::kDrop:
      return ResKey{ResKind::kAddDrop, site, o.index};
    case Kind::kAmpFeed:
    case Kind::kAmpReturn:
      return ResKey{ResKind::kAmp, site, o.index};
  }
  throw std::logic_error("res_for_port: unmapped port owner");
}

std::optional<std::vector<int>> IrisController::take_healthy_amp_units(
    NodeId site, int count, ReconfigReport& report) {
  FaultInjector& faults = devices_.fault_injector();
  Pool& pool = ledger_.at({ResKind::kAmp, site});
  std::vector<int> taken;
  while (std::ssize(taken) < count && !pool.free.empty()) {
    const int unit = pool.take(1, "amplifier").front();
    const CommandResult check = faults.amp_power_check(site, unit);
    if (faults.enabled()) {
      record_cmd(AmpPowerCheckCmd{site, unit, check.ok()});
    }
    if (check.ok()) {
      taken.push_back(unit);
      continue;
    }
    pool.quarantined.push_back(unit);
    jrec(QuarantineRecord{static_cast<int>(ResKind::kAmp), site, unit});
    ++report.resources_quarantined;
  }
  if (std::ssize(taken) == count) return taken;
  pool.release(taken);
  return std::nullopt;
}

std::vector<IrisController::Connect> IrisController::planned_connects(
    const Circuit& c, const Allocation& alloc) const {
  // Route orientation: nodes[0] is one terminal; "forward" is the direction
  // away from it.
  std::vector<Connect> plan;
  const auto& nodes = c.route.nodes;
  const auto& edges = c.route.edges;
  const auto add = [&](NodeId site, int in, int out) {
    plan.push_back(Connect{site, in, out});
  };
  for (int f = 0; f < c.fiber_pairs; ++f) {
    // Terminal at nodes.front(): mux add -> first duct out; first duct in ->
    // demux drop. The terminal could be pair.a or pair.b depending on how
    // the path was extracted.
    const bool front_is_a = nodes.front() == c.pair.a;
    const auto& front_pairs = front_is_a ? alloc.add_drop_a : alloc.add_drop_b;
    const auto& back_pairs = front_is_a ? alloc.add_drop_b : alloc.add_drop_a;

    const NodeId src = nodes.front();
    const SitePortMap& src_map = devices_.port_map(src);
    add(src, src_map.add_port(front_pairs[f]),
        src_map.duct_out_port(edges.front(), alloc.fibers_per_hop.front()[f]));
    add(src,
        src_map.duct_in_port(edges.front(), alloc.fibers_per_hop.front()[f]),
        src_map.drop_port(front_pairs[f]));

    // Intermediate sites: pass-through, or loopback through an amplifier.
    for (std::size_t h = 1; h + 1 < nodes.size(); ++h) {
      const NodeId site = nodes[h];
      const SitePortMap& site_map = devices_.port_map(site);
      const int in_fiber = alloc.fibers_per_hop[h - 1][f];
      const int out_fiber = alloc.fibers_per_hop[h][f];
      const int fwd_in = site_map.duct_in_port(edges[h - 1], in_fiber);
      const int fwd_out = site_map.duct_out_port(edges[h], out_fiber);
      if (alloc.amp_site && *alloc.amp_site == site) {
        // Loopback: OSS -> amplifier -> OSS -> next duct. Each "amplifier"
        // is a dual-stage unit; its return-direction stage is cabled
        // in-line, so only the forward strand crosses the OSS twice.
        const int unit = alloc.amp_units[f];
        add(site, fwd_in, site_map.amp_feed_port(unit));
        add(site, site_map.amp_return_port(unit), fwd_out);
      } else {
        add(site, fwd_in, fwd_out);
      }
      // Reverse strand: next duct in -> previous duct out.
      add(site, site_map.duct_in_port(edges[h], out_fiber),
          site_map.duct_out_port(edges[h - 1], in_fiber));
    }

    const NodeId dst = nodes.back();
    const SitePortMap& dst_map = devices_.port_map(dst);
    add(dst, dst_map.add_port(back_pairs[f]),
        dst_map.duct_out_port(edges.back(), alloc.fibers_per_hop.back()[f]));
    add(dst,
        dst_map.duct_in_port(edges.back(), alloc.fibers_per_hop.back()[f]),
        dst_map.drop_port(back_pairs[f]));
  }
  return plan;
}

void IrisController::establish(const Circuit& c, Allocation& alloc,
                               ReconfigReport& report) {
  const obs::Span span("establish");
  const graph::Graph& g = map_.graph();
  const auto& spec = network_.params.spec;

  // Fibers on every hop.
  alloc.fibers_per_hop.reserve(c.route.edges.size());
  for (EdgeId e : c.route.edges) {
    alloc.fibers_per_hop.push_back(
        ledger_.at({ResKind::kFiber, e}).take(c.fiber_pairs, "duct fiber"));
  }

  // Does this route need an in-line amplifier? Pick the first feasible site
  // that can supply enough healthy amplifier units (dead units found by the
  // power check are quarantined on the spot).
  const auto bypassed = amp_cut_.bypassed_sites(c.route);
  if (!core::path_feasible(g, c.route, std::nullopt, bypassed, spec)) {
    for (int m : core::feasible_amp_indices(g, c.route, bypassed, spec)) {
      const NodeId site = c.route.nodes[m];
      if (std::ssize(ledger_.at({ResKind::kAmp, site}).free) >= c.fiber_pairs) {
        if (auto units = take_healthy_amp_units(site, c.fiber_pairs, report)) {
          alloc.amp_site = site;
          alloc.amp_units = std::move(*units);
          break;
        }
      }
    }
    if (!alloc.amp_site) {
      throw std::runtime_error(
          "IrisController: no amplifier site available for long route");
    }
  }

  // Add/drop pairs at both terminals.
  alloc.add_drop_a =
      ledger_.at({ResKind::kAddDrop, c.pair.a}).take(c.fiber_pairs, "add/drop");
  alloc.add_drop_b =
      ledger_.at({ResKind::kAddDrop, c.pair.b}).take(c.fiber_pairs, "add/drop");

  // Intent goes durable here: the draws above are pure bookkeeping a
  // successor re-derives from the journal, the cross-connects below are not.
  jrec(EstablishBeginRecord{c, alloc, current_slot_});

  for (const Connect& pc : planned_connects(c, alloc)) {
    const CommandResult r = run_with_retry(report, [&] {
      return devices_.oss(pc.site).connect(pc.in_port, pc.out_port);
    });
    if (!r.ok()) {
      throw DeviceCommandError{pc.site, pc.in_port, pc.out_port, r.detail};
    }
    alloc.connects.push_back(pc);
    record_cmd(OssConnectCmd{pc.site, pc.in_port, pc.out_port});
    ++report.oss_operations;
  }

  jrec(EstablishDoneRecord{c});
}

void IrisController::unwind_allocation(const Circuit& c, Allocation& alloc,
                                       ReconfigReport& report,
                                       std::set<ResKey> culprits) {
  const obs::Span span("teardown");
  jrec(TeardownBeginRecord{c, current_slot_});
  // Tear down the programmed cross-connects, newest first. A disconnect a
  // stuck mirror refuses after all retries leaves a zombie cross-connect:
  // it stays recorded (audits expect it on the device) and the resources
  // whose ports it pins are quarantined so they are never re-issued.
  for (auto it = alloc.connects.rbegin(); it != alloc.connects.rend(); ++it) {
    const CommandResult r = run_with_retry(report, [&] {
      return devices_.oss(it->site).disconnect(it->in_port);
    });
    if (r.ok()) {
      record_cmd(OssDisconnectCmd{it->site, it->in_port});
      ++report.oss_operations;
    } else {
      zombie_connects_.push_back(*it);
      obs::registry().add("controller.zombies.total");
      jrec(ZombieRecord{*it});
      culprits.insert(res_for_port(it->site, it->in_port));
      culprits.insert(res_for_port(it->site, it->out_port));
    }
  }

  const auto release = [&](ResKind kind, int owner,
                           const std::vector<int>& items) {
    std::vector<int> blamed;
    for (const auto& [k, o, idx] : culprits) {
      if (k == kind && o == owner) blamed.push_back(idx);
    }
    for (int idx : ledger_.at({kind, owner}).release(items, blamed)) {
      jrec(QuarantineRecord{static_cast<int>(kind), owner, idx});
      ++report.resources_quarantined;
    }
  };
  for (std::size_t h = 0; h < alloc.fibers_per_hop.size(); ++h) {
    release(ResKind::kFiber, c.route.edges[h], alloc.fibers_per_hop[h]);
  }
  if (alloc.amp_site) release(ResKind::kAmp, *alloc.amp_site, alloc.amp_units);
  release(ResKind::kAddDrop, c.pair.a, alloc.add_drop_a);
  release(ResKind::kAddDrop, c.pair.b, alloc.add_drop_b);
  alloc = Allocation{};
  jrec(TeardownDoneRecord{c});
}

std::optional<std::string> IrisController::try_establish(
    const Circuit& c, Allocation& alloc, ReconfigReport& report) {
  const int max_attempts =
      devices_.fault_injector().retry().max_circuit_attempts;
  std::string last_error;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) ++report.circuit_retries;
    Allocation partial;
    try {
      establish(c, partial, report);
      alloc = std::move(partial);
      return std::nullopt;
    } catch (const DeviceCommandError& e) {
      // A command failed even after retries: quarantine the resources whose
      // ports it touched and try again on fresh ones.
      last_error = e.detail;
      std::set<ResKey> culprits{res_for_port(e.site, e.in_port),
                                res_for_port(e.site, e.out_port)};
      unwind_allocation(c, partial, report, std::move(culprits));
    } catch (const std::runtime_error& e) {
      // Pool exhausted: retrying cannot help.
      unwind_allocation(c, partial, report, {});
      return std::string(e.what());
    }
  }
  return last_error;
}

void IrisController::retune_dcs(ReconfigReport& report) {
  const obs::Span span("retune");
  const int lambda = network_.params.channels.wavelengths_per_fiber;
  const auto lam = static_cast<std::size_t>(lambda);
  auto& all_txs = devices_.all_transceivers();
  // Per DC, in DC order, and per channel: whether a tuned transceiver
  // carries the channel. The emulators are keyed by the same DCs.
  std::vector<char> live(all_txs.size() * lam, 0);
  std::vector<long long> deficit(lam);
  std::vector<int> idle;
  expected_tuned_.clear();
  char* dc_live = live.data();
  for (auto& [dc, txs] : all_txs) {
    // Wavelengths the DC needs per channel: wavelength w rides channel
    // w % lambda.
    std::fill(deficit.begin(), deficit.end(), 0);
    for (const Circuit& c : active_) {
      const int ends = (c.pair.a == dc ? 1 : 0) + (c.pair.b == dc ? 1 : 0);
      if (ends == 0) continue;
      for (int ch = 0; ch < lambda; ++ch) {
        deficit[static_cast<std::size_t>(ch)] +=
            ends * (c.wavelengths / lambda + (ch < c.wavelengths % lambda));
      }
    }
    // The DC's quarantined transceivers, walked in index order beside the
    // transceivers.
    static const std::set<int> kNone;
    const auto q = quarantined_txs_.find(dc);
    const std::set<int>& quarantined =
        q == quarantined_txs_.end() ? kNone : q->second;
    auto q_next = quarantined.begin();
    long long tuned = 0;
    // Diff against the read-back: a transceiver still carrying a needed
    // channel keeps it without a command (so a retune resumed after a crash
    // skips what already finished); every other one goes dark.
    idle.clear();
    for (int idx = 0; idx < std::ssize(txs); ++idx) {
      TunableTransceiver& tx = txs[static_cast<std::size_t>(idx)];
      const bool usable = q_next == quarantined.end() || *q_next != idx;
      if (!usable) ++q_next;
      if (const auto ch = tx.wavelength();
          usable && ch && deficit[static_cast<std::size_t>(*ch)] > 0) {
        --deficit[static_cast<std::size_t>(*ch)];
        dc_live[*ch] = 1;
        ++tuned;
        continue;
      }
      tx.disable();
      if (usable) idle.push_back(idx);
    }
    // The rest of the need goes to the lowest idle transceivers.
    auto next = idle.begin();
    for (int ch = 0; ch < lambda; ++ch) {
      for (long long& left = deficit[static_cast<std::size_t>(ch)]; left > 0;
           --left) {
        bool ok = false;
        while (!ok && next != idle.end()) {
          const int idx = *next++;
          TunableTransceiver& tx = txs[static_cast<std::size_t>(idx)];
          ok = run_with_retry(report, [&tx, ch] { return tx.tune(ch); }).ok();
          if (ok) {
            record_cmd(TuneTransceiverCmd{dc, idx, ch});
            dc_live[ch] = 1;
            ++report.transceivers_retuned;
            ++tuned;
          } else {
            // Permanent tune failure: pull the transceiver from service and
            // carry the wavelength on the next one.
            quarantined_txs_[dc].insert(idx);
            jrec(QuarantineRecord{static_cast<int>(ResKind::kTransceiver), dc,
                                  idx});
            ++report.resources_quarantined;
          }
        }
        if (!ok) ++report.wavelengths_untuned;
      }
    }
    if (tuned > 0) expected_tuned_[dc] = tuned;
    dc_live += lam;
  }
  if (!devices_.fault_injector().enabled() && report.wavelengths_untuned > 0) {
    throw std::logic_error("transceiver pool exhausted despite admission");
  }
  // Rewrite an emulator only when its live set changed; the fill command is
  // recorded either way.
  dc_live = live.data();
  for (auto& [dc, emulator] : devices_.emulators()) {
    const std::set<int>& now = emulator.live_channels();
    const auto count =
        static_cast<std::size_t>(std::count(dc_live, dc_live + lam, char{1}));
    if (now.size() != count ||
        !std::all_of(now.begin(), now.end(),
                     [&](int ch) { return dc_live[ch] != 0; })) {
      std::set<int> next;
      for (int ch = 0; ch < lambda; ++ch) {
        if (dc_live[ch] != 0) next.insert(next.end(), ch);
      }
      emulator.set_live_channels(std::move(next));
    }
    record_cmd(SetAseFillCmd{dc, static_cast<int>(count)});
    dc_live += lam;
  }
}

void IrisController::record_cmd(const DeviceCommand& cmd) {
  trace_.push_back(cmd);
  if (plane_ != nullptr) {
    plane_->on_command(cmd);
    if (plane_->async()) obs::registry().add("controller.commands.batched");
  }
}

// ---- the transaction engine ------------------------------------------------

/// One reconfiguration: the pre-apply books split against the target into
/// kept circuits and plan ops in serial plan order. An apply builds it from
/// the live books, recover() from the journal and the hardware read-back;
/// execute() drives either forward, or through compensate() back.
struct IrisController::Transaction {
  enum class State { kPending, kBegun, kDone };
  struct Op {
    bool teardown = false;
    Circuit circuit;  ///< teardown: pre-apply circuit; establish: target
    State state = State::kPending;
    /// Teardown: the live allocation until done. Establish: the resources
    /// drawn once begun (still held while pending: an unwind was cut short).
    std::optional<Allocation> alloc;
    bool issued = false;   ///< established by this transaction, not adopted
    std::size_t book = 0;  ///< teardown: index in the pre-apply books
  };
  struct Kept {
    Circuit circuit;  ///< pre-apply wavelengths
    long long target_waves = 0;
    Allocation alloc;
    std::size_t book = 0;
  };

  Transaction(IrisController& owner, CommandPlaneMode mode, ReconfigReport& rep)
      : ctl(owner),
        report(rep),
        plane(mode, CommandCosts{owner.latencies_.oss_switch_ms,
                                 owner.latencies_.transceiver_tune_ms,
                                 owner.latencies_.amplifier_settle_ms}) {
    ctl.plane_ = &plane;
  }
  // Also runs when a crash or a refusal unwinds through the transaction.
  ~Transaction() {
    ctl.plane_ = nullptr;
    ctl.current_slot_ = -1;
    ctl.devices_.fault_injector().set_schedule_slot(-1);
  }
  Transaction(const Transaction&) = delete;  // the live plane_ points here

  /// Matches each book circuit to its pair's target entry once: matches are
  /// kept, the rest torn down (book order), unmatched target entries set up
  /// (target order). The books stay intact until open().
  void split(const std::vector<Circuit>& target) {
    std::map<core::DcPair, std::size_t> by_pair;
    for (std::size_t j = 0; j < target.size(); ++j) {
      by_pair.emplace(target[j].pair, j);
    }
    std::vector<char> matched(target.size(), 0);
    for (std::size_t i = 0; i < ctl.active_.size(); ++i) {
      const Circuit& c = ctl.active_[i];
      const auto it = by_pair.find(c.pair);
      if (it != by_pair.end() && target[it->second] == c) {
        matched[it->second] = 1;
        kept.push_back({c, target[it->second].wavelengths, {}, i});
        continue;
      }
      ops.push_back({true, c, State::kPending, {}, false, i});
      report.torn_down.push_back(c);
      max_switch_sites = std::max(max_switch_sites,
                                  static_cast<int>(c.route.nodes.size()) - 2);
    }
    for (std::size_t j = 0; j < target.size(); ++j) {
      if (matched[j]) continue;
      ops.push_back({false, target[j], State::kPending, {}, false, 0});
      report.set_up.push_back(target[j]);
    }
  }

  /// Fixes the plan order (drain-first tears down first, make-before-break
  /// sets up first), takes the allocations out of the books and plans the
  /// schedule. The serial plane reproduces the plan order exactly; the
  /// async plane keeps every conflicting pair's relative order, so pool
  /// draws, and therefore the final state, match serial.
  void open(bool make_before_break) {
    make_first = make_before_break;
    if (make_first) {
      std::rotate(ops.begin(), ops.begin() + std::ssize(report.torn_down),
                  ops.end());
    }
    for (Kept& k : kept) k.alloc = std::move(ctl.allocations_[k.book]);
    for (Op& op : ops) {
      if (op.teardown) op.alloc = std::move(ctl.allocations_[op.book]);
    }
    ctl.active_.clear();
    ctl.allocations_.clear();

    const graph::Graph& g = ctl.map_.graph();
    const auto& spec = ctl.network_.params.spec;
    std::vector<CommandOp> footprints;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Circuit& c = ops[i].circuit;
      CommandOp f{ops[i].teardown, i, c.route.edges, c.pair.a, c.pair.b, {}};
      if (f.teardown) {
        const auto site = ops[i].alloc->amp_site;
        if (site) f.amp_sites.push_back(*site);
      } else if (const auto bypassed = ctl.amp_cut_.bypassed_sites(c.route);
                 !core::path_feasible(g, c.route, std::nullopt, bypassed,
                                      spec)) {
        // The establish may draw an amplifier at any feasible site, so
        // every candidate belongs to its conflict footprint.
        for (int m : core::feasible_amp_indices(g, c.route, bypassed, spec)) {
          f.amp_sites.push_back(c.route.nodes[m]);
        }
      }
      footprints.push_back(std::move(f));
    }
    plane.plan(std::move(footprints), make_first);
  }

  /// Folds an interrupted apply's journaled ops onto the plan; per circuit
  /// the last record wins. Compensation re-establishes only circuits whose
  /// teardown finished, so a torn circuit with any record has begun its
  /// teardown.
  void fold(const std::vector<IntentJournal::PendingOp>& journaled) {
    std::multimap<core::DcPair, std::size_t> by_pair;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      by_pair.emplace(ops[i].circuit.pair, i);
    }
    std::vector<char> seen(ops.size(), 0);
    for (const IntentJournal::PendingOp& p : journaled) {
      auto [it, end] = by_pair.equal_range(p.circuit.pair);
      while (it != end && !(ops[it->second].circuit == p.circuit)) ++it;
      if (it == end) continue;  // kept circuits carry no plan op
      const std::size_t i = it->second;
      if (!std::exchange(seen[i], 1)) established.push_back(i);
      Op& op = ops[i];
      if (!p.teardown) {
        op.alloc = ctl.from_record(p.circuit, *p.alloc);
        op.state = p.done && !op.teardown ? State::kDone : State::kBegun;
      } else if (p.done) {
        op.alloc.reset();
        op.state = op.teardown ? State::kDone : State::kPending;
      } else {
        op.state = op.teardown ? State::kBegun : State::kPending;
      }
    }
    // Keep the establishes finished before the crash, in the order their
    // circuits first appear in the journal.
    std::erase_if(established, [&](std::size_t i) {
      return ops[i].teardown || ops[i].state != State::kDone;
    });
  }

  /// Runs every op not yet done in schedule order, then ends the apply:
  /// refused if it failed before any device changed, else compensated or
  /// rolled forward.
  ApplyOutcome execute() {
    // Resources an unwind still held at the crash go back first.
    for (Op& op : ops) {
      if (op.teardown || op.state != State::kPending || !op.alloc) continue;
      unwind(op, {});
      ++rr->completed_teardowns;
    }
    FaultInjector& faults = ctl.devices_.fault_injector();
    for (const std::size_t oi : plane.order()) {
      Op& op = ops[oi];
      if (op.state == State::kDone) continue;
      if (op.teardown && make_first) {
        if (rolls_back()) break;  // the old generation is still whole
        cutover();
      }
      ctl.current_slot_ = plane.async() ? plane.slot_of(oi) : -1;
      faults.set_schedule_slot(ctl.current_slot_);
      plane.begin_op(oi);
      const double delay_before = report.fault_delay_ms;
      if (op.teardown) {
        touched = true;
        unwind(op, {});
        op.state = State::kDone;
        if (rr) ++rr->completed_teardowns;
      } else if (establish(op)) {
        op.state = State::kDone;
        op.issued = true;  // established here, so not adopted
        established.push_back(oi);
      }
      const double op_delay = report.fault_delay_ms - delay_before;
      charged_delay += op_delay;
      plane.end_op(oi, op_delay);
      ctl.current_slot_ = -1;
      faults.set_schedule_slot(-1);
      // An apply stops at its first failed establish; a resumed one tries
      // every remaining op before it decides.
      if (error && !rr) break;
    }
    plane.begin_tail();  // rollback/retune commands start after the schedule

    if (error && !touched && !rr) {
      // Nothing on a device changed: refuse the apply with the books
      // restored, journaling the terminal record before the throw so replay
      // never sees an open transaction for it.
      compensate();
      finish(false);
      fold_apply_metrics(report, "refused");
      throw std::runtime_error(*error);
    }
    if (rolls_back()) {
      compensate();
    } else if (make_first) {
      // Hitless: the replacements lit, traffic moved, the old generation
      // drained and tore down on the schedule.
      cutover();
      report.hitless = true;
    }
    return finish(true);
  }

  /// Charges the drain window to the report and the capacity-gap clock and
  /// floors the plane so nothing issued later starts inside it.
  void drain(const char* what) {
    report.drain_ms = ctl.latencies_.drain_window_ms;
    clock += report.drain_ms;
    report.timeline.push_back(
        {clock, "drained " + std::to_string(report.torn_down.size()) + what});
    plane.add_floor(report.drain_ms);
  }

  IrisController& ctl;
  ReconfigReport& report;
  RecoveryReport* rr = nullptr;  ///< set when resuming a crashed apply
  CommandPlane plane;
  std::uint64_t seq = 0;
  bool make_first = false;  ///< effective strategy is make-before-break
  std::vector<Kept> kept;
  std::vector<Op> ops;                   ///< serial plan order
  std::vector<std::size_t> established;  ///< establish ops, completion order
  std::optional<std::string> error;      ///< an establish failed for good
  bool touched = false;  ///< a device changed: refusing is no longer possible
  bool cut_over = false;
  bool rolled_back = false;
  double clock = 0.0;  ///< capacity-gap timeline
  double charged_delay = 0.0;
  int max_switch_sites = 0;  ///< deepest torn or established route
  int adopted = 0;  ///< booked circuits this transaction did not establish

 private:
  /// Establishes an op's circuit; false when it failed for good.
  bool establish(Op& op) {
    if (op.state == State::kBegun) {
      // Half-programmed before the crash: finish it in place, or unwind it
      // and set it up fresh below.
      try {
        ctl.repair_connects(*op.alloc, report, *rr);
        ctl.jrec(EstablishDoneRecord{op.circuit});
        ++rr->finished_establishes;
        return true;
      } catch (const DeviceCommandError& e) {
        unwind(op, {ctl.res_for_port(e.site, e.in_port),
                    ctl.res_for_port(e.site, e.out_port)});
        op.state = State::kPending;
      }
    }
    const long long ops_before = report.oss_operations;
    Allocation alloc;
    auto failure = ctl.try_establish(op.circuit, alloc, report);
    if (report.oss_operations != ops_before) touched = true;
    if (failure) {
      error = std::move(failure);
      return false;
    }
    op.alloc = std::move(alloc);
    if (rr) ++rr->reissued_establishes;
    max_switch_sites = std::max(
        max_switch_sites, static_cast<int>(op.circuit.route.nodes.size()) - 2);
    return true;
  }

  /// Tears an op's allocation down. After a crash the journaled allocation
  /// is intent, not hardware truth: only connects the OSS read-back confirms
  /// are disconnected, and those a zombie holds make their resources
  /// culprits instead.
  void unwind(Op& op, std::set<ResKey> culprits) {
    Allocation& a = *op.alloc;
    if (rr) {
      const auto& zombies = ctl.zombie_connects_;
      std::erase_if(a.connects, [&](const Connect& k) {
        if (std::find(zombies.begin(), zombies.end(), k) != zombies.end()) {
          culprits.insert(ctl.res_for_port(k.site, k.in_port));
          culprits.insert(ctl.res_for_port(k.site, k.out_port));
          return true;
        }
        const auto out = ctl.devices_.oss(k.site).output_for(k.in_port);
        return !out || *out != k.out_port;
      });
    }
    ctl.unwind_allocation(op.circuit, a, report, std::move(culprits));
    op.alloc.reset();
  }

  /// An establish failed and the pre-apply set is still restorable: always
  /// under drain-first, under make-before-break only while no teardown has
  /// begun.
  [[nodiscard]] bool rolls_back() const {
    return error && !(make_first &&
                      std::any_of(ops.begin(), ops.end(), [](const Op& op) {
                        return op.teardown && op.state != State::kPending;
                      }));
  }

  /// Make-before-break moves traffic to the replacement generation once,
  /// right before the first teardown (the plan's generation barrier).
  void cutover() {
    if (std::exchange(cut_over, true)) return;
    report.timeline.push_back({clock, "replacement circuits lit"});
    if (!report.torn_down.empty()) drain(" old circuit(s)");
  }

  /// Restores the pre-apply circuit set: unwinds the established target
  /// circuits, then re-establishes the torn ones whose teardown ran. What
  /// cannot be restored is lost and the apply is degraded.
  void compensate() {
    for (const Op& op : ops) {
      if (!op.teardown && op.state != State::kDone) {
        report.not_established.push_back(op.circuit);
      }
    }
    if (!make_first) {
      report.timeline.push_back(
          {clock, "apply failed: rolling back to pre-apply circuit set"});
    }
    for (const std::size_t oi : established) {
      unwind(ops[oi], {});
      ops[oi].state = State::kPending;
    }
    established.clear();
    for (Op& op : ops) {
      if (!op.teardown || op.state == State::kPending) continue;
      Allocation alloc;
      if (ctl.try_establish(op.circuit, alloc, report)) {
        report.lost_circuits.push_back(op.circuit);
        continue;
      }
      op.alloc = std::move(alloc);
      op.state = State::kPending;
      op.issued = true;
      if (rr) ++rr->reissued_establishes;
    }
    rolled_back = true;
    if (make_first) {
      report.hitless = true;  // the old generation never stopped carrying
      report.timeline.push_back(
          {clock, "apply failed: replacement generation torn back down"});
    } else if (report.lost_circuits.empty()) {
      report.timeline.push_back({clock, "pre-apply circuit set restored"});
    } else {
      report.timeline.push_back(
          {clock, "DEGRADED: " + std::to_string(report.lost_circuits.size()) +
                      " circuit(s) lost"});
    }
  }

  /// Rebuilds the books -- kept circuits in pre-apply order, then the
  /// restored torn circuits after a rollback, else the new circuits in
  /// completion order (plan order once resumed: its completions straddle
  /// the crash) -- retunes unless refused, and journals the terminal
  /// record. An untuned wavelength degrades a roll-forward, not a rollback.
  ApplyOutcome finish(bool retune) {
    const auto book = [&](Circuit c, Allocation& alloc, bool issued) {
      ctl.active_.push_back(std::move(c));
      ctl.allocations_.push_back(std::move(alloc));
      if (!issued) ++adopted;
    };
    for (Kept& k : kept) {
      Circuit c = k.circuit;
      if (!rolled_back) c.wavelengths = k.target_waves;
      book(std::move(c), k.alloc, false);
    }
    if (rolled_back) {
      for (Op& op : ops) {
        if (op.teardown && op.alloc) book(op.circuit, *op.alloc, op.issued);
      }
    } else {
      if (rr) std::sort(established.begin(), established.end());
      for (const std::size_t oi : established) {
        book(ops[oi].circuit, *ops[oi].alloc, ops[oi].issued);
      }
    }
    if (retune) ctl.retune_dcs(report);
    if (rolled_back) {
      report.outcome = report.lost_circuits.empty() ? ApplyOutcome::kRolledBack
                                                    : ApplyOutcome::kDegraded;
    } else if (error || report.wavelengths_untuned > 0) {
      report.outcome = ApplyOutcome::kDegraded;
    }
    ctl.jrec(ApplyEndRecord{seq, static_cast<int>(report.outcome), ctl.active_,
                            ctl.expected_tuned_});
    ++ctl.applies_completed_;
    return report.outcome;
  }
};

ReconfigReport IrisController::apply_traffic_matrix(const TrafficMatrix& tm,
                                                   ReconfigStrategy strategy) {
  const obs::Span apply_span("controller.apply");
  ++state_version_;  // pessimistic: even a rejected apply invalidates caches
  // Hose-capacity admission check (OC2) before touching any device. The
  // usable transceiver count shrinks as units are quarantined.
  std::map<NodeId, long long> per_dc;
  for (const auto& [pair, waves] : tm) {
    per_dc[pair.a] += waves;
    per_dc[pair.b] += waves;
  }
  for (const auto& [dc, waves] : per_dc) {
    if (waves > usable_tx_count(dc)) {
      throw std::runtime_error(
          "apply_traffic_matrix: demand exceeds hose capacity of " +
          map_.site(dc).name);
    }
  }

  const std::vector<Circuit> target = circuits_for(tm);
  ReconfigReport report;
  trace_.clear();
  Transaction tx(*this, plane_mode_, report);
  tx.split(target);

  // Admission pre-check for new circuits: fibers free after teardown (the
  // free pools already exclude quarantined fiber). Make-before-break is
  // possible only if the spare pool can hold both circuit generations on
  // every duct at once; otherwise it falls back to the drain-first workflow.
  const EdgeId edges = map_.graph().edge_count();
  std::vector<long long> demand(edges, 0);
  std::vector<long long> freed(edges, 0);
  for (const Circuit& c : report.set_up) {
    for (EdgeId e : c.route.edges) demand[e] += c.fiber_pairs;
  }
  for (const Circuit& c : report.torn_down) {
    for (EdgeId e : c.route.edges) freed[e] += c.fiber_pairs;
  }
  bool make_first =
      strategy == ReconfigStrategy::kMakeBeforeBreak && !report.set_up.empty();
  for (EdgeId e = 0; e < edges; ++e) {
    const auto spare = std::ssize(ledger_.at({ResKind::kFiber, e}).free);
    if (demand[e] > spare + freed[e]) {
      throw std::runtime_error("apply_traffic_matrix: duct " +
                               std::to_string(e) + " fiber lease exhausted");
    }
    if (demand[e] > 0 && duct_failed_[e]) {
      throw std::runtime_error("apply_traffic_matrix: route crosses failed duct");
    }
    if (demand[e] > spare) make_first = false;
  }

  tx.open(make_first);  // all pre-device validation passed
  report.schedule_slots = tx.plane.async() ? tx.plane.slot_count() : 0;

  // The transaction opens. The effective strategy (after the fallback
  // decision) is recorded so a recovering successor re-derives the same
  // teardown/establish order; the slot count pins the async schedule shape.
  tx.seq = applies_completed_;
  jrec(BeginApplyRecord{
      tx.seq,
      static_cast<int>(make_first ? ReconfigStrategy::kMakeBeforeBreak
                                  : ReconfigStrategy::kBreakBeforeMake),
      target, report.schedule_slots});
  if (!make_first && !report.torn_down.empty()) {
    tx.drain(" circuit(s)");  // drain, tear down, set up -- in that order
  }
  tx.execute();

  double& clock = tx.clock;
  const bool changed = !report.set_up.empty() || !report.torn_down.empty();
  if (changed) {
    // All OSSes at one site switch in parallel; sites along a path settle in
    // sequence, so the capacity gap grows with the deepest changed route
    // (~50 ms via one hut, ~70 ms via two; SS6.2).
    report.switch_ms =
        latencies_.oss_switch_ms * std::max(1, tx.max_switch_sites);
    report.recovery_ms = latencies_.signal_recovery_ms;
    clock += report.switch_ms;
    report.timeline.push_back({clock, "OSS cross-connects applied"});
    clock += report.recovery_ms;
    report.timeline.push_back({clock, "receivers relocked"});
  }
  if (report.resources_quarantined > 0) {
    report.timeline.push_back(
        {clock, "quarantined " + std::to_string(report.resources_quarantined) +
                    " failing resource(s)"});
  }
  report.verified = audit_devices();
  report.total_ms = clock + report.fault_delay_ms;

  // Command-plane makespan: drain windows, every issued device command on
  // its queue, retry backoff charged to the schedule, fault delay incurred
  // outside scheduled ops (rollback, retunes), and the receiver-relock tail.
  // total_ms stays the capacity-gap model; this is the end-to-end wall time
  // the async plane is measured on. The virtual-clock advance makes the
  // controller.apply span report the same duration.
  tx.plane.add_floor(std::max(0.0, report.fault_delay_ms - tx.charged_delay));
  report.makespan_ms =
      tx.plane.horizon_ms() + (changed ? latencies_.signal_recovery_ms : 0.0);
  obs::registry().advance_virtual(report.makespan_ms / 1000.0);

  maybe_checkpoint();
  fold_apply_metrics(report, outcome_name(report.outcome));
  return report;
}

AuditReport IrisController::audit_report() const {
  AuditReport rep;
  using Kind = AuditReport::Kind;
  const auto note = [&](Kind kind, NodeId site, int port, EdgeId duct,
                        std::string detail) {
    if (!rep.first) {
      rep.first = AuditReport::Divergence{kind, site, port, duct,
                                          std::move(detail)};
    }
  };
  const graph::Graph& g = map_.graph();

  // 1. Every recorded cross-connect -- live or zombie -- is programmed.
  std::vector<int> expected_connects(
      static_cast<std::size_t>(g.node_count()), 0);
  const auto check_connect = [&](const Connect& c, const char* what) {
    ++expected_connects[c.site];
    const auto out = devices_.oss(c.site).output_for(c.in_port);
    if (!out) {
      ++rep.missing_connects;
      note(Kind::kMissingConnect, c.site, c.in_port, graph::kInvalidEdge,
           map_.site(c.site).name + ": " + what + " cross-connect " +
               std::to_string(c.in_port) + "->" + std::to_string(c.out_port) +
               " missing from OSS");
    } else if (*out != c.out_port) {
      ++rep.wrong_connects;
      note(Kind::kWrongConnect, c.site, c.in_port, graph::kInvalidEdge,
           map_.site(c.site).name + ": " + what + " cross-connect input " +
               std::to_string(c.in_port) + " patched to " +
               std::to_string(*out) + ", books say " +
               std::to_string(c.out_port));
    }
  };
  for (const Allocation& alloc : allocations_) {
    for (const Connect& c : alloc.connects) check_connect(c, "recorded");
  }
  for (const Connect& z : zombie_connects_) check_connect(z, "zombie");

  // 2. No leaked cross-connects: per-site counts match exactly.
  for (NodeId n = 0; n < g.node_count(); ++n) {
    const int on_device = devices_.oss(n).connection_count();
    if (on_device != expected_connects[n]) {
      ++rep.leaked_connect_sites;
      note(Kind::kLeakedConnects, n, -1, graph::kInvalidEdge,
           map_.site(n).name + ": OSS carries " + std::to_string(on_device) +
               " connect(s), books expect " +
               std::to_string(expected_connects[n]));
    }
  }

  if (active_.size() != allocations_.size()) {
    rep.bookkeeping_ok = false;
    note(Kind::kBookkeeping, graph::kInvalidNode, -1, graph::kInvalidEdge,
         "active circuits (" + std::to_string(active_.size()) +
             ") and allocations (" + std::to_string(allocations_.size()) +
             ") out of step");
  }

  // 3. Every pool is at rest: each fiber, amplifier unit and add/drop pair
  // is exactly one of free, quarantined or held by a booked circuit.
  Census census(ledger_);
  for_each_held(nullptr, [&](const Circuit& c, const Allocation& a) {
    if (!census.hold(c, a)) {
      rep.bookkeeping_ok = false;
      note(Kind::kBookkeeping, graph::kInvalidNode, -1, graph::kInvalidEdge,
           "allocation hop count does not match the circuit route");
    }
  });
  for (const auto& [id, fault] : census.faults(PartitionRule::kAtRest)) {
    const auto [kind, owner] = id;
    if (kind == ResKind::kFiber) {
      ++rep.fiber_pool_mismatches;
      note(Kind::kFiberPool, graph::kInvalidNode, -1, owner,
           "duct " + std::to_string(owner) + ": " + fault);
    } else {
      const bool amp = kind == ResKind::kAmp;
      ++(amp ? rep.amp_pool_mismatches : rep.add_drop_pool_mismatches);
      note(amp ? Kind::kAmpPool : Kind::kAddDropPool, owner, -1,
           graph::kInvalidEdge, map_.site(owner).name + ": " + fault);
    }
  }

  // 4. DC-local wavelength state matches the last retune.
  for (const auto& [dc, txs] : devices_.all_transceivers()) {
    const long long tuned = devices_.tuned_count(dc);
    const auto it = expected_tuned_.find(dc);
    const long long expected = it == expected_tuned_.end() ? 0 : it->second;
    if (tuned != expected) {
      ++rep.transceiver_mismatches;
      note(Kind::kTransceiverTune, dc, -1, graph::kInvalidEdge,
           map_.site(dc).name + ": " + std::to_string(tuned) +
               " transceiver(s) tuned, expected " + std::to_string(expected));
    }
  }
  return rep;
}

ControllerCheckpoint IrisController::snapshot() const {
  ControllerCheckpoint cp;
  cp.applies_completed = applies_completed_;
  cp.active = active_;
  cp.allocations.assign(allocations_.begin(), allocations_.end());
  for (const auto& [id, p] : ledger_) {
    const auto [kind, owner] = id;
    if (kind == ResKind::kAddDrop) {
      cp.free_add_drop[owner] = p.free;
      cp.quarantined_add_drop[owner] = p.quarantined;
      continue;
    }
    const bool fiber = kind == ResKind::kFiber;
    (fiber ? cp.free_fibers : cp.free_amps).push_back(p.free);
    (fiber ? cp.quarantined_fibers : cp.quarantined_amps)
        .push_back(p.quarantined);
  }
  cp.quarantined_txs = quarantined_txs_;
  cp.zombies = zombie_connects_;
  cp.expected_tuned = expected_tuned_;
  for (EdgeId e = 0; e < map_.graph().edge_count(); ++e) {
    if (duct_failed_[e]) cp.failed_ducts.push_back(e);
  }
  return cp;
}

std::string IrisController::state_fingerprint() const {
  // Books as checkpoint text + hardware read-back. The command trace is
  // deliberately excluded: arming a crash enables the fault injector, which
  // adds amp power-check entries to the trace without changing any state.
  IntentJournal tmp;
  tmp.append(CheckpointRecord{snapshot()});
  std::ostringstream os;
  tmp.save(os);
  os << "hardware\n";
  for (NodeId n = 0; n < map_.graph().node_count(); ++n) {
    os << "oss " << n;
    for (const auto& [in, out] : devices_.oss(n).connections()) {
      os << ' ' << in << ':' << out;
    }
    os << '\n';
  }
  for (const auto& [dc, txs] : devices_.all_transceivers()) {
    os << "tx " << dc;
    for (const auto& tx : txs) {
      os << ' ' << (tx.wavelength() ? *tx.wavelength() : -1);
    }
    os << '\n';
  }
  for (const auto& [dc, em] : devices_.emulators()) {
    os << "ase " << dc;
    for (int ch : em.live_channels()) os << ' ' << ch;
    os << '\n';
  }
  return os.str();
}

int IrisController::circuits_on_failed_ducts() const {
  int count = 0;
  for (const Circuit& c : active_) {
    for (EdgeId e : c.route.edges) {
      if (duct_failed_[e]) {
        ++count;
        break;
      }
    }
  }
  return count;
}

IrisController::Status IrisController::status() const {
  Status s;
  s.active_circuits = static_cast<int>(active_.size());
  for (const Circuit& c : active_) s.live_wavelengths += 2 * c.wavelengths;
  for (const bool failed : duct_failed_) s.failed_ducts += failed;
  for (const auto& [id, p] : ledger_) {
    const auto q = static_cast<int>(p.quarantined.size());
    if (id.first == ResKind::kFiber) {
      s.fibers_allocated += p.in_use();
      s.fibers_provisioned += p.total;
      s.quarantined_fibers += q;
    } else if (id.first == ResKind::kAmp) {
      s.amplifiers_in_use += p.in_use();
      s.amplifiers_total += p.total;
      s.quarantined_amplifiers += q;
    } else {
      s.quarantined_add_drops += q;
    }
  }
  for (const auto& [dc, q] : quarantined_txs_) {
    s.quarantined_transceivers += static_cast<int>(q.size());
  }
  s.zombie_connects = static_cast<int>(zombie_connects_.size());
  s.circuits_on_failed_ducts = circuits_on_failed_ducts();
  s.devices_consistent = audit_devices();
  return s;
}

void IrisController::fail_duct(EdgeId duct) {
  duct_failed_.at(duct) = true;
  ++state_version_;
  jrec(DuctEventRecord{duct, true});
}

ReconfigReport IrisController::drain_duct_for_maintenance(
    EdgeId duct, ReconfigStrategy strategy) {
  ++state_version_;
  // Current intent: the active circuits' pair demands.
  TrafficMatrix tm;
  for (const Circuit& c : active_) tm[c.pair] += c.wavelengths;
  duct_failed_.at(duct) = true;
  jrec(DuctEventRecord{duct, true});
  try {
    ReconfigReport report = apply_traffic_matrix(tm, strategy);
    if (!report.target_reached()) {
      // The move failed after touching devices; whatever survived is back in
      // service, so the duct must be too -- maintenance is refused.
      duct_failed_.at(duct) = false;
      jrec(DuctEventRecord{duct, false});
    }
    return report;
  } catch (const ControllerCrash&) {
    // The controller process is dying: no compensation, no journaling -- the
    // successor rolls the drain forward from the journal.
    throw;
  } catch (...) {
    duct_failed_.at(duct) = false;  // refuse the maintenance, keep traffic
    jrec(DuctEventRecord{duct, false});
    throw;
  }
}

void IrisController::restore_duct(EdgeId duct) {
  duct_failed_.at(duct) = false;
  ++state_version_;
  jrec(DuctEventRecord{duct, false});
}

long long IrisController::allocated_fibers(EdgeId duct) const {
  return ledger_.at({ResKind::kFiber, duct}).in_use();
}

int IrisController::provisioned_fibers(EdgeId duct) const {
  return ledger_.at({ResKind::kFiber, duct}).total;
}

int IrisController::amplifiers_in_use(NodeId site) const {
  return ledger_.at({ResKind::kAmp, site}).in_use();
}

// ---- cold-restart reconciliation -------------------------------------------

void IrisController::install_stable(const ControllerCheckpoint& cp) {
  validate_checkpoint(cp);
  const graph::Graph& g = map_.graph();
  const auto mismatch = [] {
    throw std::runtime_error("recover: journal does not match this network");
  };
  // A checkpoint lists every duct and site (an empty journal none); a
  // quarantine record past them grows the replayed lists out of shape.
  const auto restore = [&](ResKind kind, const auto& lists, int count) {
    if (!lists.empty() && std::ssize(lists) != count) mismatch();
    for (int i = 0; i < std::ssize(lists); ++i) {
      ledger_.at({kind, i}).quarantined = lists[i];
    }
  };
  restore(ResKind::kFiber, cp.quarantined_fibers, g.edge_count());
  restore(ResKind::kAmp, cp.quarantined_amps, g.node_count());
  for (const auto& [dc, list] : cp.quarantined_add_drop) {
    const auto it = ledger_.find({ResKind::kAddDrop, dc});
    if (it == ledger_.end()) mismatch();
    it->second.quarantined = list;
  }

  applies_completed_ = cp.applies_completed;
  active_ = cp.active;
  allocations_.clear();
  allocations_.reserve(cp.active.size());
  for (std::size_t i = 0; i < cp.active.size(); ++i) {
    allocations_.push_back(from_record(cp.active[i], cp.allocations[i]));
  }
  quarantined_txs_ = cp.quarantined_txs;
  zombie_connects_ = cp.zombies;
  expected_tuned_ = cp.expected_tuned;
  duct_failed_.assign(g.edge_count(), false);
  for (EdgeId e : cp.failed_ducts) {
    if (e < 0 || e >= g.edge_count()) mismatch();
    duct_failed_[e] = true;
  }
}

void IrisController::for_each_held(
    const Transaction* tx,
    const std::function<void(const Circuit&, const Allocation&)>& fn) const {
  for (std::size_t i = 0; i < std::min(active_.size(), allocations_.size());
       ++i) {
    fn(active_[i], allocations_[i]);
  }
  if (tx == nullptr) return;
  for (const Transaction::Kept& k : tx->kept) fn(k.circuit, k.alloc);
  for (const Transaction::Op& op : tx->ops) {
    if (op.alloc) fn(op.circuit, *op.alloc);
  }
}

void IrisController::derive_free_pools(const Transaction* tx) {
  for (auto& [id, p] : ledger_) p.free.clear();
  Census census(ledger_);
  const auto corrupt = [](const std::string& what) {
    throw std::runtime_error("recover: corrupt journaled allocation: " + what);
  };
  for_each_held(tx, [&](const Circuit& c, const Allocation& a) {
    if (!census.hold(c, a)) corrupt("allocation does not fit its route");
  });
  if (const auto faults = census.faults(PartitionRule::kMidTransaction);
      !faults.empty()) {
    corrupt(faults.front().second);
  }
  // Free = the descending complement. take/release keep incrementally
  // maintained pools in exactly this canonical form, so the derived pools
  // are byte-equal to what a crash-free controller would hold.
  for (auto& [id, p] : ledger_) p.free = census.unused(id);
}

void IrisController::repair_connects(Allocation& alloc, ReconfigReport& report,
                                     RecoveryReport& rr) {
  for (const Connect& k : alloc.connects) {
    OpticalSpaceSwitch& sw = devices_.oss(k.site);
    const auto out = sw.output_for(k.in_port);
    if (out && *out == k.out_port) continue;  // already programmed
    const auto clear = [&](int in, int blocked_out) {
      const CommandResult r =
          run_with_retry(report, [&] { return sw.disconnect(in); });
      if (!r.ok()) throw DeviceCommandError{k.site, in, blocked_out, r.detail};
      record_cmd(OssDisconnectCmd{k.site, in});
      ++report.oss_operations;
      ++rr.connects_removed;
    };
    // The input is patched somewhere unplanned: clear it first.
    if (out) clear(k.in_port, *out);
    if (sw.output_in_use(k.out_port)) {
      // The planned output is held by a stale connect: clear its input.
      for (const auto& [in, o] : sw.connections()) {
        if (o == k.out_port) {
          clear(in, k.out_port);
          break;
        }
      }
    }
    const CommandResult r = run_with_retry(
        report, [&] { return sw.connect(k.in_port, k.out_port); });
    if (!r.ok()) {
      throw DeviceCommandError{k.site, k.in_port, k.out_port, r.detail};
    }
    record_cmd(OssConnectCmd{k.site, k.in_port, k.out_port});
    ++report.oss_operations;
    ++rr.connects_programmed;
  }
}

RecoveryReport IrisController::recover(IntentJournal& journal) {
  const obs::Span span("controller.recover");
  ++state_version_;
  if (journal_ != nullptr || applies_completed_ != 0 || !active_.empty()) {
    throw std::logic_error(
        "recover: requires a freshly constructed controller");
  }
  const IntentJournal::Intent intent = journal.replay();
  install_stable(intent.stable);
  // Attach directly: attach_journal would write a checkpoint, and a
  // checkpoint inside a still-open apply is a replay error -- recovery
  // itself is journaled into the same open transaction.
  journal_ = &journal;
  trace_.clear();

  RecoveryReport rr;
  ReconfigReport report;  // absorbs retry/quarantine accounting

  // Rebuild the interrupted apply's transaction from the stable books, its
  // journaled target and strategy, and its journaled ops; resume it on the
  // serial plane, whatever plane the apply used.
  std::optional<Transaction> tx;
  if (const auto& ifa = intent.in_flight) {
    rr.had_in_flight = true;
    rr.resumed_seq = ifa->seq;
    tx.emplace(*this, CommandPlaneMode::kSerial, report);
    tx->rr = &rr;
    tx->seq = ifa->seq;
    tx->split(ifa->target);
    tx->open(ifa->strategy ==
             static_cast<int>(ReconfigStrategy::kMakeBeforeBreak));
    tx->fold(ifa->ops);
  }
  const Transaction* held = tx ? &*tx : nullptr;
  derive_free_pools(held);

  // Orphan sweep BEFORE the roll-forward: every hardware cross-connect owned
  // by neither a book circuit, an in-flight allocation, nor a known zombie
  // is adopted as a zombie and the free resources its ports belong to are
  // quarantined. This matters when a
  // torn journal tail dropped an establish record: the leftover
  // cross-connects would otherwise collide with the ports a fresh
  // establishment draws (the pools, derived from the journal alone, believe
  // them free). Adopting first keeps every hardware-busy port out of the
  // pools. When the journal is complete this sweep is a no-op.
  {
    std::set<std::tuple<NodeId, int, int>> expected;
    for_each_held(held, [&](const Circuit&, const Allocation& a) {
      for (const Connect& k : a.connects) {
        expected.insert({k.site, k.in_port, k.out_port});
      }
    });
    for (const Connect& z : zombie_connects_) {
      expected.insert({z.site, z.in_port, z.out_port});
    }
    for (NodeId n = 0; n < map_.graph().node_count(); ++n) {
      for (const auto& [in, out] : devices_.oss(n).connections()) {
        if (expected.contains({n, in, out})) continue;
        zombie_connects_.push_back(Connect{n, in, out});
        obs::registry().add("controller.zombies.total");
        jrec(ZombieRecord{Connect{n, in, out}});
        for (const int port : {in, out}) {
          const auto [kind, owner, index] = res_for_port(n, port);
          if (ledger_.at({kind, owner}).quarantine_if_free(index)) {
            jrec(QuarantineRecord{static_cast<int>(kind), owner, index});
          }
        }
        ++rr.orphan_connects_adopted;
      }
    }
  }

  if (tx) rr.resumed_outcome = tx->execute();

  // Defensive convergence: re-program any recorded cross-connect the
  // hardware lost. A no-op when hardware already matches the books, so a
  // crash-free cold recovery issues zero device commands here.
  for (Allocation& a : allocations_) {
    try {
      repair_connects(a, report, rr);
    } catch (const DeviceCommandError&) {
      // Left for the audit to report.
    }
  }
  // Zombies the hardware no longer carries (their mirror recovered, or a
  // repair displaced them) stop being tracked; their ports stay quarantined.
  std::erase_if(zombie_connects_, [&](const Connect& z) {
    const auto out = devices_.oss(z.site).output_for(z.in_port);
    return !out || *out != z.out_port;
  });

  jrec(CheckpointRecord{snapshot()});
  rr.audit = audit_report();
  rr.adopted_circuits = tx ? tx->adopted : static_cast<int>(active_.size());

  auto& reg = obs::registry();
  reg.add("controller.recoveries.total");
  reg.add("controller.recover.orphans_adopted", rr.orphan_connects_adopted);
  reg.add("controller.recover.finished_establishes", rr.finished_establishes);
  reg.add("controller.recover.reissued_establishes", rr.reissued_establishes);
  reg.add("controller.recover.completed_teardowns", rr.completed_teardowns);
  fold_apply_metrics(report, "recovered");
  return rr;
}

}  // namespace iris::control
