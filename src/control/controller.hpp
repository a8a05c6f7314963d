// Iris's centralized controller (paper SS5.2).
//
// Gathers DC-DC demands, maps them to fiber-granularity circuits over the
// planned network, and programs the device layer with the paper's workflow:
// drain the paths being torn down, reconfigure OSSes network-wide (real
// cross-connects on the emulated switches), retune transceivers and refresh
// ASE channel emulation independently at each DC, then verify device state
// against intent. No online amplifier management is ever needed (fixed gain
// + power limiters + full-spectrum ASE).
//
// The controller does not own the hardware it programs: it drives a
// DeviceLayer that outlives it. That is what makes it crash-tolerant: it can
// journal its intent to an IntentJournal (attach_journal), and a successor
// constructed against the same DeviceLayer rebuilds the books from
// checkpoint + log replay and reconciles them with the live hardware
// (recover).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <set>

#include "control/circuits.hpp"
#include "control/commands.hpp"
#include "control/devices.hpp"
#include "control/faults.hpp"
#include "control/journal.hpp"
#include "control/ledger.hpp"
#include "control/port_map.hpp"
#include "core/amp_cut.hpp"

namespace iris::control {

/// One timestamped action in a reconfiguration, for inspection and tests.
struct ReconfigStep {
  double at_ms = 0.0;
  std::string action;
};

/// How circuit replacements are sequenced (SS5.2's drain-first workflow vs
/// the hitless alternative the residual fiber pool enables).
enum class ReconfigStrategy {
  /// Drain and tear down first, then set up -- the paper's default. Torn
  /// capacity is dark for the OSS switch + relock window.
  kBreakBeforeMake,
  /// Establish replacement circuits on spare fibers first, move traffic,
  /// then tear down the old ones: no capacity gap, at the price of briefly
  /// double-allocating fiber. Falls back to break-before-make when the
  /// spare pool cannot hold both generations.
  kMakeBeforeBreak,
};

/// How an apply_traffic_matrix transaction ended.
enum class ApplyOutcome {
  /// The target circuit set is fully established.
  kCommitted,
  /// A mid-apply device failure was unrecoverable; compensating teardown and
  /// re-establishment restored the pre-apply circuit set.
  kRolledBack,
  /// Capacity was lost: either circuits could not be restored during
  /// rollback (`lost_circuits`), or the target was reached but quarantined
  /// transceivers left wavelengths untuned (`wavelengths_untuned`).
  kDegraded,
};

/// Outcome of applying a new traffic matrix.
struct ReconfigReport {
  std::vector<Circuit> torn_down;
  std::vector<Circuit> set_up;
  long long oss_operations = 0;       ///< connects + disconnects performed
  long long transceivers_retuned = 0;
  double drain_ms = 0.0;              ///< waiting for traffic to drain
  double switch_ms = 0.0;             ///< OSS reconfiguration window
  double recovery_ms = 0.0;           ///< receiver relock after switching
  double total_ms = 0.0;
  bool verified = false;              ///< post-apply device-state audit
  bool hitless = false;  ///< make-before-break succeeded: no capacity gap
  std::vector<ReconfigStep> timeline;

  // Fault handling (all zero when no faults were injected).
  ApplyOutcome outcome = ApplyOutcome::kCommitted;
  std::vector<Circuit> not_established;  ///< requested circuits that failed
  std::vector<Circuit> lost_circuits;    ///< pre-apply circuits not restored
  int command_retries = 0;       ///< device-command re-attempts
  int commands_timed_out = 0;    ///< attempts that hit the command deadline
  int circuit_retries = 0;       ///< establishments retried on fresh resources
  int resources_quarantined = 0; ///< fibers/ports/amps/txs pulled this apply
  long long wavelengths_untuned = 0;  ///< demand not carried for lack of txs
  double fault_delay_ms = 0.0;   ///< retry backoff + command timeouts

  /// End-to-end reconfiguration makespan on the command plane's virtual
  /// clock: drain windows + per-command device latencies + retry backoff +
  /// receiver relock. Unlike `total_ms` (the capacity-gap model), this
  /// charges every issued device command, so it is the serial baseline the
  /// async plane's speedup is measured against. Matches the duration of the
  /// obs `controller.apply` span.
  double makespan_ms = 0.0;
  /// Command-plane schedule slots this apply used (0 = serial plane).
  int schedule_slots = 0;

  /// True when the network ended the apply carrying the requested circuit
  /// set (possibly with fewer tuned wavelengths than asked). Closed-loop
  /// callers use this to decide whether to mark the proposal applied or to
  /// keep retrying.
  [[nodiscard]] bool target_reached() const {
    return outcome == ApplyOutcome::kCommitted ||
           (outcome == ApplyOutcome::kDegraded && lost_circuits.empty() &&
            not_established.empty());
  }
  [[nodiscard]] bool committed() const {
    return outcome == ApplyOutcome::kCommitted;
  }

  /// Window during which torn/re-routed capacity is unavailable; the paper
  /// measures ~50 ms via one hut and ~70 ms across two (SS6.2). Zero when a
  /// make-before-break apply kept both generations lit.
  [[nodiscard]] double capacity_gap_ms() const {
    return hitless ? 0.0 : switch_ms + recovery_ms;
  }
};

/// Structured result of the controller's device-state audit: instead of a
/// bare bool, the first divergence is pinpointed (which site/port/duct, what
/// kind of mismatch) and every mismatch class is counted, so a failing soak
/// or recovery names the broken invariant instead of just "false".
struct AuditReport {
  enum class Kind {
    kNone,
    kBookkeeping,      ///< active/allocation vectors out of step
    kMissingConnect,   ///< recorded cross-connect absent on the OSS
    kWrongConnect,     ///< input patched to a different output than recorded
    kLeakedConnects,   ///< OSS carries connects the books do not know
    kFiberPool,        ///< duct fiber partition does not tile the inventory
    kAmpPool,          ///< amplifier partition broken at a site
    kAddDropPool,      ///< add/drop partition broken at a DC
    kTransceiverTune,  ///< tuned-transceiver count != expected at a DC
  };
  struct Divergence {
    Kind kind = Kind::kNone;
    graph::NodeId site = graph::kInvalidNode;  ///< site/DC involved, if any
    int port = -1;                             ///< OSS port, if any
    graph::EdgeId duct = graph::kInvalidEdge;  ///< duct, if any
    std::string detail;
  };

  std::optional<Divergence> first;  ///< earliest divergence found, if any
  int missing_connects = 0;
  int wrong_connects = 0;
  int leaked_connect_sites = 0;    ///< sites whose connect counts mismatch
  int fiber_pool_mismatches = 0;   ///< ducts failing the exact-tiling check
  int amp_pool_mismatches = 0;     ///< sites failing it
  int add_drop_pool_mismatches = 0;  ///< DCs failing it
  int transceiver_mismatches = 0;  ///< DCs with tuned != expected
  bool bookkeeping_ok = true;

  [[nodiscard]] bool clean() const noexcept { return !first.has_value(); }
  [[nodiscard]] int total_mismatches() const noexcept {
    return missing_connects + wrong_connects + leaked_connect_sites +
           fiber_pool_mismatches + amp_pool_mismatches +
           add_drop_pool_mismatches + transceiver_mismatches +
           (bookkeeping_ok ? 0 : 1);
  }
  /// One line: "clean" or the first divergence plus mismatch counts.
  [[nodiscard]] std::string summary() const;
};

/// What recover() did to converge journaled intent with live hardware.
struct RecoveryReport {
  bool had_in_flight = false;     ///< the crash interrupted an apply
  std::uint64_t resumed_seq = 0;  ///< its begin_apply sequence number
  ApplyOutcome resumed_outcome = ApplyOutcome::kCommitted;
  int adopted_circuits = 0;       ///< established pre-crash, taken over as-is
  int finished_establishes = 0;   ///< half-programmed, completed in place
  int reissued_establishes = 0;   ///< not started (or unwound), set up fresh
  int completed_teardowns = 0;    ///< teardowns finished or rolled forward
  int orphan_connects_adopted = 0;  ///< hardware connects owned by nobody,
                                    ///< reclassified as zombies
  long long connects_programmed = 0;  ///< OSS connects issued during recovery
  long long connects_removed = 0;     ///< OSS disconnects issued
  AuditReport audit;              ///< post-recovery device audit
};

class IrisController {
 public:
  /// Controller over `devices`, which survives this controller's
  /// destruction. The layer must outlive the controller and have been built
  /// from the same map/network/amp_cut; faults are injected through the
  /// layer's FaultConfig.
  IrisController(const fibermap::FiberMap& map,
                 const core::ProvisionedNetwork& network,
                 const core::AmpCutPlan& amp_cut, DeviceLayer& devices,
                 DeviceLatencies latencies = {});

  // The books reference the device layer; copying or moving the controller
  // would alias or dangle it.
  IrisController(const IrisController&) = delete;
  IrisController& operator=(const IrisController&) = delete;

  /// Attaches the write-ahead intent journal (not owned; must outlive the
  /// controller). Immediately records a checkpoint of the current state so
  /// replay has an anchor, and appends another every kCheckpointEvery
  /// committed applies. Pass nullptr to detach.
  void attach_journal(IntentJournal* journal);
  [[nodiscard]] IntentJournal* journal() const noexcept { return journal_; }
  /// Committed applies between the journal's periodic checkpoints.
  static constexpr std::uint64_t kCheckpointEvery = 16;

  /// Cold-restart reconciliation. Call on a freshly constructed controller
  /// (no applies yet, no journal attached): rebuilds intent from the
  /// journal's checkpoint + log replay, interrogates the live devices, and
  /// converges the two -- surviving circuits are adopted, a half-finished
  /// apply is rolled forward to its target, orphaned cross-connects are
  /// reclassified as zombies, and every free pool is re-derived from the
  /// provisioned inventory. The journal is attached (recovery itself is
  /// journaled, so a crash during recovery is recoverable too) and a fresh
  /// checkpoint is written at the end. audit_devices() holds on return.
  RecoveryReport recover(IntentJournal& journal);

  /// Computes the circuits a traffic matrix needs: one circuit per DC pair
  /// with positive demand, ceil(wavelengths / lambda) whole fibers, routed
  /// on the shortest path that avoids currently failed ducts.
  [[nodiscard]] std::vector<Circuit> circuits_for(const TrafficMatrix& tm) const;

  /// Applies a new traffic matrix: diffs against the active circuit set,
  /// drains and tears down obsolete circuits, establishes new ones (with
  /// real OSS cross-connects and amplifier loopbacks), and audits the
  /// device layer. Transactional: std::runtime_error is thrown only before
  /// any device has been touched (hose violation, fiber lease exhausted,
  /// disconnected pair, or an establishment that failed before its first
  /// cross-connect). Once a device has changed, failures are handled by
  /// bounded retries, quarantine of misbehaving resources, and -- if the
  /// apply still cannot complete -- a compensating rollback that restores
  /// the pre-apply circuit set; the returned report's `outcome` says what
  /// happened (kRolledBack, or kDegraded with `lost_circuits` when the
  /// restore itself failed).
  ReconfigReport apply_traffic_matrix(
      const TrafficMatrix& tm,
      ReconfigStrategy strategy = ReconfigStrategy::kBreakBeforeMake);

  /// Selects how applies schedule their device commands. kSerial (default)
  /// is byte-identical to the historical controller; kAsync runs
  /// conflict-free teardowns/establishes concurrently on per-device queues
  /// (same final state, journaled with schedule slots, smaller makespan).
  void set_command_plane(CommandPlaneMode mode) noexcept {
    plane_mode_ = mode;
  }
  [[nodiscard]] CommandPlaneMode command_plane() const noexcept {
    return plane_mode_;
  }

  /// Marks a duct failed; the next apply_traffic_matrix reroutes around it.
  /// Circuits already riding the duct keep their resources but carry no
  /// traffic until replanned -- see circuits_on_failed_ducts().
  void fail_duct(graph::EdgeId duct);
  void restore_duct(graph::EdgeId duct);

  /// Scheduled maintenance: marks the duct out of service and immediately
  /// reroutes every active circuit riding it, make-before-break by default
  /// so the move is hitless when spare fiber allows. On failure (no
  /// alternate route), the duct is returned to service and the error
  /// rethrown -- maintenance is refused rather than traffic dropped.
  ReconfigReport drain_duct_for_maintenance(
      graph::EdgeId duct,
      ReconfigStrategy strategy = ReconfigStrategy::kMakeBeforeBreak);

  [[nodiscard]] const std::vector<Circuit>& active_circuits() const noexcept {
    return active_;
  }

  /// Active circuits black-holed by a failed duct: their route crosses a
  /// duct currently marked failed, so they carry no traffic until the next
  /// apply reroutes them. The closed loop treats a nonzero count as an
  /// escape-hatch replan trigger.
  [[nodiscard]] int circuits_on_failed_ducts() const;
  /// The active circuits' demand, for re-applying it on new routes. Each
  /// pair is trimmed, in pair order, until no DC asks for more wavelengths
  /// than its usable transceivers: transceivers quarantined since the last
  /// apply can leave the active set above that, and admission would refuse
  /// it for as long as the set stands.
  [[nodiscard]] TrafficMatrix reroute_demand() const;

  /// Full structured audit of every programmed cross-connect, resource
  /// partition and DC wavelength state against the devices.
  [[nodiscard]] AuditReport audit_report() const;
  /// Thin wrapper: true iff audit_report() finds no divergence.
  [[nodiscard]] bool audit_devices() const { return audit_report().clean(); }

  /// Monotonic counter bumped by every state-mutating entry point
  /// (apply_traffic_matrix, fail/restore_duct, drain_duct_for_maintenance,
  /// recover). Readers that cache a snapshot() can compare versions to skip
  /// rebuilding when nothing changed -- the fleet's copy-on-write publisher
  /// does exactly that.
  [[nodiscard]] std::uint64_t state_version() const noexcept {
    return state_version_;
  }

  /// Serializable full-state snapshot (the journal's checkpoint payload).
  [[nodiscard]] ControllerCheckpoint snapshot() const;
  /// Canonical text fingerprint of controller books + device read-back.
  /// Two controllers with byte-equal fingerprints are indistinguishable:
  /// crash-recovery tests compare these against a no-crash reference.
  [[nodiscard]] std::string state_fingerprint() const;

  /// Operational snapshot: what an on-call engineer asks the controller.
  struct Status {
    int active_circuits = 0;
    long long live_wavelengths = 0;   ///< across all circuits, both ends
    long long fibers_allocated = 0;   ///< duct-lease units in use
    long long fibers_provisioned = 0;
    int amplifiers_in_use = 0;
    int amplifiers_total = 0;
    int failed_ducts = 0;
    int circuits_on_failed_ducts = 0;  ///< black-holed until replanned
    bool devices_consistent = false;

    // Resources pulled from the free pools after repeated faults.
    int quarantined_fibers = 0;
    int quarantined_add_drops = 0;
    int quarantined_amplifiers = 0;
    int quarantined_transceivers = 0;
    int zombie_connects = 0;  ///< cross-connects a stuck mirror won't release

    [[nodiscard]] int quarantined_total() const {
      return quarantined_fibers + quarantined_add_drops +
             quarantined_amplifiers + quarantined_transceivers;
    }

    [[nodiscard]] double fiber_utilization() const {
      return fibers_provisioned > 0
                 ? static_cast<double>(fibers_allocated) / fibers_provisioned
                 : 0.0;
    }
  };
  [[nodiscard]] Status status() const;

  /// Device commands issued by the most recent apply_traffic_matrix, in
  /// order: disconnects (teardown), connects (setup), then the DC-local
  /// wavelength state (tunes + ASE fill).
  [[nodiscard]] const std::vector<DeviceCommand>& last_command_trace() const {
    return trace_;
  }

  /// The hardware this controller programs.
  [[nodiscard]] DeviceLayer& devices() noexcept { return devices_; }
  [[nodiscard]] const DeviceLayer& devices() const noexcept {
    return devices_;
  }

  // Ledger introspection for tests.
  [[nodiscard]] long long allocated_fibers(graph::EdgeId duct) const;
  [[nodiscard]] int provisioned_fibers(graph::EdgeId duct) const;
  [[nodiscard]] int amplifiers_in_use(graph::NodeId site) const;

 private:
  /// One programmed cross-connect, remembered for teardown and audits; the
  /// journal records zombies in the same shape.
  using Connect = ZombieConnect;
  /// Resources held by an active circuit: the journaled pool draws plus
  /// the cross-connects programmed from them.
  struct Allocation : AllocationRecord {
    std::vector<Connect> connects;
  };

  /// Thrown inside establish() when a device command fails after all
  /// retries; carries the ports needed to attribute blame. Internal control
  /// flow only -- never escapes apply_traffic_matrix.
  struct DeviceCommandError {
    graph::NodeId site;
    int in_port;
    int out_port;
    std::string detail;
  };

  /// Sizes every pool from the provisioned inventory, all of it free.
  void init_books();
  [[nodiscard]] long long dc_capacity_wavelengths(graph::NodeId dc) const;
  [[nodiscard]] long long usable_tx_count(graph::NodeId dc) const;
  /// Runs one device command with bounded retry + exponential backoff,
  /// accounting retries/timeouts/backoff into the report.
  CommandResult run_with_retry(ReconfigReport& report,
                               const std::function<CommandResult()>& attempt);
  /// Maps a port of `site` to the resource that owns it.
  [[nodiscard]] ResKey res_for_port(graph::NodeId site, int port) const;
  /// Pops `count` amplifier units at `site` that pass their power check;
  /// dead units are quarantined on the spot. nullopt (pool returned) if the
  /// site cannot supply enough healthy units.
  std::optional<std::vector<int>> take_healthy_amp_units(
      graph::NodeId site, int count, ReconfigReport& report);
  /// The deterministic cross-connect sequence establish() programs for a
  /// circuit with the given resources -- also recomputed during recovery to
  /// diff journaled intent against the OSS read-back.
  [[nodiscard]] std::vector<Connect> planned_connects(
      const Circuit& c, const Allocation& alloc) const;
  /// Builds and programs the allocation for a circuit. Throws
  /// DeviceCommandError on a permanently failing command and
  /// std::runtime_error on pool exhaustion; either way the caller unwinds
  /// the partial allocation.
  void establish(const Circuit& c, Allocation& alloc, ReconfigReport& report);
  /// Tears down an allocation and returns its resources to the free pools,
  /// except `culprits`, which are quarantined. Disconnects that fail after
  /// all retries leave zombie cross-connects; their resources are
  /// quarantined too. Never throws.
  void unwind_allocation(const Circuit& c, Allocation& alloc,
                         ReconfigReport& report, std::set<ResKey> culprits);
  /// Establishment with self-healing: on a command failure, quarantines the
  /// blamed resources and retries on fresh ones (bounded). Returns the error
  /// message on definitive failure, nullopt on success.
  std::optional<std::string> try_establish(const Circuit& c, Allocation& alloc,
                                           ReconfigReport& report);
  /// Brings every DC's transceivers to the active circuits' channels with
  /// the fewest commands: a transceiver already tuned to a still-needed
  /// channel keeps it, surplus ones go dark, and the lowest idle
  /// non-quarantined ones are tuned for the rest (a permanent tune failure
  /// quarantines the unit). Then refreshes each DC's ASE live channels.
  void retune_dcs(ReconfigReport& report);
  /// Records one issued device command: appends to the trace and, when a
  /// command plane is live (inside a transaction), charges it onto the
  /// plane's virtual clock.
  void record_cmd(const DeviceCommand& cmd);

  /// One reconfiguration in flight, shared by apply_traffic_matrix and
  /// recover(): kept circuits, plan ops with their state, one executor and
  /// one compensation path. Defined in controller.cpp.
  struct Transaction;

  // ---- journal plumbing ----
  void jrec(JournalEntry entry);
  [[nodiscard]] Allocation from_record(const Circuit& c,
                                       const AllocationRecord& rec) const;
  /// Appends a checkpoint if the interval says so.
  void maybe_checkpoint();

  // ---- recovery plumbing ----
  /// Installs the replayed stable books (everything except free pools).
  void install_stable(const ControllerCheckpoint& stable);
  /// Visits every allocation the books and `tx` (if any) hold.
  void for_each_held(
      const Transaction* tx,
      const std::function<void(const Circuit&, const Allocation&)>& fn) const;
  /// Rebuilds every free pool as the descending complement of the held
  /// allocations (for_each_held) and the quarantine over the provisioned
  /// inventory, after checking them against the ledger's mid-transaction
  /// rule. Throws std::runtime_error when they break it.
  void derive_free_pools(const Transaction* tx);
  /// Programs any of the allocation's planned connects missing from the
  /// OSS read-back, in plan order; fixes inputs patched to a wrong output.
  /// Throws DeviceCommandError if a connect cannot be made.
  void repair_connects(Allocation& alloc, ReconfigReport& report,
                       RecoveryReport& rr);

  const fibermap::FiberMap& map_;
  const core::ProvisionedNetwork& network_;
  core::AmpCutPlan amp_cut_;
  DeviceLatencies latencies_;

  DeviceLayer& devices_;  ///< not owned; survives this controller

  IntentJournal* journal_ = nullptr;  ///< not owned; nullptr = no journaling
  CommandPlaneMode plane_mode_ = CommandPlaneMode::kSerial;
  CommandPlane* plane_ = nullptr;  ///< live only inside a Transaction
  int current_slot_ = -1;          ///< schedule slot of the op being executed
  std::uint64_t applies_completed_ = 0;
  std::uint64_t state_version_ = 0;

  std::vector<Circuit> active_;
  std::vector<Allocation> allocations_;  ///< parallel to active_
  /// Fiber, amplifier and add/drop pools: free and quarantined indices. At
  /// rest they and the allocations tile the provisioned inventory.
  Ledger ledger_;
  std::vector<bool> duct_failed_;
  std::vector<DeviceCommand> trace_;

  /// Transceivers pulled from service after a permanent tune failure.
  std::map<graph::NodeId, std::set<int>> quarantined_txs_;
  /// Cross-connects a stuck mirror refused to release: still programmed on
  /// the OSS, owned by no circuit, their ports quarantined.
  std::vector<Connect> zombie_connects_;
  /// Transceivers successfully tuned at the last retune, per DC (audit).
  std::map<graph::NodeId, long long> expected_tuned_;
};

}  // namespace iris::control
