// Durable intent for the centralized controller (paper SS5.2).
//
// IrisController keeps every piece of operational truth -- active circuits,
// per-duct fiber leases, amplifier/add-drop allocations, quarantine sets,
// zombie cross-connects -- in process memory. A controller crash mid-apply
// would strand lit circuits and half-programmed OSS mirrors with no way
// back. The IntentJournal is the write-ahead intent log that closes that
// hole: the controller records `begin_apply` (the full target circuit set),
// per-circuit establish/teardown intent and completion, quarantine and
// zombie events, and a terminal `apply_end` (commit/rollback) for every
// transaction, plus periodic checkpoints of the full controller state. A
// successor controller rebuilds intent from checkpoint + log replay and
// reconciles it against the untouched device layer
// (IrisController::recover).
//
// Records serialize to diffable line-oriented text in the spirit of
// core/plan_io: `save`/`load` round-trip exactly; a torn tail (the crash
// happened mid-write) is tolerated and dropped; any other defect, such as a
// structurally corrupt checkpoint, is rejected with a clear error.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "control/circuits.hpp"

namespace iris::control {

/// Plain-data mirror of the controller's per-circuit resource allocation.
/// Cross-connects are not stored: the connect sequence is a deterministic
/// function of (circuit, allocation), so recovery recomputes it and diffs
/// the planned set against the OSS read-back.
struct AllocationRecord {
  std::vector<std::vector<int>> fibers_per_hop;  ///< per route edge
  std::optional<graph::NodeId> amp_site;
  std::vector<int> amp_units;
  std::vector<int> add_drop_a;
  std::vector<int> add_drop_b;

  friend bool operator==(const AllocationRecord&,
                         const AllocationRecord&) = default;
};

/// A cross-connect a stuck mirror refused to release.
struct ZombieConnect {
  graph::NodeId site = graph::kInvalidNode;
  int in_port = 0;
  int out_port = 0;

  friend bool operator==(const ZombieConnect&, const ZombieConnect&) = default;
};

/// Full controller state at a point in time: everything recover() needs to
/// rebuild the books without replaying history from the beginning of time.
/// Free pools are stored redundantly (they are the complement of allocated
/// and quarantined indices) so a corrupted checkpoint is detectable; the
/// replayed stable state (IntentJournal::Intent) carries none.
struct ControllerCheckpoint {
  std::uint64_t applies_completed = 0;
  std::vector<Circuit> active;
  std::vector<AllocationRecord> allocations;  ///< parallel to `active`
  std::vector<std::vector<int>> free_fibers;         ///< per duct
  std::vector<std::vector<int>> quarantined_fibers;  ///< per duct
  std::vector<std::vector<int>> free_amps;           ///< per site
  std::vector<std::vector<int>> quarantined_amps;    ///< per site
  std::map<graph::NodeId, std::vector<int>> free_add_drop;
  std::map<graph::NodeId, std::vector<int>> quarantined_add_drop;
  std::map<graph::NodeId, std::set<int>> quarantined_txs;
  std::vector<ZombieConnect> zombies;
  std::map<graph::NodeId, long long> expected_tuned;
  std::vector<graph::EdgeId> failed_ducts;
};

// ---- journal records -------------------------------------------------------

struct CheckpointRecord {
  ControllerCheckpoint state;
};
/// A reconfiguration transaction opens: the full target circuit set, in the
/// order the apply will process it, plus the effective strategy (after any
/// make-before-break fallback decision, so replay re-derives the same
/// teardown/establish order).
struct BeginApplyRecord {
  std::uint64_t seq = 0;
  int strategy = 0;  ///< ReconfigStrategy as int
  std::vector<Circuit> target;
  /// Command-plane schedule slots of this apply (0 = serial plane; the
  /// record serializes byte-identically to the historical format then).
  int slots = 0;
};
struct TeardownBeginRecord {
  Circuit circuit;
  /// Schedule slot the op ran in (-1 = serial plane; omitted on the wire).
  int slot = -1;
};
struct TeardownDoneRecord {
  Circuit circuit;
};
/// Written after the circuit's resources are drawn from the pools and
/// before its first cross-connect -- pool draws are pure bookkeeping, so a
/// crash can only land after this intent is durable.
struct EstablishBeginRecord {
  Circuit circuit;
  AllocationRecord alloc;
  /// Schedule slot the op ran in (-1 = serial plane; omitted on the wire).
  int slot = -1;
};
struct EstablishDoneRecord {
  Circuit circuit;
};
/// A resource left service: index `b` of the pool `a` (a duct for fibers, a
/// site or DC otherwise).
struct QuarantineRecord {
  int kind = 0;  ///< ResKind as int (control/ledger.hpp)
  int a = 0;
  int b = 0;
};
struct ZombieRecord {
  ZombieConnect zombie;
};
struct DuctEventRecord {
  graph::EdgeId duct = graph::kInvalidEdge;
  bool failed = false;
};
/// The transaction's terminal record: outcome, the final active circuit set
/// in order (allocations resolve through the establish records), and the
/// post-retune expected tuned-transceiver counts.
struct ApplyEndRecord {
  std::uint64_t seq = 0;
  int outcome = 0;  ///< ApplyOutcome as int
  std::vector<Circuit> active;
  std::map<graph::NodeId, long long> expected_tuned;
};

using JournalEntry =
    std::variant<CheckpointRecord, BeginApplyRecord, TeardownBeginRecord,
                 TeardownDoneRecord, EstablishBeginRecord, EstablishDoneRecord,
                 QuarantineRecord, ZombieRecord, DuctEventRecord,
                 ApplyEndRecord>;

/// Write-ahead intent log. Appended by the controller during every apply;
/// replayed by IrisController::recover after a crash. Lives outside the
/// controller (like the devices) so it survives the controller's death.
class IntentJournal {
 public:
  void append(JournalEntry entry) { entries_.push_back(std::move(entry)); }
  [[nodiscard]] const std::vector<JournalEntry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  void clear() { entries_.clear(); }

  /// Drops every record before the last checkpoint: replay is unaffected
  /// because a checkpoint resets the fold. Bounds journal growth. Returns
  /// the number of records dropped (0 when there is no checkpoint yet).
  std::size_t compact();

  // ---- text serialization --------------------------------------------------
  void save(std::ostream& os) const;
  [[nodiscard]] std::string to_text() const;
  /// Parses a journal. A torn tail (a crash cut the last write short) is
  /// dropped and flagged via dropped_torn_tail(): a final line without its
  /// '\n' (save() ends every line with one), or a final record short of
  /// its framed lines. Any other malformed content -- including a complete
  /// final record, or a complete but internally inconsistent checkpoint --
  /// throws std::runtime_error with a line number.
  static IntentJournal load(std::istream& is);
  static IntentJournal from_text(const std::string& text);
  [[nodiscard]] bool dropped_torn_tail() const noexcept {
    return dropped_torn_tail_;
  }

  // ---- replay --------------------------------------------------------------

  /// One pending operation of an in-flight (uncommitted) apply, in log
  /// order. `alloc` is present for establishes (the pinned resources).
  struct PendingOp {
    bool teardown = false;
    Circuit circuit;
    std::optional<AllocationRecord> alloc;
    bool done = false;
    int slot = -1;  ///< command-plane schedule slot (-1 = serial plane)
  };
  struct InFlightApply {
    std::uint64_t seq = 0;
    int strategy = 0;
    std::vector<Circuit> target;
    std::vector<PendingOp> ops;
    int slots = 0;  ///< schedule slot count (0 = serial plane)
  };
  /// The journal's reconstructed intent: the stable state as of the last
  /// terminal record (checkpoint + committed applies folded in; its free
  /// pools are left empty for recover() to derive), plus the in-flight
  /// apply the crash interrupted, if any.
  struct Intent {
    ControllerCheckpoint stable;
    std::optional<InFlightApply> in_flight;
  };
  /// Folds the log. Throws std::runtime_error on a semantically malformed
  /// log (e.g. apply_end without begin_apply).
  [[nodiscard]] Intent replay() const;

 private:
  std::vector<JournalEntry> entries_;
  bool dropped_torn_tail_ = false;
};

/// Structural validation used at load time, by replay() on every checkpoint
/// it adopts, and by recover(): throws std::runtime_error("journal: corrupt
/// checkpoint: ...") on negative or duplicate pool indices, a free index
/// that is also quarantined or held (the ledger's mid-transaction rule), or
/// allocation/route shape mismatches. A checkpoint without free pools (the
/// replayed form) is checked the same way.
void validate_checkpoint(const ControllerCheckpoint& cp);

}  // namespace iris::control
