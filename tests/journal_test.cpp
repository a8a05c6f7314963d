// IntentJournal serialization and replay (the controller's write-ahead
// intent log). Pins down the durability contract recovery leans on:
// save/load/save is byte-idempotent, a torn final record (crash mid-write)
// is dropped and flagged at any byte-truncation point, a structurally
// corrupt checkpoint is rejected with a clear error, and replay folds
// committed applies into the stable state while reconstructing the one
// in-flight apply a crash interrupted.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "control/controller.hpp"
#include "control/journal.hpp"
#include "controller_rig.hpp"
#include "fibermap/generator.hpp"
#include "run_digest.hpp"

namespace iris::control {
namespace {

using core::DcPair;

core::PlannerParams journal_params() {
  core::PlannerParams params;
  params.failure_tolerance = 1;
  params.channels.wavelengths_per_fiber = 40;
  return params;
}

/// Shared planned region: small enough for fast tests, big enough that an
/// apply touches several ducts, amp sites and add/drop pools.
struct Fixture {
  fibermap::FiberMap map;
  core::ProvisionedNetwork net;
  core::AmpCutPlan plan;
};

const Fixture& fixture() {
  static const Fixture f = [] {
    fibermap::RegionParams region;
    region.seed = 7;
    region.dc_count = 4;
    region.hut_count = 8;
    region.capacity_fibers = 8;
    auto map = fibermap::generate_region(region);
    auto net = core::provision(map, journal_params());
    auto plan = core::place_amplifiers_and_cutthroughs(map, net);
    return Fixture{std::move(map), std::move(net), std::move(plan)};
  }();
  return f;
}

TrafficMatrix demand(const fibermap::FiberMap& map, int scale) {
  TrafficMatrix tm;
  const auto& dcs = map.dcs();
  for (std::size_t i = 0; i + 1 < dcs.size(); ++i) {
    tm[DcPair(dcs[i], dcs[i + 1])] =
        40 + 20 * static_cast<long long>(i) + 40LL * scale;
  }
  return tm;
}

/// A journal populated by real controller activity: attach (checkpoint),
/// three applies with changing demand, one duct failure + restore.
IntentJournal journal_from_run() {
  const Fixture& f = fixture();
  IntentJournal journal;
  ControllerRig rig(f.map, f.net, f.plan);
  IrisController& controller = rig.controller;
  controller.attach_journal(&journal);
  controller.apply_traffic_matrix(demand(f.map, 0));
  controller.fail_duct(0);
  controller.apply_traffic_matrix(demand(f.map, 1));
  controller.restore_duct(0);
  controller.apply_traffic_matrix(demand(f.map, 2));
  EXPECT_TRUE(controller.audit_devices());
  return journal;
}

/// The same steps on a device layer that kills the controller after
/// `crash_at` device commands (0 = never). A crash raises a successor that
/// recovers from the journal's text form, and the run goes on. The crash
/// must land before the first transceiver is tuned, so these journals do
/// not depend on how a retune assigns transceivers.
IntentJournal journal_from_crashed_run(CommandPlaneMode mode,
                                       long long crash_at) {
  const Fixture& f = fixture();
  FaultConfig cfg;
  cfg.crash_after_commands = crash_at;
  DeviceLayer devices(f.map, f.net, f.plan, cfg);
  IntentJournal journal;
  auto controller =
      std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
  controller->set_command_plane(mode);
  controller->attach_journal(&journal);
  const auto step = [&](const std::function<void()>& fn) {
    try {
      fn();
    } catch (const ControllerCrash&) {
      for (const auto& [dc, txs] : devices.all_transceivers()) {
        EXPECT_EQ(devices.tuned_count(dc), 0) << "crash after a tune";
      }
      controller.reset();
      journal = IntentJournal::from_text(journal.to_text());
      controller =
          std::make_unique<IrisController>(f.map, f.net, f.plan, devices);
      controller->set_command_plane(mode);
      EXPECT_TRUE(controller->recover(journal).audit.clean());
    }
  };
  step([&] { controller->apply_traffic_matrix(demand(f.map, 0)); });
  step([&] { controller->fail_duct(0); });
  step([&] { controller->apply_traffic_matrix(demand(f.map, 1)); });
  step([&] { controller->restore_duct(0); });
  step([&] { controller->apply_traffic_matrix(demand(f.map, 2)); });
  EXPECT_TRUE(controller->audit_devices());
  EXPECT_EQ(devices.fault_injector().crashes_fired(), crash_at > 0 ? 1 : 0);
  return journal;
}

// The text codec's bytes, pinned: FNV-1a of to_text() for crash-free and
// crashed runs on both command planes, and of the text after a load/save
// round trip. Any codec change that moves a byte moves a digest.
TEST(JournalText, CodecBytesArePinned) {
  const std::vector<std::tuple<CommandPlaneMode, long long, std::uint64_t>>
      pinned = {{CommandPlaneMode::kSerial, 0, 0xcfa6e46640e15831ULL},
                {CommandPlaneMode::kSerial, 5, 0xfb4dbfa20c8b9f09ULL},
                {CommandPlaneMode::kAsync, 0, 0x77612751eeaf59bfULL},
                {CommandPlaneMode::kAsync, 5, 0x0417a3f3dc83e2e5ULL}};
  for (const auto& [mode, crash_at, digest] : pinned) {
    SCOPED_TRACE("async=" +
                 std::to_string(mode == CommandPlaneMode::kAsync) +
                 " crash_at=" + std::to_string(crash_at));
    const std::string text = journal_from_crashed_run(mode, crash_at).to_text();
    RunDigest d;
    d.fold(text);
    d.fold(IntentJournal::from_text(text).to_text());
    EXPECT_EQ(d.value(), digest) << std::hex << "got 0x" << d.value();
  }
  RunDigest d;
  d.fold(journal_from_run().to_text());
  EXPECT_EQ(d.value(), 0xfebf85b619a5591aULL) << std::hex << "got 0x"
                                              << d.value();
}

// What the parser takes as a number: a sign (`+` too), decimal digits and,
// for a real, a fraction and an exponent. Infinities, NaNs, hex and values
// out of range are corruption; a number ends where its digits do, so
// `12abc` leaves `abc` as a trailing token.
TEST(JournalText, NumberTokensFollowTheStreamRules) {
  const std::string head = "iris-journal v1\nrecord 2\nteardown_done\n";
  const auto line = [&](const std::string& fields) {
    return head + "circuit " + fields + "\n";
  };
  const std::string ok_tail = " 1 40 2 0 1 1 0 ";
  struct Case {
    std::string text;
    const char* error;  ///< null: accepted
  };
  const std::vector<Case> cases = {
      {line("0 1" + ok_tail + "12.5"), nullptr},
      {line("0 +1" + ok_tail + "+12.5"), nullptr},
      {line("00 1" + ok_tail + "-0"), nullptr},
      {line("0 1" + ok_tail + ".5"), nullptr},
      {line("0 1" + ok_tail + "5."), nullptr},
      {line("0 1" + ok_tail + "1e-400"), nullptr},
      {line("0 1" + ok_tail + "1E+2"), nullptr},
      {line("0 1" + ok_tail + "\t12.5\r"), nullptr},
      {line("0 1" + ok_tail + "inf"), "line 4: expected length_km"},
      {line("0 1" + ok_tail + "-inf"), "line 4: expected length_km"},
      {line("0 1" + ok_tail + "nan"), "line 4: expected length_km"},
      {line("0 1" + ok_tail + "1e400"), "line 4: expected length_km"},
      {line("0 1" + ok_tail + "-1e400"), "line 4: expected length_km"},
      {line("0 1" + ok_tail + "1e"), "line 4: expected length_km"},
      {line("0 1" + ok_tail + "."), "line 4: expected length_km"},
      {line("0 1" + ok_tail + "0x1p3"), "line 4: trailing tokens starting at 'x1p3'"},
      {line("0 1" + ok_tail + "12abc"), "line 4: trailing tokens starting at 'abc'"},
      {line("0 1" + ok_tail + "1.5.2"), "line 4: trailing tokens starting at '.2'"},
      {line("0 1" + ok_tail), "line 4: expected length_km"},
      {line("0 ++1" + ok_tail + "1"), "line 4: expected pair.b"},
      {line("0 +-1" + ok_tail + "1"), "line 4: expected pair.b"},
      {line("0 - 1" + ok_tail + "1"), "line 4: expected pair.b"},
      {line("0 0x1" + ok_tail + "1"), "line 4: expected fiber_pairs"},
      {line("0 99999999999999999999" + ok_tail + "1"), "line 4: expected pair.b"},
      {line("0 -99999999999999999999" + ok_tail + "1"), "line 4: expected pair.b"},
      {line("0 1 1 40 99999999999 0 1 1 0 1"), "line 4: bad count for node count"},
      {line("0 1 1 40 -1 0 1 1 0 1"), "line 4: bad count for node count"},
      {line("0 1" + ok_tail + "1 7"), "line 4: trailing tokens starting at '7'"},
      {head + "circuit 0 1" + ok_tail + "1", nullptr},  // torn final line
      {"iris-journal v1\nrecord +2\nteardown_done\n" + line("0 1" + ok_tail + "1").substr(head.size()), nullptr},
      {"iris-journal v1\nrecord 2x\n", "line 2: trailing tokens starting at 'x'"},
      {"iris-journal v1\n\n# note\nrecord 1\nquarantine 0 1\n", "line 5: expected b"},
      {"iris-journal v1\nrecord 1\nquarantine 0 1 2 3\n", "line 3: trailing tokens starting at '3'"},
      {"iris-journal v1\nrecord 1\nbogus\n", "line 3: unknown record type 'bogus'"},
      {"iris-journal v1 x\n", "line 1: trailing tokens starting at 'x'"},
      {"iris-journal\tv1\r\n", nullptr},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.text);
    try {
      (void)IntentJournal::from_text(c.text);
      EXPECT_EQ(c.error, nullptr) << "accepted";
    } catch (const std::runtime_error& e) {
      ASSERT_NE(c.error, nullptr) << e.what();
      EXPECT_EQ(std::string(e.what()), std::string("journal: ") + c.error);
    }
  }
}

TEST(JournalText, SaveLoadSaveIsByteIdempotent) {
  const IntentJournal journal = journal_from_run();
  ASSERT_FALSE(journal.empty());

  const std::string text1 = journal.to_text();
  const IntentJournal reloaded = IntentJournal::from_text(text1);
  EXPECT_FALSE(reloaded.dropped_torn_tail());
  EXPECT_EQ(reloaded.size(), journal.size());
  const std::string text2 = reloaded.to_text();
  EXPECT_EQ(text1, text2);

  // And the reloaded journal replays to the same intent.
  const auto a = journal.replay();
  const auto b = reloaded.replay();
  EXPECT_EQ(a.stable.applies_completed, b.stable.applies_completed);
  EXPECT_EQ(a.stable.active, b.stable.active);
  EXPECT_EQ(a.in_flight.has_value(), b.in_flight.has_value());
}

TEST(JournalText, StreamRoundTripMatchesStringRoundTrip) {
  const IntentJournal journal = journal_from_run();
  std::ostringstream os;
  journal.save(os);
  std::istringstream is(os.str());
  const IntentJournal reloaded = IntentJournal::load(is);
  EXPECT_EQ(reloaded.to_text(), journal.to_text());
}

TEST(JournalText, EmptyJournalRoundTrips) {
  const IntentJournal empty;
  const IntentJournal reloaded = IntentJournal::from_text(empty.to_text());
  EXPECT_TRUE(reloaded.empty());
  EXPECT_FALSE(reloaded.dropped_torn_tail());
  // A wholly empty file is an empty journal, not an error.
  EXPECT_TRUE(IntentJournal::from_text("").empty());
}

// A crash can truncate the journal at ANY byte. Every truncation point must
// load without throwing, yield a prefix of the original records, and flag
// the torn tail iff a partial record was dropped -- including a final line
// that lost only its newline or a few trailing digits.
TEST(JournalText, EveryByteTruncationIsAPrefixOrATornTail) {
  const IntentJournal journal = journal_from_run();
  const std::string text = journal.to_text();
  ASSERT_GT(text.size(), 200u);

  const std::string full_again = IntentJournal::from_text(text).to_text();
  ASSERT_EQ(full_again, text);

  std::size_t torn = 0;
  std::size_t clean_prefixes = 0;
  // Sweep a dense set of cut points: every byte of the first and last 400
  // bytes, every 7th byte in between.
  for (std::size_t cut = 0; cut < text.size();
       cut += (cut < 400 || cut + 400 >= text.size()) ? 1 : 7) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    IntentJournal partial;
    ASSERT_NO_THROW(partial = IntentJournal::from_text(text.substr(0, cut)));
    ASSERT_LE(partial.size(), journal.size());
    const std::string saved = partial.to_text();
    if (partial.dropped_torn_tail()) {
      ++torn;
    } else {
      ++clean_prefixes;
      // A clean prefix holds whole records only: re-saved, it is a byte
      // prefix of the original text.
      EXPECT_EQ(text.compare(0, saved.size(), saved), 0);
    }
    // Whatever survived must itself round-trip and replay.
    EXPECT_EQ(IntentJournal::from_text(saved).to_text(), saved);
    EXPECT_NO_THROW((void)partial.replay());
  }
  // The sweep must have seen both regimes.
  EXPECT_GT(torn, 0u);
  EXPECT_GT(clean_prefixes, 0u);
}

TEST(JournalText, HalfWrittenHeaderIsATornEmptyLog) {
  const IntentJournal j = IntentJournal::from_text("iris-jou");
  EXPECT_TRUE(j.empty());
  EXPECT_TRUE(j.dropped_torn_tail());
}

TEST(JournalText, WrongHeaderIsRejected) {
  EXPECT_THROW((void)IntentJournal::from_text("iris-journal v2\nrecord 0\n"),
               std::runtime_error);
}

TEST(JournalText, GarbageBetweenIntactRecordsIsCorruptionNotTearing) {
  const IntentJournal journal = journal_from_run();
  std::string text = journal.to_text();
  // Mangle the first record's framing while intact records follow: that is
  // corruption, not a torn tail, and must throw with a line number.
  const std::size_t pos = text.find("record ");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 6, "rekord");
  // A complete final record is no torn tail either: mangle its type.
  std::string last = journal.to_text();
  const std::size_t body = last.find('\n', last.rfind("\nrecord ") + 1) + 1;
  ASSERT_LT(body, last.size());
  last[body] = 'X';
  for (const std::string& bad : {text, last}) {
    try {
      (void)IntentJournal::from_text(bad);
      ADD_FAILURE() << "corrupt journal was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("journal: line"), std::string::npos)
          << e.what();
    }
  }
}

TEST(JournalText, CorruptCheckpointIsRejectedWithClearError) {
  const Fixture& f = fixture();
  ControllerRig rig(f.map, f.net, f.plan);
  IrisController& controller = rig.controller;
  controller.apply_traffic_matrix(demand(f.map, 0));
  ControllerCheckpoint cp = controller.snapshot();

  // Double-allocate: copy a free fiber index into the quarantine of the
  // same duct. Serialization does not validate, load does.
  ASSERT_FALSE(cp.free_fibers.empty());
  std::size_t duct = 0;
  while (duct < cp.free_fibers.size() && cp.free_fibers[duct].empty()) ++duct;
  ASSERT_LT(duct, cp.free_fibers.size());
  cp.quarantined_fibers[duct].push_back(cp.free_fibers[duct].front());

  IntentJournal j;
  j.append(CheckpointRecord{cp});
  const std::string text = j.to_text();
  try {
    (void)IntentJournal::from_text(text);
    FAIL() << "corrupt checkpoint was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("corrupt checkpoint"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("duplicate fiber"), std::string::npos)
        << e.what();
  }
  // validate_checkpoint also rejects it directly (recover()'s guard).
  EXPECT_THROW(validate_checkpoint(cp), std::runtime_error);
}

TEST(JournalText, CorruptCheckpointThrowsEvenAsFinalRecord) {
  // Torn-tail tolerance must NOT extend to a complete-but-inconsistent
  // checkpoint, even when it is the last record in the file.
  ControllerCheckpoint cp;
  cp.free_fibers = {{3, 2, 3}};  // duplicate index 3 within one pool
  cp.quarantined_fibers = {{}};
  IntentJournal j;
  j.append(CheckpointRecord{cp});
  EXPECT_THROW((void)IntentJournal::from_text(j.to_text()),
               std::runtime_error);
}

/// Loads journal `text` with the address space capped at 256 MiB above
/// what the process maps now. 0 when the load fails with a corrupt-checkpoint
/// error for add/drop index 2147483647; nonzero on any other outcome. Run it
/// in a death-test child: the cap stays for the rest of the process.
int load_with_capped_memory(const std::string& text) {
  std::ifstream statm("/proc/self/statm");
  rlim_t pages = 0;
  statm >> pages;
  const rlim_t cap =
      pages * static_cast<rlim_t>(sysconf(_SC_PAGESIZE)) + (rlim_t{256} << 20);
  const rlimit limit{cap, cap};
  if (setrlimit(RLIMIT_AS, &limit) != 0) return 3;
  try {
    (void)IntentJournal::from_text(text);
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    return what.find("corrupt checkpoint: duplicate add/drop index "
                     "2147483647") != std::string::npos
               ? 0
               : 1;
  }
  return 2;
}

TEST(JournalText, HugePoolIndexIsRejectedWithoutSizingThePool) {
  // A corrupt add/drop index near INT_MAX, listed both free and
  // quarantined. The checkpoint records no pool sizes, so a census sized by
  // its largest index would allocate 2 GiB before rejecting the text.
  const Fixture& f = fixture();
  ControllerRig rig(f.map, f.net, f.plan);
  ControllerCheckpoint cp = rig.controller.snapshot();
  ASSERT_FALSE(cp.free_add_drop.empty());
  const graph::NodeId dc = cp.free_add_drop.begin()->first;
  cp.free_add_drop[dc].push_back(2147483647);
  cp.quarantined_add_drop[dc].push_back(2147483647);
  IntentJournal j;
  j.append(CheckpointRecord{cp});
  const std::string text = j.to_text();
  ASSERT_NE(text.find(" 2147483647"), std::string::npos);

  EXPECT_EXIT(std::exit(load_with_capped_memory(text)),
              ::testing::ExitedWithCode(0), "");
}

TEST(JournalReplay, FoldsCommittedAppliesIntoStableState) {
  const Fixture& f = fixture();
  IntentJournal journal;
  ControllerRig rig(f.map, f.net, f.plan);
  IrisController& controller = rig.controller;
  controller.attach_journal(&journal);
  controller.apply_traffic_matrix(demand(f.map, 0));
  controller.apply_traffic_matrix(demand(f.map, 1));

  const auto intent = journal.replay();
  EXPECT_FALSE(intent.in_flight.has_value());
  EXPECT_EQ(intent.stable.applies_completed, 2u);
  EXPECT_EQ(intent.stable.active, controller.active_circuits());
  EXPECT_EQ(intent.stable.allocations.size(), intent.stable.active.size());
  EXPECT_EQ(intent.stable.expected_tuned, controller.snapshot().expected_tuned);
}

TEST(JournalReplay, DuctEventsFold) {
  const Fixture& f = fixture();
  IntentJournal journal;
  ControllerRig rig(f.map, f.net, f.plan);
  IrisController& controller = rig.controller;
  controller.attach_journal(&journal);
  controller.fail_duct(2);
  controller.fail_duct(1);
  controller.restore_duct(2);
  const auto intent = journal.replay();
  EXPECT_EQ(intent.stable.failed_ducts, std::vector<graph::EdgeId>{1});
}

TEST(JournalReplay, ReconstructsInFlightApply) {
  // Build a journal whose tail is an open apply: one finished teardown, one
  // establish begun but not done -- exactly what a crash leaves behind.
  const Fixture& f = fixture();
  IntentJournal journal;
  ControllerRig rig(f.map, f.net, f.plan);
  IrisController& controller = rig.controller;
  controller.attach_journal(&journal);
  controller.apply_traffic_matrix(demand(f.map, 0));
  const std::size_t committed = journal.size();

  // Append a synthetic open apply by hand (the crash tests exercise the
  // controller-written path; this pins replay's fold semantics).
  const auto snap = controller.snapshot();
  ASSERT_GE(snap.active.size(), 2u);
  const Circuit& torn = snap.active[0];
  const Circuit& half = snap.active[1];
  journal.append(BeginApplyRecord{snap.applies_completed, 0, {half}});
  journal.append(TeardownBeginRecord{torn});
  journal.append(TeardownDoneRecord{torn});
  journal.append(EstablishBeginRecord{half, snap.allocations[1]});

  const auto intent = journal.replay();
  ASSERT_TRUE(intent.in_flight.has_value());
  EXPECT_EQ(intent.in_flight->seq, snap.applies_completed);
  // Done-records mark the matching begin, they do not add ops.
  ASSERT_EQ(intent.in_flight->ops.size(), 2u);
  EXPECT_TRUE(intent.in_flight->ops[0].teardown);
  EXPECT_TRUE(intent.in_flight->ops[0].done);
  EXPECT_FALSE(intent.in_flight->ops[1].teardown);
  EXPECT_FALSE(intent.in_flight->ops[1].done);
  ASSERT_TRUE(intent.in_flight->ops[1].alloc.has_value());
  EXPECT_EQ(*intent.in_flight->ops[1].alloc, snap.allocations[1]);
  // The stable fold stops at the last terminal record.
  EXPECT_EQ(intent.stable.applies_completed, 1u);

  // Committing the apply folds it: active becomes the apply_end set.
  journal.append(ApplyEndRecord{snap.applies_completed, 0, {half},
                                snap.expected_tuned});
  const auto committed_intent = journal.replay();
  EXPECT_FALSE(committed_intent.in_flight.has_value());
  EXPECT_EQ(committed_intent.stable.applies_completed, 2u);
  ASSERT_EQ(committed_intent.stable.active.size(), 1u);
  EXPECT_EQ(committed_intent.stable.active[0], half);
  EXPECT_EQ(committed_intent.stable.allocations[0], snap.allocations[1]);
  (void)committed;
}

TEST(JournalReplay, MalformedLogsThrow) {
  const Circuit c;
  {
    IntentJournal j;  // apply_end with no begin_apply
    j.append(ApplyEndRecord{0, 0, {}, {}});
    EXPECT_THROW((void)j.replay(), std::runtime_error);
  }
  {
    IntentJournal j;  // establish_done without establish_begin
    j.append(BeginApplyRecord{0, 0, {}});
    j.append(EstablishDoneRecord{c});
    EXPECT_THROW((void)j.replay(), std::runtime_error);
  }
  {
    IntentJournal j;  // nested begin_apply
    j.append(BeginApplyRecord{0, 0, {}});
    j.append(BeginApplyRecord{1, 0, {}});
    EXPECT_THROW((void)j.replay(), std::runtime_error);
  }
  {
    IntentJournal j;  // checkpoint inside an open apply
    j.append(BeginApplyRecord{0, 0, {}});
    j.append(CheckpointRecord{});
    EXPECT_THROW((void)j.replay(), std::runtime_error);
  }
}

TEST(JournalReplay, QuarantineRecordsFold) {
  IntentJournal j;
  ControllerCheckpoint cp;
  cp.free_fibers = {{5, 4, 3, 2, 1, 0}};
  cp.quarantined_fibers = {{}};
  j.append(CheckpointRecord{cp});
  j.append(QuarantineRecord{0, 0, 4});   // duct 0, fiber 4
  j.append(QuarantineRecord{0, 0, 4});   // idempotent
  j.append(QuarantineRecord{3, 2, 7});   // tx 7 at DC 2
  // Replay folds quarantine lists only; recover() derives the free pools.
  const auto intent = j.replay();
  EXPECT_EQ(intent.stable.quarantined_fibers[0], std::vector<int>{4});
  EXPECT_TRUE(intent.stable.quarantined_txs.at(2).contains(7));
}

TEST(JournalCompact, DropsHistoryBeforeLastCheckpoint) {
  const Fixture& f = fixture();
  IntentJournal journal;
  ControllerRig rig(f.map, f.net, f.plan);
  IrisController& controller = rig.controller;
  controller.attach_journal(&journal);
  controller.apply_traffic_matrix(demand(f.map, 0));
  // A second checkpoint, as the controller appends every kCheckpointEvery
  // applies, so the history before it can go.
  journal.append(CheckpointRecord{controller.snapshot()});
  controller.apply_traffic_matrix(demand(f.map, 1));

  const auto before = journal.replay();
  const std::size_t before_size = journal.size();
  journal.compact();
  EXPECT_LT(journal.size(), before_size);
  ASSERT_FALSE(journal.empty());
  EXPECT_TRUE(std::holds_alternative<CheckpointRecord>(journal.entries()[0]));

  const auto after = journal.replay();
  EXPECT_EQ(after.stable.applies_completed, before.stable.applies_completed);
  EXPECT_EQ(after.stable.active, before.stable.active);
  EXPECT_EQ(after.stable.free_fibers, before.stable.free_fibers);
  EXPECT_EQ(after.stable.expected_tuned, before.stable.expected_tuned);

  // Compacted journal still round-trips through text.
  EXPECT_EQ(IntentJournal::from_text(journal.to_text()).to_text(),
            journal.to_text());
}

}  // namespace
}  // namespace iris::control
