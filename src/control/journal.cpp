#include "control/journal.hpp"

#include <algorithm>
#include <functional>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "control/ledger.hpp"

namespace iris::control {

namespace {

template <class... Ts>
struct overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
overloaded(Ts...) -> overloaded<Ts...>;

// ---- text writing ----------------------------------------------------------

std::string fmt_double(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

void put_list(std::ostream& os, const std::vector<int>& v) {
  os << ' ' << v.size();
  for (int x : v) os << ' ' << x;
}

void put_circuit(std::ostream& os, const Circuit& c) {
  os << "circuit " << c.pair.a << ' ' << c.pair.b << ' ' << c.fiber_pairs << ' '
     << c.wavelengths << ' ' << c.route.nodes.size();
  for (graph::NodeId n : c.route.nodes) os << ' ' << n;
  os << ' ' << c.route.edges.size();
  for (graph::EdgeId e : c.route.edges) os << ' ' << e;
  os << ' ' << fmt_double(c.route.length_km) << '\n';
}

void put_alloc(std::ostream& os, const AllocationRecord& a) {
  os << "alloc " << a.fibers_per_hop.size();
  for (const auto& hop : a.fibers_per_hop) put_list(os, hop);
  os << ' ' << (a.amp_site ? 1 : 0);
  if (a.amp_site) os << ' ' << *a.amp_site;
  put_list(os, a.amp_units);
  put_list(os, a.add_drop_a);
  put_list(os, a.add_drop_b);
  os << '\n';
}

/// A `<header> <n>` section of n `pool <free> <quarantined>` lines.
void put_pools(std::ostream& os, const char* header,
               const std::vector<std::vector<int>>& free,
               const std::vector<std::vector<int>>& quarantined) {
  os << header << ' ' << free.size() << '\n';
  for (std::size_t i = 0; i < free.size(); ++i) {
    os << "pool";
    put_list(os, free[i]);
    put_list(os, i < quarantined.size() ? quarantined[i] : std::vector<int>{});
    os << '\n';
  }
}

void put_record(std::ostream& os, const CheckpointRecord& r) {
  const ControllerCheckpoint& s = r.state;
  os << "checkpoint " << s.applies_completed << ' ' << s.active.size() << '\n';
  for (std::size_t i = 0; i < s.active.size(); ++i) {
    put_circuit(os, s.active[i]);
    put_alloc(os, s.allocations[i]);
  }
  put_pools(os, "fibers", s.free_fibers, s.quarantined_fibers);
  put_pools(os, "amps", s.free_amps, s.quarantined_amps);
  // Union of keys so a DC listed in only one map (a replayed checkpoint has
  // no free lists) still round-trips.
  std::set<graph::NodeId> dcs;
  for (const auto& [dc, pool] : s.free_add_drop) dcs.insert(dc);
  for (const auto& [dc, pool] : s.quarantined_add_drop) dcs.insert(dc);
  os << "add_drop " << dcs.size() << '\n';
  for (graph::NodeId dc : dcs) {
    static const std::vector<int> kNone;
    const auto f = s.free_add_drop.find(dc);
    const auto q = s.quarantined_add_drop.find(dc);
    os << "dcpool " << dc;
    put_list(os, f == s.free_add_drop.end() ? kNone : f->second);
    put_list(os, q == s.quarantined_add_drop.end() ? kNone : q->second);
    os << '\n';
  }
  os << "quarantined_txs " << s.quarantined_txs.size() << '\n';
  for (const auto& [dc, txs] : s.quarantined_txs) {
    os << "dctxs " << dc << ' ' << txs.size();
    for (int t : txs) os << ' ' << t;
    os << '\n';
  }
  os << "zombies " << s.zombies.size() << '\n';
  for (const ZombieConnect& z : s.zombies) {
    os << "zombie " << z.site << ' ' << z.in_port << ' ' << z.out_port << '\n';
  }
  os << "expected_tuned " << s.expected_tuned.size() << '\n';
  for (const auto& [dc, count] : s.expected_tuned) {
    os << "tuned " << dc << ' ' << count << '\n';
  }
  os << "failed_ducts " << s.failed_ducts.size();
  for (graph::EdgeId e : s.failed_ducts) os << ' ' << e;
  os << '\n';
}

// The schedule-slot fields are omitted when unset (serial command plane), so
// serial journals stay byte-identical to the historical format.
void put_record(std::ostream& os, const BeginApplyRecord& r) {
  os << "begin_apply " << r.seq << ' ' << r.strategy << ' ' << r.target.size();
  if (r.slots > 0) os << " slots " << r.slots;
  os << '\n';
  for (const Circuit& c : r.target) put_circuit(os, c);
}

void put_record(std::ostream& os, const TeardownBeginRecord& r) {
  os << "teardown_begin";
  if (r.slot >= 0) os << " slot " << r.slot;
  os << '\n';
  put_circuit(os, r.circuit);
}

void put_record(std::ostream& os, const TeardownDoneRecord& r) {
  os << "teardown_done\n";
  put_circuit(os, r.circuit);
}

void put_record(std::ostream& os, const EstablishBeginRecord& r) {
  os << "establish_begin";
  if (r.slot >= 0) os << " slot " << r.slot;
  os << '\n';
  put_circuit(os, r.circuit);
  put_alloc(os, r.alloc);
}

void put_record(std::ostream& os, const EstablishDoneRecord& r) {
  os << "establish_done\n";
  put_circuit(os, r.circuit);
}

void put_record(std::ostream& os, const QuarantineRecord& r) {
  os << "quarantine " << r.kind << ' ' << r.a << ' ' << r.b << '\n';
}

void put_record(std::ostream& os, const ZombieRecord& r) {
  os << "zombie " << r.zombie.site << ' ' << r.zombie.in_port << ' '
     << r.zombie.out_port << '\n';
}

void put_record(std::ostream& os, const DuctEventRecord& r) {
  os << "duct_event " << r.duct << ' ' << (r.failed ? 1 : 0) << '\n';
}

void put_record(std::ostream& os, const ApplyEndRecord& r) {
  os << "apply_end " << r.seq << ' ' << r.outcome << ' ' << r.active.size()
     << ' ' << r.expected_tuned.size() << '\n';
  for (const Circuit& c : r.active) put_circuit(os, c);
  for (const auto& [dc, count] : r.expected_tuned) {
    os << "tuned " << dc << ' ' << count << '\n';
  }
}

// ---- text reading ----------------------------------------------------------

/// Internal parse failure. Deliberately not a std::exception: load() decides
/// whether it means a torn tail (tolerated) or corruption (rethrown as
/// std::runtime_error); validation errors bypass it entirely.
struct ParseError {
  std::size_t line_no;
  std::string what;
};

[[noreturn]] void parse_fail(std::size_t line_no, const std::string& what) {
  throw ParseError{line_no, what};
}

/// Tokenizer over one journal line.
class Line {
 public:
  Line(const std::string& text, std::size_t line_no)
      : ss_(text), line_no_(line_no) {}

  std::string word(const char* what) {
    std::string w;
    if (!(ss_ >> w)) parse_fail(line_no_, std::string("expected ") + what);
    return w;
  }
  void expect(const char* keyword) {
    const std::string w = word(keyword);
    if (w != keyword) {
      parse_fail(line_no_, std::string("expected '") + keyword + "', got '" +
                               w + "'");
    }
  }
  long long num(const char* what) {
    long long v = 0;
    if (!(ss_ >> v)) parse_fail(line_no_, std::string("expected ") + what);
    return v;
  }
  int count(const char* what) {
    const long long v = num(what);
    if (v < 0 || v > (1LL << 24)) {
      parse_fail(line_no_, std::string("bad count for ") + what);
    }
    return static_cast<int>(v);
  }
  double real(const char* what) {
    double v = 0.0;
    if (!(ss_ >> v)) parse_fail(line_no_, std::string("expected ") + what);
    return v;
  }
  /// Optional trailing `<tag> <value>` pair: absent at end of line returns
  /// `dflt`; a present token that is not `tag` is a parse failure.
  long long opt_tagged_num(const char* tag, long long dflt) {
    std::string w;
    if (!(ss_ >> w)) return dflt;
    if (w != tag) {
      parse_fail(line_no_,
                 std::string("expected '") + tag + "', got '" + w + "'");
    }
    return num(tag);
  }
  void end() {
    std::string extra;
    if (ss_ >> extra) {
      parse_fail(line_no_, "trailing tokens starting at '" + extra + "'");
    }
  }
  [[nodiscard]] std::size_t line_no() const noexcept { return line_no_; }

 private:
  std::istringstream ss_;
  std::size_t line_no_;
};

/// The framed body lines of one record.
class Body {
 public:
  Body(const std::vector<std::string>& lines, std::size_t first, std::size_t n)
      : lines_(lines), next_(first), end_(first + n) {}

  Line next(const char* what) {
    if (next_ >= end_) {
      parse_fail(end_, std::string("record truncated: missing ") + what);
    }
    const std::size_t i = next_++;
    return Line(lines_[i], i + 1);
  }
  void done() {
    if (next_ < end_) parse_fail(next_ + 1, "unconsumed lines in record");
  }

 private:
  const std::vector<std::string>& lines_;
  std::size_t next_;
  std::size_t end_;
};

std::vector<int> read_list(Line& ln, const char* what) {
  const int n = ln.count(what);
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(static_cast<int>(ln.num(what)));
  return out;
}

Circuit parse_circuit(Line& ln) {
  ln.expect("circuit");
  Circuit c;
  c.pair.a = static_cast<graph::NodeId>(ln.num("pair.a"));
  c.pair.b = static_cast<graph::NodeId>(ln.num("pair.b"));
  c.fiber_pairs = static_cast<int>(ln.num("fiber_pairs"));
  c.wavelengths = ln.num("wavelengths");
  const int nn = ln.count("node count");
  c.route.nodes.reserve(static_cast<std::size_t>(nn));
  for (int i = 0; i < nn; ++i) {
    c.route.nodes.push_back(static_cast<graph::NodeId>(ln.num("node")));
  }
  const int ne = ln.count("edge count");
  c.route.edges.reserve(static_cast<std::size_t>(ne));
  for (int i = 0; i < ne; ++i) {
    c.route.edges.push_back(static_cast<graph::EdgeId>(ln.num("edge")));
  }
  c.route.length_km = ln.real("length_km");
  ln.end();
  return c;
}

AllocationRecord parse_alloc(Line& ln) {
  ln.expect("alloc");
  AllocationRecord a;
  const int hops = ln.count("hop count");
  a.fibers_per_hop.reserve(static_cast<std::size_t>(hops));
  for (int h = 0; h < hops; ++h) {
    a.fibers_per_hop.push_back(read_list(ln, "hop fibers"));
  }
  if (ln.num("amp flag") != 0) {
    a.amp_site = static_cast<graph::NodeId>(ln.num("amp site"));
  }
  a.amp_units = read_list(ln, "amp units");
  a.add_drop_a = read_list(ln, "add/drop a");
  a.add_drop_b = read_list(ln, "add/drop b");
  ln.end();
  return a;
}

ZombieConnect parse_zombie_fields(Line& ln) {
  ZombieConnect z;
  z.site = static_cast<graph::NodeId>(ln.num("zombie site"));
  z.in_port = static_cast<int>(ln.num("zombie in_port"));
  z.out_port = static_cast<int>(ln.num("zombie out_port"));
  ln.end();
  return z;
}

/// Parses a put_pools section.
void read_pools(Body& body, const char* header,
                std::vector<std::vector<int>>& free,
                std::vector<std::vector<int>>& quarantined) {
  Line h = body.next(header);
  h.expect(header);
  const int n = h.count("pool count");
  h.end();
  for (int i = 0; i < n; ++i) {
    Line p = body.next("pool");
    p.expect("pool");
    free.push_back(read_list(p, "free list"));
    quarantined.push_back(read_list(p, "quarantine list"));
    p.end();
  }
}

JournalEntry parse_checkpoint(Line& header, Body& body) {
  ControllerCheckpoint s;
  s.applies_completed = static_cast<std::uint64_t>(
      header.num("applies_completed"));
  const int n_active = header.count("active count");
  header.end();
  for (int i = 0; i < n_active; ++i) {
    Line cl = body.next("circuit");
    s.active.push_back(parse_circuit(cl));
    Line al = body.next("alloc");
    s.allocations.push_back(parse_alloc(al));
  }
  read_pools(body, "fibers", s.free_fibers, s.quarantined_fibers);
  read_pools(body, "amps", s.free_amps, s.quarantined_amps);
  {
    Line h = body.next("add_drop header");
    h.expect("add_drop");
    const int dcs = h.count("dc count");
    h.end();
    for (int i = 0; i < dcs; ++i) {
      Line p = body.next("add/drop pool");
      p.expect("dcpool");
      const auto dc = static_cast<graph::NodeId>(p.num("dc"));
      s.free_add_drop[dc] = read_list(p, "free add/drop");
      s.quarantined_add_drop[dc] = read_list(p, "quarantined add/drop");
      p.end();
    }
  }
  {
    Line h = body.next("quarantined_txs header");
    h.expect("quarantined_txs");
    const int dcs = h.count("dc count");
    h.end();
    for (int i = 0; i < dcs; ++i) {
      Line p = body.next("tx set");
      p.expect("dctxs");
      const auto dc = static_cast<graph::NodeId>(p.num("dc"));
      auto& set = s.quarantined_txs[dc];
      for (int t : read_list(p, "quarantined txs")) set.insert(t);
      p.end();
    }
  }
  {
    Line h = body.next("zombies header");
    h.expect("zombies");
    const int n = h.count("zombie count");
    h.end();
    for (int i = 0; i < n; ++i) {
      Line z = body.next("zombie");
      z.expect("zombie");
      s.zombies.push_back(parse_zombie_fields(z));
    }
  }
  {
    Line h = body.next("expected_tuned header");
    h.expect("expected_tuned");
    const int n = h.count("dc count");
    h.end();
    for (int i = 0; i < n; ++i) {
      Line t = body.next("tuned");
      t.expect("tuned");
      const auto dc = static_cast<graph::NodeId>(t.num("dc"));
      s.expected_tuned[dc] = t.num("tuned count");
      t.end();
    }
  }
  {
    Line h = body.next("failed_ducts");
    h.expect("failed_ducts");
    for (int e : read_list(h, "failed ducts")) {
      s.failed_ducts.push_back(static_cast<graph::EdgeId>(e));
    }
    h.end();
  }
  validate_checkpoint(s);  // semantic corruption always throws, even if final
  return CheckpointRecord{std::move(s)};
}

JournalEntry parse_record(Body& body) {
  Line ln = body.next("record type");
  const std::string kw = ln.word("record type");
  if (kw == "checkpoint") return parse_checkpoint(ln, body);
  if (kw == "begin_apply") {
    BeginApplyRecord r;
    r.seq = static_cast<std::uint64_t>(ln.num("seq"));
    r.strategy = static_cast<int>(ln.num("strategy"));
    const int n = ln.count("target count");
    const long long slots = ln.opt_tagged_num("slots", 0);
    ln.end();
    if (slots < 0 || slots > (1LL << 24)) {
      parse_fail(ln.line_no(), "bad slot count");
    }
    r.slots = static_cast<int>(slots);
    for (int i = 0; i < n; ++i) {
      Line cl = body.next("target circuit");
      r.target.push_back(parse_circuit(cl));
    }
    return r;
  }
  if (kw == "teardown_begin" || kw == "teardown_done" ||
      kw == "establish_done") {
    long long slot = -1;
    if (kw == "teardown_begin") slot = ln.opt_tagged_num("slot", -1);
    ln.end();
    if (slot < -1 || slot > (1LL << 24)) {
      parse_fail(ln.line_no(), "bad schedule slot");
    }
    Line cl = body.next("circuit");
    Circuit c = parse_circuit(cl);
    if (kw == "teardown_begin") {
      return TeardownBeginRecord{std::move(c), static_cast<int>(slot)};
    }
    if (kw == "teardown_done") return TeardownDoneRecord{std::move(c)};
    return EstablishDoneRecord{std::move(c)};
  }
  if (kw == "establish_begin") {
    const long long slot = ln.opt_tagged_num("slot", -1);
    ln.end();
    if (slot < -1 || slot > (1LL << 24)) {
      parse_fail(ln.line_no(), "bad schedule slot");
    }
    Line cl = body.next("circuit");
    Circuit c = parse_circuit(cl);
    Line al = body.next("alloc");
    AllocationRecord a = parse_alloc(al);
    return EstablishBeginRecord{std::move(c), std::move(a),
                                static_cast<int>(slot)};
  }
  if (kw == "quarantine") {
    QuarantineRecord r;
    r.kind = static_cast<int>(ln.num("kind"));
    r.a = static_cast<int>(ln.num("a"));
    r.b = static_cast<int>(ln.num("b"));
    ln.end();
    if (r.kind < 0 || r.kind > static_cast<int>(ResKind::kTransceiver)) {
      parse_fail(ln.line_no(), "bad quarantine kind");
    }
    return r;
  }
  if (kw == "zombie") return ZombieRecord{parse_zombie_fields(ln)};
  if (kw == "duct_event") {
    DuctEventRecord r;
    r.duct = static_cast<graph::EdgeId>(ln.num("duct"));
    const long long f = ln.num("failed flag");
    ln.end();
    if (f != 0 && f != 1) parse_fail(ln.line_no(), "bad duct_event flag");
    r.failed = f == 1;
    return r;
  }
  if (kw == "apply_end") {
    ApplyEndRecord r;
    r.seq = static_cast<std::uint64_t>(ln.num("seq"));
    r.outcome = static_cast<int>(ln.num("outcome"));
    const int n_active = ln.count("active count");
    const int n_tuned = ln.count("tuned count");
    ln.end();
    for (int i = 0; i < n_active; ++i) {
      Line cl = body.next("active circuit");
      r.active.push_back(parse_circuit(cl));
    }
    for (int i = 0; i < n_tuned; ++i) {
      Line t = body.next("tuned");
      t.expect("tuned");
      const auto dc = static_cast<graph::NodeId>(t.num("dc"));
      r.expected_tuned[dc] = t.num("tuned count");
      t.end();
    }
    return r;
  }
  parse_fail(ln.line_no(), "unknown record type '" + kw + "'");
}

bool blank(const std::string& line) {
  return line.empty() || line[0] == '#';
}

}  // namespace

std::size_t IntentJournal::compact() {
  for (std::size_t i = entries_.size(); i-- > 0;) {
    if (std::holds_alternative<CheckpointRecord>(entries_[i])) {
      entries_.erase(entries_.begin(),
                     entries_.begin() + static_cast<std::ptrdiff_t>(i));
      return i;
    }
  }
  return 0;
}

void IntentJournal::save(std::ostream& os) const {
  os << "iris-journal v1\n";
  for (const JournalEntry& e : entries_) {
    std::ostringstream body;
    std::visit([&](const auto& r) { put_record(body, r); }, e);
    const std::string text = body.str();
    os << "record " << std::count(text.begin(), text.end(), '\n') << '\n'
       << text;
  }
}

std::string IntentJournal::to_text() const {
  std::ostringstream os;
  save(os);
  return os.str();
}

IntentJournal IntentJournal::load(std::istream& is) {
  std::vector<std::string> lines;
  bool partial_line = false;
  for (std::string line; std::getline(is, line);) {
    partial_line = is.eof();
    lines.push_back(std::move(line));
  }
  IntentJournal journal;
  // A crash mid-write leaves a torn tail: a final line without its '\n'
  // (save() ends every line with one) -- dropped here even when it still
  // parses, since a number cut short is still a number -- or a final record
  // short of its framed lines. Every other defect is corruption.
  if (partial_line) {
    lines.pop_back();
    journal.dropped_torn_tail_ = true;
  }
  try {
    std::size_t i = 0;
    while (i < lines.size() && blank(lines[i])) ++i;
    if (i >= lines.size()) return journal;  // empty file: empty journal
    Line header(lines[i], i + 1);
    header.expect("iris-journal");
    header.expect("v1");
    header.end();
    ++i;
    while (true) {
      while (i < lines.size() && blank(lines[i])) ++i;
      if (i >= lines.size()) break;
      Line framing(lines[i], i + 1);
      framing.expect("record");
      const int n = framing.count("record line count");
      framing.end();
      if (i + 1 + static_cast<std::size_t>(n) > lines.size()) {
        journal.dropped_torn_tail_ = true;
        break;
      }
      Body body(lines, i + 1, static_cast<std::size_t>(n));
      journal.entries_.push_back(parse_record(body));
      body.done();
      i += 1 + static_cast<std::size_t>(n);
    }
  } catch (const ParseError& e) {
    throw std::runtime_error("journal: line " + std::to_string(e.line_no) +
                             ": " + e.what);
  }
  return journal;
}

IntentJournal IntentJournal::from_text(const std::string& text) {
  std::istringstream is(text);
  return load(is);
}

IntentJournal::Intent IntentJournal::replay() const {
  Intent out;
  ControllerCheckpoint& st = out.stable;
  std::optional<InFlightApply>& ifa = out.in_flight;

  const auto replay_fail = [](const std::string& what) {
    throw std::runtime_error("journal replay: " + what);
  };
  const auto mark_done = [&](bool teardown, const Circuit& c,
                             const char* what) {
    if (!ifa) replay_fail(std::string(what) + " outside an apply");
    for (auto it = ifa->ops.rbegin(); it != ifa->ops.rend(); ++it) {
      if (it->teardown == teardown && !it->done && it->circuit == c) {
        it->done = true;
        return;
      }
    }
    replay_fail(std::string(what) + " without a matching begin");
  };
  // The replayed stable state carries quarantine lists but no free pools:
  // recover() derives those from the inventory and everything held.
  const auto quarantine_list = [&](ResKind kind, int owner) -> auto& {
    if (kind == ResKind::kAddDrop) return st.quarantined_add_drop[owner];
    auto& lists = kind == ResKind::kFiber ? st.quarantined_fibers
                                          : st.quarantined_amps;
    if (std::ssize(lists) <= owner) lists.resize(owner + 1);
    return lists[owner];
  };

  for (const JournalEntry& entry : entries_) {
    std::visit(
        overloaded{
            [&](const CheckpointRecord& r) {
              if (ifa) replay_fail("checkpoint inside an open apply");
              validate_checkpoint(r.state);
              st = r.state;
              st.free_fibers.clear();
              st.free_amps.clear();
              st.free_add_drop.clear();
            },
            [&](const BeginApplyRecord& r) {
              if (ifa) replay_fail("begin_apply while an apply is open");
              ifa = InFlightApply{r.seq, r.strategy, r.target, {}, r.slots};
            },
            [&](const TeardownBeginRecord& r) {
              if (!ifa) replay_fail("teardown_begin outside an apply");
              ifa->ops.push_back({true, r.circuit, std::nullopt, false, r.slot});
            },
            [&](const TeardownDoneRecord& r) {
              mark_done(true, r.circuit, "teardown_done");
            },
            [&](const EstablishBeginRecord& r) {
              if (!ifa) replay_fail("establish_begin outside an apply");
              ifa->ops.push_back({false, r.circuit, r.alloc, false, r.slot});
            },
            [&](const EstablishDoneRecord& r) {
              mark_done(false, r.circuit, "establish_done");
            },
            [&](const QuarantineRecord& r) {
              if (r.a < 0 || r.b < 0) replay_fail("bad quarantine record");
              const auto kind = static_cast<ResKind>(r.kind);
              if (kind == ResKind::kTransceiver) {
                st.quarantined_txs[r.a].insert(r.b);
                return;
              }
              auto& list = quarantine_list(kind, r.a);
              if (std::find(list.begin(), list.end(), r.b) == list.end()) {
                list.push_back(r.b);
              }
            },
            [&](const ZombieRecord& r) {
              if (std::find(st.zombies.begin(), st.zombies.end(), r.zombie) ==
                  st.zombies.end()) {
                st.zombies.push_back(r.zombie);
              }
            },
            [&](const DuctEventRecord& r) {
              const auto it = std::find(st.failed_ducts.begin(),
                                        st.failed_ducts.end(), r.duct);
              if (r.failed && it == st.failed_ducts.end()) {
                st.failed_ducts.push_back(r.duct);
              } else if (!r.failed && it != st.failed_ducts.end()) {
                st.failed_ducts.erase(it);
              }
            },
            [&](const ApplyEndRecord& r) {
              if (!ifa || ifa->seq != r.seq) {
                replay_fail("apply_end without a matching begin_apply");
              }
              // Resolve allocations for the final set: the apply's own
              // establishes first (latest wins -- a circuit may have been
              // unwound and retried on fresh resources), then the previous
              // stable books for survivors.
              std::vector<AllocationRecord> allocations;
              for (const Circuit& c : r.active) {
                const auto op = std::find_if(
                    ifa->ops.rbegin(), ifa->ops.rend(), [&](const auto& o) {
                      return !o.teardown && o.circuit == c;
                    });
                const auto kept =
                    std::find(st.active.begin(), st.active.end(), c);
                if (op != ifa->ops.rend()) {
                  allocations.push_back(*op->alloc);
                } else if (kept != st.active.end()) {
                  allocations.push_back(
                      st.allocations[static_cast<std::size_t>(
                          kept - st.active.begin())]);
                } else {
                  replay_fail("apply_end circuit has no known allocation");
                }
              }
              st.active = r.active;
              st.allocations = std::move(allocations);
              st.expected_tuned = r.expected_tuned;
              ++st.applies_completed;
              ifa.reset();
            },
        },
        entry);
  }
  return out;
}

void validate_checkpoint(const ControllerCheckpoint& cp) {
  const auto corrupt = [](const std::string& what) {
    throw std::runtime_error("journal: corrupt checkpoint: " + what);
  };
  if (cp.allocations.size() != cp.active.size()) {
    corrupt("active/allocation count mismatch");
  }
  // A written checkpoint lists a free pool beside every quarantine list; a
  // replayed one carries no free pools at all. Either way the quarantine
  // lists name every duct and site, and allocations must stay inside them.
  if (!cp.free_fibers.empty() &&
      cp.free_fibers.size() != cp.quarantined_fibers.size()) {
    corrupt("fiber pool vector sizes differ");
  }
  if (!cp.free_amps.empty() &&
      cp.free_amps.size() != cp.quarantined_amps.size()) {
    corrupt("amplifier pool vector sizes differ");
  }

  // The checkpoint does not record pool sizes, so the census grows with the
  // indices listed and the mid-transaction rule applies: no index twice in
  // one part, none free while also quarantined or held.
  Census census;
  using Use = Census::Use;
  const auto count_lists = [&](ResKind kind,
                               const std::vector<std::vector<int>>& lists,
                               Use use) {
    for (std::size_t i = 0; i < lists.size(); ++i) {
      census.count({kind, static_cast<int>(i)}, use, lists[i]);
    }
  };
  // In PoolId order (fibers, add/drop, amplifiers), so new pools append.
  count_lists(ResKind::kFiber, cp.free_fibers, Use::kFree);
  count_lists(ResKind::kFiber, cp.quarantined_fibers, Use::kQuarantined);
  for (const auto& [dc, list] : cp.free_add_drop) {
    census.count({ResKind::kAddDrop, dc}, Use::kFree, list);
  }
  for (const auto& [dc, list] : cp.quarantined_add_drop) {
    census.count({ResKind::kAddDrop, dc}, Use::kQuarantined, list);
  }
  count_lists(ResKind::kAmp, cp.free_amps, Use::kFree);
  count_lists(ResKind::kAmp, cp.quarantined_amps, Use::kQuarantined);

  for (std::size_t i = 0; i < cp.active.size(); ++i) {
    const Circuit& c = cp.active[i];
    const AllocationRecord& a = cp.allocations[i];
    if (c.pair.a < 0 || c.pair.b < 0) corrupt("negative circuit endpoint");
    if (c.fiber_pairs <= 0 || c.wavelengths < 0) corrupt("bad circuit sizes");
    if (c.route.nodes.size() != c.route.edges.size() + 1) {
      corrupt("route node/edge counts inconsistent");
    }
    for (graph::NodeId n : c.route.nodes) {
      if (n < 0) corrupt("negative route node");
    }
    if (a.fibers_per_hop.size() != c.route.edges.size()) {
      corrupt("allocation hop count != route edge count");
    }
    for (std::size_t h = 0; h < a.fibers_per_hop.size(); ++h) {
      const graph::EdgeId e = c.route.edges[h];
      if (e < 0) corrupt("negative route edge");
      if (!cp.quarantined_fibers.empty() &&
          e >= std::ssize(cp.quarantined_fibers)) {
        corrupt("allocation references unknown duct");
      }
      if (static_cast<int>(a.fibers_per_hop[h].size()) != c.fiber_pairs) {
        corrupt("hop fiber count != circuit fiber_pairs");
      }
    }
    if (a.amp_site) {
      if (*a.amp_site < 0) corrupt("negative amplifier site");
      if (!cp.quarantined_amps.empty() &&
          *a.amp_site >= std::ssize(cp.quarantined_amps)) {
        corrupt("allocation references unknown amplifier site");
      }
      if (static_cast<int>(a.amp_units.size()) != c.fiber_pairs) {
        corrupt("amp unit count != circuit fiber_pairs");
      }
    } else if (!a.amp_units.empty()) {
      corrupt("amplifier units without an amplifier site");
    }
    if (static_cast<int>(a.add_drop_a.size()) != c.fiber_pairs ||
        static_cast<int>(a.add_drop_b.size()) != c.fiber_pairs) {
      corrupt("add/drop count != circuit fiber_pairs");
    }
    census.hold(c, a);
  }
  if (const auto faults = census.faults(PartitionRule::kMidTransaction);
      !faults.empty()) {
    corrupt(faults.front().second);
  }
  for (const auto& [dc, txs] : cp.quarantined_txs) {
    if (dc < 0) corrupt("negative transceiver DC");
    for (int t : txs) {
      if (t < 0) corrupt("negative transceiver index");
    }
  }
  for (const auto& [dc, count] : cp.expected_tuned) {
    if (dc < 0 || count < 0) corrupt("bad expected tuned entry");
  }
  for (const ZombieConnect& z : cp.zombies) {
    if (z.site < 0 || z.in_port < 0 || z.out_port < 0) {
      corrupt("bad zombie cross-connect");
    }
  }
  {
    std::set<graph::EdgeId> seen;
    for (graph::EdgeId e : cp.failed_ducts) {
      if (e < 0) corrupt("negative failed duct");
      if (!seen.insert(e).second) corrupt("duplicate failed duct");
    }
  }
}

}  // namespace iris::control
