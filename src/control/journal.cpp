#include "control/journal.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdlib>
#include <istream>
#include <iterator>
#include <ostream>
#include <stdexcept>
#include <string_view>

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
//
// Every record appends to one string. Integers print as decimal and reals
// as `%.17g`, so the bytes match what a C-locale ostream at precision 17
// writes.

void put1(std::string& out, std::string_view s) { out += s; }
void put1(std::string& out, char c) { out += c; }
template <std::integral T>
void put1(std::string& out, T v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}
void put1(std::string& out, double v) {
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v,
                                std::chars_format::general, 17)
                      .ptr);
}

template <class... Ts>
void put(std::string& out, const Ts&... parts) {
  (put1(out, parts), ...);
}

const std::vector<int> kNoIndices;

void put_list(std::string& out, const std::vector<int>& v) {
  put(out, ' ', v.size());
  for (int x : v) put(out, ' ', x);
}

void put_circuit(std::string& out, const Circuit& c) {
  put(out, "circuit ", c.pair.a, ' ', c.pair.b, ' ', c.fiber_pairs, ' ',
      c.wavelengths, ' ', c.route.nodes.size());
  for (graph::NodeId n : c.route.nodes) put(out, ' ', n);
  put(out, ' ', c.route.edges.size());
  for (graph::EdgeId e : c.route.edges) put(out, ' ', e);
  put(out, ' ', c.route.length_km, '\n');
}

void put_alloc(std::string& out, const AllocationRecord& a) {
  put(out, "alloc ", a.fibers_per_hop.size());
  for (const auto& hop : a.fibers_per_hop) put_list(out, hop);
  put(out, ' ', a.amp_site ? 1 : 0);
  if (a.amp_site) put(out, ' ', *a.amp_site);
  put_list(out, a.amp_units);
  put_list(out, a.add_drop_a);
  put_list(out, a.add_drop_b);
  put(out, '\n');
}

/// A `<header> <n>` section of n `pool <free> <quarantined>` lines.
void put_pools(std::string& out, std::string_view header,
               const std::vector<std::vector<int>>& free,
               const std::vector<std::vector<int>>& quarantined) {
  put(out, header, ' ', free.size(), '\n');
  for (std::size_t i = 0; i < free.size(); ++i) {
    put(out, "pool");
    put_list(out, free[i]);
    put_list(out, i < quarantined.size() ? quarantined[i] : kNoIndices);
    put(out, '\n');
  }
}

void put_record(std::string& out, const CheckpointRecord& r) {
  const ControllerCheckpoint& s = r.state;
  put(out, "checkpoint ", s.applies_completed, ' ', s.active.size(), '\n');
  for (std::size_t i = 0; i < s.active.size(); ++i) {
    put_circuit(out, s.active[i]);
    put_alloc(out, s.allocations[i]);
  }
  put_pools(out, "fibers", s.free_fibers, s.quarantined_fibers);
  put_pools(out, "amps", s.free_amps, s.quarantined_amps);
  // Union of keys so a DC listed in only one map (a replayed checkpoint has
  // no free lists) still round-trips.
  std::set<graph::NodeId> dcs;
  for (const auto& [dc, pool] : s.free_add_drop) dcs.insert(dc);
  for (const auto& [dc, pool] : s.quarantined_add_drop) dcs.insert(dc);
  put(out, "add_drop ", dcs.size(), '\n');
  for (graph::NodeId dc : dcs) {
    const auto f = s.free_add_drop.find(dc);
    const auto q = s.quarantined_add_drop.find(dc);
    put(out, "dcpool ", dc);
    put_list(out, f == s.free_add_drop.end() ? kNoIndices : f->second);
    put_list(out, q == s.quarantined_add_drop.end() ? kNoIndices : q->second);
    put(out, '\n');
  }
  put(out, "quarantined_txs ", s.quarantined_txs.size(), '\n');
  for (const auto& [dc, txs] : s.quarantined_txs) {
    put(out, "dctxs ", dc, ' ', txs.size());
    for (int t : txs) put(out, ' ', t);
    put(out, '\n');
  }
  put(out, "zombies ", s.zombies.size(), '\n');
  for (const ZombieConnect& z : s.zombies) {
    put(out, "zombie ", z.site, ' ', z.in_port, ' ', z.out_port, '\n');
  }
  put(out, "expected_tuned ", s.expected_tuned.size(), '\n');
  for (const auto& [dc, count] : s.expected_tuned) {
    put(out, "tuned ", dc, ' ', count, '\n');
  }
  put(out, "failed_ducts ", s.failed_ducts.size());
  for (graph::EdgeId e : s.failed_ducts) put(out, ' ', e);
  put(out, '\n');
}

// The schedule-slot fields are omitted when unset (serial command plane), so
// serial journals stay byte-identical to the historical format.
void put_record(std::string& out, const BeginApplyRecord& r) {
  put(out, "begin_apply ", r.seq, ' ', r.strategy, ' ', r.target.size());
  if (r.slots > 0) put(out, " slots ", r.slots);
  put(out, '\n');
  for (const Circuit& c : r.target) put_circuit(out, c);
}

void put_record(std::string& out, const TeardownBeginRecord& r) {
  put(out, "teardown_begin");
  if (r.slot >= 0) put(out, " slot ", r.slot);
  put(out, '\n');
  put_circuit(out, r.circuit);
}

void put_record(std::string& out, const TeardownDoneRecord& r) {
  put(out, "teardown_done\n");
  put_circuit(out, r.circuit);
}

void put_record(std::string& out, const EstablishBeginRecord& r) {
  put(out, "establish_begin");
  if (r.slot >= 0) put(out, " slot ", r.slot);
  put(out, '\n');
  put_circuit(out, r.circuit);
  put_alloc(out, r.alloc);
}

void put_record(std::string& out, const EstablishDoneRecord& r) {
  put(out, "establish_done\n");
  put_circuit(out, r.circuit);
}

void put_record(std::string& out, const QuarantineRecord& r) {
  put(out, "quarantine ", r.kind, ' ', r.a, ' ', r.b, '\n');
}

void put_record(std::string& out, const ZombieRecord& r) {
  put(out, "zombie ", r.zombie.site, ' ', r.zombie.in_port, ' ',
      r.zombie.out_port, '\n');
}

void put_record(std::string& out, const DuctEventRecord& r) {
  put(out, "duct_event ", r.duct, ' ', r.failed ? 1 : 0, '\n');
}

void put_record(std::string& out, const ApplyEndRecord& r) {
  put(out, "apply_end ", r.seq, ' ', r.outcome, ' ', r.active.size(), ' ',
      r.expected_tuned.size(), '\n');
  for (const Circuit& c : r.active) put_circuit(out, c);
  for (const auto& [dc, count] : r.expected_tuned) {
    put(out, "tuned ", dc, ' ', count, '\n');
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

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}
bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Tokenizer over one journal line. It takes exactly what a C-locale
/// istream's `>>` takes: words are runs of non-space characters; a number
/// is an optional sign (`+` too) and decimal digits, for a real followed by
/// a fraction and an exponent, and ends where those do, so `12abc` leaves
/// `abc` as the next token. Hex, infinities, NaNs and values out of range
/// are not numbers.
class Line {
 public:
  Line(std::string_view text, std::size_t line_no)
      : rest_(text), line_no_(line_no) {}

  std::string_view word(const char* what) {
    skip_space();
    if (rest_.empty()) parse_fail(line_no_, std::string("expected ") + what);
    std::size_t n = 0;
    while (n < rest_.size() && !is_space(rest_[n])) ++n;
    return take(n);
  }
  void expect(const char* keyword) {
    const std::string_view w = word(keyword);
    if (w != keyword) {
      parse_fail(line_no_, std::string("expected '") + keyword + "', got '" +
                               std::string(w) + "'");
    }
  }
  long long num(const char* what) {
    skip_space();
    std::size_t n = sign_length();
    const std::size_t digits = n;
    while (n < rest_.size() && is_digit(rest_[n])) ++n;
    long long v = 0;
    if (n == digits || std::from_chars(rest_.data() + plus(), rest_.data() + n,
                                       v).ec != std::errc{}) {
      parse_fail(line_no_, std::string("expected ") + what);
    }
    take(n);
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
    skip_space();
    std::size_t n = sign_length();
    bool mantissa = false;
    bool fraction = false;
    bool exponent = false;
    while (n < rest_.size()) {
      const char c = rest_[n];
      if (is_digit(c)) {
        mantissa = true;
      } else if (c == '.' && !fraction && !exponent) {
        fraction = true;
      } else if ((c == 'e' || c == 'E') && mantissa && !exponent) {
        exponent = true;
        if (n + 1 < rest_.size() &&
            (rest_[n + 1] == '+' || rest_[n + 1] == '-')) {
          ++n;
        }
      } else {
        break;
      }
      ++n;
    }
    // The scan may stop inside a number ("1e", "."): the whole scanned
    // token must convert.
    const std::string_view token = rest_.substr(plus(), n - plus());
    double v = 0.0;
    const auto [end, ec] =
        std::from_chars(token.data(), token.data() + token.size(), v);
    bool ok = end == token.data() + token.size();
    if (ok && ec == std::errc::result_out_of_range) {
      // Underflow reads as the nearest representable value, as strtod gives
      // it; overflow is an error.
      v = std::strtod(std::string(token).c_str(), nullptr);
      ok = std::abs(v) != HUGE_VAL;
    } else if (ec != std::errc{}) {
      ok = false;
    }
    if (!ok || !std::isfinite(v)) {
      parse_fail(line_no_, std::string("expected ") + what);
    }
    take(n);
    return v;
  }
  /// Optional trailing `<tag> <value>` pair: absent at end of line returns
  /// `dflt`; a present token that is not `tag` is a parse failure.
  long long opt_tagged_num(const char* tag, long long dflt) {
    skip_space();
    if (rest_.empty()) return dflt;
    const std::string_view w = word(tag);
    if (w != tag) {
      parse_fail(line_no_, std::string("expected '") + tag + "', got '" +
                               std::string(w) + "'");
    }
    return num(tag);
  }
  void end() {
    skip_space();
    if (!rest_.empty()) {
      parse_fail(line_no_, "trailing tokens starting at '" +
                               std::string(word("token")) + "'");
    }
  }
  [[nodiscard]] std::size_t line_no() const noexcept { return line_no_; }
  /// Room to reserve for `n` more values: no more than the rest of the line
  /// can hold, so a corrupt count cannot make a huge allocation.
  [[nodiscard]] std::size_t room(int n) const {
    return std::min(static_cast<std::size_t>(n), rest_.size() / 2 + 1);
  }

 private:
  void skip_space() {
    std::size_t n = 0;
    while (n < rest_.size() && is_space(rest_[n])) ++n;
    rest_.remove_prefix(n);
  }
  [[nodiscard]] std::size_t sign_length() const {
    return !rest_.empty() && (rest_[0] == '+' || rest_[0] == '-') ? 1 : 0;
  }
  /// from_chars takes a '-' but no '+': the offset past a leading '+'.
  [[nodiscard]] std::size_t plus() const {
    return rest_.starts_with('+') ? 1 : 0;
  }
  std::string_view take(std::size_t n) {
    const std::string_view head = rest_.substr(0, n);
    rest_.remove_prefix(n);
    return head;
  }

  std::string_view rest_;
  std::size_t line_no_;
};

/// The framed body lines of one record.
class Body {
 public:
  Body(const std::vector<std::string_view>& lines, std::size_t first,
       std::size_t n)
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
  const std::vector<std::string_view>& lines_;
  std::size_t next_;
  std::size_t end_;
};

std::vector<int> read_list(Line& ln, const char* what) {
  const int n = ln.count(what);
  std::vector<int> out;
  out.reserve(ln.room(n));
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
  c.route.nodes.reserve(ln.room(nn));
  for (int i = 0; i < nn; ++i) {
    c.route.nodes.push_back(static_cast<graph::NodeId>(ln.num("node")));
  }
  const int ne = ln.count("edge count");
  c.route.edges.reserve(ln.room(ne));
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
  a.fibers_per_hop.reserve(ln.room(hops));
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
  const std::string_view kw = ln.word("record type");
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
  parse_fail(ln.line_no(), "unknown record type '" + std::string(kw) + "'");
}

bool blank(std::string_view line) {
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
  const std::string text = to_text();
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

std::string IntentJournal::to_text() const {
  std::string out = "iris-journal v1\n";
  std::string body;
  for (const JournalEntry& e : entries_) {
    body.clear();
    std::visit([&](const auto& r) { put_record(body, r); }, e);
    put(out, "record ", std::count(body.begin(), body.end(), '\n'), '\n');
    out += body;
  }
  return out;
}

IntentJournal IntentJournal::load(std::istream& is) {
  return from_text(std::string(std::istreambuf_iterator<char>(is), {}));
}

IntentJournal IntentJournal::from_text(const std::string& text) {
  std::vector<std::string_view> lines;
  bool partial_line = false;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t nl = text.find('\n', pos);
    partial_line = nl == std::string::npos;
    const std::size_t stop = partial_line ? text.size() : nl;
    lines.emplace_back(text.data() + pos, stop - pos);
    pos = stop + 1;
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
  journal.entries_.reserve(static_cast<std::size_t>(std::count_if(
      lines.begin(), lines.end(),
      [](std::string_view line) { return line.starts_with("record "); })));
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
