// Strict, declarative command lines for the bench and example mains (and
// exercised directly by tests, which do not link bench translation units).
//
// The std::atof/atoi family silently turns garbage into 0, which let
// `oss_connect_fail=abc` masquerade as a valid probability and
// `crash_every_cmds=xyz` silently disable crash injection. The value
// parsers below accept a token only when the whole token parses, and
// `Args` builds every main's argv surface on top of them.
#pragma once

#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace iris::obs {

/// Parses `s` as a double. The entire string must be consumed (leading
/// whitespace, trailing junk, and empty input all fail); inf/nan are
/// rejected too -- no bench flag wants them.
[[nodiscard]] std::optional<double> parse_double(std::string_view s);

/// Parses `s` as a base-10 long long; whole-string, no trailing junk.
[[nodiscard]] std::optional<long long> parse_ll(std::string_view s);

/// Parses `s` as an unsigned long long; rejects a leading '-'. Base is
/// auto-detected (0x prefix = hex) because seeds are conventionally hex.
[[nodiscard]] std::optional<unsigned long long> parse_ull(std::string_view s);

/// Accepted interval of a numeric argument: [lo, hi], or (lo, hi] when
/// `lo_open`.
struct Range {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
};
/// [lo, hi].
constexpr Range in(double lo, double hi) { return {lo, hi, false}; }
/// [lo, inf).
constexpr Range at_least(double lo) { return in(lo, Range{}.hi); }
/// (lo, hi]: the `> 0` checks.
constexpr Range above(double lo, double hi = Range{}.hi) {
  return {lo, hi, true};
}

/// A main's command line, declared once: parse() fills typed targets and
/// usage() is generated from the same declarations. Tokens are matched in
/// this order:
///   --metrics[=path]  when metrics() is declared (no or empty path = stdout)
///   --<flag>          a declared bare flag
///   --benchmark_*     forwarded to google-benchmark when declared
///   key=value         a declared option; a repeated key's last value wins
///                     (only when the main declares options)
///   anything else     the next positional, in declaration order
/// Numeric values must parse whole and lie in the declared range. A bad
/// token prints `<prog>: <what> '<token>'` and the usage to stderr, and
/// parse() returns 2.
class Args {
 public:
  explicit Args(std::string prog) : prog_(std::move(prog)) {}

  /// An optional positional. Targets are int, long long, std::uint64_t
  /// (parse_ull, so hex seeds work), double, bool (0 or 1) or std::string.
  template <class T>
  Args& positional(std::string name, T& target, Range range = {}) {
    positionals_.push_back(param(std::move(name), target, range));
    return *this;
  }
  /// A positional that must be given; declare it before optional ones.
  template <class T>
  Args& required(std::string name, T& target, Range range = {}) {
    positional(std::move(name), target, range);
    positionals_.back().required = true;
    return *this;
  }
  /// A `key=value` option.
  template <class T>
  Args& option(std::string key, T& target, Range range = {}) {
    options_.push_back(param(std::move(key), target, range));
    return *this;
  }
  /// A bare `--name` flag that sets `target` to true.
  Args& flag(std::string name, bool& target, std::string help);
  /// Accepts the shared `--metrics[=path]` export flag.
  Args& metrics();
  /// Forwards `--benchmark_*` tokens to benchmark_argv().
  Args& benchmark_flags();

  /// Parses argv[1..argc). Returns 0, or 2 after reporting a bad token.
  [[nodiscard]] int parse(int argc, char** argv);
  [[nodiscard]] std::string usage() const;

  bool metrics_requested() const { return metrics_requested_; }
  /// Empty means stdout.
  const std::string& metrics_path() const { return metrics_path_; }
  /// argv[0] plus the forwarded --benchmark_* tokens, NUL-terminated.
  std::vector<char*>& benchmark_argv() { return benchmark_argv_; }

 private:
  struct Param {
    std::string name;
    std::string kind;  ///< usage text, e.g. "integer in [1, 64]"
    std::function<bool(std::string_view)> set;  ///< false = rejected
    bool required = false;
  };
  struct Flag {
    std::string name;
    bool* target;
    std::string help;
  };

  /// Prints `<prog>: <what> '<token>'` and the usage; returns 2.
  int fail(std::string_view what, std::string_view token) const;
  static std::string describe(const char* type, Range range);
  static bool contains(Range range, double v) {
    return (range.lo_open ? v > range.lo : v >= range.lo) && v <= range.hi;
  }

  template <class T>
  static Param param(std::string name, T& target, Range range) {
    Param p{std::move(name), {}, {}};
    if constexpr (std::is_same_v<T, std::string>) {
      p.kind = "text";
      p.set = [&target](std::string_view s) {
        target = std::string(s);
        return true;
      };
    } else if constexpr (std::is_same_v<T, bool>) {
      p.kind = "0 or 1";
      p.set = [&target](std::string_view s) {
        const auto v = parse_ll(s);
        if (!v || (*v != 0 && *v != 1)) return false;
        target = *v == 1;
        return true;
      };
    } else if constexpr (std::is_floating_point_v<T>) {
      p.kind = describe("number", range);
      p.set = [&target, range](std::string_view s) {
        const auto v = parse_double(s);
        if (!v || !contains(range, *v)) return false;
        target = static_cast<T>(*v);
        return true;
      };
    } else if constexpr (std::is_unsigned_v<T>) {
      static_assert(sizeof(T) == sizeof(unsigned long long));
      p.kind = describe("unsigned integer", range);
      p.set = [&target, range](std::string_view s) {
        const auto v = parse_ull(s);
        if (!v || !contains(range, static_cast<double>(*v))) return false;
        target = *v;
        return true;
      };
    } else {
      static_assert(std::is_integral_v<T>);
      p.kind = describe("integer", range);
      p.set = [&target, range](std::string_view s) {
        const auto v = parse_ll(s);
        if (!v || *v < std::numeric_limits<T>::min() ||
            *v > std::numeric_limits<T>::max() ||
            !contains(range, static_cast<double>(*v))) {
          return false;
        }
        target = static_cast<T>(*v);
        return true;
      };
    }
    return p;
  }

  std::string prog_;
  std::vector<Param> positionals_;
  std::vector<Param> options_;
  std::vector<Flag> flags_;
  bool accepts_metrics_ = false;
  bool forwards_benchmark_ = false;
  bool metrics_requested_ = false;
  std::string metrics_path_;
  std::vector<char*> benchmark_argv_;
};

}  // namespace iris::obs
