#include "obs/argparse.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace iris::obs {

namespace {

/// strtod/strtoll want a NUL-terminated buffer; argv tokens are short, so
/// one copy is fine.
bool full_consume(const std::string& buf, const char* end) {
  return end == buf.c_str() + buf.size();
}

bool has_leading_space(std::string_view s) {
  return !s.empty() && std::isspace(static_cast<unsigned char>(s.front()));
}

}  // namespace

std::optional<double> parse_double(std::string_view s) {
  if (s.empty() || has_leading_space(s)) return std::nullopt;
  const std::string buf(s);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (errno != 0 || !full_consume(buf, end) || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

std::optional<long long> parse_ll(std::string_view s) {
  if (s.empty() || has_leading_space(s)) return std::nullopt;
  const std::string buf(s);
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno != 0 || !full_consume(buf, end)) return std::nullopt;
  return v;
}

std::optional<unsigned long long> parse_ull(std::string_view s) {
  if (s.empty() || has_leading_space(s) || s.front() == '-') {
    return std::nullopt;
  }
  const std::string buf(s);
  errno = 0;
  char* end = nullptr;
  // Base 0: seeds are conventionally hex (0x5eed), and the benches always
  // accepted that spelling.
  const unsigned long long v = std::strtoull(buf.c_str(), &end, 0);
  if (errno != 0 || !full_consume(buf, end)) return std::nullopt;
  return v;
}

Args& Args::flag(std::string name, bool& target, std::string help) {
  flags_.push_back({std::move(name), &target, std::move(help)});
  return *this;
}

Args& Args::metrics() {
  accepts_metrics_ = true;
  return *this;
}

Args& Args::benchmark_flags() {
  forwards_benchmark_ = true;
  return *this;
}

int Args::parse(int argc, char** argv) {
  constexpr std::string_view kMetrics = "--metrics";
  benchmark_argv_.assign(1, argc > 0 ? argv[0] : prog_.data());
  std::size_t next = 0;  // next positional to fill
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (accepts_metrics_ && arg.starts_with(kMetrics) &&
        (arg.size() == kMetrics.size() || arg[kMetrics.size()] == '=')) {
      metrics_requested_ = true;
      metrics_path_ = arg.substr(std::min(arg.size(), kMetrics.size() + 1));
      continue;
    }
    const auto bare =
        std::find_if(flags_.begin(), flags_.end(),
                     [&](const Flag& f) { return f.name == arg; });
    if (bare != flags_.end()) {
      *bare->target = true;
      continue;
    }
    if (forwards_benchmark_ && arg.starts_with("--benchmark_")) {
      benchmark_argv_.push_back(argv[i]);
      continue;
    }
    const auto eq = arg.find('=');
    if (!options_.empty() && eq != std::string_view::npos && eq > 0) {
      const auto key = arg.substr(0, eq);
      const auto opt =
          std::find_if(options_.begin(), options_.end(),
                       [&](const Param& p) { return p.name == key; });
      if (opt == options_.end()) return fail("unknown argument", arg);
      if (!opt->set(arg.substr(eq + 1))) {
        return fail("malformed " + opt->name, arg);
      }
      continue;
    }
    if (next == positionals_.size()) return fail("unknown argument", arg);
    const Param& pos = positionals_[next++];
    if (!pos.set(arg)) return fail("malformed " + pos.name, arg);
  }
  if (next < positionals_.size() && positionals_[next].required) {
    return fail("missing argument", positionals_[next].name);
  }
  benchmark_argv_.push_back(nullptr);
  return 0;
}

int Args::fail(std::string_view what, std::string_view token) const {
  std::fprintf(stderr, "%s: %.*s '%.*s'\n%s", prog_.c_str(),
               static_cast<int>(what.size()), what.data(),
               static_cast<int>(token.size()), token.data(), usage().c_str());
  return 2;
}

std::string Args::usage() const {
  std::string synopsis = "usage: " + prog_;
  std::string details;
  const auto detail = [&](const std::string& name, const std::string& text) {
    constexpr std::size_t kColumn = 22;
    const std::size_t pad = name.size() < kColumn ? kColumn - name.size() : 1;
    details += "  " + name + std::string(pad, ' ') + text + "\n";
  };
  for (const auto& p : positionals_) {
    synopsis += p.required ? " <" + p.name + ">" : " [" + p.name + "]";
    detail(p.name, p.kind);
  }
  if (!options_.empty()) synopsis += " [key=value...]";
  for (const auto& p : options_) detail(p.name + "=", p.kind);
  for (const auto& f : flags_) {
    synopsis += " [" + f.name + "]";
    detail(f.name, f.help);
  }
  if (accepts_metrics_) synopsis += " [--metrics[=path]]";
  if (forwards_benchmark_) synopsis += " [--benchmark_...]";
  return synopsis + "\n" + details;
}

std::string Args::describe(const char* type, Range range) {
  const auto num = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.15g", v);
    return std::string(buf);
  };
  const std::string lo = (range.lo_open ? " > " : " >= ") + num(range.lo);
  if (std::isinf(range.hi)) {
    return std::isinf(range.lo) ? type : type + lo;
  }
  return type + std::string(" in ") + (range.lo_open ? "(" : "[") +
         num(range.lo) + ", " + num(range.hi) + "]";
}

}  // namespace iris::obs
