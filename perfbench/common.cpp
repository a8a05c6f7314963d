#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <numeric>

namespace perfbench {

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is finite");
    value = 0.0;
  }
  metrics_[name] = Value{value, unit};
  std::printf("metric %-34s %.6g %s\n", name.c_str(), value, unit.c_str());
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) correct_ = false;
  std::printf("check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
}

std::string Report::json(const std::vector<MetricSpec>& specs) const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  char buf[160];
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = metrics_.find(specs[i].name);
    const double value = it == metrics_.end() ? 0.0 : it->second.value;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", specs[i].name, value, specs[i].unit);
    out += buf;
  }
  out += "}}";
  return out;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void report_latency(Report& report, const std::vector<double>& samples_ms,
                    double tail_q) {
  const auto n = static_cast<long long>(samples_ms.size());
  const auto beyond = static_cast<long long>(
      std::floor(static_cast<double>(n) * (1.0 - tail_q)));
  std::printf("latency samples %lld, tail is p%g with %lld samples beyond it%s\n",
              n, tail_q * 100.0, beyond,
              beyond >= 10 ? "" : " (WARNING: fewer than 10, tail is unsteady)");
  report.metric("latency_ms_p50", quantile(samples_ms, 0.50), "ms");
  report.metric("latency_ms_p90", quantile(samples_ms, 0.90), "ms");
  report.metric("latency_ms_tail", quantile(samples_ms, tail_q), "ms");
}

int SpanLog::open(const char* name, long long request, int parent) {
  Record r;
  r.name = name;
  r.request = request;
  r.parent = parent;
  r.start_s = now_s();
  records_.push_back(std::move(r));
  return static_cast<int>(records_.size() - 1);
}

double SpanLog::close(int id, std::string attrs) {
  Record& r = records_.at(static_cast<std::size_t>(id));
  r.end_s = now_s();
  r.attrs = std::move(attrs);
  return r.end_s - r.start_s;
}

void SpanLog::absorb(SpanLog&& other) {
  const auto base = static_cast<int>(records_.size());
  for (Record& r : other.records_) {
    if (r.parent >= 0) r.parent += base;
    records_.push_back(std::move(r));
  }
  other.records_.clear();
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  char buf[256];
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"id\": %zu, \"name\": \"%s\", \"request\": %lld, "
                  "\"parent\": %d, \"start_s\": %.9f, \"end_s\": %.9f",
                  i, r.name, r.request, r.parent, r.start_s, r.end_s);
    out << buf;
    if (!r.attrs.empty()) out << ", " << r.attrs;
    out << "}\n";
  }
  out.close();
  return static_cast<bool>(out);
}

}  // namespace perfbench
