// Shared pieces of the repository benchmark: run options, the report every
// workload fills, latency statistics and the in-memory span log the traced
// runs record around calls into each layer's public functions.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its span log at exit ("" = not written).
  std::string spans_path;
};

/// One metric the benchmark declares: name and unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// What one workload run reports: named metrics with units, output checks,
/// and the attempted/failed tallies.
class Report {
 public:
  /// Records (or overwrites) a metric and prints it as a human-readable line.
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records one output check; a failed check makes the run incorrect.
  void check(bool ok, const std::string& what);
  void count(long long attempted, long long failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  [[nodiscard]] bool has(const std::string& name) const {
    return metrics_.count(name) > 0;
  }
  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] long long attempted() const { return attempted_; }
  [[nodiscard]] long long failed() const { return failed_; }

  /// The one-line result object over exactly `specs`, in order. A spec the
  /// workload did not measure reads 0: its layer was idle on this workload.
  [[nodiscard]] std::string json(const std::vector<MetricSpec>& specs) const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  bool correct_ = true;
  long long attempted_ = 0;
  long long failed_ = 0;
};

/// Steady-clock seconds (arbitrary epoch).
double now_s();
/// CPU seconds the calling thread has used (arbitrary epoch).
double thread_cpu_s();
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);
/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Reports latency_ms_p50, latency_ms_p90 and latency_ms_tail over
/// `samples_ms`, where the tail is the `tail_q` quantile. Prints the sample
/// count and warns when fewer than ten samples lie beyond the tail.
void report_latency(Report& report, const std::vector<double>& samples_ms,
                    double tail_q);

/// Append-only span log kept in memory and written out once, at exit. A
/// span records its name, the request it belongs to, the span that caused
/// it (-1 for a root) and its steady-clock interval; `attrs` carries counts
/// recorded at the same boundary, as a JSON object body.
class SpanLog {
 public:
  struct Record {
    const char* name = "";
    long long request = -1;
    int parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
    std::string attrs;
  };

  /// Opens a span now; returns its id.
  int open(const char* name, long long request, int parent = -1);
  /// Closes span `id` now; returns its duration in seconds.
  double close(int id, std::string attrs = {});

  /// Moves another log's records to the end of this one, re-basing parents.
  void absorb(SpanLog&& other);
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  /// Writes one JSON object per span. Returns false on an I/O error.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  std::vector<Record> records_;
};

// Workloads. Each fills `report` with its metrics, checks and tallies; a
// traced run (opt.trace) also records its spans into `spans`.
void run_whatif_plan(const Options& opt, Report& report, SpanLog& spans);
void run_whatif_slo(const Options& opt, Report& report, SpanLog& spans);
void run_fleet_loop(const Options& opt, Report& report, SpanLog& spans);

}  // namespace perfbench
