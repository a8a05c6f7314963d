// The repository benchmark: runs one named workload for a fixed time,
// checks its outputs, and prints every end-to-end metric (or, with
// --trace 1, every per-layer metric) with its unit. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage: iris_perfbench --workload <whatif-plan|whatif-slo|fleet-loop>
//                       --seed <n> --seconds <s> --trace <0|1>
//                       [--spans <path>]
// Malformed arguments exit 2; a failed output check exits 1.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "common.hpp"

namespace {

using perfbench::MetricSpec;

// Must match "end_to_end" and "per_layer" in BENCHMARK.json.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"latency_ms_p50", "ms"},
    {"latency_ms_p90", "ms"},
    {"latency_ms_tail", "ms"},
    {"throughput_ops_s", "1/s"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"core.planner_build_ms", "ms"},
    {"core.replan_ms", "ms"},
    {"core.replan.scenarios", "count"},
    {"core.replan.pruned", "count"},
    {"core.expansion_ms", "ms"},
    {"core.provision.calls", "count"},
    {"core.provision_ms", "ms"},
    {"core.criterion.calls", "count"},
    {"core.criterion_us", "us"},
    {"core.criterion.distinct_masks", "count"},
    {"core.criterion_share_pct", "%"},
    {"reliability.sims", "count"},
    {"reliability.sim_self_ms", "ms"},
    {"fleet.query_dispatch_us", "us"},
    {"fleet.publish_us", "us"},
    {"fleet.snapshots.published", "count"},
    {"fleet.snapshots.books_rebuilt", "count"},
    {"control.tick_us_p50", "us"},
    {"control.tick_us_p99", "us"},
    {"control.policy_us", "us"},
    {"control.apply_ms_p50", "ms"},
    {"control.apply_ms_p99", "ms"},
    {"control.applies", "count"},
    {"control.escape_replans", "count"},
    {"control.commands_per_apply", "count"},
    {"control.journal.records", "count"},
    {"control.recover_ms", "ms"},
    {"control.recoveries", "count"},
    {"control.reconfig_makespan_ms", "ms"},
    {"obs.tick_overhead_us", "us"},
    {"trace.overhead_pct", "%"},
};

int usage(const char* what, const char* arg) {
  std::fprintf(stderr, "iris_perfbench: %s '%s'\n", what, arg);
  std::fprintf(stderr,
               "usage: iris_perfbench --workload "
               "<whatif-plan|whatif-slo|fleet-loop>\n"
               "                      --seed <n> --seconds <s> --trace <0|1> "
               "[--spans <path>]\n");
  return 2;
}

bool parse_u64(const char* s, unsigned long long& out) {
  if (*s == '\0' || *s == '-') return false;
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for", flag);
    const char* value = argv[++i];
    unsigned long long v = 0;
    if (std::strcmp(flag, "--workload") == 0) {
      opt.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      if (!parse_u64(value, v)) return usage("malformed seed", value);
      opt.seed = v;
      have_seed = true;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      if (!parse_u64(value, v) || v < 1 || v > 600) {
        return usage("malformed seconds", value);
      }
      opt.seconds = static_cast<double>(v);
      have_seconds = true;
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage("trace must be 0 or 1, got", value);
      }
      opt.trace = value[0] == '1';
      have_trace = true;
    } else if (std::strcmp(flag, "--spans") == 0) {
      opt.spans_path = value;
    } else {
      return usage("unknown argument", flag);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("missing argument", "--seed/--seconds/--trace");
  }

  perfbench::Report report;
  perfbench::SpanLog spans;
  std::printf("# iris benchmark: workload %s seed %llu seconds %g trace %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  try {
    if (opt.workload == "whatif-plan") {
      perfbench::run_whatif_plan(opt, report, spans);
    } else if (opt.workload == "whatif-slo") {
      perfbench::run_whatif_slo(opt, report, spans);
    } else if (opt.workload == "fleet-loop") {
      perfbench::run_fleet_loop(opt, report, spans);
    } else {
      return usage("unknown workload", opt.workload.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "iris_perfbench: workload failed: %s\n", e.what());
    return 1;
  }

  const std::vector<MetricSpec>& specs = opt.trace ? kPerLayer : kEndToEnd;
  for (const MetricSpec& s : specs) {
    if (report.has(s.name)) continue;
    // An end-to-end metric must always be measured; a per-layer metric is
    // absent only when its layer did no work on this workload.
    if (!opt.trace) {
      report.check(false, std::string("end-to-end metric measured: ") + s.name);
    } else {
      std::printf("metric %-34s 0 %s (layer idle on this workload)\n", s.name,
                  s.unit);
    }
  }
  if (opt.trace && !opt.spans_path.empty()) {
    const bool wrote = spans.write(opt.spans_path);
    report.check(wrote, "span log written to " + opt.spans_path);
    std::printf("spans recorded %zu\n", spans.size());
  }
  std::printf("%s\n", report.json(specs).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
