# The argv contract every bench and example main shares: a malformed token
# exits with code 2 and is echoed on stderr; a failed --metrics write exits
# with code 1.
#
#   cmake -DBIN=<build dir> -P tests/argv_exit_codes.cmake
#
# Each case is "<binary>|<arguments>"; the last argument is the bad token.
set(usage_cases
  "bench/bench_fig3_latency_inflation|regions=0"
  "bench/bench_fig5_siting_maps|samples=1"
  "bench/bench_fig6_siting_flexibility|regions=abc"
  "bench/bench_fig7_port_cost|ports_per_dc=0"
  "bench/bench_sec34_toy_example|lambda=abc"
  "bench/bench_fig9_osnr_cascade|max_amps=-1"
  "bench/bench_fig12_cost_analysis|max_dcs=abc"
  "bench/bench_fig14_reconfig_ber|duration_s=0"
  "bench/bench_fig17_fct_slowdown|seed=abc"
  "bench/bench_fig18_workloads|replicas=0"
  "bench/bench_appA_overhead|lambda=1001"
  "bench/bench_appB_hybrid|lambda=0"
  "bench/bench_micro_planner|--bogus"
  "bench/bench_ablation_prices|dc_count=1"
  "bench/bench_reliability_availability|horizon_years=0"
  "bench/bench_hub_complexity|flows=0"
  "bench/bench_ablation_policy|duration_s=-1"
  "bench/bench_chaos_soak|10 0x5eed amp_dead=1.5"
  "bench/bench_chaos_soak|serial=1"
  "bench/bench_te_compare|0"
  "bench/bench_fleet_soak|65"
  "examples/availability_report|33 abc"
  "examples/design_space_report|7 abc"
  "examples/failure_drill|abc"
  "examples/grow_region|xyz"
  "examples/plan_from_file|region.map 1 0"
)

set(failures 0)
foreach(case IN LISTS usage_cases)
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 exe)
  list(GET parts 1 argline)
  separate_arguments(args UNIX_COMMAND "${argline}")
  list(GET args -1 token)
  execute_process(COMMAND "${BIN}/${exe}" ${args}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  string(FIND "${err}" "'${token}'" echoed)
  if(NOT rc STREQUAL "2" OR echoed EQUAL -1)
    message(SEND_ERROR "${exe} ${argline}: exit ${rc}, stderr:\n${err}")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()

execute_process(
  COMMAND "${BIN}/bench/bench_sec34_toy_example" --benchmark_filter=NONE
          --metrics=/nonexistent/dir/m.txt
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc STREQUAL "1")
  message(SEND_ERROR "failed --metrics write: exit ${rc}, want 1")
  math(EXPR failures "${failures} + 1")
endif()

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} argv contract case(s) failed")
endif()
