# Drive one live perf_kernel run and gate it with check_bench against the
# committed BENCH_kernel.json trajectory. Invoked by ctest as
#
#   cmake -DPERF_KERNEL=<bin> -DCHECK_BENCH=<bin> -DBASELINE=<json>
#         -DREPORT=<out.json> -DTOLERANCE=<pct> -P run_check_bench.cmake
#
# The tolerance the ctest passes is deliberately generous: shared CI boxes
# are noisy and the committed numbers come from a different machine, so the
# live gate exists to catch broken wiring and catastrophic (multiple-x)
# regressions, not small drifts. Tight-tolerance checking is exercised by
# the deterministic self-comparison tests next to this one.
foreach(required PERF_KERNEL CHECK_BENCH BASELINE REPORT TOLERANCE)
  if(NOT DEFINED ${required})
    message(FATAL_ERROR "run_check_bench.cmake: ${required} not set")
  endif()
endforeach()

# A short min_time keeps this a sentinel, not a measurement; the filter
# skips the multi-second BM_Parallel* sweeps (same set as perf_kernel_smoke).
execute_process(
  COMMAND ${PERF_KERNEL}
    --benchmark_min_time=0.05
    "--benchmark_filter=BM_Charlie|BM_IroSimulation|BM_StrSimulation|BM_EventQueue|BM_GaussianNoise|BM_Entropy90B|BM_Service"
    --benchmark_format=json
    "--benchmark_out=${REPORT}"
  RESULT_VARIABLE perf_rc)
if(NOT perf_rc EQUAL 0)
  message(FATAL_ERROR "perf_kernel failed with status ${perf_rc}")
endif()

execute_process(
  COMMAND ${CHECK_BENCH} ${REPORT} ${BASELINE} --tolerance ${TOLERANCE}
  RESULT_VARIABLE check_rc)
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR "check_bench reported a regression (status ${check_rc})")
endif()
