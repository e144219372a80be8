# Thread-count byte-identity gate for the planner's worker pool
# (DESIGN.md §12), run as a ctest entry (see examples/CMakeLists.txt).
# Invoked in script mode:
#
#   cmake -DCLI=<path-to-opass_cli> -DOUT_DIR=<scratch-dir> \
#         [-DPLAN=<fault-plan.json>] -P cmake/run_parallel_check.cmake
#
# Runs the same fixed-seed scenario once with --threads=1 (the serial path)
# and once with --threads=4, writing metrics, Chrome trace and timeline files
# to different paths, and requires every pair to be byte-identical. This is
# the determinism contract of ExperimentConfig::threads, which lends the pool
# to PlanOptions::pool (the simulator and executor are serial): parallelism
# may change wall clock, never a single output byte. When PLAN is set, the
# scenario additionally runs under that fault plan, so crash-abort, re-plan
# and re-replication paths are held to the same contract.
if(NOT DEFINED CLI OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "usage: cmake -DCLI=<opass_cli> -DOUT_DIR=<dir> [-DPLAN=<plan.json>] -P run_parallel_check.cmake")
endif()

file(MAKE_DIRECTORY "${OUT_DIR}")

set(nodes 16)
set(tasks 80)
set(extra_args)
if(DEFINED PLAN)
  # The checked-in fault plans crash nodes of a paper-scale cluster; keep the
  # cluster big enough for the victim ids while staying ctest-fast.
  set(nodes 24)
  set(tasks 120)
  list(APPEND extra_args --fault-plan=${PLAN})
endif()

foreach(threads 1 4)
  execute_process(
    COMMAND "${CLI}" --scenario=single --nodes=${nodes} --tasks=${tasks} --method=both
            --seed=42 --threads=${threads} ${extra_args}
            --metrics-out=${OUT_DIR}/metrics_t${threads}.json
            --trace-out=${OUT_DIR}/trace_t${threads}.json
            --timeline-out=${OUT_DIR}/timeline_t${threads}.json
    RESULT_VARIABLE rc
    OUTPUT_FILE "${OUT_DIR}/stdout_t${threads}.txt")
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "opass_cli --threads=${threads} failed with exit code ${rc}")
  endif()
endforeach()

foreach(kind metrics trace timeline)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${OUT_DIR}/${kind}_t1.json" "${OUT_DIR}/${kind}_t4.json"
    RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR "${kind} output differs between --threads=1 and "
                        "--threads=4 — the worker pool broke byte-determinism")
  endif()
endforeach()

# The human-readable summary (tables, fractions, makespans) must match too.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          "${OUT_DIR}/stdout_t1.txt" "${OUT_DIR}/stdout_t4.txt"
  RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "stdout differs between --threads=1 and --threads=4")
endif()

message(STATUS "threads=1 and threads=4 outputs are byte-identical")
