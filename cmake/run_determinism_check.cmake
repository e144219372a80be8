# Byte-determinism check for the observability outputs, run as a ctest entry
# (see examples/CMakeLists.txt). Invoked in script mode:
#
#   cmake -DCLI=<path-to-opass_cli> -DOUT_DIR=<scratch-dir> \
#         -P cmake/run_determinism_check.cmake
#
# Runs the CLI twice per scenario (single, then multi — the latter plans with
# Algorithm 1) with an identical fixed seed, writing metrics and Chrome-trace
# files to different paths, then requires each pair to be byte-identical.
# Any drift — map iteration order, uninitialised padding, locale-dependent
# number formatting, a plan that depends on more than the seed — fails the
# test.
if(NOT DEFINED CLI OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "usage: cmake -DCLI=<opass_cli> -DOUT_DIR=<dir> -P run_determinism_check.cmake")
endif()

file(MAKE_DIRECTORY "${OUT_DIR}")

# The single-scenario files keep their historical names: cli_trace_valid
# reads trace_1.json.
foreach(scenario single multi)
  if(scenario STREQUAL "single")
    set(tag "")
  else()
    set(tag "_${scenario}")
  endif()
  foreach(run 1 2)
    execute_process(
      COMMAND "${CLI}" --scenario=${scenario} --nodes=16 --tasks=80 --method=both
              --seed=42 --metrics-out=${OUT_DIR}/metrics${tag}_${run}.json
              --trace-out=${OUT_DIR}/trace${tag}_${run}.json
      RESULT_VARIABLE rc
      OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "opass_cli --scenario=${scenario} run ${run} failed with exit code ${rc}")
    endif()
  endforeach()

  foreach(kind metrics trace)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
              "${OUT_DIR}/${kind}${tag}_1.json" "${OUT_DIR}/${kind}${tag}_2.json"
      RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
      message(FATAL_ERROR "--scenario=${scenario} ${kind} output differs between identical "
                          "runs — observability emission is not byte-deterministic")
    endif()
  endforeach()
endforeach()

message(STATUS "single and multi metrics and trace outputs are byte-identical across runs")
