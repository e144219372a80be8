# Bad-input gate for opass_cli, run as a ctest entry (see
# examples/CMakeLists.txt). Invoked in script mode:
#
#   cmake -DCLI=<path-to-opass_cli> -P cmake/run_bad_input_check.cmake
#
# Each argument set below is malformed, out of range or unsupported. The CLI
# must reject every one with exit code 2 and a message, never abort (134) or
# run. A non-numeric integer flag must not escape as an exception, and a
# negative compute time is rejected for every scenario, not only the ones
# whose workload generator would abort on it. The
# paraview and iterative scenarios and the service-trace replay arm no fault
# plan, so --fault-plan with them must be rejected rather than silently
# ignored. Enum flags (--scenario, and the --audit scenario restriction) and
# the --threads range are validated once before any run, so the message is a
# single line even under the default --method=both.
if(NOT DEFINED CLI)
  message(FATAL_ERROR "usage: cmake -DCLI=<opass_cli> -P run_bad_input_check.cmake")
endif()

# One case per entry; commas separate the arguments of a case.
set(cases
    "--nodes=0"
    "--nodes=-3"
    "--replication=9,--nodes=4"
    "--replication=0"
    "--tasks=0"
    "--nodes=abc"
    "--tasks=abc"
    "--seed=1.5"
    "--threads=0"
    "--threads=100000"
    "--scenario=bogus"
    "--audit,--scenario=dynamic"
    "--scenario=dynamic,--compute=-1"
    "--scenario=iterative,--compute=-1"
    "--scenario=paraview,--fault-plan=${CMAKE_CURRENT_LIST_DIR}/../bench/faults/crash.json"
    "--scenario=iterative,--fault-plan=${CMAKE_CURRENT_LIST_DIR}/../bench/faults/crash.json"
    "--service-trace=${CMAKE_CURRENT_LIST_DIR}/../bench/traces/service_small.trace,--fault-plan=${CMAKE_CURRENT_LIST_DIR}/../bench/faults/crash.json")
foreach(args IN LISTS cases)
  string(REPLACE "," ";" argv "${args}")
  execute_process(
    COMMAND "${CLI}" ${argv}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "opass_cli ${args}: expected exit code 2, got ${rc}: ${err}")
  endif()
  if(err STREQUAL "")
    message(FATAL_ERROR "opass_cli ${args}: exit code 2 without a message")
  endif()
  string(STRIP "${err}" err_body)
  if(err_body MATCHES "\n")
    message(FATAL_ERROR "opass_cli ${args}: expected a one-line message, got: ${err}")
  endif()
endforeach()

message(STATUS "every bad input exits 2 with a message")
