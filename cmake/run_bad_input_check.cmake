# Bad-input gate for opass_cli, run as a ctest entry (see
# examples/CMakeLists.txt). Invoked in script mode:
#
#   cmake -DCLI=<path-to-opass_cli> -P cmake/run_bad_input_check.cmake
#
# Each argument set below is out of range. The CLI must reject every one with
# exit code 2 and a message, never abort (134) or run.
if(NOT DEFINED CLI)
  message(FATAL_ERROR "usage: cmake -DCLI=<opass_cli> -P run_bad_input_check.cmake")
endif()

# One case per entry; commas separate the arguments of a case.
set(cases
    "--nodes=0"
    "--nodes=-3"
    "--replication=9,--nodes=4"
    "--replication=0"
    "--tasks=0")
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
endforeach()

message(STATUS "every bad input exits 2 with a message")
