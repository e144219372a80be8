# Failed-run gate for opass_cli, run as a ctest entry (see
# examples/CMakeLists.txt). Invoked in script mode:
#
#   cmake -DCLI=<path-to-opass_cli> -DPLAN=<crash plan> -DSOURCE_DIR=<checkout root>
#         -P cmake/run_failed_run_check.cmake
#
# At replication 1 the crash plan takes the only copy of some chunks, so the
# executor cannot finish the run. The CLI must report that with exit code 1
# and a one-line `error:` message naming the cause, never abort (134). The
# message must not contain SOURCE_DIR: source paths in it are relative, so
# stderr is the same from every checkout.
if(NOT DEFINED CLI OR NOT DEFINED PLAN OR NOT DEFINED SOURCE_DIR)
  message(FATAL_ERROR
          "usage: cmake -DCLI=<opass_cli> -DPLAN=<crash plan> -DSOURCE_DIR=<checkout root> "
          "-P run_failed_run_check.cmake")
endif()

foreach(scenario IN ITEMS single dynamic)
  execute_process(
    COMMAND "${CLI}" --scenario=${scenario} --nodes=24 --tasks=120 --replication=1
            --fault-plan=${PLAN}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "opass_cli --scenario=${scenario}: expected exit code 1, got ${rc}: ${err}")
  endif()
  string(STRIP "${err}" err_body)
  if(err_body MATCHES "\n")
    message(FATAL_ERROR "opass_cli --scenario=${scenario}: expected a one-line message, got: ${err}")
  endif()
  if(NOT err_body MATCHES "^error: .*all replicas of a chunk are on failed nodes$")
    message(FATAL_ERROR "opass_cli --scenario=${scenario}: unexpected message: ${err}")
  endif()
  string(FIND "${err_body}" "${SOURCE_DIR}" source_dir_at)
  if(NOT source_dir_at EQUAL -1)
    message(FATAL_ERROR
            "opass_cli --scenario=${scenario}: message names the checkout ${SOURCE_DIR}: ${err}")
  endif()
endforeach()

message(STATUS "a run that loses every replica of a chunk exits 1 with one error line")
