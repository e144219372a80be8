# Golden-diff runner behind the CLI's byte-identity gates, run as ctest
# entries (see examples/CMakeLists.txt). Invoked in script mode:
#
#   cmake -DCLI=<path-to-opass_cli> -DOUT_DIR=<scratch-dir> -DARGS=<args>
#         -DRUNS=<runs> -DFILES=<files> [-DSETS=<sets>]
#         -P cmake/run_golden_diff.cmake
#
#   ARGS   CLI arguments every run shares, split like a shell command line.
#   RUNS   '|'-separated labelled runs, "<label>=<extra args>".
#   FILES  '|'-separated outputs, "<flag>=<stem>.<ext>": each run passes
#          <flag>=<OUT_DIR>/<stem><tag>_<label>.<ext>. The flag "stdout"
#          captures the CLI's standard output into that file instead.
#   SETS   Optional '|'-separated argument sets, "<tag>=<extra args>". The
#          whole RUNS list repeats once per set, and <tag> goes into the set's
#          file names. Default: one set with an empty tag.
#
# Every file of every run must be byte-identical to the same file of the
# first run of its set. The gates that use it hold the outputs to the
# determinism contract (DESIGN.md §8 and §11–§13): a replay with the same seed,
# a different planner thread count, or a fault plan's recovery must not move
# a single byte, so any drift (map iteration order, uninitialised padding,
# locale-dependent number formatting, a plan that depends on more than the
# seed) fails the entry and names the file pair.
foreach(var CLI OUT_DIR ARGS RUNS FILES)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "usage: cmake -DCLI=<opass_cli> -DOUT_DIR=<dir> -DARGS=<args> "
                        "-DRUNS=<label>=<args>|... -DFILES=<flag>=<file>|... "
                        "[-DSETS=<tag>=<args>|...] -P run_golden_diff.cmake")
  endif()
endforeach()
if(NOT DEFINED SETS)
  set(SETS "=")
endif()

# Split "<key>=<value>" at its first '='.
function(split_entry entry key_var value_var)
  string(FIND "${entry}" "=" eq)
  if(eq LESS 0)
    message(FATAL_ERROR "'${entry}' is not of the form <key>=<value>")
  endif()
  string(SUBSTRING "${entry}" 0 ${eq} key)
  math(EXPR rest "${eq} + 1")
  string(SUBSTRING "${entry}" ${rest} -1 value)
  set(${key_var} "${key}" PARENT_SCOPE)
  set(${value_var} "${value}" PARENT_SCOPE)
endfunction()

# The CLI flag of FILES entry "<flag>=<stem>.<ext>" and the path run <label>
# of set <tag> writes it to.
function(output_path file_entry tag label flag_var path_var)
  split_entry("${file_entry}" flag name)
  get_filename_component(stem "${name}" NAME_WE)
  get_filename_component(ext "${name}" LAST_EXT)
  set(${flag_var} "${flag}" PARENT_SCOPE)
  set(${path_var} "${OUT_DIR}/${stem}${tag}_${label}${ext}" PARENT_SCOPE)
endfunction()

file(MAKE_DIRECTORY "${OUT_DIR}")
separate_arguments(shared_args UNIX_COMMAND "${ARGS}")
string(REPLACE "|" ";" sets "${SETS}")
string(REPLACE "|" ";" runs "${RUNS}")
string(REPLACE "|" ";" files "${FILES}")

foreach(set_entry IN LISTS sets)
  split_entry("${set_entry}" tag set_args)
  separate_arguments(set_args UNIX_COMMAND "${set_args}")
  set(first_label "")
  foreach(run_entry IN LISTS runs)
    split_entry("${run_entry}" label run_args)
    separate_arguments(run_args UNIX_COMMAND "${run_args}")
    set(output_args)
    set(stdout_file)
    foreach(file_entry IN LISTS files)
      output_path("${file_entry}" "${tag}" "${label}" flag path)
      if(flag STREQUAL "stdout")
        set(stdout_file OUTPUT_FILE "${path}")
      else()
        list(APPEND output_args "${flag}=${path}")
      endif()
    endforeach()
    if(NOT stdout_file)
      set(stdout_file OUTPUT_QUIET)
    endif()
    execute_process(
      COMMAND "${CLI}" ${shared_args} ${set_args} ${run_args} ${output_args}
      RESULT_VARIABLE rc
      ${stdout_file})
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "opass_cli run '${tag}${label}' (${set_args} ${run_args}) failed "
                          "with exit code ${rc}")
    endif()

    if(first_label STREQUAL "")
      set(first_label "${label}")
      continue()
    endif()
    foreach(file_entry IN LISTS files)
      output_path("${file_entry}" "${tag}" "${first_label}" flag first)
      output_path("${file_entry}" "${tag}" "${label}" flag other)
      execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${first}" "${other}"
                      RESULT_VARIABLE same)
      if(NOT same EQUAL 0)
        message(FATAL_ERROR "${other} differs from ${first}: the output is not "
                            "byte-deterministic")
      endif()
    endforeach()
  endforeach()
endforeach()

message(STATUS "every output of every run is byte-identical to its set's first run")
