# ctest script (cmake -P): run_experiment given a mechanism key the
# registry does not know must fail cleanly on the static and multi paths:
# exit code 2 with "unknown mechanism" on stderr, not an uncaught exception.
# lto-vcg-async is a retired key, so scripts that still pass it get this
# error.
#
#   cmake -DRUN_EXPERIMENT=<path to run_experiment> -P run_experiment_exit_code.cmake
if(NOT RUN_EXPERIMENT)
  message(FATAL_ERROR "pass -DRUN_EXPERIMENT=<path to run_experiment>")
endif()

foreach(scenario static multi)
  execute_process(
    COMMAND ${RUN_EXPERIMENT} scenario=${scenario} mechanism=lto-vcg-async
            rounds=1 clients=4
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code STREQUAL "2")
    message(FATAL_ERROR
            "scenario=${scenario}: expected exit code 2, got '${code}'\n"
            "stdout:\n${out}\nstderr:\n${err}")
  endif()
  string(FIND "${err}" "unknown mechanism" found)
  if(found EQUAL -1)
    message(FATAL_ERROR
            "scenario=${scenario}: stderr lacks 'unknown mechanism':\n${err}")
  endif()
endforeach()
