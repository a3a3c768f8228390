# ctest script (cmake -P): run_experiment given retired inputs must fail
# cleanly with exit code 2 and an error naming the problem on stderr, not
# an uncaught exception and not a run on silently ignored settings:
#   - a mechanism key the registry does not know (the retired lto-vcg-async,
#     lto-vcg-dist and lto-vcg-dist-hedge), on the static and multi paths,
#     prints "unknown mechanism";
#   - a retired option (dist_workers=, hedge=) is a key no scenario reads,
#     so the run is refused with the key named.
#
#   cmake -DRUN_EXPERIMENT=<path to run_experiment> -P run_experiment_exit_code.cmake
if(NOT RUN_EXPERIMENT)
  message(FATAL_ERROR "pass -DRUN_EXPERIMENT=<path to run_experiment>")
endif()

# Runs run_experiment with the given arguments (a ;-list) and requires exit
# code 2 with `needle` on stderr.
function(expect_exit_2 label args needle)
  execute_process(
    COMMAND ${RUN_EXPERIMENT} ${args} rounds=1 clients=4
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code STREQUAL "2")
    message(FATAL_ERROR
            "${label}: expected exit code 2, got '${code}'\n"
            "stdout:\n${out}\nstderr:\n${err}")
  endif()
  string(FIND "${err}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "${label}: stderr lacks '${needle}':\n${err}")
  endif()
endfunction()

foreach(scenario static multi)
  foreach(mechanism lto-vcg-async lto-vcg-dist lto-vcg-dist-hedge)
    expect_exit_2("scenario=${scenario} mechanism=${mechanism}"
                  "scenario=${scenario};mechanism=${mechanism}"
                  "unknown mechanism")
  endforeach()
endforeach()

expect_exit_2("dist_workers=2" "mechanism=lto-vcg;dist_workers=2"
              "dist_workers")
expect_exit_2("hedge=0" "mechanism=lto-vcg;hedge=0" "hedge")
