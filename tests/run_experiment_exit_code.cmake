# ctest script (cmake -P): run_experiment given retired inputs must fail
# cleanly with exit code 2 and an error naming the problem on stderr, not
# an uncaught exception and not a run on silently ignored settings:
#   - a mechanism key the registry does not know (the retired lto-vcg-async,
#     lto-vcg-dist and lto-vcg-dist-hedge), on the static and multi paths,
#     prints "unknown mechanism";
#   - a retired option (dist_workers=, hedge=, and shards= on the multi
#     scenario) is a key no scenario reads, so the run is refused with the
#     key named;
#   - a tuning knob (shards=, oracle_threads=, greedy_scale=) given to a
#     mechanism whose registry entry does not declare it is refused the
#     same way, while the keys that declare it still run.
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
expect_exit_2("scenario=multi shards=4" "scenario=multi;shards=4" "shards")

expect_exit_2("lto-vcg shards=8" "mechanism=lto-vcg;shards=8" "shards")
foreach(knob oracle_threads greedy_scale)
  expect_exit_2("pay-as-bid ${knob}"
                "mechanism=pay-as-bid;oracle_threads=4;greedy_scale=3"
                "${knob}")
endforeach()

# The keys that declare a knob still read it: these runs must succeed.
function(expect_exit_0 label args)
  execute_process(
    COMMAND ${RUN_EXPERIMENT} ${args} rounds=1 clients=4 train=200 test=50
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code STREQUAL "0")
    message(FATAL_ERROR
            "${label}: expected exit code 0, got '${code}'\n"
            "stdout:\n${out}\nstderr:\n${err}")
  endif()
endfunction()

expect_exit_0("lto-vcg-sharded shards=2" "mechanism=lto-vcg-sharded;shards=2")
expect_exit_0("greedy-concave-par knobs"
              "mechanism=greedy-concave-par;oracle_threads=2;greedy_scale=3")
