# bench_paper under a device whose R-sensing Scrubbing kinds cannot keep
# up (NAND, 8 s scrub) must exit 1 with the simulator's diagnostic on
# stderr, not abort with "terminate called" (exit 134). Several runs of
# the batch fail; the pool rethrows the lowest failing shard's error, so
# one and four threads both name the first infeasible kind in spec order,
# Figure 3's Scrubbing, with the same stderr. Driven by ctest as
# `bench_paper_infeasible_scrub` under a TIMEOUT; expects
# -DBENCH=<bench_paper> -DCFG=<nand_tlc_retention.cfg> -DOUT=<scratch dir>.
file(MAKE_DIRECTORY ${OUT})
# Set in this process, not through `cmake -E env`, which reports an
# aborted child as exit 1.
set(ENV{READDUO_INSTR} 20000)
set(ENV{READDUO_DEVICE} ${CFG})
foreach(threads 1 4)
  set(ENV{READDUO_THREADS} ${threads})
  execute_process(COMMAND ${BENCH}
                  WORKING_DIRECTORY ${OUT}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "bench_paper under ${CFG} at ${threads} thread(s): "
                        "expected exit 1, got '${rc}': ${err}")
  endif()
  foreach(part "bench_paper: " "infeasible scrub: Scrubbing senses"
               "memory.banks")
    string(FIND "${err}" "${part}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "bench_paper under ${CFG} at ${threads} "
                          "thread(s): stderr does not name '${part}': ${err}")
    endif()
  endforeach()
  if(threads EQUAL 1)
    set(serial_err "${err}")
  elseif(NOT err STREQUAL serial_err)
    message(FATAL_ERROR "bench_paper under ${CFG}: stderr differs between "
                        "1 and ${threads} threads:\n${serial_err}\nvs\n${err}")
  endif()
endforeach()
