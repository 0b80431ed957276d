# bench_paper under a device whose R-sensing Scrubbing kinds cannot keep
# up (NAND, 8 s scrub) must exit 1 with the simulator's diagnostic on
# stderr, not abort with "terminate called" (exit 134). The pool rethrows
# the first failure in time; on several threads that is whichever
# infeasible kind reaches its first scrub first (often Scrubbing-W0, which
# builds no sampler). One thread keeps the batch in spec order, so the run
# named is always Figure 3's first R-scrubbing kind, Scrubbing. Driven by ctest as `bench_paper_infeasible_scrub` under a
# TIMEOUT; expects -DBENCH=<bench_paper> -DCFG=<nand_tlc_retention.cfg>
# -DOUT=<scratch dir>.
file(MAKE_DIRECTORY ${OUT})
# Set in this process, not through `cmake -E env`, which reports an
# aborted child as exit 1.
set(ENV{READDUO_INSTR} 20000)
set(ENV{READDUO_THREADS} 1)
set(ENV{READDUO_DEVICE} ${CFG})
execute_process(COMMAND ${BENCH}
                WORKING_DIRECTORY ${OUT}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "bench_paper under ${CFG}: expected exit 1, got "
                      "'${rc}': ${err}")
endif()
foreach(part "bench_paper: " "infeasible scrub: Scrubbing senses"
             "memory.banks")
  string(FIND "${err}" "${part}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "bench_paper under ${CFG}: stderr does not name "
                        "'${part}': ${err}")
  endif()
endforeach()
