# bench_paper under a fault plan with READDUO_METRICS set must exit 0 and
# write the plan it ran under, in canonical form. The export runs from an
# atexit hook: a static it reads that is built after the hook is
# registered is destroyed before the hook runs, which crashes the process
# or prints a freed plan. Driven by ctest as `bench_paper_faults_metrics`
# under a TIMEOUT; expects -DBENCH=<bench_paper> -DOUT=<scratch dir>.
file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})
set(ENV{READDUO_INSTR} 20000)
set(ENV{READDUO_FAULTS} "seed=7;stuck:p=1e-4;sense:p=0.001,mag=2")
set(ENV{READDUO_METRICS} ${OUT}/paper_metrics.json)
execute_process(COMMAND ${BENCH}
                WORKING_DIRECTORY ${OUT}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_paper with faults and metrics: expected exit "
                      "0, got '${rc}': ${err}")
endif()
file(READ ${OUT}/paper_metrics.json doc)
set(want "\"plan\": \"seed=7;stuck:p=0.0001,level=3;sense:p=0.001,mag=2\"")
string(FIND "${doc}" "${want}" at)
if(at EQUAL -1)
  string(REGEX MATCH "\"plan\": [^\n]*" got "${doc}")
  message(FATAL_ERROR "metrics export: expected ${want}, got '${got}'")
endif()
