# Scrub feasibility: on the NAND device a 3 us R-sense per row cannot keep
# up with an 8 s scrub over 4.19 M rows per bank (~1.9 us per row), so the
# R-sensing Scrubbing kinds must exit 1 with a diagnostic naming the keys
# that set the period, instead of running forever. Hybrid's 640 s M-metric
# scrub fits and must still finish. Driven by ctest as
# `readduo_sim_infeasible_scrub` under a TIMEOUT; expects
# -DSIM=<readduo_sim> -DCFG=<configs/nand_tlc_retention.cfg>.
foreach(scheme Scrubbing Scrubbing-W0)
  execute_process(COMMAND ${SIM} ${CFG} --scheme=${scheme} --workload=mcf
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "NAND + ${scheme}: expected exit 1, got '${rc}'")
  endif()
  foreach(part "infeasible scrub" "scrub interval 8 s" "memory.capacity"
               "memory.banks" "memory.lines_per_scrub" "3000 ns")
    string(FIND "${err}" "${part}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "NAND + ${scheme}: the diagnostic does not name "
                          "'${part}': ${err}")
    endif()
  endforeach()
endforeach()

execute_process(COMMAND ${SIM} ${CFG} --scheme=Hybrid --workload=mcf
                        --instructions=20000 --json
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "NAND + Hybrid: exit ${rc}: ${err}")
endif()
