# Scrub feasibility: on the NAND device a 3 us R-sense per row cannot keep
# up with an 8 s scrub over 4.19 M rows per bank (~1.9 us per row), so the
# R-sensing Scrubbing kinds must exit 1 with a diagnostic naming the keys
# that set the period, instead of running forever. Hybrid's M-metric scrub
# at the device's declared 24 h fits and must still finish; the same device
# rewritten to scrub.interval = 10 s (~2.4 us per row against a 12 us
# M-sense) must fail naming that key. Driven by ctest as
# `readduo_sim_infeasible_scrub` under a TIMEOUT; expects
# -DSIM=<readduo_sim> -DCFG=<configs/nand_tlc_retention.cfg>
# -DOUT=<scratch dir>.
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

file(READ ${CFG} nand)
string(REPLACE "interval = 24 h" "interval = 10 s" fast "${nand}")
if(fast STREQUAL nand)
  message(FATAL_ERROR "${CFG} no longer declares 'interval = 24 h'")
endif()
file(MAKE_DIRECTORY ${OUT})
file(WRITE ${OUT}/nand_scrub_10s.cfg "${fast}")
execute_process(COMMAND ${SIM} ${OUT}/nand_scrub_10s.cfg --scheme=M-metric
                        --workload=mcf
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "NAND at 10 s + M-metric: expected exit 1, got '${rc}'")
endif()
foreach(part "infeasible scrub" "scrub interval 10 s (scrub.interval)"
             "12000 ns")
  string(FIND "${err}" "${part}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "NAND at 10 s + M-metric: the diagnostic does not "
                        "name '${part}': ${err}")
  endif()
endforeach()
