# The device's [scrub] section drives the simulator: the same short run on
# pcm_readduo_t1.cfg and on a copy rewritten to scrub.interval = 60 s must
# differ for the M-scrubbing kinds (M-metric, LWT) and be byte-identical
# for a kind that fixes its own S (Scrubbing, the paper's 8 s) or never
# scrubs (Ideal). Driven by ctest as `config_device_scrub_live`; expects
# -DSIM=<readduo_sim> -DCFG=<pcm_readduo_t1.cfg> -DOUT=<scratch dir>.
file(READ ${CFG} t1)
string(REPLACE "interval = 640 s" "interval = 60 s" fast "${t1}")
if(fast STREQUAL t1)
  message(FATAL_ERROR "${CFG} no longer declares 'interval = 640 s'")
endif()
file(MAKE_DIRECTORY ${OUT})
file(WRITE ${OUT}/scrub_60s.cfg "${fast}")

foreach(scheme M-metric LWT Scrubbing Ideal)
  foreach(dev t1 60s)
    set(cfg ${CFG})
    if(dev STREQUAL 60s)
      set(cfg ${OUT}/scrub_60s.cfg)
    endif()
    execute_process(COMMAND ${SIM} ${cfg} --scheme=${scheme} --workload=mcf
                            --instructions=200000 --seed=42 --json
                    OUTPUT_FILE ${OUT}/${scheme}_${dev}.json
                    RESULT_VARIABLE rc ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${scheme} on ${cfg}: exit ${rc}: ${err}")
    endif()
  endforeach()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          ${OUT}/${scheme}_t1.json ${OUT}/${scheme}_60s.json
                  RESULT_VARIABLE differ)
  if(scheme MATCHES "^(M-metric|LWT)$" AND differ EQUAL 0)
    message(FATAL_ERROR "${scheme} ignored scrub.interval: the 640 s and "
                        "60 s reports are identical (${OUT})")
  elseif(scheme MATCHES "^(Scrubbing|Ideal)$" AND NOT differ EQUAL 0)
    message(FATAL_ERROR "${scheme} followed scrub.interval, which only the "
                        "M-scrubbing kinds read (compare "
                        "${OUT}/${scheme}_t1.json and ${scheme}_60s.json)")
  endif()
endforeach()
