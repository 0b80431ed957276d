# A bench run always reflects the device it runs under: bench_paper under
# a copy of pcm_readduo_t1.cfg, then under the same copy edited to
# `write = 3000 ns` (same device name), must print different Figure 4
# read-mode tables. Both runs share one working directory, so any result
# a bench carried over from the first run into the second would show
# here. Driven by ctest as `bench_device_edit_live`; expects
# -DBENCH=<bench_paper> -DCFG=<pcm_readduo_t1.cfg> -DOUT=<scratch dir>.
file(READ ${CFG} t1)
string(REPLACE "write = 1000 ns" "write = 3000 ns" slow "${t1}")
if(slow STREQUAL t1)
  message(FATAL_ERROR "${CFG} no longer declares 'write = 1000 ns'")
endif()
file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})

foreach(write 1000 3000)
  if(write EQUAL 1000)
    file(WRITE ${OUT}/device.cfg "${t1}")
  else()
    file(WRITE ${OUT}/device.cfg "${slow}")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E env READDUO_INSTR=20000
                          READDUO_DEVICE=${OUT}/device.cfg ${BENCH}
                  WORKING_DIRECTORY ${OUT}
                  OUTPUT_VARIABLE out RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_paper at write = ${write} ns: exit ${rc}: "
                        "${err}")
  endif()
  # The measured read-mode table: from its title to the next "== " header.
  string(FIND "${out}" "Measured read-mode mix" begin)
  if(begin EQUAL -1)
    message(FATAL_ERROR "bench_paper printed no read-mode table:\n${out}")
  endif()
  string(SUBSTRING "${out}" ${begin} -1 rest)
  string(FIND "${rest}" "\n== " len)
  if(len EQUAL -1)
    message(FATAL_ERROR "bench_paper printed nothing after the read-mode "
                        "table:\n${out}")
  endif()
  string(SUBSTRING "${rest}" 0 ${len} table_${write})
  file(WRITE ${OUT}/modes_${write}.txt "${table_${write}}")
endforeach()

if(table_1000 STREQUAL table_3000)
  message(FATAL_ERROR "bench_paper ignored the edited device: the read-mode "
                      "tables at write = 1000 ns and 3000 ns are identical "
                      "(${OUT}/modes_1000.txt)")
endif()
