# A bench run always reflects the device it runs under. bench_paper runs
# under a copy of pcm_readduo_t1.cfg, then under the same copy edited to
# `write = 3000 ns`, then under it edited to `banks = 4` (same device name
# each time). The write edit must change the Figure 4 read-mode table; the
# bank edit must change the row-buffer and write-preemption extension
# tables. All runs share one working directory, so any result a bench
# carried over from one run into the next would show here. The first run
# must also print every artefact header exactly once, in order. Driven by
# ctest as `bench_device_edit_live`; expects -DBENCH=<bench_paper>
# -DCFG=<pcm_readduo_t1.cfg> -DOUT=<scratch dir>.
file(READ ${CFG} t1)
set(edits base write banks)
set(edit_base "")
set(edit_write "write = 1000 ns" "write = 3000 ns")
set(edit_banks "banks = 8" "banks = 4")
file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})

# Cut from the first `marker` to the next "== " header (or the end).
function(cut_section out marker var)
  string(FIND "${out}" "${marker}" begin)
  if(begin EQUAL -1)
    message(FATAL_ERROR "bench_paper printed no '${marker}':\n${out}")
  endif()
  string(SUBSTRING "${out}" ${begin} -1 rest)
  string(LENGTH "${marker}" skip)
  string(SUBSTRING "${rest}" ${skip} -1 tail)
  string(FIND "${tail}" "\n== " len)
  if(NOT len EQUAL -1)
    math(EXPR len "${len} + ${skip}")
  endif()
  string(SUBSTRING "${rest}" 0 ${len} section)
  set(${var} "${section}" PARENT_SCOPE)
endfunction()

foreach(edit ${edits})
  set(cfg "${t1}")
  if(edit_${edit})
    list(GET edit_${edit} 0 from)
    list(GET edit_${edit} 1 to)
    string(REPLACE "${from}" "${to}" cfg "${t1}")
    if(cfg STREQUAL t1)
      message(FATAL_ERROR "${CFG} no longer declares '${from}'")
    endif()
  endif()
  file(WRITE ${OUT}/device.cfg "${cfg}")
  execute_process(COMMAND ${CMAKE_COMMAND} -E env READDUO_INSTR=20000
                          READDUO_DEVICE=${OUT}/device.cfg ${BENCH}
                  WORKING_DIRECTORY ${OUT}
                  OUTPUT_VARIABLE out RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_paper under the ${edit} device: exit ${rc}: "
                        "${err}")
  endif()
  cut_section("${out}" "Measured read-mode mix" modes_${edit})
  cut_section("${out}" "== Extension: open-page" rowbuffer_${edit})
  cut_section("${out}" "== Extension: read-over-write" pausing_${edit})
  file(WRITE ${OUT}/out_${edit}.txt "${out}")
  if(edit STREQUAL base)
    set(out_base "${out}")
  endif()
endforeach()

# Every artefact once, in print order.
set(last -1)
foreach(header
    "== Table I / Table II:" "== Table VIII:" "== Table IX:"
    "== Table III:" "== Table IV:" "== Table V:" "== Table VII:"
    "== Figure 6:" "== Figure 3:" "== Figure 4:" "== Figure 9:"
    "== Table X:" "== Figure 10:" "== Figure 11:" "== Figure 15:"
    "== Figure 12:" "== Figure 13:" "== Figure 14:"
    "== Ablation: reliable" "== Ablation: conversion"
    "== Extension: Start-Gap" "== Extension: open-page"
    "== Extension: temperature" "== Extension: read-over-write")
  string(FIND "${out_base}" "${header}" first)
  string(FIND "${out_base}" "${header}" final REVERSE)
  if(first EQUAL -1)
    message(FATAL_ERROR "bench_paper printed no '${header}' "
                        "(${OUT}/out_base.txt)")
  endif()
  if(NOT first EQUAL final)
    message(FATAL_ERROR "bench_paper printed '${header}' more than once "
                        "(${OUT}/out_base.txt)")
  endif()
  if(NOT first GREATER last)
    message(FATAL_ERROR "bench_paper printed '${header}' out of order "
                        "(${OUT}/out_base.txt)")
  endif()
  set(last ${first})
endforeach()

if(modes_base STREQUAL modes_write)
  message(FATAL_ERROR "bench_paper ignored the edited device: the read-mode "
                      "tables at write = 1000 ns and 3000 ns are identical "
                      "(${OUT}/out_base.txt)")
endif()
foreach(table rowbuffer pausing)
  if(${table}_base STREQUAL ${table}_banks)
    message(FATAL_ERROR "bench_paper ignored the edited device: the "
                        "${table} tables at 8 and 4 banks are identical "
                        "(${OUT}/out_base.txt)")
  endif()
endforeach()
