# Strict command-line parsing for readduo_load and readduo_serve: every
# malformed numeric flag must exit 2 with a message naming the flag
# (never run with a wrapped, truncated or silently defaulted value).
# Driven by ctest as `readduo_service_cli_flags`; expects
# -DLOAD=<readduo_load> -DSERVE=<readduo_serve>.

# Each case: "<flag>=<value>"; the flag name is everything before '='.
set(BAD_LOAD_FLAGS
    --shards=-1
    --shards=0
    --shards=1025
    --seed=abc
    --seed=-1
    --requests=0
    --requests=12x
    --queue=4x
    --batch=0
    --report-every=1.5
    --clients=0
    --clients=257
    --window=
    --crosscheck=2
    --rps=0
    --rps=-5
    --rps=1e3x
    --rps=inf
    --rps=2e9
    --rps=1e-12
    --write-fraction=2
    --write-fraction=-0.5
    --write-fraction=0x1
    --write-fraction=nan)
set(BAD_SERVE_FLAGS
    --queue=4x
    --shards=-1
    --seed=abc
    --batch=0)

function(expect_bad tool arg)
  string(REGEX REPLACE "=.*" "" flag "${arg}")
  execute_process(COMMAND ${tool} ${arg} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${tool} ${arg}: expected exit 2, got '${rc}'")
  endif()
  string(FIND "${err}" "${flag}:" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${tool} ${arg}: the message does not name "
                        "${flag}: ${err}")
  endif()
endfunction()

foreach(arg ${BAD_LOAD_FLAGS})
  expect_bad(${LOAD} ${arg})
endforeach()
foreach(arg ${BAD_SERVE_FLAGS})
  expect_bad(${SERVE} ${arg})
endforeach()

# The edges of every range are valid: the run must go ahead.
execute_process(COMMAND ${LOAD} --requests=2000 --report-every=0 --seed=0
                        --shards=1 --queue=1 --batch=1 --rps=2.5e6
                        --write-fraction=0 --crosscheck=0
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "readduo_load with in-range flags: exit ${rc}")
endif()
execute_process(COMMAND ${LOAD} --requests=200 --report-every=0
                        --write-fraction=1 --rps=1000
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "readduo_load --write-fraction=1 --rps=1000: "
                      "exit ${rc}")
endif()
