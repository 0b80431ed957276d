# Strict command-line parsing for readduo_sim: every malformed numeric
# flag must exit 2 with a message naming the flag (never run with a
# silently defaulted or truncated value), and a --config run file holding
# a device setting must fail naming the device-config key that owns it.
# Driven by ctest as `readduo_sim_cli_flags`; expects
# -DSIM=<readduo_sim> -DOUT=<scratch dir>.
file(MAKE_DIRECTORY ${OUT})

# Each case: "<flag>=<value>"; the flag name is everything before '='.
set(BAD_FLAGS
    --instructions=abc
    --instructions=0
    --instructions=12x
    --instructions=-5
    --instructions=
    --instructions=99999999999999999999999
    --seed=abc
    --seed=-1
    --seed=1e3
    --k=0
    --k=4294967296
    --s=0
    --s=two)
foreach(arg ${BAD_FLAGS})
  string(REGEX REPLACE "=.*" "" flag "${arg}")
  execute_process(COMMAND ${SIM} --scheme=Ideal --workload=mcf ${arg}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${arg}: expected exit 2, got '${rc}'")
  endif()
  string(FIND "${err}" "${flag}:" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${arg}: the message does not name ${flag}: ${err}")
  endif()
endforeach()

# Zero is a valid seed; the run must go ahead.
execute_process(COMMAND ${SIM} --scheme=Ideal --workload=mcf --seed=0
                        --instructions=20000 --json
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--seed=0 --instructions=20000: exit ${rc}")
endif()

file(WRITE ${OUT}/device_key.ini "[memory]\nbanks = 7\n")
execute_process(COMMAND ${SIM} --scheme=Ideal --workload=mcf
                        --instructions=20000 --config=${OUT}/device_key.ini
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "--config with [memory] banks: expected exit 1, "
                      "got '${rc}'")
endif()
string(FIND "${err}" "device_key.ini:2: key 'memory.banks' is a device setting"
       at)
if(at EQUAL -1)
  message(FATAL_ERROR "--config with [memory] banks: unexpected message: "
                      "${err}")
endif()
