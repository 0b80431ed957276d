# Strict parse of READDUO_KERNELS: only "reference" and "optimized" name a
# tier. The retired "vector" and a typo must each make a case that
# resolves kAuto fail with a message naming both accepted values (never
# run silently on the default tier). Driven by ctest as
# `kernels_env_strict`; expects -DTEST_KERNELS=<test_kernels>.
foreach(value vector optimised)
  execute_process(COMMAND ${CMAKE_COMMAND} -E env READDUO_KERNELS=${value}
                          ${TEST_KERNELS}
                          --gtest_filter=KernelModeSelection.AutoResolvesToTheProcessWideTier
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "READDUO_KERNELS=${value}: the kAuto case passed")
  endif()
  set(want "READDUO_KERNELS must be 'reference' or 'optimized', got '${value}'")
  string(FIND "${out}${err}" "${want}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "READDUO_KERNELS=${value}: no \"${want}\" in:\n"
                        "${out}${err}")
  endif()
endforeach()
