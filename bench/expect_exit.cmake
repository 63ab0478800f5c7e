# Runs BIN (with the environment the caller set) and fails unless it exits
# with EXPECT_CODE and its stderr matches the regex EXPECT_STDERR. Used by
# the knob-validation ctests in bench/CMakeLists.txt:
#   cmake -DBIN=<exe> -DEXPECT_CODE=2 -DEXPECT_STDERR=<regex> -P expect_exit.cmake
execute_process(COMMAND "${BIN}" RESULT_VARIABLE code
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT_CODE}")
  message(FATAL_ERROR "${BIN} exited with '${code}', expected ${EXPECT_CODE}; "
                      "stderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "${BIN} stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()
