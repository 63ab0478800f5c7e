# Runs BIN (with the environment the caller set, REPRO_JSON=<JSON> and a
# REPRO_FAULT_PLAN among it) and fails unless it exits 0 and every run in the
# REPRO_JSON document has a fault block whose ledger counted the plan's
# damage: detected > 0, repaired <= detected and
# injected == detected + undetected. Used by the fault-ledger ctest in
# bench/CMakeLists.txt:
#   cmake -DBIN=<exe> -DJSON=<path> -P expect_fault_ledger.cmake
file(REMOVE "${JSON}")
execute_process(COMMAND "${BIN}" RESULT_VARIABLE code
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT code STREQUAL "0")
  message(FATAL_ERROR "${BIN} exited with '${code}'; stderr:\n${err}")
endif()
file(READ "${JSON}" doc)
string(JSON runs LENGTH "${doc}" runs)
if(runs EQUAL 0)
  message(FATAL_ERROR "${JSON} holds no runs")
endif()
math(EXPR last "${runs} - 1")
foreach(i RANGE ${last})
  string(JSON name GET "${doc}" runs ${i} name)
  foreach(field injected detected repaired undetected)
    string(JSON ${field} GET "${doc}" runs ${i} fault ${field})
  endforeach()
  string(CONCAT ledger "injected=${injected} detected=${detected} "
                "repaired=${repaired} undetected=${undetected}")
  math(EXPR accounted "${detected} + ${undetected}")
  if(NOT detected GREATER 0)
    message(FATAL_ERROR "run ${name}: no fault detected (${ledger})")
  endif()
  if(repaired GREATER detected)
    message(FATAL_ERROR "run ${name}: more repairs than detections "
                        "(${ledger})")
  endif()
  if(NOT injected EQUAL accounted)
    message(FATAL_ERROR "run ${name}: ledger does not reconcile (${ledger})")
  endif()
endforeach()
