# Run a tool with a malformed numeric flag and assert it dies fast with
# exit code 2 (the tools' usage-error code) and a diagnostic on stderr
# NAMING the flag — the contract the checked cli parsers replace silent
# atof/atol zeroes with.
#
# Usage: cmake -DTOOL=<path> "-DARGS=<;-separated args>" -DFLAG=<flag>
#              -P check_bad_flag.cmake
if(NOT DEFINED TOOL OR NOT DEFINED ARGS OR NOT DEFINED FLAG)
  message(FATAL_ERROR "check_bad_flag.cmake needs -DTOOL, -DARGS, -DFLAG")
endif()

# add_test hands the list over with escaped separators ("a\;b"), which
# would reach the tool as one argument "a;b"; split it into real ones.
string(REPLACE "\;" ";" args "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR
          "${TOOL} accepted a malformed value for ${FLAG} (exit 0)")
endif()
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${TOOL} exited ${rc}, expected 2: ${out}${err}")
endif()
string(FIND "${err}" "${FLAG}" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR
          "${TOOL} failed (rc=${rc}) but stderr does not name ${FLAG}: "
          "${err}")
endif()
