# Runs one bench and compares its stdout byte for byte with a recorded
# golden file:
#   cmake -DBENCH=<executable> -DGOLDEN=<file.txt> -DACTUAL=<out.txt>
#         -P check_stdout.cmake
# The caller sets the environment (AQUA_BENCH_PACKETS). On a mismatch the
# actual output is left at ACTUAL for `diff GOLDEN ACTUAL`.
execute_process(COMMAND "${BENCH}"
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
file(READ "${GOLDEN}" golden)
if(NOT actual STREQUAL golden)
  file(WRITE "${ACTUAL}" "${actual}")
  message(FATAL_ERROR "stdout of ${BENCH} differs from ${GOLDEN}; "
                      "see: diff ${GOLDEN} ${ACTUAL}")
endif()
