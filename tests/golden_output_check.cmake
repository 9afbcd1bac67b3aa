# Runs one figure binary at its default seed and requires its stdout to equal
# the committed golden file byte for byte. On a mismatch the actual output is
# kept next to the test's working directory for `diff`.
#   cmake -DBIN=<binary> -DGOLDEN=<file> -DOUT=<file> -P golden_output_check.cmake
execute_process(
  COMMAND ${BIN}
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "${BIN} exited ${code}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  file(WRITE ${OUT} "${actual}")
  message(FATAL_ERROR "${BIN} output differs from the golden file: "
                      "diff ${GOLDEN} ${OUT}")
endif()
