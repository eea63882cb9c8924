# Run one command line and check its exit code and, optionally, its output
# and the artifacts it writes: the driver of the ringent_cli_* ctest cases
# (tests/CMakeLists.txt).
#
#   cmake -DCLI=<binary> -DARGS=<args joined by ^> -DEXPECT_EXIT=<code>
#         [-DEXPECT_OUTPUT=<regex over stdout+stderr>]
#         [-DREJECT_OUTPUT=<regex stdout+stderr must not match>]
#         [-DOUT_DIR=<dir> -DEXPECT_FILES=<file names joined by ^>]
#         -P run_cli.cmake
#
# With OUT_DIR the command runs with RINGENT_OUT_DIR pointing at a fresh
# OUT_DIR, which must then hold exactly EXPECT_FILES.
string(REPLACE "^" ";" args "${ARGS}")
if(DEFINED OUT_DIR)
  file(REMOVE_RECURSE "${OUT_DIR}")
  file(MAKE_DIRECTORY "${OUT_DIR}")
  set(ENV{RINGENT_OUT_DIR} "${OUT_DIR}")
endif()
execute_process(COMMAND ${CLI} ${args}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR "exit '${code}', expected ${EXPECT_EXIT}\n${out}${err}")
endif()
if(DEFINED EXPECT_OUTPUT AND NOT "${out}${err}" MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "output does not match '${EXPECT_OUTPUT}'\n${out}${err}")
endif()
if(DEFINED REJECT_OUTPUT AND "${out}${err}" MATCHES "${REJECT_OUTPUT}")
  message(FATAL_ERROR "output matches '${REJECT_OUTPUT}'\n${out}${err}")
endif()
if(DEFINED OUT_DIR)
  string(REPLACE "^" ";" expected "${EXPECT_FILES}")
  file(GLOB written RELATIVE "${OUT_DIR}" "${OUT_DIR}/*")
  list(SORT expected)
  list(SORT written)
  if(NOT written STREQUAL expected)
    message(FATAL_ERROR "${OUT_DIR} holds '${written}', expected "
      "'${expected}'\n${out}${err}")
  endif()
endif()
