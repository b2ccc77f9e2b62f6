# Runs one CLI tool and checks its exit status, plus its stdout byte for
# byte when EXPECTED names a file, or that its stdout is one JSON document
# when JSON is set:
#
#   cmake -DTOOL=<exe> "-DARGS=<arg>;<arg>;..." -DEXIT_CODE=<n>
#         [-DEXPECTED=<file>] [-DJSON=1] -P check_tool.cmake
string(JOIN " " shown ${TOOL} ${ARGS})
execute_process(COMMAND ${TOOL} ${ARGS}
                OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc STREQUAL EXIT_CODE)
  message(FATAL_ERROR "${shown}: exit ${rc}, expected ${EXIT_CODE}\n${out}")
endif()
if(EXPECTED)
  file(READ ${EXPECTED} want)
  if(NOT out STREQUAL want)
    message(FATAL_ERROR "${shown}: stdout differs from ${EXPECTED}\n"
                        "--- got ---\n${out}--- want ---\n${want}")
  endif()
endif()
if(JSON)
  string(JSON type ERROR_VARIABLE error TYPE "${out}")
  if(error)
    message(FATAL_ERROR "${shown}: stdout is not JSON: ${error}\n${out}")
  endif()
endif()
