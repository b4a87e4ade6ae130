# Runs BIN with the space-separated ARGS and passes only when it exits with
# status 2 and its output names FLAG: a refused command-line value.
#   cmake -DBIN=<exe> "-DARGS=<args>" -DFLAG=<flag> -P expect_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args} RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE out)
string(FIND "${out}" "${FLAG}" at)
if(NOT status EQUAL 2 OR at EQUAL -1)
  message(FATAL_ERROR "want exit status 2 naming ${FLAG}, got ${status}:\n"
                      "${out}")
endif()
