# Asserts that a tool rejects malformed numeric flags as a usage error.
#
#   cmake -DTOOL=<binary> -DPREFIX=<args> -DCASES=<case>|<case>... -P expect_usage_error.cmake
#
# Each case is "--flag value"; it runs as `TOOL PREFIX --flag value` and
# must exit 2 with "<--flag> expects" on stderr, before any work starts.
separate_arguments(prefix UNIX_COMMAND "${PREFIX}")
string(REPLACE "|" ";" cases "${CASES}")
foreach(case IN LISTS cases)
  separate_arguments(args UNIX_COMMAND "${case}")
  list(GET args 0 flag)
  execute_process(COMMAND "${TOOL}" ${prefix} ${args}
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err
                  TIMEOUT 30)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "'${case}': exit ${code}, want 2\nstdout: ${out}\nstderr: ${err}")
  endif()
  string(FIND "${err}" "${flag} expects" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "'${case}': stderr lacks '${flag} expects'\nstderr: ${err}")
  endif()
endforeach()
