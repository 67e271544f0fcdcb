# Runs perf_gate on a committed fixture pair at the smoke-tier band and
# checks its exit code and output; the `perf_gate_check_*` tests use it to
# show that the comparator still fails a real slip and passes a slow host.
#
#   cmake -DPERF_GATE=<exe> -DCURRENT=<json> -DBASELINE=<json>
#         -DEXPECT_RC=<code> [-DEXPECT_REGEX=<regex>] [-DEXPECT_FILE=<txt>]
#         -P perf_gate_check.cmake
#
# EXPECT_REGEX is matched against stdout and stderr together;
# EXPECT_FILE must equal stdout byte for byte.

# The fixtures are judged at the band given here, not at a runner's.
unset(ENV{MDO_PERF_TOLERANCE})
execute_process(COMMAND ${PERF_GATE} ${CURRENT} ${BASELINE} 0.50
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(NOT rc EQUAL EXPECT_RC)
  message(FATAL_ERROR "perf_gate exited ${rc}, expected ${EXPECT_RC}")
endif()
if(DEFINED EXPECT_REGEX AND NOT "${out}${err}" MATCHES "${EXPECT_REGEX}")
  message(FATAL_ERROR "perf_gate output does not match '${EXPECT_REGEX}'")
endif()
if(DEFINED EXPECT_FILE)
  file(READ ${EXPECT_FILE} expected)
  if(NOT out STREQUAL expected)
    message(FATAL_ERROR "perf_gate output differs from ${EXPECT_FILE}")
  endif()
endif()
