# End-to-end test for tools/nuchase_server's command line, run via
#   cmake -DNUCHASE_SERVER=<exe> -DWORK_DIR=<dir> -P server_cli.cmake
# Asserts the strict-flag contract every nuchase binary shares (exit 2
# on any malformed numeric flag, via util::ParseCountFlag — garbage,
# empty, signed, trailing-junk, out-of-range and overflowing spellings
# all rejected, never silently parsed), the mode exclusivity rules, and
# a small --stdio transcript so the daemon's hermetic mode stays
# drivable from a shell pipeline.

if(NOT NUCHASE_SERVER OR NOT WORK_DIR)
  message(FATAL_ERROR "NUCHASE_SERVER and WORK_DIR must be set")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

# run_server(<out-var> <expected-rc> [INPUT <file>] <arg>...)
function(run_server out_var expected_rc)
  cmake_parse_arguments(RS "" "INPUT" "" ${ARGN})
  set(input_args "")
  if(RS_INPUT)
    set(input_args INPUT_FILE "${RS_INPUT}")
  endif()
  execute_process(
      COMMAND "${NUCHASE_SERVER}" ${RS_UNPARSED_ARGUMENTS}
      ${input_args}
      OUTPUT_VARIABLE stdout
      ERROR_VARIABLE stderr
      RESULT_VARIABLE rc)
  if(NOT rc EQUAL expected_rc)
    message(FATAL_ERROR
        "nuchase_server ${RS_UNPARSED_ARGUMENTS}: exit ${rc}, expected "
        "${expected_rc}\nstdout:\n${stdout}\nstderr:\n${stderr}")
  endif()
  set(${out_var} "${stdout}" PARENT_SCOPE)
endfunction()

function(expect_line output needle context)
  string(FIND "${output}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR
        "${context}: expected output to contain '${needle}', got:\n"
        "${output}")
  endif()
endfunction()

# --list-frames and --help succeed without a mode.
run_server(out 0 --list-frames)
expect_line("${out}" "oversized-frame" "--list-frames")
run_server(out 0 --help)

# Mode errors: none, both, unknown option.
run_server(out 2)
run_server(out 2 --stdio --port=0)
run_server(out 2 --stdio --bogus)

# Strict numeric flags: one garbage, one empty, one signed, one
# trailing-junk, one out-of-range and one overflow spelling across the
# daemon's whole flag surface — all exit 2.
run_server(out 2 --port=abc)
run_server(out 2 --port=)
run_server(out 2 --port=-1)
run_server(out 2 --port=80x)
run_server(out 2 --port=65536)
run_server(out 2 --port=99999999999999999999)
run_server(out 2 --stdio --max-inflight=0)
run_server(out 2 --stdio --max-inflight=abc)
run_server(out 2 --stdio --max-inflight=257)
run_server(out 2 --stdio --max-queue=-1)
run_server(out 2 --stdio --max-queue=two)
run_server(out 2 --stdio --max-queue=1000001)
run_server(out 2 --stdio --cache-size=0)
run_server(out 2 --stdio --cache-size=)
run_server(out 2 --stdio --threads=1)
run_server(out 2 --stdio --max-line-bytes=10)
run_server(out 2 --stdio --max-line-bytes=1073741825)

# A --stdio transcript: ping, one chase with payload, stats. The
# daemon must answer every frame and exit 0 once stdin drains.
set(SCRIPT_FILE "${WORK_DIR}/stdio_script.jsonl")
file(WRITE "${SCRIPT_FILE}"
"{\"type\":\"ping\"}
{\"type\":\"chase\",\"id\":\"r1\",\"rules\":\"P(a).\\nP(x) -> Q(x).\",\"payload\":true}
{\"type\":\"not-a-frame\"}
{\"type\":\"stats\"}
")
run_server(out 0 --stdio INPUT "${SCRIPT_FILE}")
expect_line("${out}" "\"type\":\"pong\"" "stdio ping")
expect_line("${out}" "\"type\":\"ack\",\"id\":\"r1\"" "stdio ack")
expect_line("${out}" "\"outcome\":\"terminated\"" "stdio result")
expect_line("${out}" "\"payload\":\"P(a)\\nQ(a)\\n\"" "stdio payload")
expect_line("${out}" "\"code\":\"unknown-type\"" "stdio rejection")
expect_line("${out}" "\"type\":\"stats\"" "stdio stats")

# The well-formed spellings still serve.
set(PING_FILE "${WORK_DIR}/ping.jsonl")
file(WRITE "${PING_FILE}" "{\"type\":\"ping\"}\n")
run_server(out 0 --stdio --max-inflight=2 --max-queue=0 --cache-size=1
    --max-line-bytes=4096 INPUT "${PING_FILE}")
expect_line("${out}" "\"type\":\"pong\"" "stdio with flags")

message(STATUS "server_cli: all flag and transcript checks passed")
