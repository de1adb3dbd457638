# End-to-end test for tools/nuchase_cli and tools/nuchase_lint, run via
#   cmake -DNUCHASE_CLI=<exe> -DNUCHASE_LINT=<exe> -DWORK_DIR=<dir>
#         -DREPO_DIR=<src> [-DNUCHASE_LOADGEN=<exe>] -P cli_end_to_end.cmake
# Drives classify/decide/chase/rewrite on the quickstart ontology,
# asserts on exit codes and key output lines, and compares the
# examples/programs/ outputs byte-for-byte against tests/golden/ so
# engine refactors cannot silently change results.

if(NOT NUCHASE_CLI OR NOT NUCHASE_LINT OR NOT WORK_DIR OR NOT REPO_DIR)
  message(FATAL_ERROR
      "NUCHASE_CLI, NUCHASE_LINT, WORK_DIR and REPO_DIR must be set")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(PROGRAM_FILE "${WORK_DIR}/quickstart.tgd")
file(WRITE "${PROGRAM_FILE}"
"Emp(alice, sales).
Emp(bob, eng).
Emp(x, d) -> Dept(d).
Dept(d) -> Mgr(d, m).
Mgr(d, m) -> Emp(m, d).
")

# run_cli(<out-var> <expected-rc> <arg>...) — runs the CLI, asserts the
# exit code, and stores combined stdout in the out-var.
function(run_cli out_var expected_rc)
  execute_process(
      COMMAND "${NUCHASE_CLI}" ${ARGN}
      OUTPUT_VARIABLE stdout
      ERROR_VARIABLE stderr
      RESULT_VARIABLE rc)
  if(NOT rc EQUAL expected_rc)
    message(FATAL_ERROR
        "nuchase ${ARGN}: exit ${rc}, expected ${expected_rc}\n"
        "stdout:\n${stdout}\nstderr:\n${stderr}")
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

run_cli(out 0 classify "${PROGRAM_FILE}")
expect_line("${out}" "class:" "classify")
expect_line("${out}" "SL" "classify")
expect_line("${out}" "d_C(Sigma)" "classify")

run_cli(out 0 decide "${PROGRAM_FILE}")
expect_line("${out}" "terminates" "decide")

run_cli(out 0 chase --print "${PROGRAM_FILE}")
expect_line("${out}" "outcome:    terminated" "chase")
expect_line("${out}" "variant:    semi-oblivious" "chase")
expect_line("${out}" "Dept(" "chase --print")

run_cli(out 0 chase --variant=restricted "${PROGRAM_FILE}")
expect_line("${out}" "variant:    restricted" "chase restricted")

run_cli(out 0 rewrite --mode=simplify "${PROGRAM_FILE}")

# Error paths: unknown command and missing file must fail loudly.
run_cli(out 2 badcommand "${PROGRAM_FILE}")

# Malformed numeric flags must be rejected (exit 2), never silently
# parsed as 0: trailing junk, empty values, signs, non-digits, values
# past the flag's range, and overflow past unsigned long long.
run_cli(out 2 chase --max-atoms=abc "${PROGRAM_FILE}")
run_cli(out 2 chase --max-rounds= "${PROGRAM_FILE}")
run_cli(out 2 chase --max-depth=12x "${PROGRAM_FILE}")
run_cli(out 2 chase --deadline-ms=-5 "${PROGRAM_FILE}")
run_cli(out 2 chase --max-rounds=99999999999999999999 "${PROGRAM_FILE}")
run_cli(out 2 chase --max-depth=4294967296 "${PROGRAM_FILE}")
# Removed flags are unknown options (exit 2), never silently ignored.
run_cli(out 2 chase --extent-log2=8 "${PROGRAM_FILE}")
run_cli(out 2 chase --no-position-index "${PROGRAM_FILE}")
run_cli(out 2 chase --threads=1 "${PROGRAM_FILE}")
run_cli(out 2 chase --threads=4 "${PROGRAM_FILE}")
if(NUCHASE_LOADGEN)
  execute_process(COMMAND "${NUCHASE_LOADGEN}" --port=1 --threads=1
      OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "nuchase_loadgen --threads=1: exit ${rc}, "
        "expected 2")
  endif()
endif()
# The well-formed spellings of the same budgets still work.
run_cli(out 0 chase --max-rounds=50 --max-depth=10 "${PROGRAM_FILE}")
expect_line("${out}" "outcome:    terminated" "chase with budgets")
# Deadlines past the steady clock's range (2^53, 2^63 - 1 and 2^64 - 1
# ms) must behave as no deadline: the atom budget stops this diverging
# chase (exit 1), never a wrapped deadline reporting "cancelled".
set(DIVERGING_FILE "${WORK_DIR}/diverging.tgd")
file(WRITE "${DIVERGING_FILE}" "R(a, b).\nR(x, y) -> R(y, z).\n")
foreach(ms 9007199254740992 9223372036854775807 18446744073709551615)
  run_cli(out 1 chase --deadline-ms=${ms} --max-atoms=2000
      "${DIVERGING_FILE}")
  expect_line("${out}" "outcome:    atom-limit" "chase --deadline-ms=${ms}")
endforeach()
execute_process(
    COMMAND "${NUCHASE_CLI}" classify "${WORK_DIR}/no_such_file.tgd"
    OUTPUT_QUIET ERROR_QUIET
    RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "classify on a missing file must not exit 0")
endif()

# ---------------------------------------------------------------------
# Golden-file checks over examples/programs/: every committed program's
# classify/decide/chase output must match tests/golden/ exactly.

# run_golden(<program.tgd> <golden-file> <expected-rc> <arg>...)
function(run_golden program golden expected_rc)
  execute_process(
      COMMAND "${NUCHASE_CLI}" ${ARGN} "${REPO_DIR}/examples/programs/${program}"
      OUTPUT_VARIABLE stdout
      ERROR_VARIABLE stderr
      RESULT_VARIABLE rc)
  if(NOT rc EQUAL expected_rc)
    message(FATAL_ERROR
        "golden ${golden}: nuchase ${ARGN} ${program} exited ${rc}, "
        "expected ${expected_rc}\nstdout:\n${stdout}\nstderr:\n${stderr}")
  endif()
  file(READ "${REPO_DIR}/tests/golden/${golden}" expected)
  if(NOT stdout STREQUAL expected)
    message(FATAL_ERROR
        "golden mismatch for ${golden} (nuchase ${ARGN} ${program}).\n"
        "--- expected ---\n${expected}\n--- got ---\n${stdout}\n"
        "If the change is intentional, regenerate tests/golden/ (see "
        "README, Benchmarks) and commit the diff.")
  endif()
endfunction()

foreach(prog quickstart data_exchange datalog_tc)
  run_golden(${prog}.tgd ${prog}_classify.txt 0 classify)
  run_golden(${prog}.tgd ${prog}_decide.txt 0 decide)
  run_golden(${prog}.tgd ${prog}_chase.txt 0 chase --print)
endforeach()
# Budget flags: a round budget must stop the recursive datalog program
# with outcome round-limit (exit 1 — the instance is only a chase
# prefix) and deterministic counters.
run_golden(datalog_tc.tgd datalog_tc_rounds.txt 1 chase --max-rounds=2)

# The ladder showcases: general TGDs that no per-class procedure
# covers, certified by the joint-acyclicity and MFA rungs.
run_golden(ja_ladder.tgd ja_ladder_decide.txt 0 decide)
run_golden(mfa_ladder.tgd mfa_ladder_decide.txt 0 decide)

run_golden(witness_race.tgd witness_race_classify.txt 0 classify)
run_golden(witness_race.tgd witness_race_decide.txt 1 decide)
run_golden(witness_race.tgd witness_race_chase.txt 0
    chase --variant=restricted --print)

# Restraint-guided firing order (restricted variant): plain Σ-order
# diverges on the committed order-sensitivity program (round-limit
# prefix pinned as a golden), --restraint-order terminates — in fewer
# rounds, with a smaller instance.
run_golden(restraint_order.tgd restraint_order_sigma.txt 1
    chase --variant=restricted --max-rounds=6)
run_golden(restraint_order.tgd restraint_order_guided.txt 0
    chase --variant=restricted --restraint-order --print)

# Reliance-scheduling purity: --no-reliances must reproduce the chase
# byte-for-byte — instance and every stats line — except the schedule
# line, which reports the ablation instead of the group count.
function(strip_schedule_line text out_var)
  string(REGEX REPLACE "schedule:[^\n]*\n" "" text "${text}")
  set(${out_var} "${text}" PARENT_SCOPE)
endfunction()

# check_reliance_purity(<program> <arg>...): run the chase with and
# without reliance scheduling and demand identical output modulo the
# schedule line.
function(check_reliance_purity prog)
  run_cli(rel_on 0 chase ${ARGN} --print
      "${REPO_DIR}/examples/programs/${prog}.tgd")
  run_cli(rel_off 0 chase ${ARGN} --print --no-reliances
      "${REPO_DIR}/examples/programs/${prog}.tgd")
  expect_line("${rel_off}" "schedule:   reliances off"
      "${prog} --no-reliances")
  strip_schedule_line("${rel_on}" rel_on)
  strip_schedule_line("${rel_off}" rel_off)
  if(NOT rel_on STREQUAL rel_off)
    message(FATAL_ERROR
        "${prog}: reliance scheduling changed the result.\n"
        "--- reliances on ---\n${rel_on}\n"
        "--- reliances off ---\n${rel_off}")
  endif()
endfunction()

foreach(prog quickstart data_exchange datalog_tc)
  check_reliance_purity(${prog})
endforeach()
check_reliance_purity(witness_race --variant=restricted)

# Ablation purity: the full-scan engine must materialize the identical
# instance; only the engine/joins stat lines may differ.
function(strip_engine_lines text out_var)
  string(REGEX REPLACE "engine:[^\n]*\n" "" text "${text}")
  string(REGEX REPLACE "joins:[^\n]*\n" "" text "${text}")
  set(${out_var} "${text}" PARENT_SCOPE)
endfunction()

foreach(prog quickstart data_exchange datalog_tc)
  run_cli(delta_on 0 chase --print
      "${REPO_DIR}/examples/programs/${prog}.tgd")
  run_cli(delta_off 0 chase --print --no-delta
      "${REPO_DIR}/examples/programs/${prog}.tgd")
  strip_engine_lines("${delta_on}" delta_on)
  strip_engine_lines("${delta_off}" delta_off)
  if(NOT delta_on STREQUAL delta_off)
    message(FATAL_ERROR
        "${prog}: delta and full-scan engines disagree.\n"
        "--- delta on ---\n${delta_on}\n--- delta off ---\n${delta_off}")
  endif()
endforeach()

# ---------------------------------------------------------------------
# nuchase_lint: exit-code contract, golden reports, byte-determinism.
#
# The linter echoes the file path exactly as given, so every golden run
# uses WORKING_DIRECTORY = examples/programs/ with a bare file name —
# build-tree paths must never leak into tests/golden/.

# run_lint(<out-var> <expected-rc> <arg>...) — like run_cli, for the
# linter, run from the examples/programs directory.
function(run_lint out_var expected_rc)
  execute_process(
      COMMAND "${NUCHASE_LINT}" ${ARGN}
      WORKING_DIRECTORY "${REPO_DIR}/examples/programs"
      OUTPUT_VARIABLE stdout
      ERROR_VARIABLE stderr
      RESULT_VARIABLE rc)
  if(NOT rc EQUAL expected_rc)
    message(FATAL_ERROR
        "nuchase_lint ${ARGN}: exit ${rc}, expected ${expected_rc}\n"
        "stdout:\n${stdout}\nstderr:\n${stderr}")
  endif()
  set(${out_var} "${stdout}" PARENT_SCOPE)
endfunction()

# run_lint_golden(<program.tgd> <golden-file> <expected-rc> <arg>...)
function(run_lint_golden program golden expected_rc)
  run_lint(stdout ${expected_rc} ${ARGN} "${program}")
  file(READ "${REPO_DIR}/tests/golden/${golden}" expected)
  if(NOT stdout STREQUAL expected)
    message(FATAL_ERROR
        "golden mismatch for ${golden} (nuchase_lint ${ARGN} "
        "${program}).\n--- expected ---\n${expected}\n"
        "--- got ---\n${stdout}\n"
        "If the change is intentional, regenerate tests/golden/ and "
        "commit the diff.")
  endif()
endfunction()

# Exit 0: clean programs (the ladder showcases raise no findings).
run_lint_golden(ja_ladder.tgd ja_ladder_lint.txt 0)
run_lint_golden(mfa_ladder.tgd mfa_ladder_lint.txt 0)

# Exit 1: the showcase program raises every parsed-program diagnostic,
# pinned byte-for-byte in both report formats.
run_lint_golden(lint_showcase.tgd lint_showcase_lint.txt 1)
run_lint_golden(lint_showcase.tgd lint_showcase_lint_json.txt 1
    --format=json)

# Byte-determinism: a second run must reproduce the golden exactly.
run_lint_golden(lint_showcase.tgd lint_showcase_lint_json.txt 1
    --format=json)

# A clean SL program exits 0 and reports the per-class procedure.
run_lint(out 0 "${PROGRAM_FILE}")
expect_line("${out}" "class:       SL" "lint quickstart")
expect_line("${out}" "termination: terminates (via weak-acyclicity)"
    "lint quickstart")
expect_line("${out}" "summary:     0 error(s), 0 warning(s), 0 info(s)"
    "lint quickstart")

# Exit 1: a parse failure surfaces as the synthetic NU000 diagnostic in
# both formats, never as a crash or a usage error.
file(WRITE "${WORK_DIR}/broken.tgd" "Emp(x ->\n")
run_lint(out 1 "${WORK_DIR}/broken.tgd")
expect_line("${out}" "error NU000" "lint parse failure")
run_lint(out 1 --format=json "${WORK_DIR}/broken.tgd")
expect_line("${out}" "\"id\": \"NU000\"" "lint parse failure json")

# --list-ids prints the catalog and exits 0.
run_lint(out 0 --list-ids)
expect_line("${out}" "NU001 warning" "lint --list-ids")
expect_line("${out}" "NU007 warning" "lint --list-ids")

# Exit 2: usage errors — bad flag values, unknown options, a missing
# operand, and an unreadable file.
run_lint(out 2 --threads=2 ja_ladder.tgd)
run_lint(out 2 --format=xml ja_ladder.tgd)
run_lint(out 2 --bogus ja_ladder.tgd)
run_lint(out 2)
run_lint(out 2 "${WORK_DIR}/no_such_file.tgd")

message(STATUS "cli_end_to_end: all checks passed")
