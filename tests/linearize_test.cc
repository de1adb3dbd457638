#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "rewrite/linearize.h"
#include "termination/naive_decider.h"
#include "termination/syntactic_decider.h"
#include "tgd/classify.h"
#include "tgd/parser.h"
#include "tgd/printer.h"
#include "workload/random_tgds.h"
#include "workload/university.h"

namespace nuchase {
namespace rewrite {
namespace {

rewrite::Linearized Lin(core::SymbolTable* symbols,
                        const std::string& program_text) {
  auto program = tgd::ParseProgram(symbols, program_text);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  auto lin = Linearize(program->database, program->tgds, symbols,
                       LinearizeOptions{});
  EXPECT_TRUE(lin.ok()) << lin.status().ToString();
  return std::move(*lin);
}

TEST(LinearizeTest, RequiresGuardedness) {
  core::SymbolTable symbols;
  auto program = tgd::ParseProgram(
      &symbols, "R(a, b). R(x, y), S(y, z) -> T(x, z).");
  ASSERT_TRUE(program.ok());
  auto lin = Linearize(program->database, program->tgds, &symbols,
                       LinearizeOptions{});
  EXPECT_FALSE(lin.ok());
  EXPECT_EQ(lin.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(LinearizeTest, OutputIsLinear) {
  core::SymbolTable symbols;
  Linearized lin = Lin(&symbols,
                       "R(a, b).\n"
                       "S(b).\n"
                       "R(x, y), S(y) -> T(y, z).\n"
                       "T(y, z) -> S(z).\n");
  // lin(Σ) is linear by construction; Classify reports the most specific
  // class, which may be SL when no [τ]-body repeats a variable.
  EXPECT_TRUE(tgd::ClassContainedIn(tgd::Classify(lin.tgds),
                                    tgd::TgdClass::kLinear));
  EXPECT_GE(lin.num_types, 2u);
  // Every lin(D) fact uses a [τ] predicate of the registry.
  for (const core::Atom& fact : lin.database.facts()) {
    EXPECT_TRUE(lin.types.count(fact.predicate));
  }
}

TEST(LinearizeTest, TypeEncodesGuardAndCompanions) {
  // D = {R(a,a,b,c)} with σ' = R(x,x,y,z) → Q(x,z) (Example E.9): the
  // type of R(a,a,b,c) contains Q(a,c), and the [τ] name records the
  // pattern R(1,1,2,3) with companion Q(1,3).
  core::SymbolTable symbols;
  Linearized lin = Lin(&symbols,
                       "R(a, a, b, c).\n"
                       "R(x, x, y, z) -> Q(x, z).\n");
  ASSERT_EQ(lin.database.size(), 1u);
  const core::Atom& fact = lin.database.facts()[0];
  std::string name = symbols.predicate_name(fact.predicate);
  EXPECT_NE(name.find("R(1,1,2,3)"), std::string::npos) << name;
  EXPECT_NE(name.find("Q(1,3)"), std::string::npos) << name;
  // Full-arity convention: [τ](a,a,b,c).
  EXPECT_EQ(fact.args.size(), 4u);
}

// --- Proposition 8.1: linearization preserves finiteness and maxdepth. --

struct LinearizeCase {
  const char* name;
  const char* program;
  bool finite;
};

// Without this gtest prints the case as its raw bytes, which include
// pointer values; ctest would then name each case after addresses that
// change from run to run.
void PrintTo(const LinearizeCase& c, std::ostream* os) { *os << c.name; }

class LinearizePreservationTest
    : public ::testing::TestWithParam<LinearizeCase> {};

TEST_P(LinearizePreservationTest, FinitenessAndDepthArePreserved) {
  const LinearizeCase& param = GetParam();
  core::SymbolTable symbols;
  auto program = tgd::ParseProgram(&symbols, param.program);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  auto lin = Linearize(program->database, program->tgds, &symbols,
                       LinearizeOptions{});
  ASSERT_TRUE(lin.ok()) << lin.status().ToString();

  chase::ChaseOptions options;
  options.max_atoms = 20000;
  chase::ChaseResult original =
      chase::RunChase(&symbols, program->tgds, program->database, options);
  chase::ChaseResult linearized =
      chase::RunChase(&symbols, lin->tgds, lin->database, options);

  EXPECT_EQ(original.Terminated(), param.finite) << param.name;
  EXPECT_EQ(original.Terminated(), linearized.Terminated()) << param.name;
  if (param.finite) {
    EXPECT_EQ(original.stats.max_depth, linearized.stats.max_depth)
        << param.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LinearizePreservationTest,
    ::testing::Values(
        LinearizeCase{"datalog", "E(a, b). E(x, y) -> P(x, y).", true},
        LinearizeCase{"one_null",
                      "R(a, b). S(b). R(x, y), S(y) -> T(y, z).", true},
        LinearizeCase{"chain",
                      "R(a). R(x) -> E(x, z). E(x, z) -> F(z, w).", true},
        LinearizeCase{"side_conditions_finite",
                      "G(a, b). H(b). G(x, y), H(y) -> K(x, y, z). "
                      "K(x, y, z) -> H(z).",
                      true},
        LinearizeCase{"side_conditions_infinite",
                      "G(a, b). H(b). G(x, y), H(y) -> K(x, y, z). "
                      "K(x, y, z) -> G(y, z), H(z).",
                      false},
        LinearizeCase{"guarded_loop_finite",
                      "G(a, b). H(b). G(x, y), H(y) -> K(x, y, z). "
                      "K(x, y, z) -> L(x, y).",
                      true},
        LinearizeCase{"infinite_path",
                      "R(a, b). R(x, y) -> R(y, z).", false},
        LinearizeCase{"two_rules_interlock",
                      "R(a, b). R(x, y) -> S(y, z). S(x, y) -> R(x, x).",
                      true}),
    [](const ::testing::TestParamInfo<LinearizeCase>& info) {
      return info.param.name;
    });

TEST(GSimplifyTest, ComposesLinearizationAndSimplification) {
  core::SymbolTable symbols;
  auto program = tgd::ParseProgram(&symbols,
                                   "R(a, b).\n"
                                   "S(b).\n"
                                   "R(x, y), S(y) -> T(y, z).\n"
                                   "T(y, z) -> S(z).\n");
  ASSERT_TRUE(program.ok());
  auto gsimple = GSimplify(program->database, program->tgds, &symbols,
                           LinearizeOptions{});
  ASSERT_TRUE(gsimple.ok()) << gsimple.status().ToString();
  EXPECT_EQ(tgd::Classify(gsimple->tgds), tgd::TgdClass::kSimpleLinear);
  EXPECT_GE(gsimple->num_types, 2u);
  EXPECT_GE(gsimple->num_linear_tgds, 1u);
  EXPECT_EQ(gsimple->database.size(), program->database.size());
}

TEST(LinearizeTest, TypeBudgetIsEnforced) {
  core::SymbolTable symbols;
  auto program = tgd::ParseProgram(&symbols,
                                   "R(a, b).\n"
                                   "R(x, y) -> S(y, z).\n"
                                   "S(x, y) -> R(y, z).\n");
  ASSERT_TRUE(program.ok());
  LinearizeOptions options;
  options.max_types = 1;
  auto lin = Linearize(program->database, program->tgds, &symbols,
                       options);
  EXPECT_FALSE(lin.ok());
  EXPECT_EQ(lin.status().code(), util::StatusCode::kResourceExhausted);
}

// --- Linear work in |D|: for a fixed Σ the type oracle's deterministic
// work counters must grow linearly with the database. ---

/// University with 2 departments x (5 profs, `students`, 8 courses);
/// `review` adds the review rule and 10 UnderReview facts.
workload::Workload TwoDepartmentUniversity(core::SymbolTable* symbols,
                                           std::uint32_t students,
                                           bool review = false) {
  workload::UniversityOptions options;
  options.departments = 2;
  options.professors_per_department = 5;
  options.students_per_department = students;
  options.courses_per_department = 8;
  options.include_review_rule = review;
  options.under_review = review ? 10 : 0;
  return workload::MakeUniversityWorkload(symbols, options);
}

saturation::TypeOracle::Stats UniversityOracleStats(
    std::uint32_t students) {
  core::SymbolTable symbols;
  workload::Workload w = TwoDepartmentUniversity(&symbols, students);
  auto lin = Linearize(w.database, w.tgds, &symbols, LinearizeOptions{});
  EXPECT_TRUE(lin.ok()) << lin.status().ToString();
  return lin.ok() ? lin->oracle_stats : saturation::TypeOracle::Stats{};
}

TEST(LinearizeScalingTest, OracleWorkIsLinearInTheDatabase) {
  // Doubling the students roughly doubles |D| (738 -> 1468 facts). A
  // quadratic oracle scans ~4x the atoms; a linear one ~2x.
  saturation::TypeOracle::Stats small = UniversityOracleStats(200);
  saturation::TypeOracle::Stats large = UniversityOracleStats(400);
  ASSERT_GT(small.atoms_scanned, 0u);
  EXPECT_LE(static_cast<double>(large.atoms_scanned),
            2.3 * static_cast<double>(small.atoms_scanned))
      << small.atoms_scanned << " -> " << large.atoms_scanned;
  // The fixpoint needs the same number of passes at both sizes, and
  // converged child worlds are looked up, not re-run.
  EXPECT_EQ(small.passes, large.passes);
  EXPECT_GT(large.child_evals_skipped, 0u);
  EXPECT_LE(large.child_evals_skipped, large.child_evals);
}

// --- Identity net: lin(Σ), lin(D), the Σ-type names and the guarded
// verdict, byte for byte against goldens captured before the type
// oracle was indexed (tests/golden/lin_<case>.txt). ---

std::string RenderLinGolden(core::SymbolTable* symbols,
                            const tgd::TgdSet& tgds,
                            const core::Database& db) {
  auto lin = Linearize(db, tgds, symbols, LinearizeOptions{});
  if (!lin.ok()) return "% error: " + lin.status().ToString() + "\n";
  std::string out =
      tgd::ProgramToString(lin->tgds, lin->database, *symbols);
  std::vector<std::string> names;
  for (const auto& entry : lin->types) {
    names.push_back(entry.second.Name(*symbols));
  }
  std::sort(names.begin(), names.end());
  out += "% types " + std::to_string(names.size()) + "\n";
  for (const std::string& name : names) out += "% " + name + "\n";
  auto decision = termination::DecideGuarded(symbols, tgds, db);
  if (!decision.ok()) {
    return out + "% decide error: " + decision.status().ToString() + "\n";
  }
  return out + "% decide " +
         termination::DecisionName(decision->decision) +
         " simple_tgds=" + std::to_string(decision->simple_tgds) +
         " lin_types=" + std::to_string(decision->lin_types) +
         " lin_tgds=" + std::to_string(decision->lin_tgds) + "\n";
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

const std::string kRepoDir = NUCHASE_REPO_DIR;

bool IsGuardedProgram(const std::string& text) {
  core::SymbolTable symbols;
  auto program = tgd::ParseProgram(&symbols, text);
  return program.ok() &&
         tgd::ClassContainedIn(tgd::Classify(program->tgds),
                               tgd::TgdClass::kGuarded);
}

/// Renders the golden case `name`: "university[_review]" (2 departments
/// x (5 profs, 100 students, 8 courses); the review variant adds the
/// review rule and 10 UnderReview facts), "example_<stem>" (the guarded
/// examples/programs/<stem>.tgd) or "random_g<seed>" (the guarded
/// random workload of that seed).
std::string RenderCase(const std::string& name) {
  core::SymbolTable symbols;
  workload::Workload w;
  if (name.rfind("university", 0) == 0) {
    w = TwoDepartmentUniversity(&symbols, 100, name == "university_review");
  } else if (name.rfind("example_", 0) == 0) {
    auto program = tgd::ParseProgram(
        &symbols, ReadFile(kRepoDir + "/examples/programs/" +
                           name.substr(8) + ".tgd"));
    if (!program.ok()) return "% parse error\n";
    w.tgds = std::move(program->tgds);
    w.database = std::move(program->database);
  } else {
    workload::RandomTgdOptions options;
    options.seed = static_cast<std::uint32_t>(std::stoul(name.substr(8)));
    options.target = tgd::TgdClass::kGuarded;
    w = workload::MakeRandomWorkload(&symbols, options);
  }
  return RenderLinGolden(&symbols, w.tgds, w.database);
}

std::vector<std::string> GoldenCases() {
  std::vector<std::string> cases = {
      "university", "university_review", "example_data_exchange",
      "example_quickstart", "example_restraint_order",
      "example_witness_race"};
  for (int seed = 1; seed <= 12; ++seed) {
    cases.push_back("random_g" + std::to_string(seed));
  }
  return cases;
}

class LinearizeGoldenTest : public ::testing::TestWithParam<std::string> {};

TEST_P(LinearizeGoldenTest, MatchesCapturedOutput) {
  const std::string path =
      kRepoDir + "/tests/golden/lin_" + GetParam() + ".txt";
  const std::string expected = ReadFile(path);
  ASSERT_FALSE(expected.empty()) << "missing golden " << path;
  EXPECT_EQ(RenderCase(GetParam()), expected) << path;
}

INSTANTIATE_TEST_SUITE_P(Goldens, LinearizeGoldenTest,
                         ::testing::ValuesIn(GoldenCases()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(LinearizeGoldenCoverageTest, EveryGuardedExampleProgramHasACase) {
  std::vector<std::string> cases = GoldenCases();
  for (const auto& file : std::filesystem::directory_iterator(
           kRepoDir + "/examples/programs")) {
    if (file.path().extension() != ".tgd") continue;
    if (!IsGuardedProgram(ReadFile(file.path().string()))) continue;
    const std::string name = "example_" + file.path().stem().string();
    EXPECT_NE(std::find(cases.begin(), cases.end(), name), cases.end())
        << file.path() << " is guarded but has no lin golden";
  }
}

}  // namespace
}  // namespace rewrite
}  // namespace nuchase
