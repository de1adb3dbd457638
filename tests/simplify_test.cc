#include <gtest/gtest.h>

#include "chase/chase.h"
#include "rewrite/simplify.h"
#include "tgd/classify.h"
#include "tgd/parser.h"
#include "workload/depth_family.h"
#include "workload/lower_bounds.h"

namespace nuchase {
namespace rewrite {
namespace {

TEST(IdPatternTest, FirstOccurrenceNumbering) {
  core::SymbolTable symbols;
  core::Term x = symbols.InternVariable("x");
  core::Term y = symbols.InternVariable("y");
  core::Term z = symbols.InternVariable("z");
  // The paper's example: id(x,y,x,z,y) = (1,2,1,3,2).
  EXPECT_EQ(IdPattern({x, y, x, z, y}),
            (std::vector<std::uint32_t>{1, 2, 1, 3, 2}));
  EXPECT_EQ(IdPattern({x}), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(IdPattern({}), (std::vector<std::uint32_t>{}));
  EXPECT_EQ(IdPattern({x, x, x}), (std::vector<std::uint32_t>{1, 1, 1}));
}

TEST(SimplifyAtomTest, CollapsesRepeatedTerms) {
  core::SymbolTable symbols;
  Simplifier simplifier(&symbols);
  auto r = symbols.InternPredicate("R", 3);
  core::Term a = *symbols.InternConstant("a");
  core::Term b = *symbols.InternConstant("b");
  core::Atom simple = simplifier.SimplifyAtom(core::Atom(*r, {a, b, a}));
  EXPECT_EQ(symbols.predicate_name(simple.predicate), "R[1,2,1]");
  EXPECT_EQ(symbols.arity(simple.predicate), 2u);
  ASSERT_EQ(simple.args.size(), 2u);
  EXPECT_EQ(simple.args[0], a);
  EXPECT_EQ(simple.args[1], b);

  core::PredicateId original;
  std::vector<std::uint32_t> pattern;
  ASSERT_TRUE(simplifier.Origin(simple.predicate, &original, &pattern));
  EXPECT_EQ(original, *r);
  EXPECT_EQ(pattern, (std::vector<std::uint32_t>{1, 2, 1}));
}

TEST(SimplifyDatabaseTest, PatternsSeparateFacts) {
  core::SymbolTable symbols;
  Simplifier simplifier(&symbols);
  core::Database db;
  ASSERT_TRUE(db.AddFact(&symbols, "R", {"a", "a"}).ok());
  ASSERT_TRUE(db.AddFact(&symbols, "R", {"a", "b"}).ok());
  core::Database simple = simplifier.SimplifyDatabase(db);
  EXPECT_EQ(simple.size(), 2u);
  EXPECT_EQ(simple.Predicates().size(), 2u);  // R[1,1] and R[1,2]
}

TEST(SimplifyTgdsTest, RejectsNonLinear) {
  core::SymbolTable symbols;
  auto tgds =
      tgd::ParseTgdSet(&symbols, "R(x, y), S(x) -> T(x).");
  ASSERT_TRUE(tgds.ok());
  Simplifier simplifier(&symbols);
  auto simple = simplifier.SimplifyTgds(*tgds);
  EXPECT_FALSE(simple.ok());
  EXPECT_EQ(simple.status().code(),
            util::StatusCode::kFailedPrecondition);
}

TEST(SimplifyTgdsTest, OutputIsSimpleLinear) {
  core::SymbolTable symbols;
  auto tgds = tgd::ParseTgdSet(
      &symbols, "R(x, y, x) -> R(y, z, y), R(x, x, z).");
  ASSERT_TRUE(tgds.ok());
  Simplifier simplifier(&symbols);
  auto simple = simplifier.SimplifyTgds(*tgds);
  ASSERT_TRUE(simple.ok()) << simple.status().ToString();
  EXPECT_EQ(tgd::Classify(*simple), tgd::TgdClass::kSimpleLinear);
  EXPECT_GE(simple->size(), 2u);  // identity + merged specialization
}

TEST(SimplifyTgdsTest, SpecializationCount) {
  // Body R(x,y,z) with 3 distinct variables: specializations follow the
  // "restricted growth" pattern: f(x)=x; f(y)∈{x,y}; f(z)∈{images,z}.
  // Counts: 1 · 2 · (2..3) = Bell(3) = 5.
  core::SymbolTable symbols;
  auto tgds = tgd::ParseTgdSet(&symbols, "R(x, y, z) -> P(x).");
  ASSERT_TRUE(tgds.ok());
  Simplifier simplifier(&symbols);
  auto simple = simplifier.SimplifyTgds(*tgds);
  ASSERT_TRUE(simple.ok());
  EXPECT_EQ(simple->size(), 5u);
}

TEST(SimplifyTgdsTest, Example71SimplificationTerminates) {
  // Example 7.1: Σ = { R(x,x) → ∃z R(z,x) } is not D-weakly-acyclic for
  // D = {R(a,b)}, yet chase(D,Σ) = D. Simplification fixes the analysis:
  // simple(D) = {R[1,2](a,b)} while the only simplification with a
  // special cycle lives on R[1,1].
  core::SymbolTable symbols;
  auto tgds = tgd::ParseTgdSet(&symbols, "R(x, x) -> R(z, x).");
  ASSERT_TRUE(tgds.ok());
  Simplifier simplifier(&symbols);
  auto simple = simplifier.SimplifyTgds(*tgds);
  ASSERT_TRUE(simple.ok());
  // The body R(x,x) already has a single distinct variable: exactly one
  // specialization.
  EXPECT_EQ(simple->size(), 1u);
  EXPECT_EQ(symbols.predicate_name(simple->tgd(0).body()[0].predicate),
            "R[1,1]");
}

// --- Proposition 7.3: simplification preserves finiteness and maxdepth. --

struct SimplifyCase {
  const char* name;
  const char* program;
  bool finite;
};

// Without this gtest prints the case as its raw bytes, which include
// pointer values; ctest would then name each case after addresses that
// change from run to run.
void PrintTo(const SimplifyCase& c, std::ostream* os) { *os << c.name; }

class SimplifyPreservationTest
    : public ::testing::TestWithParam<SimplifyCase> {};

TEST_P(SimplifyPreservationTest, FinitenessAndDepthArePreserved) {
  const SimplifyCase& param = GetParam();
  core::SymbolTable symbols;
  auto program = tgd::ParseProgram(&symbols, param.program);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  Simplifier simplifier(&symbols);
  auto simple_tgds = simplifier.SimplifyTgds(program->tgds);
  ASSERT_TRUE(simple_tgds.ok());
  core::Database simple_db = simplifier.SimplifyDatabase(program->database);

  chase::ChaseOptions options;
  options.max_atoms = 20000;
  chase::ChaseResult original =
      chase::RunChase(&symbols, program->tgds, program->database, options);
  chase::ChaseResult simplified =
      chase::RunChase(&symbols, *simple_tgds, simple_db, options);

  EXPECT_EQ(original.Terminated(), param.finite) << param.name;
  // Item (1) of Proposition 7.3.
  EXPECT_EQ(original.Terminated(), simplified.Terminated()) << param.name;
  // Item (2): maxdepth(D,Σ) = maxdepth(simple(D), simple(Σ)) — for
  // infinite chases compare the bounded prefixes' depth only as ≥ 1.
  if (param.finite) {
    EXPECT_EQ(original.stats.max_depth, simplified.stats.max_depth)
        << param.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SimplifyPreservationTest,
    ::testing::Values(
        SimplifyCase{"example71", "R(a, b). R(x, x) -> R(z, x).", true},
        // R(a,a) fires R(x,x) → ∃z R(z,x) once; the produced atom has
        // distinct arguments, so the chase still terminates.
        SimplifyCase{"example71-selfloop", "R(a, a). R(x, x) -> R(z, x).",
                     true},
        SimplifyCase{"simple-chain",
                     "R(a, b). R(x, y) -> S(y, z). S(x, y) -> T(x).",
                     true},
        SimplifyCase{"repeat-head",
                     "P(a). P(x) -> R(x, x). R(x, x) -> S(x, z, z).",
                     true},
        SimplifyCase{"self-feeding",
                     "R(a, b). R(x, y) -> R(y, z).", false},
        SimplifyCase{"diamond",
                     "R(a, b). R(x, y) -> S(x, y, x). "
                     "S(x, y, x) -> T(y). S(x, y, z) -> U(z, w).",
                     true}),
    [](const ::testing::TestParamInfo<SimplifyCase>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == '-' || c == '.') c = '_';
      }
      return name;
    });

// Simplification of the Theorem 7.6 lower-bound family stays linear-sized
// in the family parameters and preserves termination.
TEST(SimplifyTgdsTest, LinearLowerBoundFamilySimplifies) {
  core::SymbolTable symbols;
  workload::Workload w = workload::MakeLinearLowerBound(&symbols, 1, 1, 2);
  ASSERT_EQ(tgd::Classify(w.tgds), tgd::TgdClass::kLinear);
  Simplifier simplifier(&symbols);
  auto simple = simplifier.SimplifyTgds(w.tgds);
  ASSERT_TRUE(simple.ok());
  EXPECT_EQ(tgd::Classify(*simple), tgd::TgdClass::kSimpleLinear);

  core::Database simple_db = simplifier.SimplifyDatabase(w.database);
  chase::ChaseOptions options;
  options.max_atoms = 100000;
  chase::ChaseResult original =
      chase::RunChase(&symbols, w.tgds, w.database, options);
  chase::ChaseResult simplified =
      chase::RunChase(&symbols, *simple, simple_db, options);
  ASSERT_TRUE(original.Terminated());
  ASSERT_TRUE(simplified.Terminated());
  EXPECT_EQ(original.stats.max_depth, simplified.stats.max_depth);
}

}  // namespace
}  // namespace rewrite
}  // namespace nuchase
