#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "chase/chase.h"
#include "saturation/canonical.h"
#include "saturation/type_oracle.h"
#include "tgd/parser.h"

namespace nuchase {
namespace saturation {
namespace {

/// Ground truth for complete(D, Σ): the atoms of chase(D, Σ) whose terms
/// all come from dom(D). With max_depth = 0 the pair must terminate;
/// otherwise the chase is cut at that depth, which is exact for pairs
/// whose comebacks to dom(D) all happen within it.
std::set<core::Atom> CompleteViaChase(core::SymbolTable* symbols,
                                      const tgd::TgdSet& tgds,
                                      const core::Database& db,
                                      std::uint32_t max_depth = 0) {
  chase::ChaseOptions options;
  options.max_depth = max_depth;
  chase::ChaseResult result = chase::RunChase(symbols, tgds, db, options);
  if (max_depth == 0) {
    EXPECT_TRUE(result.Terminated());
  }
  auto dom = db.ActiveDomain();
  std::set<core::Atom> out;
  for (core::AtomIndex i = 0; i < result.instance.size(); ++i) {
    core::AtomView atom = result.instance.atom(i);
    core::TermSpan terms = atom.terms();
    bool inside = std::all_of(
        terms.begin(), terms.end(),
        [&](core::Term t) { return dom.count(t) > 0; });
    if (inside) out.insert(atom.ToAtom());
  }
  return out;
}

std::set<core::Atom> CompleteViaOracle(core::SymbolTable* symbols,
                                       const tgd::TgdSet& tgds,
                                       const core::Database& db) {
  auto oracle = TypeOracle::Create(*symbols, tgds, TypeOracle::Options{});
  EXPECT_TRUE(oracle.ok()) << oracle.status().ToString();
  auto completed = oracle->Complete(db.facts());
  EXPECT_TRUE(completed.ok()) << completed.status().ToString();
  return {completed->begin(), completed->end()};
}

TEST(CanonicalTest, RenamesAscending) {
  CAtomSet atoms;
  atoms.insert(CAtom(0, {7, 3}));
  atoms.insert(CAtom(1, {3}));
  Canonicalized canon = Canonicalize(atoms);
  EXPECT_EQ(canon.key.num_terms, 2u);
  ASSERT_EQ(canon.new_to_old.size(), 2u);
  EXPECT_EQ(canon.new_to_old[0], 3u);
  EXPECT_EQ(canon.new_to_old[1], 7u);
  // R(7,3) becomes R(2,1); S(3) becomes S(1).
  EXPECT_EQ(canon.key.atoms[0], CAtom(0, {2, 1}));
  EXPECT_EQ(canon.key.atoms[1], CAtom(1, {1}));
}

TEST(CanonicalTest, IsomorphicInputsShareKeys) {
  CAtomSet a, b;
  a.insert(CAtom(0, {5, 9}));
  b.insert(CAtom(0, {1, 4}));
  EXPECT_EQ(Canonicalize(a).key, Canonicalize(b).key);
  CKeyHash h;
  EXPECT_EQ(h(Canonicalize(a).key), h(Canonicalize(b).key));
}

TEST(CanonicalTest, DeduplicatesAtoms) {
  CAtomSet atoms;
  atoms.insert(CAtom(0, {2, 2}));
  atoms.insert(CAtom(0, {9, 9}));  // isomorphic but distinct ints: kept
  Canonicalized canon = Canonicalize(atoms);
  EXPECT_EQ(canon.key.atoms.size(), 2u);
}

TEST(TypeOracleTest, RequiresGuardedness) {
  core::SymbolTable symbols;
  auto tgds =
      tgd::ParseTgdSet(&symbols, "R(x, y), S(y, z) -> T(x, z).");
  ASSERT_TRUE(tgds.ok());
  auto oracle = TypeOracle::Create(symbols, *tgds, TypeOracle::Options{});
  EXPECT_FALSE(oracle.ok());
  EXPECT_EQ(oracle.status().code(), util::StatusCode::kFailedPrecondition);
}

struct OracleCase {
  const char* name;
  const char* program;
};

// Without this gtest prints the case as its raw bytes, which include
// pointer values; ctest would then name each case after addresses that
// change from run to run.
void PrintTo(const OracleCase& c, std::ostream* os) { *os << c.name; }

class OracleAgreementTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(OracleAgreementTest, MatchesChaseOnTerminatingPairs) {
  core::SymbolTable symbols;
  auto program = tgd::ParseProgram(&symbols, GetParam().program);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  auto via_chase =
      CompleteViaChase(&symbols, program->tgds, program->database);
  auto via_oracle =
      CompleteViaOracle(&symbols, program->tgds, program->database);
  EXPECT_EQ(via_chase, via_oracle) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, OracleAgreementTest,
    ::testing::Values(
        OracleCase{"datalog_only",
                   "E(a, b). E(b, c). E(x, y) -> P(x, y). "
                   "P(x, y) -> Q(y)."},
        OracleCase{"one_hop_comeback",
                   "R(a, b). R(x, y) -> S(y, z). S(y, z) -> B(y)."},
        OracleCase{"two_hop_comeback",
                   "R(a). R(x) -> E(x, z). E(x, z) -> F(z, w). "
                   "F(z, w) -> Mark(z). E(x, z), Mark(z) -> Done(x)."},
        OracleCase{"side_atom_join",
                   "G(a, b). H(b). G(x, y), H(y) -> K(x, y, z). "
                   "K(x, y, z) -> L(x, y)."},
        OracleCase{"multi_head",
                   "P(a). P(x) -> S(x, z), T(z, x). T(z, x) -> U(x)."},
        OracleCase{"zero_ary",
                   "Start(s). Start(x) -> Path(x, z). Path(x, z) -> "
                   "Goal()."}),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      return info.param.name;
    });

TEST(TypeOracleTest, TerminatesOnInfiniteChase) {
  // D = {R(a,b)}, Σ = {R(x,y) → ∃z R(y,z)}: chase(D,Σ) is infinite, yet
  // complete(D,Σ) = D; the memoized fixpoint must cut the self-similar
  // recursion of child worlds.
  core::SymbolTable symbols;
  auto program =
      tgd::ParseProgram(&symbols, "R(a, b). R(x, y) -> R(y, z).");
  ASSERT_TRUE(program.ok());
  auto oracle =
      TypeOracle::Create(symbols, program->tgds, TypeOracle::Options{});
  ASSERT_TRUE(oracle.ok());
  auto completed = oracle->Complete(program->database.facts());
  ASSERT_TRUE(completed.ok()) << completed.status().ToString();
  EXPECT_EQ(completed->size(), 1u);
  EXPECT_LE(oracle->memo_size(), 8u);
}

TEST(TypeOracleTest, InfiniteChaseWithComebacks) {
  // Infinite guarded chase where facts over dom(D) keep flowing back from
  // arbitrarily deep subtrees.
  core::SymbolTable symbols;
  auto program = tgd::ParseProgram(&symbols,
                                   "R(a, b).\n"
                                   "R(x, y) -> R(y, z).\n"
                                   "R(x, y) -> Seen(x).\n");
  ASSERT_TRUE(program.ok());
  auto oracle =
      TypeOracle::Create(symbols, program->tgds, TypeOracle::Options{});
  ASSERT_TRUE(oracle.ok());
  auto completed = oracle->Complete(program->database.facts());
  ASSERT_TRUE(completed.ok());
  // Over {a,b}: R(a,b), Seen(a), Seen(b).
  EXPECT_EQ(completed->size(), 3u);
}

TEST(TypeOracleTest, SelfSimilarWorldsShareOneMemoEntry) {
  // Both rules spawn child worlds isomorphic to {R(1,2)} — the memo must
  // collapse them all onto the root world's entry.
  core::SymbolTable symbols;
  auto program = tgd::ParseProgram(
      &symbols, "R(a, b). R(x, y) -> R(y, z). R(x, y) -> R(x, w).");
  ASSERT_TRUE(program.ok());
  auto oracle =
      TypeOracle::Create(symbols, program->tgds, TypeOracle::Options{});
  ASSERT_TRUE(oracle.ok());
  auto completed = oracle->Complete(program->database.facts());
  ASSERT_TRUE(completed.ok());
  EXPECT_EQ(oracle->memo_size(), 1u);
}

TEST(TypeOracleTest, ChildWorldDependsOnAncestorInProgress) {
  // The root world {R(1,2)} spawns B = {S(1,2)} (frontier y = b), whose
  // own child {R(1,2)} (frontier u) is the root again — still in
  // progress, so B reads the root's partial value. The root's first
  // pass derives P(a) only after B converged; P(a), read back through
  // the cycle as P(b), is what lets B derive Done(b). B's world does not
  // change (P(a) is not over the frontier b), so only the growth epoch
  // makes the next root pass re-run B instead of trusting its stale
  // convergence. The chase is infinite but every comeback to {a, b}
  // happens within depth 2.
  core::SymbolTable symbols;
  auto program = tgd::ParseProgram(&symbols,
                                   "R(a, b).\n"
                                   "R(x, y) -> P(x).\n"
                                   "R(x, y) -> S(y, z).\n"
                                   "S(u, z) -> R(u, w).\n"
                                   "S(u, z), P(u) -> Done(u).\n");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  auto via_chase = CompleteViaChase(&symbols, program->tgds,
                                    program->database, /*max_depth=*/6);
  auto via_oracle =
      CompleteViaOracle(&symbols, program->tgds, program->database);
  EXPECT_EQ(via_oracle, via_chase);
  // R(a,b), P(a), P(b), Done(b).
  EXPECT_EQ(via_oracle.size(), 4u);
}

TEST(TypeOracleTest, BudgetIsEnforced) {
  core::SymbolTable symbols;
  auto program = tgd::ParseProgram(
      &symbols, "R(a, b). R(x, y) -> S(y, z). S(x, y) -> R(y, w).");
  ASSERT_TRUE(program.ok());
  TypeOracle::Options options;
  options.max_worlds = 1;
  auto oracle = TypeOracle::Create(symbols, program->tgds, options);
  ASSERT_TRUE(oracle.ok());
  auto completed = oracle->Complete(program->database.facts());
  ASSERT_FALSE(completed.ok());
  EXPECT_EQ(completed.status().code(),
            util::StatusCode::kResourceExhausted);
}

TEST(TypeOracleTest, RejectsVariablesInInput) {
  core::SymbolTable symbols;
  auto tgds = tgd::ParseTgdSet(&symbols, "R(x) -> S(x).");
  ASSERT_TRUE(tgds.ok());
  auto oracle = TypeOracle::Create(symbols, *tgds, TypeOracle::Options{});
  ASSERT_TRUE(oracle.ok());
  auto r = symbols.FindPredicate("R");
  ASSERT_TRUE(r.ok());
  core::Term x = symbols.InternVariable("x");
  auto bad = oracle->Complete({core::Atom(*r, {x})});
  EXPECT_FALSE(bad.ok());
}

TEST(TypeOracleTest, PropositionalEntailment) {
  core::SymbolTable symbols;
  auto program = tgd::ParseProgram(&symbols,
                                   "Start(s).\n"
                                   "Start(x) -> Path(x, z).\n"
                                   "Path(x, z) -> Goal().\n"
                                   "Unrelated(x) -> Never().\n");
  ASSERT_TRUE(program.ok());
  auto oracle =
      TypeOracle::Create(symbols, program->tgds, TypeOracle::Options{});
  ASSERT_TRUE(oracle.ok());
  auto goal = symbols.FindPredicate("Goal");
  auto never = symbols.FindPredicate("Never");
  ASSERT_TRUE(goal.ok());
  ASSERT_TRUE(never.ok());
  auto yes = oracle->EntailsPropositional(program->database, *goal);
  ASSERT_TRUE(yes.ok());
  EXPECT_TRUE(*yes);
  auto no = oracle->EntailsPropositional(program->database, *never);
  ASSERT_TRUE(no.ok());
  EXPECT_FALSE(*no);
}

}  // namespace
}  // namespace saturation
}  // namespace nuchase
