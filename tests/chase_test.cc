#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>

#include "chase/chase.h"
#include "chase/trigger.h"
#include "query/evaluator.h"
#include "tgd/parser.h"
#include "workload/depth_family.h"

namespace nuchase {
namespace chase {
namespace {

class ChaseTest : public ::testing::Test {
 protected:
  tgd::Program Parse(const std::string& text) {
    auto program = tgd::ParseProgram(&symbols_, text);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    return *program;
  }
  core::SymbolTable symbols_;
};

TEST_F(ChaseTest, TerminatingChaseIsAModel) {
  tgd::Program p = Parse(
      "R(a, b).\n"
      "R(b, c).\n"
      "R(x, y) -> P(x, y).\n"
      "P(x, y) -> Q(y).\n");
  ChaseResult result = RunChase(&symbols_, p.tgds, p.database);
  ASSERT_TRUE(result.Terminated());
  // D + 2 P-atoms + 2 Q-atoms.
  EXPECT_EQ(result.instance.size(), 6u);
  EXPECT_TRUE(query::Satisfies(result.instance, p.tgds));
  EXPECT_EQ(result.stats.max_depth, 0u);
}

TEST_F(ChaseTest, ExistentialsInventNulls) {
  tgd::Program p = Parse(
      "Person(alice).\n"
      "Person(x) -> HasParent(x, y), Person2(y).\n");
  ChaseResult result = RunChase(&symbols_, p.tgds, p.database);
  ASSERT_TRUE(result.Terminated());
  EXPECT_EQ(result.instance.size(), 3u);
  EXPECT_EQ(result.stats.max_depth, 1u);
  EXPECT_EQ(symbols_.num_nulls(), 1u);
}

TEST_F(ChaseTest, SemiObliviousNullReuseAcrossHeadAtoms) {
  // Both head atoms must see the same null for y (Definition 3.1: the
  // null name depends only on (σ, h|fr, z)).
  tgd::Program p = Parse(
      "R(a).\n"
      "R(x) -> S(x, y), T(y, x).\n");
  ChaseResult result = RunChase(&symbols_, p.tgds, p.database);
  ASSERT_TRUE(result.Terminated());
  core::Term null;
  for (core::AtomIndex i = 0; i < result.instance.size(); ++i) {
    core::AtomView atom = result.instance.atom(i);
    if (symbols_.predicate_name(atom.predicate()) == "S") {
      null = atom.arg(1);
    }
  }
  auto t = symbols_.FindPredicate("T");
  ASSERT_TRUE(t.ok());
  core::Term a = *symbols_.InternConstant("a");
  EXPECT_TRUE(result.instance.Contains(core::Atom(*t, {null, a})));
}

TEST_F(ChaseTest, SemiObliviousFiresPerFrontierRestriction) {
  // σ = R(x,y) → ∃z S(y,z): the frontier is {y}, so R(a,b) and R(c,b)
  // yield the SAME trigger restriction and a single null.
  tgd::Program p = Parse(
      "R(a, b).\n"
      "R(c, b).\n"
      "R(x, y) -> S(y, z).\n");
  ChaseResult result = RunChase(&symbols_, p.tgds, p.database);
  ASSERT_TRUE(result.Terminated());
  EXPECT_EQ(result.instance.size(), 3u);  // two facts + one S atom
  EXPECT_EQ(symbols_.num_nulls(), 1u);
}

TEST_F(ChaseTest, InfiniteChaseHitsAtomBudget) {
  workload::Workload w = workload::MakeInfinitePath(&symbols_);
  ChaseOptions options;
  options.max_atoms = 50;
  ChaseResult result = RunChase(&symbols_, w.tgds, w.database, options);
  EXPECT_EQ(result.outcome, ChaseOutcome::kAtomLimit);
  EXPECT_GT(result.instance.size(), 50u - 2);
}

TEST_F(ChaseTest, InfiniteChaseHitsDepthBudget) {
  workload::Workload w = workload::MakeInfinitePath(&symbols_);
  ChaseOptions options;
  options.max_depth = 7;
  ChaseResult result = RunChase(&symbols_, w.tgds, w.database, options);
  EXPECT_EQ(result.outcome, ChaseOutcome::kDepthLimit);
  EXPECT_EQ(result.stats.max_depth, 8u);  // the offending null
}

TEST_F(ChaseTest, RoundBudget) {
  workload::Workload w = workload::MakeInfinitePath(&symbols_);
  ChaseOptions options;
  options.max_rounds = 3;
  ChaseResult result = RunChase(&symbols_, w.tgds, w.database, options);
  EXPECT_EQ(result.outcome, ChaseOutcome::kRoundLimit);
  EXPECT_EQ(result.stats.rounds, 3u);
}

TEST(ChaseNamesTest, VariantNamesCoverAllVariants) {
  EXPECT_STREQ(ChaseVariantName(ChaseVariant::kSemiOblivious),
               "semi-oblivious");
  EXPECT_STREQ(ChaseVariantName(ChaseVariant::kOblivious), "oblivious");
  EXPECT_STREQ(ChaseVariantName(ChaseVariant::kRestricted), "restricted");
}

TEST(ChaseNamesTest, OutcomeNamesCoverAllOutcomes) {
  EXPECT_STREQ(ChaseOutcomeName(ChaseOutcome::kTerminated), "terminated");
  EXPECT_STREQ(ChaseOutcomeName(ChaseOutcome::kAtomLimit), "atom-limit");
  EXPECT_STREQ(ChaseOutcomeName(ChaseOutcome::kDepthLimit), "depth-limit");
  EXPECT_STREQ(ChaseOutcomeName(ChaseOutcome::kRoundLimit), "round-limit");
}

TEST_F(ChaseTest, AtomLimitOnInlineProgramReportsItsOutcome) {
  tgd::Program p = Parse(
      "R(a, b).\n"
      "R(x, y) -> R(y, z).\n");
  ChaseOptions options;
  options.max_atoms = 10;
  ChaseResult result = RunChase(&symbols_, p.tgds, p.database, options);
  EXPECT_EQ(result.outcome, ChaseOutcome::kAtomLimit);
  EXPECT_STREQ(ChaseOutcomeName(result.outcome), "atom-limit");
  EXPECT_FALSE(result.Terminated());
  // The budget stops the run promptly: at most one round past the limit.
  EXPECT_LE(result.instance.size(), 10u + 2);
}

TEST_F(ChaseTest, DepthLimitOnInlineProgramReportsItsOutcome) {
  tgd::Program p = Parse(
      "R(a, b).\n"
      "R(x, y) -> R(y, z).\n");
  ChaseOptions options;
  options.max_depth = 3;
  ChaseResult result = RunChase(&symbols_, p.tgds, p.database, options);
  EXPECT_EQ(result.outcome, ChaseOutcome::kDepthLimit);
  EXPECT_STREQ(ChaseOutcomeName(result.outcome), "depth-limit");
  EXPECT_EQ(result.stats.max_depth, 4u);  // the first over-deep null
}

TEST_F(ChaseTest, RoundLimitOnInlineProgramReportsItsOutcome) {
  tgd::Program p = Parse(
      "R(a, b).\n"
      "R(x, y) -> R(y, z).\n");
  ChaseOptions options;
  options.max_rounds = 2;
  ChaseResult result = RunChase(&symbols_, p.tgds, p.database, options);
  EXPECT_EQ(result.outcome, ChaseOutcome::kRoundLimit);
  EXPECT_STREQ(ChaseOutcomeName(result.outcome), "round-limit");
  EXPECT_EQ(result.stats.rounds, 2u);
}

TEST_F(ChaseTest, TerminatingChaseIgnoresGenerousLimits) {
  // All three budgets set but never reached: the outcome must still be
  // kTerminated, not any limit.
  tgd::Program p = Parse(
      "R(a, b).\n"
      "R(x, y) -> P(x, y).\n");
  ChaseOptions options;
  options.max_atoms = 1000;
  options.max_depth = 50;
  options.max_rounds = 50;
  ChaseResult result = RunChase(&symbols_, p.tgds, p.database, options);
  EXPECT_EQ(result.outcome, ChaseOutcome::kTerminated);
  EXPECT_STREQ(ChaseOutcomeName(result.outcome), "terminated");
  EXPECT_TRUE(result.Terminated());
}

TEST_F(ChaseTest, LimitsApplyToEveryVariant) {
  for (ChaseVariant variant :
       {ChaseVariant::kSemiOblivious, ChaseVariant::kOblivious,
        ChaseVariant::kRestricted}) {
    core::SymbolTable symbols;
    auto p = tgd::ParseProgram(&symbols,
                               "R(a, b).\n"
                               "R(x, y) -> R(y, z).\n");
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    ChaseOptions options;
    options.variant = variant;
    options.max_atoms = 25;
    ChaseResult result = RunChase(&symbols, p->tgds, p->database, options);
    EXPECT_EQ(result.outcome, ChaseOutcome::kAtomLimit)
        << ChaseVariantName(variant);
  }
}

TEST_F(ChaseTest, AtomLimitedMaxDepthIsOverTheReturnedInstance) {
  // Round 3 holds two P(x) -> Q(x, w) triggers: Q(a, ·) mints a depth-1
  // null and trips the six-atom budget; Q(_:n0, ·) would mint a depth-2
  // null but never fires, so no null of depth 2 may be counted.
  for (ChaseVariant variant :
       {ChaseVariant::kSemiOblivious, ChaseVariant::kOblivious}) {
    core::SymbolTable symbols;
    auto p = tgd::ParseProgram(&symbols,
                               "T(a). U(a).\n"
                               "T(x) -> T2(x, z). T2(x, z) -> P(z).\n"
                               "U(x) -> U2(x). U2(x) -> P(x).\n"
                               "P(x) -> Q(x, w).\n");
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    ChaseOptions options;
    options.variant = variant;
    options.max_atoms = 6;
    ChaseResult result = RunChase(&symbols, p->tgds, p->database, options);
    const char* label = ChaseVariantName(variant);
    EXPECT_EQ(result.outcome, ChaseOutcome::kAtomLimit) << label;
    EXPECT_EQ(result.instance.size(), 7u) << label;
    std::uint32_t deepest = 0;
    for (core::AtomIndex i = 0; i < result.instance.size(); ++i) {
      for (core::Term term : result.instance.atom(i).terms()) {
        deepest = std::max(deepest, symbols.depth(term));
      }
    }
    EXPECT_EQ(deepest, 1u) << label;
    EXPECT_EQ(result.stats.max_depth, deepest) << label;
  }
}

TEST_F(ChaseTest, FairnessAllTgdsEventuallyFire) {
  // Section 3: a fair derivation must satisfy σ' = R(x,y) → P(x,y) along
  // the way; our breadth-first engine is fair by construction.
  workload::Workload w = workload::MakeFairnessExample(&symbols_);
  ChaseOptions options;
  options.max_atoms = 60;
  ChaseResult result = RunChase(&symbols_, w.tgds, w.database, options);
  EXPECT_EQ(result.outcome, ChaseOutcome::kAtomLimit);
  auto pf = symbols_.FindPredicate("Pf");
  ASSERT_TRUE(pf.ok());
  // Many Pf atoms must exist, not just Rf atoms.
  EXPECT_GT(result.instance.AtomsWithPredicate(*pf).size(), 10u);
}

TEST_F(ChaseTest, JoinAcrossBodyAtoms) {
  tgd::Program p = Parse(
      "E(a, b).\n"
      "E(b, c).\n"
      "E(c, d).\n"
      "E(x, y), E(y, z) -> E2(x, z).\n"
      "E2(x, y), E(y, z) -> E3(x, z).\n");
  ChaseResult result = RunChase(&symbols_, p.tgds, p.database);
  ASSERT_TRUE(result.Terminated());
  auto e2 = symbols_.FindPredicate("E2");
  auto e3 = symbols_.FindPredicate("E3");
  ASSERT_TRUE(e2.ok());
  ASSERT_TRUE(e3.ok());
  EXPECT_EQ(result.instance.AtomsWithPredicate(*e2).size(), 2u);
  EXPECT_EQ(result.instance.AtomsWithPredicate(*e3).size(), 1u);
}

TEST_F(ChaseTest, RepeatedVariablesInBodyMatchOnlyEqualArgs) {
  tgd::Program p = Parse(
      "R(a, b).\n"
      "R(c, c).\n"
      "R(x, x) -> Loop(x).\n");
  ChaseResult result = RunChase(&symbols_, p.tgds, p.database);
  ASSERT_TRUE(result.Terminated());
  auto loop = symbols_.FindPredicate("Loop");
  ASSERT_TRUE(loop.ok());
  ASSERT_EQ(result.instance.AtomsWithPredicate(*loop).size(), 1u);
}

TEST_F(ChaseTest, Example71HasNoTrigger) {
  workload::Workload w = workload::MakeExample71(&symbols_);
  ChaseResult result = RunChase(&symbols_, w.tgds, w.database);
  ASSERT_TRUE(result.Terminated());
  EXPECT_EQ(result.instance.size(), w.database.size());
  EXPECT_EQ(result.stats.triggers_fired, 0u);
}

TEST_F(ChaseTest, DepthFamilyMaxDepth) {
  for (std::uint32_t n : {2u, 3u, 5u, 8u}) {
    core::SymbolTable symbols;
    workload::Workload w = workload::MakeDepthFamily(&symbols, n);
    EXPECT_EQ(w.database.size(), n);
    ChaseResult result = RunChase(&symbols, w.tgds, w.database);
    ASSERT_TRUE(result.Terminated());
    EXPECT_EQ(result.stats.max_depth, n - 1) << "n=" << n;
  }
}

TEST_F(ChaseTest, DepthFamilyInfiniteVariant) {
  workload::Workload w = workload::MakeDepthFamilyInfinite(&symbols_);
  ChaseOptions options;
  options.max_atoms = 100;
  ChaseResult result = RunChase(&symbols_, w.tgds, w.database, options);
  EXPECT_FALSE(result.Terminated());
}

TEST_F(ChaseTest, ForestRecordsGuardParents) {
  tgd::Program p = Parse(
      "R(a, b).\n"
      "R(x, y) -> S(x, y, z).\n"
      "S(x, y, z), R(x, y) -> T(z).\n");
  ChaseOptions options;
  options.build_forest = true;
  ChaseResult result = RunChase(&symbols_, p.tgds, p.database, options);
  ASSERT_TRUE(result.Terminated());
  ASSERT_EQ(result.forest.size(), result.instance.size());
  EXPECT_EQ(result.forest.roots().size(), 1u);
  // All derived atoms belong to the tree rooted at R(a,b).
  EXPECT_EQ(result.forest.GtreeSize(0), result.instance.size());
  auto hist = result.forest.GtreeDepthHistogram(0);
  EXPECT_EQ(hist[0], 1u);  // the root
  EXPECT_EQ(hist[1], 2u);  // S(a,b,⊥) and T(⊥)
}

TEST_F(ChaseTest, EmptyTgdSetLeavesDatabase) {
  tgd::Program p = Parse("R(a, b).\n");
  ChaseResult result = RunChase(&symbols_, p.tgds, p.database);
  ASSERT_TRUE(result.Terminated());
  EXPECT_EQ(result.instance.size(), 1u);
  EXPECT_EQ(result.stats.rounds, 1u);
}

TEST_F(ChaseTest, EmptyFrontierFiresOnce) {
  // σ = R(x) → ∃z Q(z): fr(σ) = ∅, so the semi-oblivious chase invents a
  // single null regardless of how many R-facts exist.
  tgd::Program p = Parse(
      "R(a).\n"
      "R(b).\n"
      "R(x) -> Q(z).\n");
  ChaseResult result = RunChase(&symbols_, p.tgds, p.database);
  ASSERT_TRUE(result.Terminated());
  auto q = symbols_.FindPredicate("Q");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(result.instance.AtomsWithPredicate(*q).size(), 1u);
}

/// Definition 3.1's naming ⊥^z_{σ, h|fr(σ)}, checked on the chase
/// result: the null is a function of the TGD, the existential variable
/// and the frontier images (the fired set admits each key once; the
/// engine binds fresh nulls per admitted trigger).
TEST(NullStoreTest, KeysOnTgdVarAndFrontier) {
  core::SymbolTable symbols;
  auto program = tgd::ParseProgram(&symbols,
                                   "R(a). R(b). E(a, c). E(a, d).\n"
                                   "E(x, y) -> P(x, z1).\n"
                                   "E(x, y) -> Q(x, z1, z2).\n"
                                   "R(x) -> W(x, z1).\n");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ChaseResult result = RunChase(&symbols, program->tgds, program->database);
  ASSERT_TRUE(result.Terminated());
  auto only = [&](const char* pred, core::Term first) {
    std::vector<core::AtomView> out;
    for (core::AtomIndex i : result.instance.AtomsWithPredicate(
             *symbols.FindPredicate(pred))) {
      if (result.instance.atom(i).arg(0) == first) {
        out.push_back(result.instance.atom(i));
      }
    }
    return out;
  };
  core::Term a = *symbols.InternConstant("a");
  core::Term b = *symbols.InternConstant("b");
  // Same key (two homomorphisms, one frontier image) -> same null.
  ASSERT_EQ(only("P", a).size(), 1u);
  core::Term n1 = only("P", a)[0].arg(1);
  ASSERT_EQ(only("Q", a).size(), 1u);
  core::Term q1 = only("Q", a)[0].arg(1);
  core::Term q2 = only("Q", a)[0].arg(2);
  EXPECT_NE(q1, q2);  // different variable
  EXPECT_NE(q1, n1);  // different TGD
  ASSERT_EQ(only("W", a).size(), 1u);
  ASSERT_EQ(only("W", b).size(), 1u);
  EXPECT_NE(only("W", a)[0].arg(1), only("W", b)[0].arg(1));  // frontier
  std::set<core::Term> nulls;
  for (core::AtomIndex i = 0; i < result.instance.size(); ++i) {
    for (core::Term t : result.instance.atom(i).terms()) {
      if (t.IsNull()) nulls.insert(t);
    }
  }
  EXPECT_EQ(nulls.size(), 5u);  // P(a), Q(a) x2, W(a), W(b)
}

TEST(NullStoreTest, DepthIsOnePlusMaxFrontierDepth) {
  core::SymbolTable symbols;
  auto program = tgd::ParseProgram(&symbols,
                                   "R(a).\n"
                                   "R(x) -> S(x, z).\n"
                                   "S(x, y) -> T(y, z).\n"
                                   "S(x, y), T(y, w) -> U(x, w, z).\n"
                                   "R(x) -> Q(z).\n");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ChaseResult result = RunChase(&symbols, program->tgds, program->database);
  ASSERT_TRUE(result.Terminated());
  auto single = [&](const char* pred) {
    const auto& atoms =
        result.instance.AtomsWithPredicate(*symbols.FindPredicate(pred));
    EXPECT_EQ(atoms.size(), 1u) << pred;
    return result.instance.atom(atoms[0]);
  };
  core::Term n1 = single("S").arg(1);
  EXPECT_EQ(symbols.depth(n1), 1u);
  core::Term n2 = single("T").arg(1);  // frontier {n1}
  EXPECT_EQ(symbols.depth(n2), 2u);
  core::Term n3 = single("U").arg(2);  // frontier {a, n2}
  EXPECT_EQ(symbols.depth(n3), 3u);
  // Empty frontier: depth 1 (= 1 + max(∅ ∪ {0})).
  core::Term n4 = single("Q").arg(0);
  EXPECT_EQ(symbols.depth(n4), 1u);
}

TEST(SubstitutionTest, ApplyLeavesUnboundVariables) {
  core::SymbolTable symbols;
  auto r = symbols.InternPredicate("R", 2);
  core::Term x = symbols.InternVariable("x");
  core::Term y = symbols.InternVariable("y");
  core::Term a = *symbols.InternConstant("a");
  SlotConjunction q = CompileConjunction({core::Atom(*r, {x, y})});
  std::vector<core::Term> h(q.num_slots(), kUnbound);
  h[q.SlotOf(x)] = a;
  std::vector<core::Term> out;
  InstantiateInto(q, 0, h.data(), &out);
  EXPECT_EQ(out[0], a);
  EXPECT_EQ(out[1], y);
}

}  // namespace
}  // namespace chase
}  // namespace nuchase
