#include <gtest/gtest.h>

#include <cmath>

#include "api/session.h"
#include "graph/weak_acyclicity.h"
#include "termination/bounds.h"
#include "termination/naive_decider.h"
#include "termination/syntactic_decider.h"
#include "termination/ucq_decider.h"
#include "tgd/parser.h"
#include "workload/depth_family.h"

namespace nuchase {
namespace termination {
namespace {

class TerminationTest : public ::testing::Test {
 protected:
  tgd::Program Parse(const std::string& text) {
    auto program = tgd::ParseProgram(&symbols_, text);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    return *program;
  }
  core::SymbolTable symbols_;
};

TEST_F(TerminationTest, BoundsOrdering) {
  tgd::Program p = Parse("R(x, y) -> R(y, z).");
  double dsl = DepthBoundSL(p.tgds, symbols_);
  double dl = DepthBoundL(p.tgds, symbols_);
  double dg = DepthBoundG(p.tgds, symbols_);
  EXPECT_EQ(dsl, 1 * 2);          // |sch| · ar = 1·2
  EXPECT_EQ(dl, 1 * std::pow(2, 3));  // |sch| · ar^(ar+1)
  EXPECT_GT(dg, dl);
  EXPECT_GT(dl, dsl);
  EXPECT_TRUE(std::isinf(
      DepthBound(tgd::TgdClass::kGeneral, p.tgds, symbols_)));
  EXPECT_GT(SizeFactorSL(p.tgds, symbols_), 0);
  EXPECT_GE(SizeFactorL(p.tgds, symbols_),
            SizeFactorSL(p.tgds, symbols_));
}

TEST_F(TerminationTest, NaiveDeciderAcceptsTerminating) {
  tgd::Program p = Parse("R(a, b). R(x, y) -> S(y, z).");
  NaiveDecision d = DecideByChase(&symbols_, p.tgds, p.database);
  EXPECT_EQ(d.decision, Decision::kTerminates);
  EXPECT_EQ(d.outcome, chase::ChaseOutcome::kTerminated);
  EXPECT_EQ(d.atoms, 2u);
}

TEST_F(TerminationTest, NaiveDeciderRejectsViaDepthBound) {
  tgd::Program p = Parse("R(a, b). R(x, y) -> R(y, z).");
  NaiveDecision d = DecideByChase(&symbols_, p.tgds, p.database);
  EXPECT_EQ(d.decision, Decision::kDoesNotTerminate);
  // d_SL = 2: the chase is cut as soon as a depth-3 null appears.
  EXPECT_EQ(d.outcome, chase::ChaseOutcome::kDepthLimit);
  EXPECT_LE(d.max_depth, 3u);
}

TEST_F(TerminationTest, NaiveDeciderUnknownForGeneralTgds) {
  // Prop 4.5's infinite variant is not guarded: no depth bound applies,
  // so the naive decider can only report kUnknown at its hard cap.
  workload::Workload w = workload::MakeDepthFamilyInfinite(&symbols_);
  chase::ChaseOptions capped;
  capped.max_atoms = 500;
  NaiveDecision d = DecideByChase(&symbols_, w.tgds, w.database, capped);
  EXPECT_EQ(d.decision, Decision::kUnknown);
}

TEST_F(TerminationTest, SyntacticSLMatchesChase) {
  tgd::Program loop = Parse("R(a, b). R(x, y) -> R(y, z).");
  auto d1 = DecideSimpleLinear(&symbols_, loop.tgds, loop.database);
  ASSERT_TRUE(d1.ok());
  EXPECT_EQ(d1->decision, Decision::kDoesNotTerminate);

  tgd::Program fin = Parse("P(a, b). P(x, y) -> Q(y, z).");
  auto d2 = DecideSimpleLinear(&symbols_, fin.tgds, fin.database);
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(d2->decision, Decision::kTerminates);
}

TEST_F(TerminationTest, SyntacticSLIsDatabaseSensitive) {
  // The same Σ terminates for databases that do not support the cycle.
  tgd::Program p = Parse(
      "Q(a).\n"
      "R(x, y) -> R(y, z).\n"
      "Q(x) -> Q2(x).\n");
  auto d = DecideSimpleLinear(&symbols_, p.tgds, p.database);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->decision, Decision::kTerminates);
}

TEST_F(TerminationTest, SyntacticSLRejectsNonSimple) {
  tgd::Program p = Parse("R(a, a). R(x, x) -> R(z, x).");
  EXPECT_FALSE(DecideSimpleLinear(&symbols_, p.tgds, p.database).ok());
}

TEST_F(TerminationTest, Example71NeedsSimplification) {
  // Theorem 6.4's characterization fails for non-simple linear TGDs:
  // Example 7.1's chase is finite although Σ is not D-weakly-acyclic.
  // DecideLinear (Theorem 7.5) gets it right.
  workload::Workload w = workload::MakeExample71(&symbols_);
  graph::WeakAcyclicityResult wa =
      graph::CheckWeakAcyclicity(w.tgds, w.database, symbols_);
  EXPECT_FALSE(wa.weakly_acyclic);  // raw WA is wrong for L ...
  auto d = DecideLinear(&symbols_, w.tgds, w.database);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->decision, Decision::kTerminates);  // ... simplification fixes it
}

TEST_F(TerminationTest, LinearDeciderMatchesChaseOnLoop) {
  tgd::Program p = Parse("R(a, a). R(x, x) -> R(x, z), R(z, x).");
  // Chase: R(a,a) → R(a,⊥), R(⊥,a); no further R(x,x) match: finite.
  auto d = DecideLinear(&symbols_, p.tgds, p.database);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->decision, Decision::kTerminates);

  // Note S(x,x) → ∃z S(z,z) alone does NOT loop in the semi-oblivious
  // chase: fr(σ) = ∅, so ⊥^z_{σ,h|∅} is one fixed null and the second
  // application is inactive. A genuine loop needs a frontier variable.
  tgd::Program q =
      Parse("S(b, b). S(x, x) -> T(x, z). T(x, y) -> T(y, w).");
  // S(b,b) → T(b,⊥) → T(⊥,⊥') → ... infinite.
  auto d2 = DecideLinear(&symbols_, q.tgds, q.database);
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(d2->decision, Decision::kDoesNotTerminate);
}

TEST_F(TerminationTest, GuardedDecider) {
  tgd::Program fin = Parse(
      "G(a, b). H(b).\n"
      "G(x, y), H(y) -> K(x, y, z).\n"
      "K(x, y, z) -> H(z).\n");
  auto d = DecideGuarded(&symbols_, fin.tgds, fin.database);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d->decision, Decision::kTerminates);
  EXPECT_GT(d->lin_types, 0u);
  EXPECT_GT(d->simple_tgds, 0u);

  tgd::Program inf = Parse(
      "G2(a, b). H2(b).\n"
      "G2(x, y), H2(y) -> K2(x, y, z).\n"
      "K2(x, y, z) -> G2(y, z), H2(z).\n");
  auto d2 = DecideGuarded(&symbols_, inf.tgds, inf.database);
  ASSERT_TRUE(d2.ok()) << d2.status().ToString();
  EXPECT_EQ(d2->decision, Decision::kDoesNotTerminate);
}

TEST_F(TerminationTest, DispatchPicksTheRightDecider) {
  tgd::Program sl = Parse("A(a, b). A(x, y) -> B(y, z).");
  auto d = Decide(&symbols_, sl.tgds, sl.database);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->used_class, tgd::TgdClass::kSimpleLinear);

  // General TGDs dispatch to the acyclicity ladder instead of failing:
  // a full (existential-free) set is trivially weakly acyclic, so the
  // cheapest rung certifies it.
  tgd::Program general = Parse(
      "C(a, b). C(x, y), D(y, z) -> E(x, z).");
  auto dg = Decide(&symbols_, general.tgds, general.database);
  ASSERT_TRUE(dg.ok()) << dg.status().ToString();
  EXPECT_EQ(dg->used_class, tgd::TgdClass::kGeneral);
  EXPECT_EQ(dg->decision, Decision::kTerminates);
  EXPECT_EQ(dg->method, "ladder:wa");
}

TEST_F(TerminationTest, DecideGeneralUpgradesUnknownToTerminates) {
  // The committed JA showcase: not WA w.r.t. D, so before the ladder
  // the general-class answer was a budget-bound kUnknown; JA certifies
  // it statically. A starved bounded chase still says kUnknown — the
  // upgrade is real, not a side effect of the chase finishing.
  tgd::Program p = Parse(
      "P(a). R(a, b).\n"
      "P(x) -> Q(x, y).\n"
      "Q(x, y), R(y, w) -> P(y).\n");
  chase::ChaseOptions starved;
  starved.max_atoms = 2;
  NaiveDecision naive =
      DecideByChase(&symbols_, p.tgds, p.database, starved);
  EXPECT_EQ(naive.decision, Decision::kUnknown);

  SyntacticDecision d =
      DecideGeneral(RunLadder(symbols_, p.tgds, p.database));
  EXPECT_EQ(d.decision, Decision::kTerminates);
  EXPECT_EQ(d.method, "ladder:ja");
}

TEST_F(TerminationTest, AdvisorUsesLadderForGeneralTgds) {
  auto p = api::Program::Parse(
      "B(a). D(a, b).\n"
      "B(x) -> R(x, y).\n"
      "R(x, y), B(y), D(x, w) -> C(x).\n"
      "C(x), R(x, y) -> B(y).\n");
  ASSERT_TRUE(p.ok());
  auto advice = api::Session(*p).Advise();
  ASSERT_TRUE(advice.ok());
  const api::AdvisorReport& report = advice->report();
  EXPECT_EQ(report.tgd_class, tgd::TgdClass::kGeneral);
  EXPECT_EQ(report.decision, Decision::kTerminates);
  EXPECT_EQ(report.method, "ladder:mfa");
  ASSERT_TRUE(report.materialization.has_value());
}

TEST_F(TerminationTest, UcqDeciderSL) {
  tgd::Program p = Parse("R(x, y) -> R(y, z). Q(x) -> Q2(x).");
  auto ucq = BuildTerminationUcq(&symbols_, p.tgds);
  ASSERT_TRUE(ucq.ok());
  EXPECT_GE(ucq->disjuncts.size(), 1u);

  core::Database with_r;
  ASSERT_TRUE(with_r.AddFact(&symbols_, "R", {"a", "b"}).ok());
  auto d1 = DecideByUcq(&symbols_, p.tgds, with_r);
  ASSERT_TRUE(d1.ok());
  EXPECT_EQ(*d1, Decision::kDoesNotTerminate);

  core::Database with_q;
  ASSERT_TRUE(with_q.AddFact(&symbols_, "Q", {"a"}).ok());
  auto d2 = DecideByUcq(&symbols_, p.tgds, with_q);
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(*d2, Decision::kTerminates);
}

TEST_F(TerminationTest, UcqDeciderLinearUsesPatterns) {
  // Only the diagonal pattern S[1,1] feeds the looping T-chain: the UCQ
  // must distinguish S(a,a) (non-terminating) from S(a,b) (terminating),
  // which plain predicate-occurrence checks cannot (Theorem 7.7 /
  // Appendix E's equality-pattern disjuncts).
  tgd::Program p = Parse("S(x, x) -> T(x, z). T(x, y) -> T(y, w).");
  core::Database diag;
  ASSERT_TRUE(diag.AddFact(&symbols_, "S", {"a", "a"}).ok());
  core::Database off_diag;
  ASSERT_TRUE(off_diag.AddFact(&symbols_, "S", {"a", "b"}).ok());

  auto d1 = DecideByUcq(&symbols_, p.tgds, diag);
  ASSERT_TRUE(d1.ok());
  EXPECT_EQ(*d1, Decision::kDoesNotTerminate);
  auto d2 = DecideByUcq(&symbols_, p.tgds, off_diag);
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(*d2, Decision::kTerminates);
}

TEST_F(TerminationTest, UcqDeciderRejectsGuarded) {
  tgd::Program p = Parse("G(x, y), H(y) -> K(x, y, z).");
  EXPECT_FALSE(BuildTerminationUcq(&symbols_, p.tgds).ok());
}

TEST_F(TerminationTest, AdvisorMaterializesTerminatingSets) {
  auto p = api::Program::Parse(
      "Emp(e1, d1).\n"
      "Emp(x, y) -> Dept(y).\n"
      "Dept(y) -> Mgr(y, z).\n");
  ASSERT_TRUE(p.ok());
  auto advice = api::Session(*p).Advise();
  ASSERT_TRUE(advice.ok()) << advice.status().ToString();
  const api::AdvisorReport& report = advice->report();
  EXPECT_EQ(report.decision, Decision::kTerminates);
  EXPECT_EQ(report.tgd_class, tgd::TgdClass::kSimpleLinear);
  EXPECT_EQ(report.method, "weak-acyclicity");
  ASSERT_TRUE(report.materialization.has_value());
  EXPECT_EQ(report.materialization->instance.size(), 3u);
  // The paper's headline guarantee: |chase| ≤ |D| · f_C(Σ).
  EXPECT_LE(
      static_cast<double>(report.materialization->instance.size()),
      report.size_bound);
}

TEST_F(TerminationTest, AdvisorDeclinesNonTerminating) {
  auto p = api::Program::Parse("R(a, b). R(x, y) -> R(y, z).");
  ASSERT_TRUE(p.ok());
  auto advice = api::Session(*p).Advise();
  ASSERT_TRUE(advice.ok());
  const api::AdvisorReport& report = advice->report();
  EXPECT_EQ(report.decision, Decision::kDoesNotTerminate);
  EXPECT_FALSE(report.materialization.has_value());
}

TEST_F(TerminationTest, AdvisorHandlesGeneralTgdsBestEffort) {
  workload::Workload w = workload::MakeDepthFamily(&symbols_, 4);
  auto p = api::Program::Create(std::move(symbols_), std::move(w.tgds),
                                std::move(w.database));
  ASSERT_TRUE(p.ok());
  auto advice = api::Session(*p).Advise();
  ASSERT_TRUE(advice.ok());
  const api::AdvisorReport& report = advice->report();
  EXPECT_EQ(report.tgd_class, tgd::TgdClass::kGeneral);
  EXPECT_EQ(report.method, "bounded-chase");
  EXPECT_EQ(report.decision, Decision::kTerminates);
  ASSERT_TRUE(report.materialization.has_value());
}

TEST_F(TerminationTest, SizeBoundIsInfWhenTheFactorOverflows) {
  // f_G overflows to inf; over an empty D the product |D|·f_C(Σ) would
  // be 0·inf = NaN. The bound is documented as inf when unusable.
  const char* text = "R(x, y), S(y) -> T(x, z).";
  tgd::Program p = Parse(text);
  ASSERT_TRUE(std::isinf(SizeFactorG(p.tgds, symbols_)));
  EXPECT_TRUE(std::isinf(SizeBound(0, SizeFactorG(p.tgds, symbols_))));
  EXPECT_TRUE(std::isinf(
      DecideByChase(&symbols_, p.tgds, p.database).size_bound));

  auto program = api::Program::Parse(text);
  ASSERT_TRUE(program.ok());
  ASSERT_EQ(program->tgd_class(), tgd::TgdClass::kGuarded);
  auto advice = api::Session(*program).Advise();
  ASSERT_TRUE(advice.ok());
  EXPECT_TRUE(std::isinf(advice->report().size_bound));
}

TEST(DecisionNameTest, Names) {
  EXPECT_STREQ(DecisionName(Decision::kTerminates), "terminates");
  EXPECT_STREQ(DecisionName(Decision::kDoesNotTerminate),
               "does-not-terminate");
  EXPECT_STREQ(DecisionName(Decision::kUnknown), "unknown");
}

}  // namespace
}  // namespace termination
}  // namespace nuchase
