#include <gtest/gtest.h>

#include "chase/chase.h"
#include "graph/weak_acyclicity.h"
#include "termination/uniform.h"
#include "tgd/parser.h"
#include "workload/depth_family.h"
#include "workload/random_tgds.h"

namespace nuchase {
namespace termination {
namespace {

tgd::TgdSet ParseRules(core::SymbolTable* symbols, const char* text) {
  auto tgds = tgd::ParseTgdSet(symbols, text);
  EXPECT_TRUE(tgds.ok()) << tgds.status().ToString();
  return std::move(*tgds);
}

TEST(CriticalDatabaseTest, OneFactPerPredicate) {
  core::SymbolTable symbols;
  tgd::TgdSet tgds = ParseRules(
      &symbols, "R(x, y) -> S(y, z). S(x, y), T(x) -> U(x, y, w).");
  core::Database crit = *MakeCriticalDatabase(&symbols, tgds);
  EXPECT_EQ(crit.size(), 4u);  // R, S, T, U
  for (const core::Atom& fact : crit.facts()) {
    ASSERT_GE(fact.arity(), 1u);
    for (core::Term t : fact.args) {
      EXPECT_EQ(t, fact.args[0]);  // single shared constant
    }
  }
}

TEST(CriticalDatabaseTest, EmptySigma) {
  core::SymbolTable symbols;
  tgd::TgdSet tgds;
  EXPECT_TRUE(MakeCriticalDatabase(&symbols, tgds)->empty());
}

TEST(UniformDeciderTest, MatchesUniformWeakAcyclicityOnSL) {
  // For SL, uniform termination ⇔ (uniform) weak-acyclicity [8], and
  // D_Σ-weak-acyclicity coincides with it: the critical database
  // supports every cycle.
  const char* cases[] = {
      "R(x, y) -> S(y, z).",                  // acyclic: uniform
      "R(x, y) -> R(y, z).",                  // special self-cycle: not
      "A(x) -> B(x). B(x) -> A(x).",          // cycle without specials: ok
      "A(x) -> B(x, z). B(x, z) -> A(z).",    // special cycle: not
  };
  for (const char* text : cases) {
    core::SymbolTable symbols;
    tgd::TgdSet tgds = ParseRules(&symbols, text);
    bool uwa = graph::IsUniformlyWeaklyAcyclic(tgds, symbols);
    auto d = DecideUniform(&symbols, tgds);
    ASSERT_TRUE(d.ok()) << text;
    EXPECT_EQ(d->decision == Decision::kTerminates, uwa) << text;
  }
}

TEST(UniformDeciderTest, GuardedOntologyUniformlyTerminating) {
  core::SymbolTable symbols;
  tgd::TgdSet tgds = ParseRules(&symbols,
                                "Emp(x, d) -> Dept(d).\n"
                                "Dept(d) -> Mgr(d, m).\n"
                                "Mgr(d, m) -> Emp(m, d).\n");
  auto d = DecideUniform(&symbols, tgds);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->decision, Decision::kTerminates);
}

TEST(UniformDeciderTest, Proposition45FamilyIsNotUniform) {
  // Σ = { R(x,y), P(x,z,v) → ∃w P(y,w,z) } terminates on every chain
  // database D_n (Prop 4.5) but NOT uniformly: on the critical database
  // it chases forever. Σ is not guarded, so the exact per-class
  // procedures don't apply; the acyclicity ladder must stay honest —
  // sufficient-only, so kUnknown, never a false kTerminates — and the
  // bounded chase on D_Σ certifies divergence empirically.
  core::SymbolTable symbols;
  workload::Workload w = workload::MakeDepthFamily(&symbols, 4);
  auto d = DecideUniform(&symbols, w.tgds);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->decision, Decision::kUnknown);
  EXPECT_TRUE(d->method.empty());

  core::Database crit = *MakeCriticalDatabase(&symbols, w.tgds);
  chase::ChaseOptions options;
  options.max_atoms = 20000;
  chase::ChaseResult r = chase::RunChase(&symbols, w.tgds, crit, options);
  EXPECT_FALSE(r.Terminated());
}

TEST(UniformDeciderTest, UniformImpliesNonUniformEverywhere) {
  // Marnette's transfer property, tested: whenever the uniform decider
  // accepts Σ, the non-uniform decider accepts (D, Σ) for every random
  // database over its schema — and the chase indeed terminates.
  for (std::uint32_t seed = 1; seed <= 15; ++seed) {
    core::SymbolTable symbols;
    workload::RandomTgdOptions options;
    options.seed = seed;
    options.target = tgd::TgdClass::kGuarded;
    workload::Workload w = workload::MakeRandomWorkload(&symbols, options);
    auto uniform = DecideUniform(&symbols, w.tgds);
    ASSERT_TRUE(uniform.ok()) << w.name;
    if (uniform->decision != Decision::kTerminates) continue;
    auto nonuniform = Decide(&symbols, w.tgds, w.database);
    ASSERT_TRUE(nonuniform.ok()) << w.name;
    EXPECT_EQ(nonuniform->decision, Decision::kTerminates) << w.name;
    chase::ChaseOptions copt;
    copt.max_atoms = 200000;
    EXPECT_TRUE(
        chase::RunChase(&symbols, w.tgds, w.database, copt).Terminated())
        << w.name;
  }
}

TEST(UniformDeciderTest, NonUniformStrictlyWeaker) {
  // The paper's headline phenomenon: Σ ∉ CT yet Σ ∈ CT_D for a D that
  // avoids the dangerous predicate.
  core::SymbolTable symbols;
  tgd::TgdSet tgds = ParseRules(&symbols,
                                "Safe(x) -> Mark(x).\n"
                                "Loop(x, y) -> Loop(y, z).\n");
  auto uniform = DecideUniform(&symbols, tgds);
  ASSERT_TRUE(uniform.ok());
  EXPECT_EQ(uniform->decision, Decision::kDoesNotTerminate);

  core::Database safe_db;
  ASSERT_TRUE(safe_db.AddFact(&symbols, "Safe", {"a"}).ok());
  auto nonuniform = Decide(&symbols, tgds, safe_db);
  ASSERT_TRUE(nonuniform.ok());
  EXPECT_EQ(nonuniform->decision, Decision::kTerminates);
}

}  // namespace
}  // namespace termination
}  // namespace nuchase
