#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "graph/joint_acyclicity.h"
#include "graph/weak_acyclicity.h"
#include "termination/ladder.h"
#include "termination/mfa.h"
#include "termination/naive_decider.h"
#include "termination/uniform.h"
#include "tgd/parser.h"
#include "workload/random_tgds.h"

namespace nuchase {
namespace {

// The committed JA-not-WA separating example (examples/programs/
// ja_ladder.tgd): general class, not weakly acyclic w.r.t. D, jointly
// acyclic.
constexpr char kJaNotWa[] =
    "P(a). R(a, b).\n"
    "P(x) -> Q(x, y).\n"
    "Q(x, y), R(y, w) -> P(y).\n";

// The committed MFA-not-JA separating example (examples/programs/
// mfa_ladder.tgd): JA sees a self-fed existential, the critical-
// instance chase terminates at depth 2.
constexpr char kMfaNotJa[] =
    "B(a). D(a, b).\n"
    "B(x) -> R(x, y).\n"
    "R(x, y), B(y), D(x, w) -> C(x).\n"
    "C(x), R(x, y) -> B(y).\n";

// Diverges on every rung: the one-rule transitive loop.
constexpr char kDiverging[] = "R(a, b). R(x, y) -> R(y, z).";

class AnalysisTest : public ::testing::Test {
 protected:
  tgd::Program Parse(const std::string& text) {
    auto program = tgd::ParseProgram(&symbols_, text);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    return *program;
  }
  core::SymbolTable symbols_;
};

// ---------------------------------------------------------------- JA --

TEST_F(AnalysisTest, JointAcyclicityAcceptsWhereWaFails) {
  tgd::Program p = Parse(kJaNotWa);
  graph::WeakAcyclicityResult wa =
      graph::CheckWeakAcyclicity(p.tgds, p.database, symbols_);
  EXPECT_FALSE(wa.weakly_acyclic);
  graph::JointAcyclicityResult ja =
      graph::CheckJointAcyclicity(p.tgds, symbols_);
  EXPECT_TRUE(ja.jointly_acyclic);
  EXPECT_TRUE(ja.cycle.empty());
  // One existential (y of rule 0) whose movement set is {(Q,2)} alone.
  ASSERT_EQ(ja.move_sizes.size(), 1u);
  EXPECT_EQ(ja.move_sizes[0], 1u);
}

TEST_F(AnalysisTest, JointAcyclicityFindsSelfFedExistential) {
  tgd::Program p = Parse(kMfaNotJa);
  graph::JointAcyclicityResult ja =
      graph::CheckJointAcyclicity(p.tgds, symbols_);
  EXPECT_FALSE(ja.jointly_acyclic);
  ASSERT_FALSE(ja.cycle.empty());
  // The sole existential is y of rule 0, and the cycle is its
  // self-loop; the witness variable really is existential in its rule.
  EXPECT_EQ(ja.cycle.size(), 1u);
  EXPECT_EQ(ja.cycle[0].rule, 0u);
  const std::vector<core::Term>& ex = p.tgds.tgd(0).existential();
  EXPECT_NE(std::find(ex.begin(), ex.end(), ja.cycle[0].variable),
            ex.end());
}

TEST_F(AnalysisTest, JointAcyclicityTrivialForFullTgds) {
  // No existentials: the dependency graph has no nodes at all.
  tgd::Program p = Parse("C(a, b). C(x, y), D(y, z) -> E(x, z).");
  graph::JointAcyclicityResult ja =
      graph::CheckJointAcyclicity(p.tgds, symbols_);
  EXPECT_TRUE(ja.jointly_acyclic);
  EXPECT_TRUE(ja.move_sizes.empty());
}

// --------------------------------------------------------------- MFA --

TEST_F(AnalysisTest, MfaCertifiesUniformTermination) {
  tgd::Program p = Parse(kMfaNotJa);
  termination::MfaResult mfa = termination::CheckMfa(symbols_, p.tgds);
  EXPECT_EQ(mfa.status, termination::MfaStatus::kAcyclic);
  EXPECT_GT(mfa.critical_atoms, 0u);
  // Feeding a null back into B needs an underivable D-fact, so the
  // critical chase stops at depth 2 — inside the automatic E + 2 = 3
  // tripwire.
  EXPECT_EQ(mfa.max_depth_seen, 2u);
  EXPECT_TRUE(mfa.cycle.empty());
}

TEST_F(AnalysisTest, MfaReportsSelfFedNullWitness) {
  tgd::Program p = Parse(kDiverging);
  termination::MfaResult mfa = termination::CheckMfa(symbols_, p.tgds);
  EXPECT_EQ(mfa.status, termination::MfaStatus::kCyclic);
  ASSERT_FALSE(mfa.cycle.empty());
  EXPECT_FALSE(mfa.witness_null.empty());
  // Every step of the witness names an existential of its rule (the
  // one rule here), and the auto tripwire E + 2 = 3 bounds the breach.
  for (const termination::MfaCycleStep& step : mfa.cycle) {
    EXPECT_EQ(step.rule, 0u);
    const std::vector<core::Term>& ex = p.tgds.tgd(step.rule).existential();
    EXPECT_NE(std::find(ex.begin(), ex.end(), step.variable), ex.end());
  }
  // The breach happens one level past the automatic E + 2 = 3 tripwire.
  EXPECT_EQ(mfa.max_depth_seen, 4u);
}

TEST_F(AnalysisTest, MfaAtomBudgetIsInconclusive) {
  tgd::Program p = Parse(kDiverging);
  termination::MfaOptions options;
  options.max_atoms = 3;
  options.max_depth = 50;  // keep the tripwire out of the way
  termination::MfaResult mfa =
      termination::CheckMfa(symbols_, p.tgds, options);
  EXPECT_EQ(mfa.status, termination::MfaStatus::kBudget);
  EXPECT_TRUE(mfa.cycle.empty());
}

// ------------------------------------------------------------ ladder --

TEST_F(AnalysisTest, LadderCertifiesOnTheCheapestRung) {
  tgd::Program wa = Parse("A(a, b). A(x, y) -> W(y, z).");
  termination::LadderResult r1 =
      termination::RunLadder(symbols_, wa.tgds, wa.database);
  EXPECT_EQ(r1.verdict, termination::Decision::kTerminates);
  EXPECT_EQ(r1.rung, "wa");
  EXPECT_FALSE(r1.mfa_ran);  // short-circuited: WA already certified

  tgd::Program ja = Parse(kJaNotWa);
  termination::LadderResult r2 =
      termination::RunLadder(symbols_, ja.tgds, ja.database);
  EXPECT_EQ(r2.verdict, termination::Decision::kTerminates);
  EXPECT_EQ(r2.rung, "ja");
  EXPECT_FALSE(r2.wa.weakly_acyclic);
  EXPECT_FALSE(r2.mfa_ran);

  tgd::Program mfa = Parse(kMfaNotJa);
  termination::LadderResult r3 =
      termination::RunLadder(symbols_, mfa.tgds, mfa.database);
  EXPECT_EQ(r3.verdict, termination::Decision::kTerminates);
  EXPECT_EQ(r3.rung, "mfa");
  EXPECT_FALSE(r3.wa.weakly_acyclic);
  EXPECT_FALSE(r3.ja.jointly_acyclic);
  EXPECT_TRUE(r3.mfa_ran);
}

TEST_F(AnalysisTest, LadderUnknownWhenNoRungCertifies) {
  tgd::Program p = Parse(kDiverging);
  termination::LadderResult r =
      termination::RunLadder(symbols_, p.tgds, p.database);
  EXPECT_EQ(r.verdict, termination::Decision::kUnknown);
  EXPECT_TRUE(r.rung.empty());
  EXPECT_TRUE(r.mfa_ran);
  EXPECT_EQ(r.mfa.status, termination::MfaStatus::kCyclic);
}

// ------------------------------------------------------- diagnostics --

std::vector<analysis::Diagnostic> Lint(const tgd::Program& p,
                                       const core::SymbolTable& symbols) {
  return analysis::LintProgram(p.tgds, p.database, symbols);
}

TEST_F(AnalysisTest, LintIsQuietOnCleanPrograms) {
  tgd::Program p = Parse(
      "Emp(alice, sales).\n"
      "Emp(x, d) -> Dept(d).\n"
      "Dept(d) -> Mgr(d, m).\n"
      "Mgr(d, m) -> Emp(m, d).\n");
  EXPECT_TRUE(Lint(p, symbols_).empty());
}

TEST_F(AnalysisTest, LintRaisesEveryDiagnostic) {
  // The examples/programs/lint_showcase.tgd rule set, inline.
  tgd::Program p = Parse(
      "Start(a). Orphan(b). Other(c). P(d). Q(d).\n"
      "Start(x) -> Log(y).\n"
      "Ghost(x) -> Start(x).\n"
      "Start(x), Other(w) -> Pair(x, w).\n"
      "Start(x) -> Log(y).\n"
      "P(x) -> E(x, y).\n"
      "Q(x) -> E(x, z).\n");
  std::vector<analysis::Diagnostic> found = Lint(p, symbols_);

  std::multiset<std::string> ids;
  for (const analysis::Diagnostic& d : found) ids.insert(d.id);
  EXPECT_EQ(ids.count("NU001"), 2u);  // both Log rules
  EXPECT_EQ(ids.count("NU002"), 1u);  // Ghost
  EXPECT_EQ(ids.count("NU003"), 1u);  // Orphan
  EXPECT_EQ(ids.count("NU004"), 1u);  // the Ghost rule is dead
  EXPECT_EQ(ids.count("NU005"), 1u);  // duplicate Log rule
  EXPECT_EQ(ids.count("NU006"), 2u);  // Log pair and E pair
  EXPECT_EQ(ids.count("NU007"), 1u);  // cartesian Pair rule

  // Findings come out in catalog-ID order, locations attached.
  for (std::size_t i = 1; i < found.size(); ++i) {
    EXPECT_LE(found[i - 1].id, found[i].id);
  }
  for (const analysis::Diagnostic& d : found) {
    if (d.id == "NU003") {
      EXPECT_EQ(d.rule, -1);
      EXPECT_EQ(d.predicate, "Orphan");
      EXPECT_EQ(d.severity, analysis::Severity::kInfo);
    }
    if (d.id == "NU005") {
      EXPECT_EQ(d.rule, 3);
    }
    EXPECT_FALSE(d.message.empty());
  }
}

TEST_F(AnalysisTest, CatalogIsSortedUniqueAndCoversEmittedIds) {
  const std::vector<analysis::DiagnosticSpec>& catalog =
      analysis::DiagnosticCatalog();
  ASSERT_FALSE(catalog.empty());
  std::set<std::string> catalog_ids;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(std::string(catalog[i - 1].id), catalog[i].id);
    }
    catalog_ids.insert(catalog[i].id);
    EXPECT_NE(std::string(catalog[i].summary), "");
  }
  // Every finding the showcase rule set produces carries a cataloged
  // id at the cataloged severity.
  tgd::Program p = Parse(
      "Start2(a). Orphan2(b). Other2(c).\n"
      "Start2(x) -> Log2(y).\n"
      "Ghost2(x) -> Start2(x).\n"
      "Start2(x), Other2(w) -> Pair2(x, w).\n"
      "Start2(x) -> Log2(y).\n");
  for (const analysis::Diagnostic& d : Lint(p, symbols_)) {
    ASSERT_EQ(catalog_ids.count(d.id), 1u) << d.id;
    for (const analysis::DiagnosticSpec& spec : catalog) {
      if (d.id == spec.id) {
        EXPECT_EQ(d.severity, spec.severity);
      }
    }
  }
}

TEST(SeverityNameTest, Names) {
  EXPECT_STREQ(analysis::SeverityName(analysis::Severity::kInfo), "info");
  EXPECT_STREQ(analysis::SeverityName(analysis::Severity::kWarning),
               "warning");
  EXPECT_STREQ(analysis::SeverityName(analysis::Severity::kError),
               "error");
}

// --------------------------------------------------------- soundness --

// Ladder soundness: whenever any rung certifies a random (D, Σ), the
// bounded chase of (D, Σ) must terminate — and for the uniform rungs
// (JA, MFA) so must the chase of the critical database D_Σ.
TEST_F(AnalysisTest, LadderSoundOnRandomWorkloads) {
  const tgd::TgdClass classes[] = {
      tgd::TgdClass::kSimpleLinear, tgd::TgdClass::kLinear,
      tgd::TgdClass::kGuarded, tgd::TgdClass::kGeneral};
  std::uint32_t tag = 0;
  int certified = 0;
  chase::ChaseOptions capped;
  capped.max_atoms = 200000;
  for (tgd::TgdClass target : classes) {
    for (std::uint32_t seed = 1; seed <= 6; ++seed) {
      workload::RandomTgdOptions options;
      options.seed = seed;
      options.target = target;
      options.num_tgds = 4;
      options.name_tag = ++tag;
      workload::Workload w =
          workload::MakeRandomWorkload(&symbols_, options);
      termination::LadderResult ladder =
          termination::RunLadder(symbols_, w.tgds, w.database);
      if (ladder.verdict != termination::Decision::kTerminates) continue;
      ++certified;
      termination::NaiveDecision on_d = termination::DecideByChase(
          &symbols_, w.tgds, w.database, capped);
      EXPECT_EQ(on_d.decision, termination::Decision::kTerminates)
          << "ladder rung '" << ladder.rung
          << "' certified a diverging set (class "
          << tgd::TgdClassName(target) << ", seed " << seed << ")";
      if (ladder.rung == "ja" || ladder.rung == "mfa") {
        auto critical = termination::MakeCriticalDatabase(
            &symbols_, w.tgds, "crit" + std::to_string(tag));
        ASSERT_TRUE(critical.ok());
        termination::NaiveDecision on_crit = termination::DecideByChase(
            &symbols_, w.tgds, *critical, capped);
        EXPECT_EQ(on_crit.decision, termination::Decision::kTerminates)
            << "uniform rung '" << ladder.rung
            << "' but the critical chase diverges (seed " << seed << ")";
      }
    }
  }
  // The sweep must actually exercise the claim, not vacuously pass.
  EXPECT_GT(certified, 0);
}

// JA ⊇ uniform WA on random sets: every uniformly weakly acyclic Σ is
// jointly acyclic (Krötzsch & Rudolph).
TEST_F(AnalysisTest, JaSubsumesUniformWaOnRandomWorkloads) {
  for (std::uint32_t seed = 1; seed <= 10; ++seed) {
    workload::RandomTgdOptions options;
    options.seed = seed;
    options.target = tgd::TgdClass::kGeneral;
    options.name_tag = 100 + seed;
    workload::Workload w = workload::MakeRandomWorkload(&symbols_, options);
    if (!graph::IsUniformlyWeaklyAcyclic(w.tgds, symbols_)) continue;
    graph::JointAcyclicityResult ja =
        graph::CheckJointAcyclicity(w.tgds, symbols_);
    EXPECT_TRUE(ja.jointly_acyclic)
        << "seed " << seed << ": uniformly WA but not JA";
  }
}

}  // namespace
}  // namespace nuchase
