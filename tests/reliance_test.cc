// Unit suite for graph::RelianceGraph — the rule-pair analysis behind
// the cross-rule collect scheduler — plus the api-level contracts that
// hang off it: the tgd::kMaxRules cap at Program analysis time and the
// restricted variant's opt-in restraint-guided firing order.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/program.h"
#include "api/session.h"
#include "chase/chase.h"
#include "core/symbol_table.h"
#include "graph/reliance.h"
#include "tgd/parser.h"
#include "util/status.h"

namespace nuchase {
namespace graph {
namespace {

class RelianceTest : public ::testing::Test {
 protected:
  tgd::TgdSet ParseRules(const std::string& text) {
    auto tgds = tgd::ParseTgdSet(&symbols_, text);
    EXPECT_TRUE(tgds.ok()) << tgds.status().ToString();
    return *tgds;
  }
  core::SymbolTable symbols_;
};

TEST_F(RelianceTest, FeedsFollowsPredicateOverlap) {
  // 0: R feeds S-consumers; 1: S feeds T-consumers; 2: T feeds R-consumers.
  tgd::TgdSet tgds = ParseRules(
      "R(x, y) -> S(y, z). S(x, y) -> T(x). T(x) -> R(x, x).");
  RelianceGraph g(tgds);
  ASSERT_EQ(g.num_rules(), 3u);
  EXPECT_TRUE(g.Feeds(0, 1));
  EXPECT_TRUE(g.Feeds(1, 2));
  EXPECT_TRUE(g.Feeds(2, 0));
  EXPECT_FALSE(g.Feeds(1, 0));
  EXPECT_FALSE(g.Feeds(2, 1));
  EXPECT_FALSE(g.Feeds(0, 2));
  EXPECT_FALSE(g.Feeds(0, 0));  // R -> S... does not read S.
}

TEST_F(RelianceTest, PositiveRefinesFeedsOnExistentialPatterns) {
  // All four producers write B, so Feeds(r, 3) holds for each — but the
  // consumer's repeated-variable body B(y, y) only matches atoms whose
  // two entries can be equal. A fresh null is never equal to a frontier
  // image or to a different fresh null; a null is equal to itself.
  tgd::TgdSet tgds = ParseRules(
      "A(x) -> B(z, x)."   // 0: existential next to frontier — no
      "A(x) -> B(z, w)."   // 1: two distinct existentials — no
      "A(x) -> B(z, z)."   // 2: the same existential twice — yes
      "A(x) -> B(x, x)."   // 3: all-frontier — yes
      "B(y, y) -> C(y).");  // 4: the repeated-variable consumer
  RelianceGraph g(tgds);
  ASSERT_EQ(g.num_rules(), 5u);
  for (tgd::RuleIndex r = 0; r < 4; ++r) EXPECT_TRUE(g.Feeds(r, 4));
  EXPECT_FALSE(g.Positive(0, 4));
  EXPECT_FALSE(g.Positive(1, 4));
  EXPECT_TRUE(g.Positive(2, 4));
  EXPECT_TRUE(g.Positive(3, 4));
}

TEST_F(RelianceTest, RestrainsIsDirectional) {
  // The all-frontier head E(x, x) can be the atom that satisfies the
  // existential head E(x, z) (z may map to the frontier image), but the
  // existential head can never satisfy the all-frontier one: a head
  // frontier image predates any null the firing mints.
  tgd::TgdSet tgds = ParseRules("N(x) -> E(x, z). N(x) -> E(x, x).");
  RelianceGraph g(tgds);
  EXPECT_TRUE(g.Restrains(1, 0));
  EXPECT_FALSE(g.Restrains(0, 1));
  // A head trivially satisfies its own pattern.
  EXPECT_TRUE(g.Restrains(0, 0));
  EXPECT_TRUE(g.Restrains(1, 1));
}

TEST_F(RelianceTest, CollectGroupsSplitOnForwardFeeds) {
  // The quickstart chain: each rule feeds the next, so every forward
  // edge forces a flush — three singleton groups in Σ-order.
  tgd::TgdSet tgds = ParseRules(
      "Emp(x, d) -> Dept(d). Dept(d) -> Mgr(d, m). "
      "Mgr(d, m) -> Emp(m, d).");
  RelianceGraph g(tgds);
  const auto& groups = g.CollectGroups();
  ASSERT_EQ(groups.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(groups[i].size(), 1u);
    EXPECT_EQ(groups[i][0], static_cast<tgd::RuleIndex>(i));
  }
}

TEST_F(RelianceTest, IndependentFamiliesShareOneGroup) {
  // Three recursive rules over disjoint predicate families: each rule
  // feeds only itself (a harmless self-loop), so the greedy partition
  // keeps all of Σ in a single group.
  tgd::TgdSet tgds = ParseRules(
      "A(x, y), MA(x) -> MA(y)."
      "B(x, y), MB(x) -> MB(y)."
      "C(x, y), MC(x) -> MC(y).");
  RelianceGraph g(tgds);
  const auto& groups = g.CollectGroups();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0],
            (std::vector<tgd::RuleIndex>{0, 1, 2}));
}

TEST_F(RelianceTest, BackwardFeedsEdgeDoesNotSplit) {
  // Rule 1 feeds rule 0 (B into B-body), but no FORWARD edge exists:
  // under either schedule rule 0's collect precedes rule 1's apply, so
  // the pair legally shares a group.
  tgd::TgdSet tgds = ParseRules("B(x) -> C(x). A(x) -> B(x).");
  RelianceGraph g(tgds);
  EXPECT_FALSE(g.Feeds(0, 1));
  EXPECT_TRUE(g.Feeds(1, 0));
  ASSERT_EQ(g.CollectGroups().size(), 1u);
  EXPECT_EQ(g.CollectGroups()[0],
            (std::vector<tgd::RuleIndex>{0, 1}));
}

TEST_F(RelianceTest, SccIdsCondenseMutualRecursion) {
  // Rules 0 and 1 are mutually recursive through R and S; rule 2 lives
  // in its own component. Ids are densely renumbered in Σ-order.
  tgd::TgdSet tgds = ParseRules(
      "R(x, y) -> S(y, z). S(x, y) -> R(y, x). T(x) -> U(x).");
  RelianceGraph g(tgds);
  const auto& scc = g.SccIds();
  ASSERT_EQ(scc.size(), 3u);
  EXPECT_EQ(scc[0], scc[1]);
  EXPECT_NE(scc[0], scc[2]);
  EXPECT_EQ(g.num_sccs(), 2u);
  EXPECT_EQ(scc[0], 0u);
}

TEST_F(RelianceTest, RestraintOrderPlacesRestrainersFirst) {
  // The committed order-sensitivity program: within the {σ1, σ2} group
  // the all-frontier rule one-way-restrains the existential one, so the
  // guided order swaps them; the third rule is its own group.
  tgd::TgdSet tgds = ParseRules(
      "N(x) -> E(x, z). N(x) -> E(x, x). E(x, y) -> N(y).");
  RelianceGraph g(tgds);
  const auto& groups = g.CollectGroups();
  ASSERT_EQ(groups.size(), 2u);
  ASSERT_EQ(groups[0], (std::vector<tgd::RuleIndex>{0, 1}));
  EXPECT_EQ(g.RestraintOrder(groups[0]),
            (std::vector<tgd::RuleIndex>{1, 0}));
  EXPECT_EQ(g.RestraintOrder(groups[1]),
            (std::vector<tgd::RuleIndex>{2}));
}

TEST_F(RelianceTest, RestraintOrderFallsBackOnMutualRestraints) {
  // Two all-frontier heads restrain each other symmetrically: no
  // one-way edge exists, so the guided order degenerates to Σ-order.
  tgd::TgdSet tgds = ParseRules("N(x) -> E(x, x). M(x) -> E(x, x).");
  RelianceGraph g(tgds);
  EXPECT_TRUE(g.Restrains(0, 1));
  EXPECT_TRUE(g.Restrains(1, 0));
  EXPECT_EQ(g.RestraintOrder({0, 1}),
            (std::vector<tgd::RuleIndex>{0, 1}));
}

// ---------------------------------------------------------------------
// api-level contracts.

TEST(RelianceProgramTest, ProgramExposesRelianceGraph) {
  auto program = api::Program::Parse(
      "Emp(alice, sales).\n"
      "Emp(x, d) -> Dept(d). Dept(d) -> Mgr(d, m).");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const RelianceGraph& g = program->reliances();
  EXPECT_EQ(g.num_rules(), 2u);
  EXPECT_EQ(g.CollectGroups().size(), 2u);
}

TEST(RelianceProgramTest, RuleCapIsRejectedAtParseTime) {
  // tgd::kMaxRules + 1 copies of a trivial rule: analysis must reject
  // the set cleanly before any planning or reliance work touches it.
  std::string text = "P(a).\n";
  text.reserve(text.size() + 15 * (tgd::kMaxRules + 1));
  for (std::size_t i = 0; i <= tgd::kMaxRules; ++i) {
    text += "P(x) -> Q(x).\n";
  }
  auto program = api::Program::Parse(text);
  ASSERT_FALSE(program.ok());
  EXPECT_EQ(program.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(program.status().ToString().find("rule cap"),
            std::string::npos)
      << program.status().ToString();
}

TEST(RelianceProgramTest, RestraintOrderTerminatesOrderSensitiveChase) {
  // examples/programs/restraint_order.tgd inline: plain Σ-order fires
  // the existential rule first every round and diverges; the
  // restraint-guided order fires the all-frontier rule first, the
  // existential trigger is born satisfied, and the chase closes in two
  // rounds with the two-atom core.
  const char* text =
      "N(a).\n"
      "N(x) -> E(x, z). N(x) -> E(x, x). E(x, y) -> N(y).";
  auto program = api::Program::Parse(text);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  auto plain = api::Session(
                   *program,
                   api::SessionOptions()
                       .set_variant(chase::ChaseVariant::kRestricted)
                       .set_max_rounds(6))
                   .Chase();
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->outcome(), chase::ChaseOutcome::kRoundLimit);

  auto guided = api::Session(
                    *program,
                    api::SessionOptions()
                        .set_variant(chase::ChaseVariant::kRestricted)
                        .set_restraint_order(true))
                    .Chase();
  ASSERT_TRUE(guided.ok());
  EXPECT_EQ(guided->outcome(), chase::ChaseOutcome::kTerminated);
  EXPECT_EQ(guided->stats().rounds, 2u);
  EXPECT_EQ(guided->instance().size(), 2u);
  EXPECT_EQ(program->reliances().CollectGroups().size(), 2u);
}

TEST(RelianceProgramTest, RelianceGroupsStatIsSchedulerMetadata) {
  // The collect-group partition is a pure function of Σ, computed once
  // at parse time. A chain of forward Feeds edges leaves every rule its
  // own group, so even restraint mode walks Σ rule by rule here: same
  // bytes, same counters as the plain restricted run.
  auto program = api::Program::Parse(
      "Emp(alice, sales).\n"
      "Emp(x, d) -> Dept(d). Dept(d) -> Mgr(d, m). "
      "Mgr(d, m) -> Emp(m, d).");
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->reliances().CollectGroups().size(), 3u);
  const auto restricted =
      api::SessionOptions().set_variant(chase::ChaseVariant::kRestricted);
  auto plain = api::Session(*program, restricted).Chase();
  ASSERT_TRUE(plain.ok());
  auto guided =
      api::Session(*program, api::SessionOptions(restricted)
                                 .set_restraint_order(true))
          .Chase();
  ASSERT_TRUE(guided.ok());
  EXPECT_EQ(guided->ToSortedString(), plain->ToSortedString());
  EXPECT_EQ(guided->stats().triggers_fired, plain->stats().triggers_fired);
  EXPECT_EQ(guided->stats().join_probes, plain->stats().join_probes);
}

}  // namespace
}  // namespace graph
}  // namespace nuchase
