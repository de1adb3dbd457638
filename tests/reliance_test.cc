// Unit suite for graph::Restrains and graph::RestraintOrder — the
// rule-pair analysis behind the restricted variant's opt-in
// restraint-guided firing order — plus the api-level contracts that
// hang off it: the tgd::kMaxRules cap at Program analysis time and the
// order's effect on an order-sensitive chase.
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

TEST_F(RelianceTest, RestrainsIsDirectional) {
  // The all-frontier head E(x, x) can be the atom that satisfies the
  // existential head E(x, z) (z may map to the frontier image), but the
  // existential head can never satisfy the all-frontier one: a head
  // frontier image predates any null the firing mints.
  tgd::TgdSet tgds = ParseRules("N(x) -> E(x, z). N(x) -> E(x, x).");
  EXPECT_TRUE(Restrains(tgds.tgd(1), tgds.tgd(0)));
  EXPECT_FALSE(Restrains(tgds.tgd(0), tgds.tgd(1)));
  // A head trivially satisfies its own pattern.
  EXPECT_TRUE(Restrains(tgds.tgd(0), tgds.tgd(0)));
  EXPECT_TRUE(Restrains(tgds.tgd(1), tgds.tgd(1)));
}

TEST_F(RelianceTest, RestraintOrderPlacesRestrainersFirst) {
  // The committed order-sensitivity program: the all-frontier rule
  // one-way-restrains the existential one, so the guided order swaps
  // them; the third rule restrains nothing and keeps its place.
  EXPECT_EQ(RestraintOrder(ParseRules(
                "N(x) -> E(x, z). N(x) -> E(x, x). E(x, y) -> N(y).")),
            (std::vector<tgd::RuleIndex>{1, 0, 2}));
  // The same rules with the feeding rule listed second: the restrainer
  // still precedes the rule it restrains, across the rule between them.
  EXPECT_EQ(RestraintOrder(ParseRules(
                "N(x) -> E(x, z). E(x, y) -> N(y). N(x) -> E(x, x).")),
            (std::vector<tgd::RuleIndex>{1, 2, 0}));
}

TEST_F(RelianceTest, RestraintOrderFallsBackOnMutualRestraints) {
  // Two all-frontier heads restrain each other symmetrically: no
  // one-way edge exists, so the guided order degenerates to Σ-order.
  tgd::TgdSet tgds = ParseRules("N(x) -> E(x, x). M(x) -> E(x, x).");
  EXPECT_TRUE(Restrains(tgds.tgd(0), tgds.tgd(1)));
  EXPECT_TRUE(Restrains(tgds.tgd(1), tgds.tgd(0)));
  EXPECT_EQ(RestraintOrder(tgds), (std::vector<tgd::RuleIndex>{0, 1}));
}

// ---------------------------------------------------------------------
// api-level contracts.

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
  // examples/programs/restraint_order.tgd inline, as committed and with
  // the feeding rule listed second: plain Σ-order fires the existential
  // rule first every round and diverges; the restraint-guided order
  // fires the all-frontier rule first, the existential trigger is born
  // satisfied, and the chase closes in two rounds with the two-atom
  // core. The order spans all of Σ, so the rule listed between the two
  // E rules does not keep them apart.
  const char* texts[] = {
      "N(a).\n"
      "N(x) -> E(x, z). N(x) -> E(x, x). E(x, y) -> N(y).",
      "N(a).\n"
      "N(x) -> E(x, z). E(x, y) -> N(y). N(x) -> E(x, x).",
  };
  for (const char* text : texts) {
    SCOPED_TRACE(text);
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
                          .set_max_rounds(6)
                          .set_restraint_order(true))
                      .Chase();
    ASSERT_TRUE(guided.ok());
    EXPECT_EQ(guided->outcome(), chase::ChaseOutcome::kTerminated);
    EXPECT_EQ(guided->stats().rounds, 2u);
    EXPECT_EQ(guided->instance().size(), 2u);
  }
}

TEST(RelianceProgramTest, RelianceGroupsStatIsSchedulerMetadata) {
  // The restraint order is a pure function of Σ. No two rules of this
  // chain share a head predicate, so no rule restrains another and even
  // restraint mode walks Σ-order here: same bytes, same counters as the
  // plain restricted run.
  auto program = api::Program::Parse(
      "Emp(alice, sales).\n"
      "Emp(x, d) -> Dept(d). Dept(d) -> Mgr(d, m). "
      "Mgr(d, m) -> Emp(m, d).");
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(RestraintOrder(program->tgds()),
            (std::vector<tgd::RuleIndex>{0, 1, 2}));
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
