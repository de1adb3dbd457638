#include <gtest/gtest.h>

#include "api/session.h"
#include "chase/chase.h"
#include "query/evaluator.h"
#include "termination/syntactic_decider.h"
#include "termination/ucq_decider.h"
#include "tgd/parser.h"
#include "tgd/printer.h"

namespace nuchase {
namespace {

/// End-to-end: parse an OBDA-style program, decide termination, pick the
/// materialization strategy, chase, and answer queries over the
/// materialized universal model (the workflow the paper's introduction
/// motivates).
TEST(IntegrationTest, ObdaMaterializationPipeline) {
  const std::string text = R"(
% Data: employees, departments, managers.
WorksIn(alice, sales).
WorksIn(bob, engineering).
Manages(carol, sales).

% Ontology (simple linear TGDs):
WorksIn(x, d) -> Dept(d).
Manages(m, d) -> Dept(d), Emp(m).
WorksIn(x, d) -> Emp(x).
Dept(d) -> HasHead(d, h), Emp(h).
)";
  auto program = api::Program::Parse(text);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  auto advice = api::Session(*program).Advise();
  ASSERT_TRUE(advice.ok()) << advice.status().ToString();
  const api::AdvisorReport& report = advice->report();
  EXPECT_EQ(report.decision, termination::Decision::kTerminates);
  ASSERT_TRUE(report.materialization.has_value());
  const core::Instance& model = report.materialization->instance;

  // The universal model answers CQs over inferred atoms: every
  // department has a head who is an employee.
  auto has_head = program->FindPredicate("HasHead");
  auto emp = program->FindPredicate("Emp");
  ASSERT_TRUE(has_head.ok());
  ASSERT_TRUE(emp.ok());
  core::SymbolTable symbols = program->symbols();
  core::Term d = symbols.InternVariable("qd");
  core::Term h = symbols.InternVariable("qh");
  query::ConjunctiveQuery cq{
      {core::Atom(*has_head, {d, h}), core::Atom(*emp, {h})}};
  EXPECT_TRUE(query::Satisfies(model, cq));
  EXPECT_TRUE(query::Satisfies(model, program->tgds()));
}

/// End-to-end: a non-terminating ontology is detected *before*
/// materialization, and the UCQ decider gives the same verdict straight
/// from the database.
TEST(IntegrationTest, NonTerminatingOntologyIsRefused) {
  const std::string text = R"(
Person(adam).
Person(x) -> HasParent(x, y).
HasParent(x, y) -> Person(y).
)";
  auto program = api::Program::Parse(text);
  ASSERT_TRUE(program.ok());

  auto advice = api::Session(*program).Advise();
  ASSERT_TRUE(advice.ok());
  const api::AdvisorReport& report = advice->report();
  EXPECT_EQ(report.decision, termination::Decision::kDoesNotTerminate);
  EXPECT_FALSE(report.materialization.has_value());

  core::SymbolTable symbols = program->symbols();
  auto via_ucq = termination::DecideByUcq(&symbols, program->tgds(),
                                          program->database());
  ASSERT_TRUE(via_ucq.ok());
  EXPECT_EQ(*via_ucq, termination::Decision::kDoesNotTerminate);
}

/// The same ontology terminates on a database that does not feed the
/// cycle — the essence of *non-uniform* analysis.
TEST(IntegrationTest, NonUniformityDatabaseMatters) {
  core::SymbolTable symbols;
  auto tgds = tgd::ParseTgdSet(&symbols,
                               "Person(x) -> HasParent(x, y).\n"
                               "HasParent(x, y) -> Person(y).\n"
                               "City(c) -> Named(c, n).\n");
  ASSERT_TRUE(tgds.ok());

  core::Database people;
  ASSERT_TRUE(people.AddFact(&symbols, "Person", {"adam"}).ok());
  core::Database cities;
  ASSERT_TRUE(cities.AddFact(&symbols, "City", {"rome"}).ok());

  auto d1 = termination::Decide(&symbols, *tgds, people);
  ASSERT_TRUE(d1.ok());
  EXPECT_EQ(d1->decision, termination::Decision::kDoesNotTerminate);

  auto d2 = termination::Decide(&symbols, *tgds, cities);
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(d2->decision, termination::Decision::kTerminates);
}

/// Data-exchange style: guarded source-to-target dependencies, decided
/// via the full gsimple pipeline and materialized.
TEST(IntegrationTest, GuardedDataExchange) {
  core::SymbolTable symbols;
  const std::string text = R"(
Src(a, b).
Ref(b).
Src(x, y), Ref(y) -> Tgt(x, y, k).
Tgt(x, y, k) -> Key(k), Pair(x, y).
)";
  auto program = tgd::ParseProgram(&symbols, text);
  ASSERT_TRUE(program.ok());

  auto decision = termination::DecideGuarded(&symbols, program->tgds,
                                             program->database);
  ASSERT_TRUE(decision.ok()) << decision.status().ToString();
  EXPECT_EQ(decision->decision, termination::Decision::kTerminates);

  chase::ChaseResult result =
      chase::RunChase(&symbols, program->tgds, program->database);
  ASSERT_TRUE(result.Terminated());
  EXPECT_TRUE(query::Satisfies(result.instance, program->tgds));
  auto key = symbols.FindPredicate("Key");
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(result.instance.AtomsWithPredicate(*key).size(), 1u);
}

/// Round-trip: print a program, re-parse it, re-decide — decisions are
/// representation-independent.
TEST(IntegrationTest, PrintParseDecideRoundTrip) {
  core::SymbolTable symbols;
  auto program = tgd::ParseProgram(&symbols,
                                   "R(a, b).\n"
                                   "R(x, y) -> S(y, z).\n"
                                   "S(x, y) -> R(y, x).\n");
  ASSERT_TRUE(program.ok());
  std::string printed =
      tgd::ProgramToString(program->tgds, program->database, symbols);

  core::SymbolTable symbols2;
  auto reparsed = tgd::ParseProgram(&symbols2, printed);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();

  auto d1 = termination::Decide(&symbols, program->tgds,
                                program->database);
  auto d2 = termination::Decide(&symbols2, reparsed->tgds,
                                reparsed->database);
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  EXPECT_EQ(d1->decision, d2->decision);
}

}  // namespace
}  // namespace nuchase
