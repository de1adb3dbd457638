// OBDA materialization advisor — the Section 1 use case, on the facade.
//
// Ontology-based data access wants to answer queries over a database D
// *enriched* by an ontology Sigma. The cheapest strategy is
// materialization: replace D by chase(D, Sigma) and use a plain RDBMS.
// That is only sound when the chase terminates, and only affordable when
// its size is predictable. This example shows the advisor making both
// calls for a medical-records ontology, non-uniformly: the same ontology
// is accepted for one hospital's data and rejected for another's.
//
//   ./build/examples/obda_advisor
#include <cstdio>
#include <iostream>

#include "nuchase/nuchase.h"
#include "query/certain.h"

using namespace nuchase;

namespace {

// A guarded ontology in the EL style the paper's introduction cites:
// findings imply examinations, examinations have responsible physicians,
// physicians are staff, and a staffed assignment yields a consult (the
// one multi-atom, guarded rule). The chain Finding -> Exam -> ... never
// re-enters Finding, so the chase terminates on data that stays in the
// lower strata. One rule makes the ontology dangerous: a follow-up
// of an exam is again an exam *of a new patient episode* — applied to a
// database that contains follow-up seeds, it spins forever.
const char* kOntology =
    "Finding(p, f) -> Exam(p, e), About(e, f).\n"
    "Exam(p, e) -> Physician(e, d).\n"
    "Physician(e, d) -> Staff(d).\n"
    "Exam(p, e) -> Assigned(p, e, d).\n"
    "Assigned(p, e, d), Staff(d) -> Consult(p, d).\n"
    "FollowUp(e) -> Episode(e, p2), FollowUp(p2).\n";

void Report(const char* hospital,
            const util::StatusOr<api::AdviseResult>& result) {
  std::cout << "--- " << hospital << " ---\n";
  if (!result.ok()) {
    std::cout << "advisor error: " << result.status().ToString() << "\n";
    return;
  }
  const api::AdvisorReport& report = result->report();
  std::cout << "class " << tgd::TgdClassName(report.tgd_class)
            << ", decision " << termination::DecisionName(report.decision)
            << " via " << report.method << "\n";
  std::printf("guaranteed |chase| <= %.4g, maxdepth <= %.4g\n",
              report.size_bound, report.depth_bound);
  if (result->has_materialization()) {
    const chase::ChaseResult& m = *report.materialization;
    std::cout << "materialized " << m.instance.size() << " atoms (maxdepth "
              << m.stats.max_depth << ") -> safe to hand to an RDBMS\n";
  } else {
    std::cout << "no materialization: fall back to query rewriting\n";
  }
  std::cout << "\n";
}

}  // namespace

int main() {
  // Hospital A's extract mentions findings only: the dangerous FollowUp
  // predicate never receives data, so the chase terminates. This is
  // exactly the non-uniform phenomenon: Sigma alone is *not* uniformly
  // terminating, yet Sigma in CT_D for this D.
  {
    auto program = api::Program::Parse(
        std::string(kOntology) + "Finding(ann, fracture).\n"
                                 "Finding(bea, asthma).\n"
                                 "Finding(carl, fracture).\n");
    if (!program.ok()) {
      std::cerr << program.status().ToString() << "\n";
      return 1;
    }
    api::Session session(*program);
    Report("Hospital A (findings only)", session.Advise());

    // The payoff: ontological query answering over the materialization.
    // "Which patients certainly have an examination?" — no Exam fact is
    // stored; all three answers are inferred. The query machinery
    // interns variables, so it runs on a session-private copy of the
    // program's frozen table.
    core::SymbolTable symbols = program->symbols();
    core::Term patient = symbols.InternVariable("qp");
    core::Term exam = symbols.InternVariable("qe");
    auto exam_pred = program->FindPredicate("Exam");
    if (exam_pred.ok()) {
      query::AnswerQuery q{{core::Atom(*exam_pred, {patient, exam})},
                           {patient}};
      auto answers = query::CertainAnswers(&symbols, program->tgds(),
                                           program->database(), q);
      if (answers.ok()) {
        std::cout << "certain answers to " << q.ToString(symbols) << ": ";
        for (const auto& tuple : *answers) {
          std::cout << symbols.TermToString(tuple[0]) << " ";
        }
        std::cout << "\n\n";
      }
    }
  }

  // Hospital B's extract seeds FollowUp: the chase diverges, and the
  // advisor proves it syntactically (gsimple(Sigma) has a
  // gsimple(D)-supported special cycle) without chasing at all.
  {
    auto program = api::Program::Parse(
        std::string(kOntology) + "Finding(dora, flu).\n"
                                 "FollowUp(visit1).\n");
    if (!program.ok()) {
      std::cerr << program.status().ToString() << "\n";
      return 1;
    }
    Report("Hospital B (has follow-up seeds)",
           api::Session(*program).Advise());
  }
  return 0;
}
