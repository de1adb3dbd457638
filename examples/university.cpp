// University OBDA at scale — a realistic end-to-end walkthrough.
//
// A registrar database stores raw Reg(student, course, dept) records and
// staff lists; an EL-style guarded ontology derives enrollment, advising
// and teaching roles, inventing witnesses (advisors, taught courses)
// where the data is incomplete. The walkthrough: freeze the generated
// workload into an api::Program, check termination syntactically,
// materialize, answer certain-answer queries, and show the same
// ontology rejected the moment the thesis-review rule meets a database
// that feeds it.
//
//   ./build/examples/university
#include <cstdio>
#include <iostream>

#include "nuchase/nuchase.h"
#include "query/certain.h"
#include "workload/university.h"

using namespace nuchase;

int main() {
  // --- A mid-size university ------------------------------------------
  core::SymbolTable build_symbols;
  workload::UniversityOptions options;
  options.departments = 6;
  options.professors_per_department = 8;
  options.students_per_department = 120;
  options.courses_per_department = 12;
  workload::Workload uni =
      workload::MakeUniversityWorkload(&build_symbols, options);
  auto program = api::Program::Create(
      std::move(build_symbols), std::move(uni.tgds), std::move(uni.database));
  if (!program.ok()) {
    std::cerr << program.status().ToString() << "\n";
    return 1;
  }

  std::cout << "ontology: " << program->rule_count()
            << " guarded TGDs; data: " << program->fact_count()
            << " facts\n";

  auto advice = api::Session(*program).Advise();
  if (!advice.ok()) {
    std::cerr << advice.status().ToString() << "\n";
    return 1;
  }
  std::cout << "advisor: "
            << termination::DecisionName(advice->decision()) << " via "
            << advice->report().method << "\n";
  if (!advice->has_materialization()) return 1;
  const chase::ChaseResult& m = *advice->report().materialization;
  std::printf("materialized %zu atoms from %zu facts (x%.2f), "
              "maxdepth %u\n\n",
              m.instance.size(), program->fact_count(),
              static_cast<double>(m.instance.size()) /
                  static_cast<double>(program->fact_count()),
              m.stats.max_depth);

  // --- Certain answers over the enriched data --------------------------
  // The query layer interns variables, so it runs against a private copy
  // of the program's frozen table.
  core::SymbolTable symbols = program->symbols();
  // "Which students certainly have an advisor?" — HasAdvisor is never
  // stored; it follows from Student via an invented advisor.
  {
    core::Term s = symbols.InternVariable("qs");
    auto has_advisor = program->FindPredicate("HasAdvisor");
    query::AnswerQuery q{{core::Atom(*has_advisor, {s})}, {s}};
    auto answers = query::CertainAnswers(&symbols, program->tgds(),
                                         program->database(), q);
    if (answers.ok()) {
      std::cout << "students with a (certain) advisor: "
                << answers->size() << "\n";
    }
  }
  // "Which courses are certainly taught by someone?" — mixes stored
  // teaching with invented witnesses for enrolled-but-unstaffed courses.
  {
    core::Term c = symbols.InternVariable("qc");
    core::Term p = symbols.InternVariable("qp");
    auto taught_by = program->FindPredicate("TaughtBy");
    query::AnswerQuery q{{core::Atom(*taught_by, {c, p})}, {c}};
    auto answers = query::CertainAnswers(&symbols, program->tgds(),
                                         program->database(), q);
    if (answers.ok()) {
      std::cout << "courses certainly taught by someone: "
                << answers->size() << "\n\n";
    }
  }

  // --- The non-uniform boundary ----------------------------------------
  // Add the thesis-review rule. With no UnderReview facts the SAME
  // ontology still terminates on this data; with one seed it must be
  // rejected — and Session::Decide proves it without chasing.
  for (std::uint32_t seeds : {0u, 1u}) {
    core::SymbolTable symbols2;
    workload::UniversityOptions risky = options;
    risky.include_review_rule = true;
    risky.under_review = seeds;
    workload::Workload w =
        workload::MakeUniversityWorkload(&symbols2, risky);
    auto risky_program = api::Program::Create(
        std::move(symbols2), std::move(w.tgds), std::move(w.database));
    if (!risky_program.ok()) {
      std::cerr << risky_program.status().ToString() << "\n";
      return 1;
    }
    auto r = api::Session(*risky_program).Decide();
    std::cout << "with review rule, " << seeds
              << " UnderReview fact(s): "
              << (r.ok() ? termination::DecisionName(r->decision)
                         : r.status().ToString())
              << "\n";
  }
  return 0;
}
