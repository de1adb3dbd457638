// E4 + E14 — Theorem 6.6: ChTrm(SL) is NL-complete (combined) and in
// AC0 in data complexity. The naive chase-based procedure is EXPTIME;
// the tables show the crossover: CheckWA and the UCQ evaluation stay
// flat while the naive decider's cost tracks the (exponential) chase
// size.
#include "bench/bench_util.h"
#include "query/evaluator.h"
#include "termination/naive_decider.h"
#include "termination/syntactic_decider.h"
#include "termination/ucq_decider.h"
#include "tgd/parser.h"
#include "workload/lower_bounds.h"

namespace nuchase {
namespace {

void CombinedComplexity() {
  util::Table table(
      "combined complexity: growing Sigma (Theorem 6.5 family, ell=1)",
      {"n,m", "|chase|", "naive(s)", "checkwa(s)", "agree"});
  struct P {
    std::uint32_t n, m;
  };
  for (const P& p : {P{1, 2}, P{2, 2}, P{3, 2}, P{1, 3}, P{2, 3},
                     P{1, 4}, P{2, 4}}) {
    core::SymbolTable symbols;
    workload::Workload w =
        workload::MakeSlLowerBound(&symbols, 1, p.n, p.m);

    chase::ChaseOptions capped;
    capped.max_atoms = 5'000'000;
    bench::Stopwatch naive_timer;
    termination::NaiveDecision naive = termination::DecideByChase(
        &symbols, w.tgds, w.database, capped);
    double naive_s = naive_timer.Seconds();

    bench::Stopwatch wa_timer;
    auto syntactic =
        termination::DecideSimpleLinear(&symbols, w.tgds, w.database);
    double wa_s = wa_timer.Seconds();
    if (!syntactic.ok()) continue;

    table.AddRow({std::to_string(p.n) + "," + std::to_string(p.m),
                  std::to_string(naive.atoms),
                  bench::FormatSeconds(naive_s),
                  bench::FormatSeconds(wa_s),
                  naive.decision == syntactic->decision ? "yes" : "NO"});
  }
  bench::PrintTable(table);
}

void DataComplexity() {
  util::Table table(
      "data complexity: fixed Sigma, growing D (UCQ precomputed once)",
      {"|D|", "ucq-eval(s)", "checkwa(s)", "naive(s)", "decision",
       "all agree"});

  // Fixed SL ontology with one supported cycle; databases either feed it
  // or not.
  core::SymbolTable symbols;
  auto tgds = tgd::ParseTgdSet(&symbols,
                               "Follows(x, y) -> Follows(y, z).\n"
                               "Likes(x, y) -> Seen(y).\n");
  if (!tgds.ok()) return;
  auto ucq = termination::BuildTerminationUcq(&symbols, *tgds);
  if (!ucq.ok()) return;

  for (std::uint64_t size : {100u, 1000u, 10000u, 100000u}) {
    core::Database db;
    // Mostly harmless Likes-facts plus one Follows-fact (supports the
    // cycle).
    for (std::uint64_t i = 0; i + 1 < size; ++i) {
      (void)db.AddFact(&symbols, "Likes",
                       {"u" + std::to_string(i),
                        "u" + std::to_string(i + 1)});
    }
    (void)db.AddFact(&symbols, "Follows", {"u0", "u1"});

    bench::Stopwatch ucq_timer;
    bool satisfied = query::Satisfies(db, *ucq);
    double ucq_s = ucq_timer.Seconds();

    bench::Stopwatch wa_timer;
    auto syntactic =
        termination::DecideSimpleLinear(&symbols, *tgds, db);
    double wa_s = wa_timer.Seconds();

    chase::ChaseOptions capped;
    capped.max_atoms = 5'000'000;
    bench::Stopwatch naive_timer;
    termination::NaiveDecision naive =
        termination::DecideByChase(&symbols, *tgds, db, capped);
    double naive_s = naive_timer.Seconds();

    if (!syntactic.ok()) continue;
    termination::Decision ucq_decision =
        satisfied ? termination::Decision::kDoesNotTerminate
                  : termination::Decision::kTerminates;
    bool agree = ucq_decision == syntactic->decision &&
                 ucq_decision == naive.decision;
    table.AddRow(
        {std::to_string(size), bench::FormatSeconds(ucq_s),
         bench::FormatSeconds(wa_s), bench::FormatSeconds(naive_s),
         termination::DecisionName(ucq_decision), agree ? "yes" : "NO"});
  }
  bench::PrintTable(table);
}

}  // namespace
}  // namespace nuchase

int main() {
  nuchase::bench::PrintHeader(
      "E4/E14 bench_sl_decider (Theorem 6.6)",
      "ChTrm(SL): NL-complete combined, AC0 data; naive chase is "
      "EXPTIME-ish in ||Sigma||");
  nuchase::CombinedComplexity();
  nuchase::DataComplexity();
  return 0;
}
