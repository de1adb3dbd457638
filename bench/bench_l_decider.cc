// E7 — Theorem 7.7: ChTrm(L) is PSPACE-complete (NL for bounded arity)
// and in AC0 in data complexity; the naive procedure is 2EXPTIME. The
// tables compare the naive chase, the simplification+WA decider, and
// the precomputed-UCQ evaluation.
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
      "combined complexity: Theorem 7.6 family (ell=1)",
      {"n,m", "|chase|", "naive(s)", "simplify+WA(s)", "agree"});
  struct P {
    std::uint32_t n, m;
  };
  for (const P& p : {P{1, 1}, P{2, 1}, P{1, 2}, P{2, 2}, P{1, 3},
                     P{2, 3}, P{1, 4}}) {
    core::SymbolTable symbols;
    workload::Workload w =
        workload::MakeLinearLowerBound(&symbols, 1, p.n, p.m);

    chase::ChaseOptions capped;
    capped.max_atoms = 5'000'000;
    bench::Stopwatch naive_timer;
    termination::NaiveDecision naive = termination::DecideByChase(
        &symbols, w.tgds, w.database, capped);
    double naive_s = naive_timer.Seconds();

    auto syntactic =
        termination::DecideLinear(&symbols, w.tgds, w.database);
    if (!syntactic.ok()) continue;

    table.AddRow({std::to_string(p.n) + "," + std::to_string(p.m),
                  std::to_string(naive.atoms),
                  bench::FormatSeconds(naive_s),
                  bench::FormatSeconds(syntactic->seconds),
                  naive.decision == syntactic->decision ? "yes" : "NO"});
  }
  bench::PrintTable(table);
}

void DataComplexity() {
  util::Table table(
      "data complexity: fixed linear Sigma, growing D",
      {"|D|", "ucq-eval(s)", "simplify+WA(s)", "decision"});

  // Only the diagonal pattern S(x,x) feeds the cycle (Theorem 7.7's UCQ
  // uses repeated variables to express exactly that).
  core::SymbolTable symbols;
  auto tgds = tgd::ParseTgdSet(&symbols,
                               "S(x, x) -> S(z, z).\n"
                               "S(x, y) -> Seen(x).\n");
  if (!tgds.ok()) return;
  auto ucq = termination::BuildTerminationUcq(&symbols, *tgds);
  if (!ucq.ok()) return;

  for (bool diagonal : {false, true}) {
    for (std::uint64_t size : {1000u, 10000u, 100000u}) {
      core::Database db;
      for (std::uint64_t i = 0; i + 1 < size; ++i) {
        (void)db.AddFact(&symbols, "S",
                         {"u" + std::to_string(i),
                          "u" + std::to_string(i + 1)});
      }
      if (diagonal) {
        (void)db.AddFact(&symbols, "S", {"uX", "uX"});
      } else {
        (void)db.AddFact(&symbols, "S", {"uX", "uY"});
      }

      bench::Stopwatch ucq_timer;
      bool satisfied = query::Satisfies(db, *ucq);
      double ucq_s = ucq_timer.Seconds();

      bench::Stopwatch wa_timer;
      auto syntactic = termination::DecideLinear(&symbols, *tgds, db);
      double wa_s = wa_timer.Seconds();
      if (!syntactic.ok()) continue;

      table.AddRow({std::to_string(size) + (diagonal ? "+diag" : ""),
                    bench::FormatSeconds(ucq_s),
                    bench::FormatSeconds(wa_s),
                    satisfied ? "does-not-terminate" : "terminates"});
    }
  }
  bench::PrintTable(table);
}

}  // namespace
}  // namespace nuchase

int main() {
  nuchase::bench::PrintHeader(
      "E7 bench_l_decider (Theorem 7.7)",
      "ChTrm(L): PSPACE-complete combined, AC0 data; naive chase is "
      "2EXPTIME-ish in the arity");
  nuchase::CombinedComplexity();
  nuchase::DataComplexity();
  return 0;
}
