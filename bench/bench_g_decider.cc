// E10 — Theorem 8.5: ChTrm(G) is 2EXPTIME-complete in general,
// EXPTIME-complete for bounded arity, and PTIME-complete in data
// complexity. The decider constructs gsimple(D) and gsimple(Σ) and runs
// the (NL ⊆ PTIME) ChTrm(SL) procedure on them. The tables contrast it
// with the naive chase-based decider: on growing databases with a fixed
// ontology both are polynomial, but the syntactic decider never
// materializes the chase; on ontologies whose chase explodes, the
// syntactic decider answers while the naive one times out.
#include "bench/bench_util.h"
#include "termination/naive_decider.h"
#include "termination/syntactic_decider.h"
#include "tgd/parser.h"
#include "workload/lower_bounds.h"

namespace nuchase {
namespace {

// Fixed guarded ontology for the data-complexity sweep. The Track cycle
// is only supported when some fact reaches the Track predicate.
const char* kOntology =
    "Emp(e, d), Dept(d) -> Mgr(d, m).\n"
    "Mgr(d, m) -> Emp(m, d).\n"
    "Emp(e, d) -> Dept(d).\n"
    "Track(x, y) -> Track(y, z).\n";

void DataComplexity() {
  util::Table table(
      "data complexity: fixed guarded Sigma, growing D",
      {"|D|", "poisoned", "gsimple(s)", "types", "naive(s)", "decision",
       "agree"});

  for (bool poisoned : {false, true}) {
    for (std::uint64_t size : {10u, 100u, 1000u}) {
      core::SymbolTable symbols;
      auto tgds = tgd::ParseTgdSet(&symbols, kOntology);
      if (!tgds.ok()) return;
      core::Database db;
      for (std::uint64_t i = 0; i < size; ++i) {
        (void)db.AddFact(&symbols, "Emp",
                         {"e" + std::to_string(i),
                          "d" + std::to_string(i % 7)});
      }
      if (poisoned) {
        (void)db.AddFact(&symbols, "Track", {"e0", "e1"});
      }

      bench::Stopwatch syn_timer;
      auto syn = termination::DecideGuarded(&symbols, *tgds, db);
      double syn_s = syn_timer.Seconds();
      if (!syn.ok()) continue;

      chase::ChaseOptions capped;
      capped.max_atoms = 500'000;
      bench::Stopwatch naive_timer;
      termination::NaiveDecision naive =
          termination::DecideByChase(&symbols, *tgds, db, capped);
      double naive_s = naive_timer.Seconds();

      // The naive decider cannot certify guarded non-termination: f_G
      // overflows any usable budget, so it reports kUnknown after its
      // hard cap — exactly the gap Theorem 8.5's procedure closes.
      std::string agree =
          naive.decision == termination::Decision::kUnknown
              ? "n/a (naive budget)"
              : (naive.decision == syn->decision ? "yes" : "NO");
      table.AddRow({std::to_string(size), poisoned ? "yes" : "no",
                    bench::FormatSeconds(syn_s),
                    std::to_string(syn->lin_types),
                    bench::FormatSeconds(naive_s),
                    termination::DecisionName(syn->decision), agree});
    }
  }
  bench::PrintTable(table);
}

void CombinedComplexity() {
  util::Table table(
      "combined complexity: Theorem 8.4 family (chase is huge; the "
      "decider must not build it)",
      {"ell,n,m", "gsimple(s)", "types", "|gsimple(Sigma)|", "decision",
       "naive(s)", "naive decision"});
  struct P {
    std::uint64_t ell;
    std::uint32_t n, m;
  };
  for (const P& p : {P{1, 1, 1}, P{4, 1, 1}}) {
    core::SymbolTable symbols;
    workload::Workload w =
        workload::MakeGuardedLowerBound(&symbols, p.ell, p.n, p.m);

    bench::Stopwatch syn_timer;
    rewrite::LinearizeOptions options;
    options.max_types = 100'000;
    auto syn = termination::DecideGuarded(&symbols, w.tgds, w.database,
                                          options);
    double syn_s = syn_timer.Seconds();

    chase::ChaseOptions capped;
    capped.max_atoms = 500'000;
    bench::Stopwatch naive_timer;
    termination::NaiveDecision naive = termination::DecideByChase(
        &symbols, w.tgds, w.database, capped);
    double naive_s = naive_timer.Seconds();

    table.AddRow(
        {std::to_string(p.ell) + "," + std::to_string(p.n) + "," +
             std::to_string(p.m),
         bench::FormatSeconds(syn_s),
         syn.ok() ? std::to_string(syn->lin_types) : "-",
         syn.ok() ? std::to_string(syn->simple_tgds) : "-",
         syn.ok() ? termination::DecisionName(syn->decision)
                  : syn.status().ToString(),
         bench::FormatSeconds(naive_s),
         termination::DecisionName(naive.decision)});
  }
  bench::PrintTable(table);
}

}  // namespace
}  // namespace nuchase

int main() {
  nuchase::bench::PrintHeader(
      "E10 bench_g_decider (Theorem 8.5)",
      "ChTrm(G): 2EXPTIME-complete combined, PTIME-complete data; "
      "decided via gsimple(.) + ChTrm(SL)");
  nuchase::DataComplexity();
  nuchase::CombinedComplexity();
  return 0;
}
