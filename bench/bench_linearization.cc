// E9 — Proposition 8.1: linearization preserves the finiteness of the
// chase and the maximal term depth:
//   Σ ∈ CT_D  iff  lin(Σ) ∈ CT_lin(D), and
//   maxdepth(D, Σ) = maxdepth(lin(D), lin(Σ)).
// The table chases both sides of the equivalence on guarded workloads
// and also reports the size of the reachable lin(Σ) fragment (Σ-types).
// A second table times Linearize alone on University at doubling |D|:
// for a fixed Σ the work (ms per fact, oracle atoms scanned per fact)
// should stay flat.
#include <cstdio>

#include "bench/bench_util.h"
#include "chase/chase.h"
#include "rewrite/linearize.h"
#include "tgd/parser.h"
#include "workload/lower_bounds.h"
#include "workload/random_tgds.h"
#include "workload/university.h"

namespace nuchase {
namespace {

void AddRow(util::Table* table, const std::string& label,
            core::SymbolTable* symbols, const workload::Workload& w) {
  rewrite::LinearizeOptions lin_options;
  auto lin = rewrite::Linearize(w.database, w.tgds, symbols, lin_options);
  if (!lin.ok()) {
    table->AddRow({label, std::to_string(w.tgds.size()), "-", "-", "-",
                   "-", "-", "-", "skipped: " + lin.status().ToString()});
    return;
  }

  chase::ChaseOptions options;
  options.max_atoms = 200000;
  chase::ChaseResult original =
      chase::RunChase(symbols, w.tgds, w.database, options);
  chase::ChaseResult linearized =
      chase::RunChase(symbols, lin->tgds, lin->database, options);

  bool fin_match = original.Terminated() == linearized.Terminated();
  bool depth_match =
      !original.Terminated() ||
      original.stats.max_depth == linearized.stats.max_depth;
  table->AddRow({label, std::to_string(w.tgds.size()),
                 std::to_string(lin->num_types),
                 std::to_string(lin->tgds.size()),
                 original.Terminated() ? "finite" : "infinite",
                 linearized.Terminated() ? "finite" : "infinite",
                 std::to_string(original.stats.max_depth),
                 std::to_string(linearized.stats.max_depth),
                 fin_match && depth_match ? "yes" : "NO"});
}

std::string Fixed(double value, const char* format) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

/// Linearize on University, 2 departments x (5 profs, `students`, 8
/// courses): best of three wall times plus the oracle's counters.
void AddScalingRow(util::Table* table, std::uint32_t students) {
  double best_ms = -1;
  std::size_t facts = 0;
  rewrite::Linearized last;
  for (int rep = 0; rep < 3; ++rep) {
    core::SymbolTable symbols;
    workload::UniversityOptions options;
    options.departments = 2;
    options.professors_per_department = 5;
    options.students_per_department = students;
    options.courses_per_department = 8;
    workload::Workload w =
        workload::MakeUniversityWorkload(&symbols, options);
    facts = w.database.size();
    bench::Stopwatch watch;
    auto lin = rewrite::Linearize(w.database, w.tgds, &symbols,
                                  rewrite::LinearizeOptions{});
    const double ms = watch.Seconds() * 1e3;
    if (!lin.ok()) {
      table->AddRow({std::to_string(facts), "-", "-", "-", "-", "-", "-",
                     "-", "failed: " + lin.status().ToString()});
      return;
    }
    if (best_ms < 0 || ms < best_ms) best_ms = ms;
    last = std::move(*lin);
  }
  const saturation::TypeOracle::Stats& stats = last.oracle_stats;
  const auto per_fact = [facts](double value) {
    return value / static_cast<double>(facts);
  };
  table->AddRow(
      {std::to_string(facts), std::to_string(last.num_types),
       Fixed(best_ms, "%.2f"), Fixed(per_fact(best_ms), "%.4f"),
       std::to_string(stats.passes), std::to_string(stats.child_evals),
       std::to_string(stats.child_evals_skipped),
       std::to_string(stats.atoms_scanned),
       Fixed(per_fact(static_cast<double>(stats.atoms_scanned)), "%.1f")});
}

void Run() {
  bench::PrintHeader(
      "E9 bench_linearization (Proposition 8.1)",
      "lin(.) preserves chase finiteness and maxdepth for guarded TGDs");

  util::Table table("linearization preservation",
                    {"workload", "|Sigma|", "types", "|lin(Sigma)|",
                     "chase", "chase(lin)", "maxdepth", "maxdepth(lin)",
                     "preserved"});

  // Hand-written guarded pairs: one terminating, one not.
  {
    core::SymbolTable symbols;
    auto p = tgd::ParseProgram(&symbols,
                               "G(a, b). H(b).\n"
                               "G(x, y), H(y) -> K(x, y, z).\n"
                               "K(x, y, z) -> H(z).\n");
    if (p.ok()) {
      AddRow(&table, "guarded-finite", &symbols,
             {"guarded-finite", p->tgds, p->database});
    }
  }
  {
    core::SymbolTable symbols;
    auto p = tgd::ParseProgram(&symbols,
                               "G(a, b). H(b).\n"
                               "G(x, y), H(y) -> K(x, y, z).\n"
                               "K(x, y, z) -> G(y, z), H(z).\n");
    if (p.ok()) {
      AddRow(&table, "guarded-infinite", &symbols,
             {"guarded-infinite", p->tgds, p->database});
    }
  }
  // The Theorem 8.4 counter (small slice: the lin fragment explodes fast).
  {
    core::SymbolTable symbols;
    workload::Workload w =
        workload::MakeGuardedLowerBound(&symbols, 1, 1, 1);
    AddRow(&table, "thm8.4(1,1,1)", &symbols, w);
  }
  // Random guarded workloads.
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    core::SymbolTable symbols;
    workload::RandomTgdOptions options;
    options.seed = seed;
    options.target = tgd::TgdClass::kGuarded;
    workload::Workload w = workload::MakeRandomWorkload(&symbols, options);
    AddRow(&table, "random-g-" + std::to_string(seed), &symbols, w);
  }
  bench::PrintTable(table);

  util::Table scaling("linearize scaling (University, 2 departments)",
                      {"|D|", "types", "linearize ms", "ms/fact", "passes",
                       "child evals", "skipped", "atoms scanned",
                       "scanned/fact"});
  for (std::uint32_t students : {50u, 100u, 200u, 400u, 800u}) {
    AddScalingRow(&scaling, students);
  }
  bench::PrintTable(scaling);
}

}  // namespace
}  // namespace nuchase

int main() {
  nuchase::Run();
  return 0;
}
