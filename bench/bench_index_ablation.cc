// A2 — the work of the semi-naive trigger search (each round joins
// only through the previous round's delta, seeded from the delta atoms
// of each body position with a join order planned from the seed) on a
// join-heavy guarded rule and on recursive workloads (datalog-tc, the
// Proposition 4.5 depth family). join_probes, delta_seeds and
// arena_bytes are deterministic; tools/check_bench_regression gates on
// the first and the last.
#include <string>

#include "bench/bench_util.h"
#include "chase/chase.h"
#include "tgd/parser.h"
#include "workload/depth_family.h"

namespace nuchase {
namespace {

/// A fresh (symbols, Σ, D) per cell: null names are interned in the
/// symbol table, so no cell sees another's nulls.
struct Setup {
  core::SymbolTable symbols;
  tgd::TgdSet tgds;
  core::Database db;
};

template <typename MakeSetup>
void RunCell(const char* label, const MakeSetup& make_setup,
             util::Table* table) {
  Setup setup;
  make_setup(&setup);
  chase::ChaseOptions options;
  options.max_atoms = 5'000'000;
  bench::Stopwatch timer;
  chase::ChaseResult r =
      chase::RunChase(&setup.symbols, setup.tgds, setup.db, options);
  double seconds = timer.Seconds();
  table->AddRow({label, std::to_string(setup.db.size()),
                 std::to_string(r.instance.size()),
                 bench::FormatSeconds(seconds),
                 std::to_string(r.stats.join_probes),
                 std::to_string(r.stats.delta_atoms_scanned),
                 std::to_string(r.stats.arena_bytes)});
}

void Run() {
  bench::PrintHeader("A2 bench_index_ablation",
                     "semi-naive trigger search: join work and storage");

  util::Table table("delta engine",
                    {"workload", "|D|", "atoms", "time(s)", "join_probes",
                     "delta_seeds", "arena_bytes"});

  struct Scenario {
    const char* label;
    const char* rules;
  };
  const Scenario scenarios[] = {
      // Join-heavy guarded rule: Emp ⋈ Dept on d.
      {"emp-dept-join",
       "Emp(e, d), Dept(d) -> Mgr(d, m). Mgr(d, m) -> Dept(d)."},
      // Transitive closure: T grows, every round re-joins E ⋈ T.
      {"datalog-tc", "E(x, y) -> T(x, y). E(x, y), T(y, z) -> T(x, z)."},
  };

  for (const Scenario& s : scenarios) {
    for (std::uint64_t size : {100u, 400u, 1600u}) {
      // datalog-tc's result is quadratic in |D|: cap the input.
      if (std::string(s.label) == "datalog-tc" && size > 400) continue;
      auto make_setup = [&](Setup* setup) {
        auto tgds = tgd::ParseTgdSet(&setup->symbols, s.rules);
        if (!tgds.ok()) {
          std::fprintf(stderr, "bench_index_ablation: bad rules for %s: %s\n",
                       s.label, tgds.status().ToString().c_str());
          std::exit(1);
        }
        setup->tgds = *tgds;
        if (std::string(s.label) == "emp-dept-join") {
          for (std::uint64_t i = 0; i < size; ++i) {
            (void)setup->db.AddFact(&setup->symbols, "Emp",
                                    {"e" + std::to_string(i),
                                     "d" + std::to_string(i % 50)});
          }
          for (std::uint64_t d = 0; d < 50; ++d) {
            (void)setup->db.AddFact(&setup->symbols, "Dept",
                                    {"d" + std::to_string(d)});
          }
        } else {
          // A long path: recursion depth (and rounds) scale with it.
          for (std::uint64_t i = 0; i + 1 < size / 4; ++i) {
            (void)setup->db.AddFact(&setup->symbols, "E",
                                    {"v" + std::to_string(i),
                                     "v" + std::to_string(i + 1)});
          }
        }
      };
      RunCell(s.label, make_setup, &table);
    }
  }

  // The Proposition 4.5 depth family: maxdepth n-1, n rounds — the
  // deepest recursion the decider benches run, and the workload the
  // regression gate tracks.
  for (std::uint32_t n : {32u, 64u, 128u}) {
    auto make_setup = [&](Setup* setup) {
      workload::Workload w = workload::MakeDepthFamily(&setup->symbols, n);
      setup->tgds = std::move(w.tgds);
      setup->db = std::move(w.database);
    };
    RunCell(("depth-family-n" + std::to_string(n)).c_str(), make_setup,
            &table);
  }

  bench::PrintTable(table);
}

}  // namespace
}  // namespace nuchase

int main() {
  nuchase::Run();
  return 0;
}
