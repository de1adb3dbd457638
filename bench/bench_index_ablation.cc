// A2 (ablation) — the semi-naive delta engine of the trigger search
// (each round joins only through the previous round's delta, seeded via
// the per-predicate delta index with a join order planned from the
// delta atom) against the full-scan baseline. Both cells materialize
// byte-identical instances; only join_probes and seconds differ. The
// delta engine is the order-of-magnitude fix on recursive workloads
// (datalog-tc, the Proposition 4.5 depth family), where the full scan
// re-derives every round's matches from the whole instance.
#include <string>

#include "bench/bench_util.h"
#include "chase/chase.h"
#include "tgd/parser.h"
#include "workload/depth_family.h"

namespace nuchase {
namespace {

/// Builds a fresh (symbols, Σ, D) for every cell — null names are
/// interned in the symbol table, so sharing one table across runs would
/// make byte-identical comparison impossible by construction.
struct Setup {
  core::SymbolTable symbols;
  tgd::TgdSet tgds;
  core::Database db;
};

template <typename MakeSetup>
void RunMatrix(const char* label, const MakeSetup& make_setup,
               util::Table* table) {
  std::string reference;
  double delta_s = 0;
  for (bool use_delta : {true, false}) {
    Setup setup;
    make_setup(&setup);
    chase::ChaseOptions options;
    options.max_atoms = 5'000'000;
    options.use_delta = use_delta;
    bench::Stopwatch timer;
    chase::ChaseResult r =
        chase::RunChase(&setup.symbols, setup.tgds, setup.db, options);
    double seconds = timer.Seconds();

    std::string sorted = r.instance.ToSortedString(setup.symbols);
    if (use_delta) {
      reference = sorted;
      delta_s = seconds;
    }
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.1fx",
                  delta_s > 0 ? seconds / delta_s : 0.0);
    table->AddRow(
        {label, std::to_string(setup.db.size()),
         std::to_string(r.instance.size()),
         use_delta ? "on" : "off",
         bench::FormatSeconds(seconds),
         std::to_string(r.stats.join_probes),
         std::to_string(r.stats.delta_atoms_scanned),
         std::to_string(r.stats.arena_bytes), speedup,
         sorted == reference ? "yes" : "NO"});
  }
}

void Run() {
  bench::PrintHeader(
      "A2 bench_index_ablation",
      "delta (semi-naive) vs full-scan ablation; "
      "byte-identical output, different cost");

  util::Table table("delta ablation",
                    {"workload", "|D|", "atoms", "delta", "time(s)",
                     "join_probes", "delta_seeds", "arena_bytes",
                     "vs delta", "same result"});

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
      // The full-scan cell of datalog-tc is quadratic in rounds; cap
      // the input so the matrix stays minutes-free.
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
      RunMatrix(s.label, make_setup, &table);
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
    RunMatrix(("depth-family-n" + std::to_string(n)).c_str(), make_setup,
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
