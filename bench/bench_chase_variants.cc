// A1 (ablation) — the three chase flavours the introduction contrasts
// (via [6, 21]): the restricted chase materializes the least, the
// semi-oblivious chase is the paper's object of study, and the oblivious
// chase brackets it from above. The table reports materialized sizes and
// times on workloads where all three terminate, and a second table shows
// the strict termination hierarchy CT_obl ⊆ CT_so ⊆ CT_res on pairs
// that separate the levels.
#include "bench/bench_util.h"
#include "chase/chase.h"
#include "nuchase/nuchase.h"
#include "tgd/parser.h"
#include "workload/random_tgds.h"

namespace nuchase {
namespace {

chase::ChaseResult RunVariant(core::SymbolTable* symbols,
                              const tgd::TgdSet& tgds,
                              const core::Database& db,
                              chase::ChaseVariant variant,
                              std::uint64_t max_atoms) {
  chase::ChaseOptions options;
  options.variant = variant;
  options.max_atoms = max_atoms;
  return chase::RunChase(symbols, tgds, db, options);
}

void Sizes() {
  util::Table table(
      "materialized size and time per variant (same (D, Sigma))",
      {"workload", "|D|", "restricted", "semi-oblivious", "oblivious",
       "res(s)", "so(s)", "obl(s)"});

  // An Emp/Mgr ontology whose database already contains most witnesses:
  // the restricted chase barely fires, the oblivious one re-invents a
  // manager per employee.
  for (std::uint64_t size : {100u, 1000u, 10000u}) {
    core::SymbolTable symbols;
    auto tgds = tgd::ParseTgdSet(
        &symbols,
        "Emp(e, d) -> Dept(d). Emp(e, d) -> Mgr(d, m). "
        "Mgr(d, m) -> Emp(m, d).");
    if (!tgds.ok()) return;
    core::Database db;
    for (std::uint64_t i = 0; i < size; ++i) {
      (void)db.AddFact(&symbols, "Emp",
                       {"e" + std::to_string(i),
                        "d" + std::to_string(i % 10)});
      if (i % 10 == 0) {
        (void)db.AddFact(&symbols, "Mgr",
                         {"d" + std::to_string(i % 10),
                          "boss" + std::to_string(i % 10)});
      }
    }
    // Note the oblivious chase genuinely DIVERGES here: Mgr(d,m) →
    // Emp(m,d) keeps producing fresh homomorphisms for Emp(e,d) →
    // ∃m Mgr(d,m), whose oblivious null is keyed by e as well. The
    // semi-oblivious key (just d) closes the loop — the exact point of
    // Definition 3.1.
    std::string cells[3];
    double secs[3];
    chase::ChaseVariant variants[3] = {chase::ChaseVariant::kRestricted,
                                       chase::ChaseVariant::kSemiOblivious,
                                       chase::ChaseVariant::kOblivious};
    for (int i = 0; i < 3; ++i) {
      bench::Stopwatch timer;
      chase::ChaseResult r =
          RunVariant(&symbols, *tgds, db, variants[i], 500'000);
      secs[i] = timer.Seconds();
      cells[i] = r.Terminated() ? std::to_string(r.instance.size())
                                : "infinite";
    }
    table.AddRow({"emp-mgr", std::to_string(db.size()), cells[0],
                  cells[1], cells[2], bench::FormatSeconds(secs[0]),
                  bench::FormatSeconds(secs[1]),
                  bench::FormatSeconds(secs[2])});
  }

  // Random guarded workloads where all three terminate.
  for (std::uint32_t seed = 1; seed <= 10; ++seed) {
    core::SymbolTable symbols;
    workload::RandomTgdOptions options;
    options.seed = seed;
    options.target = tgd::TgdClass::kGuarded;
    workload::Workload w = workload::MakeRandomWorkload(&symbols, options);
    std::uint64_t sizes[3];
    double secs[3];
    chase::ChaseVariant variants[3] = {chase::ChaseVariant::kRestricted,
                                       chase::ChaseVariant::kSemiOblivious,
                                       chase::ChaseVariant::kOblivious};
    bool all_finite = true;
    for (int i = 0; i < 3; ++i) {
      bench::Stopwatch timer;
      chase::ChaseResult r =
          RunVariant(&symbols, w.tgds, w.database, variants[i], 200000);
      secs[i] = timer.Seconds();
      if (!r.Terminated()) all_finite = false;
      sizes[i] = r.instance.size();
    }
    if (!all_finite) continue;
    table.AddRow({"random-g-" + std::to_string(seed),
                  std::to_string(w.database.size()),
                  std::to_string(sizes[0]), std::to_string(sizes[1]),
                  std::to_string(sizes[2]), bench::FormatSeconds(secs[0]),
                  bench::FormatSeconds(secs[1]),
                  bench::FormatSeconds(secs[2])});
  }
  bench::PrintTable(table);
}

void Hierarchy() {
  util::Table table(
      "termination hierarchy CT_obl <= CT_so <= CT_res (strict)",
      {"pair", "oblivious", "semi-oblivious", "restricted"});

  struct Case {
    const char* label;
    const char* program;
  };
  const Case cases[] = {
      // fr(σ) = ∅: oblivious loops through the null, semi-oblivious
      // reuses ⊥^z_{σ,∅} and stops.
      {"P(x)->Q(z); Q(y)->P(w)",
       "P(a). P(x) -> Q(z). Q(y) -> P(w)."},
      // Witness provided by a sibling rule: only restricted stops.
      {"R(x,y)->R(y,y); R(x,y)->R(y,z)",
       "R(a, b). R(x, y) -> R(y, y). R(x, y) -> R(y, z)."},
      // Plain non-termination: all three loop.
      {"R(x,y)->R(y,z)", "R(a, b). R(x, y) -> R(y, z)."},
      // Plain termination: all three stop.
      {"A(x,y)->B(y,z)", "A(a, b). A(x, y) -> B(y, z)."},
  };
  for (const Case& c : cases) {
    core::SymbolTable symbols;
    auto p = tgd::ParseProgram(&symbols, c.program);
    if (!p.ok()) continue;
    std::string cells[3];
    chase::ChaseVariant variants[3] = {chase::ChaseVariant::kOblivious,
                                       chase::ChaseVariant::kSemiOblivious,
                                       chase::ChaseVariant::kRestricted};
    for (int i = 0; i < 3; ++i) {
      chase::ChaseResult r =
          RunVariant(&symbols, p->tgds, p->database, variants[i], 20000);
      cells[i] = r.Terminated()
                     ? "finite(" + std::to_string(r.instance.size()) + ")"
                     : "infinite";
    }
    table.AddRow({c.label, cells[0], cells[1], cells[2]});
  }
  bench::PrintTable(table);
}

/// The facade's parse-once / run-many split, measured: N chases of the
/// same program, either re-parsing (and re-classifying, re-planning) the
/// text for every run — the pre-facade CLI pattern — or parsing one
/// api::Program and running N cheap sessions against it. The chase
/// itself is identical, so the gap is pure front-half overhead.
void ProgramReuse() {
  util::Table table(
      "program reuse: re-parse per run vs parse-once + N sessions",
      {"workload", "|D|", "runs", "reparse(s)", "reuse(s)", "speedup",
       "same result"});

  struct Workload {
    const char* label;
    std::uint64_t facts;
  };
  for (const Workload& w : {Workload{"emp-mgr", 200},
                            Workload{"emp-mgr", 2000}}) {
    // The program text is re-built once; only parsing is measured.
    std::string text =
        "Emp(e, d) -> Dept(d). Emp(e, d) -> Mgr(d, m). "
        "Mgr(d, m) -> Emp(m, d).\n";
    for (std::uint64_t i = 0; i < w.facts; ++i) {
      text += "Emp(e" + std::to_string(i) + ", d" +
              std::to_string(i % 10) + ").\n";
    }
    const int kRuns = 25;

    // Arm A: the pre-facade pattern — parse, classify and join-plan the
    // text again for every single run.
    bench::Stopwatch reparse_timer;
    std::string reparse_sorted;
    bool reparse_ok = true;
    for (int i = 0; i < kRuns; ++i) {
      auto program = api::Program::Parse(text);
      if (!program.ok()) {
        reparse_ok = false;
        break;
      }
      auto run = api::Session(*program).Chase();
      if (!run.ok() || !run->Terminated()) {
        reparse_ok = false;
        break;
      }
      reparse_sorted = run->ToSortedString();
    }
    double reparse_seconds = reparse_timer.Seconds();

    // Arm B: parse once, then N sessions over the frozen artifact.
    bench::Stopwatch reuse_timer;
    std::string reuse_sorted;
    bool reuse_ok = true;
    auto program = api::Program::Parse(text);
    if (!program.ok()) {
      reuse_ok = false;
    } else {
      for (int i = 0; i < kRuns; ++i) {
        auto run = api::Session(*program).Chase();
        if (!run.ok() || !run->Terminated()) {
          reuse_ok = false;
          break;
        }
        reuse_sorted = run->ToSortedString();
      }
    }
    double reuse_seconds = reuse_timer.Seconds();

    if (!reparse_ok || !reuse_ok) {
      table.AddRow({w.label, std::to_string(w.facts),
                    std::to_string(kRuns), "error", "error", "-", "NO"});
      continue;
    }
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx",
                  reuse_seconds > 0 ? reparse_seconds / reuse_seconds
                                    : 0.0);
    table.AddRow({w.label, std::to_string(w.facts), std::to_string(kRuns),
                  bench::FormatSeconds(reparse_seconds),
                  bench::FormatSeconds(reuse_seconds), speedup,
                  reparse_sorted == reuse_sorted ? "yes" : "NO"});
  }
  bench::PrintTable(table);
}

}  // namespace
}  // namespace nuchase

int main() {
  nuchase::bench::PrintHeader(
      "A1 bench_chase_variants (ablation; cf. [6, 21] in Section 1)",
      "restricted <= semi-oblivious <= oblivious, in both materialized "
      "size and termination");
  nuchase::Sizes();
  nuchase::Hierarchy();
  nuchase::ProgramReuse();
  return 0;
}
