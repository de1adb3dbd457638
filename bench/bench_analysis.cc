// P8 — static analysis: runtime and rung coverage of the acyclicity
// ladder (WA → JA → MFA) plus the lint diagnostics engine. The
// showcase programs pin one certification per rung — including the
// strict-containment witnesses (JA-not-WA, MFA-not-JA) — and the
// seeded random families track ladder cost across the SL/L/G/general
// generator. Clock-free columns are the gates
// tools/check_bench_regression enforces on every machine, never
// skipped: each rung must certify at least one row (`rung` coverage),
// the MFA short-circuit must engage (`mfa_ran` = no whenever a cheaper
// rung certified), no row may ever report does-not-terminate (the
// ladder is sufficient-only), and the lint showcase must keep raising
// warnings — an analysis engine silently going quiet is invisible to
// wall-clock numbers.
#include <string>

#include "analysis/diagnostics.h"
#include "bench/bench_util.h"
#include "termination/ladder.h"
#include "termination/naive_decider.h"
#include "tgd/parser.h"
#include "workload/random_tgds.h"

namespace nuchase {
namespace {

// Rung wa: full TGDs (datalog transitive closure) are trivially weakly
// acyclic — the cheapest rung certifies and MFA never runs.
constexpr char kWaShowcase[] =
    "E(a, b). E(b, c).\n"
    "E(x, y) -> T(x, y).\n"
    "E(x, y), T(y, z) -> T(x, z).\n";

// Rung ja: examples/programs/ja_ladder.tgd — D feeds the special cycle
// (not WA for this D), but Move(y) never reaches the positions that
// mint y, so joint acyclicity certifies.
constexpr char kJaShowcase[] =
    "P(a). R(a, b).\n"
    "P(x) -> Q(x, y).\n"
    "Q(x, y), R(y, w) -> P(y).\n";

// Rung mfa: examples/programs/mfa_ladder.tgd — JA rejects (the
// existential feeds its own movement set), but the critical-instance
// chase closes at depth 2, so MFA certifies.
constexpr char kMfaShowcase[] =
    "B(a). D(a, b).\n"
    "B(x) -> R(x, y).\n"
    "R(x, y), B(y), D(x, w) -> C(x).\n"
    "C(x), R(x, y) -> B(y).\n";

// No rung certifies the one-rule loop: the ladder must stay honest and
// answer unknown (it can never claim does-not-terminate).
constexpr char kDiverging[] =
    "R(a, b).\n"
    "R(x, y) -> R(y, z).\n";

// examples/programs/lint_showcase.tgd: raises every parsed-program
// diagnostic (6 warnings, 3 infos) — the row the lint gate pins.
constexpr char kLintShowcase[] =
    "Start(a). Orphan(b). Other(c). P(d). Q(d).\n"
    "Start(x) -> Log(y).\n"
    "Ghost(x) -> Start(x).\n"
    "Start(x), Other(w) -> Pair(x, w).\n"
    "Start(x) -> Log(y).\n"
    "P(x) -> E(x, y).\n"
    "Q(x) -> E(x, z).\n";

struct Program {
  core::SymbolTable symbols;
  tgd::TgdSet tgds;
  core::Database database;
};

Program Parse(const std::string& text) {
  Program p;
  auto parsed = tgd::ParseProgram(&p.symbols, text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "bench_analysis: %s\n",
                 parsed.status().ToString().c_str());
    std::exit(1);
  }
  p.tgds = std::move(parsed->tgds);
  p.database = std::move(parsed->database);
  return p;
}

void AddLadderRow(util::Table* table, const std::string& name,
                  const std::string& seed, const Program& p) {
  bench::Stopwatch timer;
  termination::LadderResult r =
      termination::RunLadder(p.symbols, p.tgds, p.database);
  const double seconds = timer.Seconds();
  table->AddRow({name, seed, std::to_string(p.tgds.size()),
                 bench::FormatSeconds(seconds),
                 r.wa.weakly_acyclic ? "yes" : "no",
                 r.ja.jointly_acyclic ? "yes" : "no",
                 r.mfa_ran ? "yes" : "no",
                 r.rung.empty() ? "-" : r.rung,
                 std::string(termination::DecisionName(r.verdict))});
}

void AddLintRow(util::Table* table, const std::string& name,
                const Program& p) {
  bench::Stopwatch timer;
  std::vector<analysis::Diagnostic> findings =
      analysis::LintProgram(p.tgds, p.database, p.symbols);
  const double seconds = timer.Seconds();
  std::size_t warnings = 0;
  std::size_t infos = 0;
  for (const analysis::Diagnostic& d : findings) {
    if (d.severity == analysis::Severity::kWarning) ++warnings;
    if (d.severity == analysis::Severity::kInfo) ++infos;
  }
  table->AddRow({name, std::to_string(p.tgds.size()),
                 bench::FormatSeconds(seconds),
                 std::to_string(findings.size()),
                 std::to_string(warnings), std::to_string(infos)});
}

void Run() {
  bench::PrintHeader(
      "P8 bench_analysis (acyclicity ladder & lint diagnostics)",
      "the WA -> JA -> MFA ladder certifies strictly more general-TGD "
      "programs at each rung while short-circuiting the chase-backed "
      "MFA rung whenever a near-free rung suffices, and the lint "
      "diagnostics engine stays cheap next to any chase");

  util::Table ladder("acyclicity ladder",
                     {"workload", "seed", "rules", "ladder(s)", "wa",
                      "ja", "mfa_ran", "rung", "outcome"});
  {
    Program p = Parse(kWaShowcase);
    AddLadderRow(&ladder, "showcase-wa", "-", p);
  }
  {
    Program p = Parse(kJaShowcase);
    AddLadderRow(&ladder, "showcase-ja", "-", p);
  }
  {
    Program p = Parse(kMfaShowcase);
    AddLadderRow(&ladder, "showcase-mfa", "-", p);
  }
  {
    Program p = Parse(kDiverging);
    AddLadderRow(&ladder, "showcase-diverging", "-", p);
  }
  const struct {
    const char* name;
    tgd::TgdClass target;
  } families[] = {
      {"random-sl", tgd::TgdClass::kSimpleLinear},
      {"random-linear", tgd::TgdClass::kLinear},
      {"random-guarded", tgd::TgdClass::kGuarded},
      {"random-general", tgd::TgdClass::kGeneral},
  };
  for (const auto& family : families) {
    for (std::uint32_t seed = 1; seed <= 4; ++seed) {
      Program p;
      workload::RandomTgdOptions options;
      options.seed = seed;
      options.target = family.target;
      workload::Workload w =
          workload::MakeRandomWorkload(&p.symbols, options);
      p.tgds = std::move(w.tgds);
      p.database = std::move(w.database);
      AddLadderRow(&ladder, family.name, std::to_string(seed), p);
    }
  }
  bench::PrintTable(ladder);

  util::Table lint("lint diagnostics",
                   {"workload", "rules", "lint(s)", "findings",
                    "warnings", "infos"});
  {
    Program p = Parse(kLintShowcase);
    AddLintRow(&lint, "lint-showcase", p);
  }
  {
    Program p = Parse(kWaShowcase);
    AddLintRow(&lint, "showcase-wa", p);
  }
  {
    Program p = Parse(kJaShowcase);
    AddLintRow(&lint, "showcase-ja", p);
  }
  {
    Program p = Parse(kMfaShowcase);
    AddLintRow(&lint, "showcase-mfa", p);
  }
  bench::PrintTable(lint);
}

}  // namespace
}  // namespace nuchase

int main() {
  nuchase::Run();
  return 0;
}
