// P7 — reliance-driven cross-rule scheduling: wall-clock and schedule
// metadata for the collect-group walk on independent recursive rule
// families. The workload is F disjoint copies of a layered
// reachability family (per family f: layer graph C_f plus the recursive
// rule C_f(x,y), M_f(x) -> M_f(y)); no rule's head feeds another rule's
// body, so the whole Σ is one collect group. Both cells (reliances on
// and off) materialize the byte-identical instance with identical
// deterministic counters (join_probes, arena_bytes); only seconds and
// `reliance_groups` (a pure function of Σ: > 0 with the scheduler on,
// 0 ablated, gated by tools/check_bench_regression) differ. A third,
// duplicate-heavy workload (dense transitive closure) stresses the
// run-scoped fired set instead: most candidate triggers it discovers
// are repeats, so the (rule, frontier) dedup table dominates the
// collect phase.
#include <string>

#include "bench/bench_util.h"
#include "chase/chase.h"
#include "tgd/parser.h"

namespace nuchase {
namespace {

/// F disjoint layered families: nodes nf_<l>_<i>, complete bipartite
/// C_f edges between consecutive layers, the full first layer marked.
std::string MakeFamilies(int families, int layers, int width) {
  std::string text;
  for (int f = 0; f < families; ++f) {
    std::string cf = "C" + std::to_string(f);
    std::string mf = "M" + std::to_string(f);
    for (int l = 0; l + 1 < layers; ++l) {
      for (int i = 0; i < width; ++i) {
        for (int j = 0; j < width; ++j) {
          text += cf + "(n" + std::to_string(f) + "_" +
                  std::to_string(l) + "_" + std::to_string(i) + ", n" +
                  std::to_string(f) + "_" + std::to_string(l + 1) + "_" +
                  std::to_string(j) + ").\n";
        }
      }
    }
    for (int i = 0; i < width; ++i) {
      text += mf + "(n" + std::to_string(f) + "_0_" + std::to_string(i) +
              ").\n";
    }
    text += cf + "(x, y), " + mf + "(x) -> " + mf + "(y).\n";
  }
  return text;
}

/// F disjoint dense transitive closures: per family f, a DAG E_f over
/// `nodes` vertices with an edge to each of the next `window` vertices,
/// feeding a copy rule and a two-atom recursive closure rule:
///   E_f(x, y) -> T_f(x, y).
///   T_f(x, y), T_f(y, z) -> T_f(x, z).
/// Every derived pair (x, z) is rediscovered through every midpoint y
/// between x and z — and from both body positions of the closure rule —
/// so the collect phase floods the run-scoped fired set with duplicate
/// (rule, frontier) candidates. This is the workload where the flat
/// epoch-tagged fired table (vs. the former node-per-key sharded sets)
/// is the hot structure.
std::string MakeDenseClosures(int families, int nodes, int window) {
  std::string text;
  for (int f = 0; f < families; ++f) {
    std::string ef = "E" + std::to_string(f);
    std::string tf = "T" + std::to_string(f);
    for (int i = 0; i < nodes; ++i) {
      for (int j = i + 1; j <= i + window && j < nodes; ++j) {
        text += ef + "(v" + std::to_string(f) + "_" + std::to_string(i) +
                ", v" + std::to_string(f) + "_" + std::to_string(j) +
                ").\n";
      }
    }
    text += ef + "(x, y) -> " + tf + "(x, y).\n";
    text += tf + "(x, y), " + tf + "(y, z) -> " + tf + "(x, z).\n";
  }
  return text;
}

struct Measurement {
  double seconds = 0;
  std::string sorted;
  chase::ChaseStats stats;
  std::uint64_t atoms = 0;
};

Measurement RunCell(const std::string& text, bool use_reliances) {
  core::SymbolTable symbols;
  auto p = tgd::ParseProgram(&symbols, text);
  if (!p.ok()) {
    std::fprintf(stderr, "bench_rule_groups: %s\n",
                 p.status().ToString().c_str());
    std::exit(1);
  }
  chase::ChaseOptions options;
  options.use_reliances = use_reliances;
  bench::Stopwatch timer;
  chase::ChaseResult r =
      chase::RunChase(&symbols, p->tgds, p->database, options);
  Measurement m;
  m.seconds = timer.Seconds();
  m.sorted = r.instance.ToSortedString(symbols);
  m.stats = r.stats;
  m.atoms = r.instance.size();
  return m;
}

void Run() {
  bench::PrintHeader(
      "P7 bench_rule_groups (cross-rule collect scheduling)",
      "walking Σ as reliance collect groups keeps the instance and "
      "every deterministic counter byte-identical to the rule-at-a-time "
      "schedule");

  util::Table table(
      "rule groups",
      {"workload", "reliances", "chase(s)", "speedup", "join_probes",
       "atoms", "arena_bytes", "reliance_groups", "same result"});
  const struct {
    const char* name;
    std::string text;
  } workloads[] = {
      // Wide rounds: every round carries families x width M-seeds.
      {"independent-families-wide", MakeFamilies(4, 48, 12)},
      // Narrow rounds: one seed per family per round.
      {"independent-families-narrow", MakeFamilies(6, 256, 1)},
      // Duplicate-heavy rounds: dense transitive closure rediscovers
      // every derived pair once per midpoint, so trigger dedup — the
      // run-scoped fired set — takes the bulk of the collect traffic.
      {"duplicate-heavy-closure", MakeDenseClosures(2, 72, 6)},
  };
  for (const auto& w : workloads) {
    const std::string& text = w.text;
    Measurement reference;
    for (bool use_reliances : {false, true}) {
      Measurement m = RunCell(text, use_reliances);
      if (!use_reliances) reference = m;
      char speedup[32];
      std::snprintf(speedup, sizeof(speedup), "%.2f",
                    m.seconds > 0 ? reference.seconds / m.seconds : 0.0);
      table.AddRow(
          {w.name, use_reliances ? "on" : "off",
           bench::FormatSeconds(m.seconds), speedup,
           std::to_string(m.stats.join_probes), std::to_string(m.atoms),
           std::to_string(m.stats.arena_bytes),
           std::to_string(m.stats.reliance_groups),
           m.sorted == reference.sorted &&
                   m.stats.join_probes == reference.stats.join_probes &&
                   m.stats.delta_atoms_scanned ==
                       reference.stats.delta_atoms_scanned
               ? "yes"
               : "NO"});
    }
  }
  bench::PrintTable(table);
}

}  // namespace
}  // namespace nuchase

int main() {
  nuchase::Run();
  return 0;
}
