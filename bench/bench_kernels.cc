// K1 (microbench) — the chase's substrate kernels in isolation, on the
// University input 8 x (20 profs, 400 students, 30 courses), the
// materialize-guarded workload of perfbench: one sequential chase end to
// end, then each kernel that chase spends its time in, run alone over
// the materialized instance:
//
//   enumerate         every seeded join of every rule's compiled plan
//                     (HomomorphismFinder::RunSeeded), from every atom
//                     of its seed predicate;
//   fired-set insert  the dedup keys of those matches into a reset
//   fired-set contains FlatFiredSet, then probed again;
//   position lookup   Instance::AtomsWithTermAt for every (atom, pos);
//   InsertTuple loop  the whole instance re-inserted, in index order,
//                     into a fresh one.
//
// join_probes and arena_bytes are deterministic: the regression gate
// (tools/check_bench_regression) holds them to the committed baseline.
// Times are the median of 5 repetitions.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "chase/chase.h"
#include "chase/fired_set.h"
#include "chase/trigger.h"
#include "core/instance.h"
#include "workload/university.h"

namespace nuchase {
namespace {

constexpr int kReps = 5;

template <typename F>
double MedianSeconds(F&& f) {
  std::vector<double> seconds;
  for (int rep = 0; rep < kReps; ++rep) {
    bench::Stopwatch timer;
    f();
    seconds.push_back(timer.Seconds());
  }
  std::sort(seconds.begin(), seconds.end());
  return seconds[kReps / 2];
}

std::string NsPerItem(double seconds, std::uint64_t items) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f",
                items == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(items));
  return buf;
}

void Run() {
  bench::PrintHeader(
      "K1 bench_kernels",
      "the join kernel, fired set, position index and tuple insert that "
      "the guarded materialization runs on, measured one at a time");

  core::SymbolTable symbols;
  workload::UniversityOptions options;
  options.departments = 8;
  options.professors_per_department = 20;
  options.students_per_department = 400;
  options.courses_per_department = 30;
  const workload::Workload w =
      workload::MakeUniversityWorkload(&symbols, options);
  const chase::JoinPlanSet plans = chase::PlanJoins(w.tgds);
  chase::ChaseOptions chase_options;
  chase_options.plans = &plans;

  util::Table table("kernels on University 8x(20,400,30)",
                    {"kernel", "items", "time(s)", "ns/item",
                     "join_probes", "arena_bytes", "same result"});
  auto add = [&](const std::string& kernel, std::uint64_t items,
                 double seconds, const std::string& probes,
                 const std::string& bytes, bool same) {
    table.AddRow({kernel, std::to_string(items),
                  bench::FormatSeconds(seconds), NsPerItem(seconds, items),
                  probes, bytes, same ? "yes" : "NO"});
  };

  // The end-to-end reference: one sequential chase (fresh overlay per
  // repetition, so every run allocates the same nulls).
  chase::ChaseResult result;
  const double chase_s = MedianSeconds([&] {
    core::SymbolOverlay overlay(symbols);
    result = chase::RunChase(&overlay, w.tgds, w.database, chase_options);
  });
  const core::Instance& inst = result.instance;
  add("chase threads=1", inst.size(), chase_s,
      std::to_string(result.stats.join_probes),
      std::to_string(result.stats.arena_bytes), result.Terminated());

  // Enumerate: every seeded join of the compiled plans over the final
  // instance (no old restriction: old_limit = |I|). The matches' dedup
  // keys (rule, frontier images) are kept for the fired-set rows.
  std::vector<std::uint32_t> keys;
  std::vector<std::size_t> key_offsets;
  std::uint64_t probes = 0;
  std::uint64_t matches = 0;
  chase::HomomorphismFinder finder(inst);
  finder.set_probe_counter(&probes);
  auto enumerate_all = [&](bool keep_keys) {
    for (tgd::RuleIndex ti = 0; ti < plans.size(); ++ti) {
      const chase::JoinPlan& plan = plans[ti];
      for (std::size_t p = 0; p < plan.seeded.size(); ++p) {
        const chase::SlotConjunction& q = plan.seeded[p];
        for (core::AtomIndex a :
             inst.AtomsWithPredicate(q.atoms[0].predicate)) {
          finder.Begin(q);
          finder.RunSeeded(a, static_cast<core::AtomIndex>(inst.size()),
                           [&](const core::Term* h) {
                             ++matches;
                             if (keep_keys) {
                               key_offsets.push_back(keys.size());
                               keys.push_back(ti);
                               for (std::uint32_t s : plan.frontier_slots) {
                                 keys.push_back(h[s].bits());
                               }
                             }
                             return true;
                           });
        }
      }
    }
  };
  enumerate_all(/*keep_keys=*/true);
  key_offsets.push_back(keys.size());
  const std::uint64_t enumerate_probes = probes;
  const std::uint64_t enumerate_matches = matches;
  const double enumerate_s = MedianSeconds([&] {
    probes = 0;
    matches = 0;
    enumerate_all(/*keep_keys=*/false);
  });
  add("enumerate", enumerate_matches, enumerate_s,
      std::to_string(enumerate_probes), "-",
      probes == enumerate_probes && matches == enumerate_matches);

  // Fired set: insert every match key into a reset set, then probe.
  const std::size_t num_keys = key_offsets.size() - 1;
  auto key = [&](std::size_t i) {
    return chase::KeySpan(keys.data() + key_offsets[i],
                          key_offsets[i + 1] - key_offsets[i]);
  };
  chase::FlatFiredSet fired;
  std::size_t fresh = 0;
  const double insert_s = MedianSeconds([&] {
    fired.Reset();
    fresh = 0;
    for (std::size_t i = 0; i < num_keys; ++i) {
      if (fired.Insert(key(i))) ++fresh;
    }
  });
  add("fired-set insert", num_keys, insert_s, "-", "-",
      fresh == fired.size());
  std::size_t present = 0;
  const double contains_s = MedianSeconds([&] {
    present = 0;
    for (std::size_t i = 0; i < num_keys; ++i) {
      if (fired.Contains(key(i))) ++present;
    }
  });
  add("fired-set contains", num_keys, contains_s, "-", "-",
      present == num_keys);

  // Position index: one lookup per (atom, position); every atom must
  // find itself in its own lists.
  std::uint64_t lookups = 0;
  std::uint64_t listed = 0;
  const double lookup_s = MedianSeconds([&] {
    lookups = 0;
    listed = 0;
    for (core::AtomIndex i = 0; i < inst.size(); ++i) {
      const core::AtomView atom = inst.atom(i);
      for (std::uint32_t pos = 0; pos < atom.arity(); ++pos) {
        listed += inst.AtomsWithTermAt(atom.predicate(), pos, atom.arg(pos))
                      .size();
        ++lookups;
      }
    }
  });
  add("position lookup", lookups, lookup_s, "-", "-", listed >= lookups);

  // Insert: the whole instance, in index order, into a fresh one.
  core::Instance rebuilt;
  const double reinsert_s = MedianSeconds([&] {
    rebuilt = core::Instance();
    for (core::AtomIndex i = 0; i < inst.size(); ++i) {
      const core::AtomView atom = inst.atom(i);
      rebuilt.InsertTuple(atom.predicate(), atom.terms());
    }
  });
  add("InsertTuple loop", inst.size(), reinsert_s, "-",
      std::to_string(rebuilt.arena_bytes()),
      rebuilt.size() == inst.size() &&
          rebuilt.arena_bytes() == inst.arena_bytes());

  bench::PrintTable(table);
}

}  // namespace
}  // namespace nuchase

int main() {
  nuchase::Run();
  return 0;
}
