// Differential safety net for the semi-naive trigger engine: the
// delta-seeded engine and the full-scan baseline must produce
// byte-identical instances for every chase variant, on seeded random
// workloads and on hand-picked programs that stress the restricted
// variant's order sensitivity. Plus accounting tests for the new
// ChaseStats counters.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "chase/chase.h"
#include "core/symbol_table.h"
#include "core/term.h"
#include "tgd/classify.h"
#include "tgd/parser.h"
#include "workload/depth_family.h"
#include "workload/random_tgds.h"

namespace nuchase {
namespace {

struct DiffParams {
  std::uint32_t seed;
  tgd::TgdClass clazz;
};

std::string ParamName(const ::testing::TestParamInfo<DiffParams>& info) {
  return std::string(tgd::TgdClassName(info.param.clazz)) + "_seed" +
         std::to_string(info.param.seed);
}

std::vector<DiffParams> MakeSweep(tgd::TgdClass clazz,
                                  std::uint32_t count) {
  std::vector<DiffParams> out;
  for (std::uint32_t seed = 1; seed <= count; ++seed) {
    out.push_back({seed, clazz});
  }
  return out;
}

constexpr chase::ChaseVariant kVariants[] = {
    chase::ChaseVariant::kSemiOblivious,
    chase::ChaseVariant::kOblivious,
    chase::ChaseVariant::kRestricted,
};

/// Runs one (variant, use_delta, num_threads, use_reliances) cell on a
/// fresh parse/generation of the same workload, so null naming cannot leak
/// between cells through the symbol table.
struct CellResult {
  chase::ChaseResult result;
  std::string sorted;
};

class DeltaDiffRandomTest : public ::testing::TestWithParam<DiffParams> {
 protected:
  CellResult RunCell(chase::ChaseVariant variant, bool use_delta,
                     std::uint32_t num_threads = 1,
                     bool use_reliances = true) {
    core::SymbolTable symbols;
    workload::RandomTgdOptions options;
    options.seed = GetParam().seed;
    options.target = GetParam().clazz;
    options.name_tag = GetParam().seed;
    workload::Workload w = workload::MakeRandomWorkload(&symbols, options);
    chase::ChaseOptions copt;
    copt.variant = variant;
    // Small enough that the quadratic full-scan baseline stays fast on
    // diverging workloads; both engines apply the identical canonical
    // firing sequence, so the comparison is exact at any cutoff.
    copt.max_atoms = 4000;
    copt.use_delta = use_delta;
    copt.num_threads = num_threads;
    copt.use_reliances = use_reliances;
    CellResult cell;
    cell.result = chase::RunChase(&symbols, w.tgds, w.database, copt);
    cell.sorted = cell.result.instance.ToSortedString(symbols);
    return cell;
  }
};

/// The ablation cells {delta, full-scan} must agree cell-for-cell with
/// the reference cell for every variant: same outcome, same sorted
/// instance, same triggers fired.
TEST_P(DeltaDiffRandomTest, AllAblationCellsAgree) {
  for (chase::ChaseVariant variant : kVariants) {
    CellResult reference = RunCell(variant, /*use_delta=*/true);
    for (bool use_delta : {true, false}) {
      CellResult cell = RunCell(variant, use_delta);
      std::string label = std::string(chase::ChaseVariantName(variant)) +
                          " delta=" + (use_delta ? "on" : "off");
      EXPECT_EQ(cell.result.outcome, reference.result.outcome) << label;
      EXPECT_EQ(cell.sorted, reference.sorted) << label;
      EXPECT_EQ(cell.result.stats.triggers_fired,
                reference.result.stats.triggers_fired)
          << label;
      // The storage counters depend only on the materialized atom set,
      // never on the engine that produced it.
      EXPECT_EQ(cell.result.stats.arena_bytes,
                reference.result.stats.arena_bytes)
          << label;
      EXPECT_EQ(cell.result.stats.peak_atoms,
                reference.result.stats.peak_atoms)
          << label;
    }
  }
}

/// The parallel trigger engine must be invisible in the output: for
/// every variant, N workers sharding each round's delta produce the
/// byte-identical instance and the identical deterministic counters
/// (triggers, join probes, storage bytes) as the sequential engine.
/// Thread counts cover an even shard, an odd one (uneven chunking), and
/// more workers than most rounds have seeds.
TEST_P(DeltaDiffRandomTest, ParallelThreadsAreByteIdentical) {
  for (chase::ChaseVariant variant : kVariants) {
    CellResult reference = RunCell(variant, /*use_delta=*/true);
    for (std::uint32_t num_threads : {2u, 3u, 8u}) {
      CellResult cell = RunCell(variant, /*use_delta=*/true, num_threads);
      std::string label = std::string(chase::ChaseVariantName(variant)) +
                          " threads=" + std::to_string(num_threads);
      EXPECT_EQ(cell.result.outcome, reference.result.outcome) << label;
      EXPECT_EQ(cell.sorted, reference.sorted) << label;
      EXPECT_EQ(cell.result.stats.triggers_fired,
                reference.result.stats.triggers_fired)
          << label;
      EXPECT_EQ(cell.result.stats.triggers_satisfied,
                reference.result.stats.triggers_satisfied)
          << label;
      EXPECT_EQ(cell.result.stats.join_probes,
                reference.result.stats.join_probes)
          << label;
      EXPECT_EQ(cell.result.stats.delta_atoms_scanned,
                reference.result.stats.delta_atoms_scanned)
          << label;
      EXPECT_EQ(cell.result.stats.rounds, reference.result.stats.rounds)
          << label;
      EXPECT_EQ(cell.result.stats.arena_bytes,
                reference.result.stats.arena_bytes)
          << label;
      EXPECT_EQ(cell.result.stats.peak_atoms,
                reference.result.stats.peak_atoms)
          << label;
      // Engagement telemetry (outside the identity contract): the
      // sequential reference must never report parallel apply batches,
      // and a multi-threaded run that applied at least one trigger must
      // have taken the parallel apply path — byte-identity alone cannot
      // catch a silent fallback to the serial code.
      EXPECT_EQ(reference.result.stats.parallel_apply_batches, 0u)
          << label;
      EXPECT_EQ(reference.result.stats.parallel_commit_batches, 0u)
          << label;
      if (cell.result.stats.triggers_fired +
              cell.result.stats.triggers_satisfied >
          0) {
        EXPECT_GT(cell.result.stats.parallel_apply_batches, 0u) << label;
      }
      // Per-predicate segment commits ride the batch-insert path, which
      // only the semi-oblivious and oblivious variants take (the
      // restricted variant inserts serially between head re-checks).
      if (variant == chase::ChaseVariant::kRestricted) {
        EXPECT_EQ(cell.result.stats.parallel_commit_batches, 0u) << label;
      } else if (cell.result.stats.triggers_fired > 0) {
        EXPECT_GT(cell.result.stats.parallel_commit_batches, 0u) << label;
      }
    }
  }
}

/// The reliance-driven cross-rule scheduler must be invisible in the
/// output: reliances {on, off} × threads {1, 2, 8} all reproduce the
/// sequential no-reliances reference — byte-identical instance and
/// identical deterministic counters (including join_probes and
/// delta_atoms_scanned, the two a mis-scheduled group collect would
/// skew first) — for every variant. cross_rule_parallel_rounds is
/// engagement telemetry: it must stay 0 whenever the scheduler is off
/// or the run is sequential.
TEST_P(DeltaDiffRandomTest, RelianceSchedulingIsParallelInvariant) {
  for (chase::ChaseVariant variant : kVariants) {
    CellResult reference = RunCell(variant, /*use_delta=*/true,
                                   /*num_threads=*/1,
                                   /*use_reliances=*/false);
    for (bool use_reliances : {true, false}) {
      for (std::uint32_t num_threads : {1u, 2u, 8u}) {
        CellResult cell = RunCell(variant, /*use_delta=*/true, num_threads,
                                  use_reliances);
        std::string label =
            std::string(chase::ChaseVariantName(variant)) +
            " reliances=" + (use_reliances ? "on" : "off") +
            " threads=" + std::to_string(num_threads);
        EXPECT_EQ(cell.result.outcome, reference.result.outcome) << label;
        EXPECT_EQ(cell.sorted, reference.sorted) << label;
        EXPECT_EQ(cell.result.stats.triggers_fired,
                  reference.result.stats.triggers_fired)
            << label;
        EXPECT_EQ(cell.result.stats.triggers_satisfied,
                  reference.result.stats.triggers_satisfied)
            << label;
        EXPECT_EQ(cell.result.stats.join_probes,
                  reference.result.stats.join_probes)
            << label;
        EXPECT_EQ(cell.result.stats.delta_atoms_scanned,
                  reference.result.stats.delta_atoms_scanned)
            << label;
        EXPECT_EQ(cell.result.stats.rounds, reference.result.stats.rounds)
            << label;
        EXPECT_EQ(cell.result.stats.arena_bytes,
                  reference.result.stats.arena_bytes)
            << label;
        EXPECT_EQ(cell.result.stats.peak_atoms,
                  reference.result.stats.peak_atoms)
            << label;
        // reliance_groups is Σ metadata (never workload-dependent);
        // cross-rule rounds require the scheduler AND a worker pool.
        if (!use_reliances) {
          EXPECT_EQ(cell.result.stats.reliance_groups, 0u) << label;
        } else {
          EXPECT_GT(cell.result.stats.reliance_groups, 0u) << label;
        }
        if (!use_reliances || num_threads == 1) {
          EXPECT_EQ(cell.result.stats.cross_rule_parallel_rounds, 0u)
              << label;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SimpleLinear, DeltaDiffRandomTest,
    ::testing::ValuesIn(MakeSweep(tgd::TgdClass::kSimpleLinear, 10)),
    ParamName);
INSTANTIATE_TEST_SUITE_P(
    Linear, DeltaDiffRandomTest,
    ::testing::ValuesIn(MakeSweep(tgd::TgdClass::kLinear, 10)),
    ParamName);
INSTANTIATE_TEST_SUITE_P(
    Guarded, DeltaDiffRandomTest,
    ::testing::ValuesIn(MakeSweep(tgd::TgdClass::kGuarded, 10)),
    ParamName);

chase::ChaseResult RunProgram(const char* text,
                              chase::ChaseVariant variant, bool use_delta,
                              std::string* sorted) {
  core::SymbolTable symbols;
  auto p = tgd::ParseProgram(&symbols, text);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  chase::ChaseOptions copt;
  copt.variant = variant;
  copt.max_atoms = 2000;
  copt.use_delta = use_delta;
  chase::ChaseResult r =
      chase::RunChase(&symbols, p->tgds, p->database, copt);
  *sorted = r.instance.ToSortedString(symbols);
  return r;
}

/// The restricted chase is order-sensitive: a sibling rule can satisfy
/// another rule's head before it fires. Both engines must pick the same
/// canonical firing order.
TEST(DeltaDiffDirectedTest, RestrictedOrderSensitiveProgramsAgree) {
  const char* programs[] = {
      // The witness race from the paper's hierarchy examples.
      "R(a, b). R(x, y) -> R(y, y). R(x, y) -> R(y, z).",
      // Witnesses partially present in D.
      "Emp(e1, d1). Emp(e2, d1). Mgr(d1, m1).\n"
      "Emp(e, d) -> Mgr(d, m). Mgr(d, m) -> Emp(m, d).",
      // Multi-atom bodies joining old and new atoms.
      "G(a, b). H(b).\n"
      "G(x, y), H(y) -> K(x, y, z).\n"
      "K(x, y, z) -> H(z), L(z, x).",
  };
  for (const char* text : programs) {
    for (chase::ChaseVariant variant : kVariants) {
      std::string on, off;
      chase::ChaseResult r_on = RunProgram(text, variant, true, &on);
      chase::ChaseResult r_off = RunProgram(text, variant, false, &off);
      EXPECT_EQ(r_on.outcome, r_off.outcome) << text;
      EXPECT_EQ(on, off) << text;
      EXPECT_EQ(r_on.stats.triggers_fired, r_off.stats.triggers_fired)
          << text;
      EXPECT_EQ(r_on.stats.triggers_satisfied,
                r_off.stats.triggers_satisfied)
          << text;
    }
  }
}

/// Cross-worker duplicate collapse: on the wide depth family every
/// trigger is discoverable through `noise` homomorphisms whose seeds
/// may land in different workers' shards; the canonical merge must
/// collapse them exactly as the sequential `fired` set does, for all
/// three variants (the oblivious one diverges on this family, so the
/// atom budget cuts it — the canonical firing sequence makes the
/// comparison exact at any cutoff).
TEST(DeltaDiffDirectedTest, WideDepthFamilyParallelAgrees) {
  for (chase::ChaseVariant variant : kVariants) {
    CellResult cells[2];
    const std::uint32_t threads[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
      core::SymbolTable symbols;
      workload::Workload w = workload::MakeWideDepthFamily(
          &symbols, /*layers=*/6, /*width=*/4, /*payloads=*/3,
          /*noise=*/5);
      chase::ChaseOptions copt;
      copt.variant = variant;
      copt.max_atoms = 3000;
      copt.num_threads = threads[i];
      cells[i].result = chase::RunChase(&symbols, w.tgds, w.database,
                                        copt);
      cells[i].sorted = cells[i].result.instance.ToSortedString(symbols);
    }
    std::string label = chase::ChaseVariantName(variant);
    EXPECT_EQ(cells[0].result.outcome, cells[1].result.outcome) << label;
    EXPECT_EQ(cells[0].sorted, cells[1].sorted) << label;
    EXPECT_EQ(cells[0].result.stats.triggers_fired,
              cells[1].result.stats.triggers_fired)
        << label;
    EXPECT_EQ(cells[0].result.stats.join_probes,
              cells[1].result.stats.join_probes)
        << label;
  }
}

/// The apply phase parallelizes even for run shapes the collect phase
/// refuses (here: the full-scan baseline, use_delta = false). Such runs
/// must report zero parallel_rounds but a nonzero parallel apply count,
/// and stay byte-identical to the sequential engine — the apply stages
/// are the only pooled work they do.
TEST(DeltaDiffDirectedTest, ApplyOnlyParallelIsByteIdentical) {
  for (chase::ChaseVariant variant : kVariants) {
    CellResult reference;
    {
      core::SymbolTable symbols;
      workload::Workload w = workload::MakeWideDepthFamily(
          &symbols, /*layers=*/6, /*width=*/4, /*payloads=*/3,
          /*noise=*/5);
      chase::ChaseOptions copt;
      copt.variant = variant;
      copt.max_atoms = 3000;
      copt.use_delta = false;
      copt.num_threads = 1;
      reference.result = chase::RunChase(&symbols, w.tgds, w.database,
                                         copt);
      reference.sorted = reference.result.instance.ToSortedString(symbols);
    }
    ASSERT_GT(reference.result.stats.triggers_fired, 0u);
    for (std::uint32_t num_threads : {2u, 3u, 8u}) {
      core::SymbolTable symbols;
      workload::Workload w = workload::MakeWideDepthFamily(
          &symbols, /*layers=*/6, /*width=*/4, /*payloads=*/3,
          /*noise=*/5);
      chase::ChaseOptions copt;
      copt.variant = variant;
      copt.max_atoms = 3000;
      copt.use_delta = false;
      copt.num_threads = num_threads;
      chase::ChaseResult r = chase::RunChase(&symbols, w.tgds, w.database,
                                             copt);
      std::string label = std::string(chase::ChaseVariantName(variant)) +
                          " threads=" + std::to_string(num_threads);
      EXPECT_EQ(r.outcome, reference.result.outcome) << label;
      EXPECT_EQ(r.instance.ToSortedString(symbols), reference.sorted)
          << label;
      EXPECT_EQ(r.stats.triggers_fired,
                reference.result.stats.triggers_fired)
          << label;
      EXPECT_EQ(r.stats.triggers_satisfied,
                reference.result.stats.triggers_satisfied)
          << label;
      EXPECT_EQ(r.stats.join_probes, reference.result.stats.join_probes)
          << label;
      EXPECT_EQ(r.stats.arena_bytes, reference.result.stats.arena_bytes)
          << label;
      // Collect stays sequential without the delta engine; only the
      // apply stages ran on the pool.
      EXPECT_EQ(r.stats.parallel_rounds, 0u) << label;
      EXPECT_GT(r.stats.parallel_apply_batches, 0u) << label;
      // Same split for the per-predicate segment commits: pooled for
      // the batch-inserting variants, structurally absent (not merely
      // unpooled) for the restricted one.
      if (variant == chase::ChaseVariant::kRestricted) {
        EXPECT_EQ(r.stats.parallel_commit_batches, 0u) << label;
      } else {
        EXPECT_GT(r.stats.parallel_commit_batches, 0u) << label;
      }
    }
    EXPECT_EQ(reference.result.stats.parallel_rounds, 0u);
    EXPECT_EQ(reference.result.stats.parallel_apply_batches, 0u);
    EXPECT_EQ(reference.result.stats.parallel_commit_batches, 0u);
  }
}

/// Independent recursive rule families (disjoint predicates, so the
/// whole Σ is one collect group) are the shape the cross-rule scheduler
/// exists for: a multi-threaded run must take the group-collect path in
/// every multi-seed round (cross_rule_parallel_rounds engagement — byte
/// identity alone cannot catch a silent fallback to rule-at-a-time),
/// while staying byte- and counter-identical to the sequential and the
/// reliances-off runs.
TEST(DeltaDiffDirectedTest, IndependentFamiliesEngageCrossRuleCollect) {
  const char* text =
      "A(a1, a2). A(a2, a3). A(a3, a4). A(a4, a5). MA(a1).\n"
      "B(b1, b2). B(b2, b3). B(b3, b4). B(b4, b5). MB(b1).\n"
      "C(c1, c2). C(c2, c3). C(c3, c4). C(c4, c5). MC(c1).\n"
      "A(x, y), MA(x) -> MA(y).\n"
      "B(x, y), MB(x) -> MB(y).\n"
      "C(x, y), MC(x) -> MC(y).";
  for (chase::ChaseVariant variant : kVariants) {
    chase::ChaseResult reference;
    std::string reference_sorted;
    struct Cell {
      std::uint32_t num_threads;
      bool use_reliances;
    };
    const Cell cells[] = {
        {1, false}, {1, true}, {2, true}, {8, true}, {4, false}};
    for (const Cell& c : cells) {
      core::SymbolTable symbols;
      auto p = tgd::ParseProgram(&symbols, text);
      ASSERT_TRUE(p.ok()) << p.status().ToString();
      chase::ChaseOptions copt;
      copt.variant = variant;
      copt.num_threads = c.num_threads;
      copt.use_reliances = c.use_reliances;
      chase::ChaseResult r =
          chase::RunChase(&symbols, p->tgds, p->database, copt);
      std::string label = std::string(chase::ChaseVariantName(variant)) +
                          " threads=" + std::to_string(c.num_threads) +
                          " reliances=" + (c.use_reliances ? "on" : "off");
      EXPECT_EQ(r.outcome, chase::ChaseOutcome::kTerminated) << label;
      std::string sorted = r.instance.ToSortedString(symbols);
      if (c.num_threads == 1 && !c.use_reliances) {
        reference = std::move(r);
        reference_sorted = std::move(sorted);
        continue;
      }
      EXPECT_EQ(sorted, reference_sorted) << label;
      EXPECT_EQ(r.stats.triggers_fired, reference.stats.triggers_fired)
          << label;
      EXPECT_EQ(r.stats.triggers_satisfied,
                reference.stats.triggers_satisfied)
          << label;
      EXPECT_EQ(r.stats.join_probes, reference.stats.join_probes)
          << label;
      EXPECT_EQ(r.stats.delta_atoms_scanned,
                reference.stats.delta_atoms_scanned)
          << label;
      EXPECT_EQ(r.stats.rounds, reference.stats.rounds) << label;
      EXPECT_EQ(r.stats.arena_bytes, reference.stats.arena_bytes)
          << label;
      if (c.use_reliances) {
        // Disjoint families: one group spanning all three rules.
        EXPECT_EQ(r.stats.reliance_groups, 1u) << label;
        if (c.num_threads > 1) {
          EXPECT_GT(r.stats.cross_rule_parallel_rounds, 0u) << label;
        } else {
          EXPECT_EQ(r.stats.cross_rule_parallel_rounds, 0u) << label;
        }
      } else {
        EXPECT_EQ(r.stats.reliance_groups, 0u) << label;
        EXPECT_EQ(r.stats.cross_rule_parallel_rounds, 0u) << label;
      }
    }
  }
}

/// Null-id exhaustion must surface as a clean kResourceExhausted through
/// the staged apply path at every thread count: same outcome, same
/// deterministic counters, and the same (untorn) instance prefix as the
/// sequential engine, with earlier triggers of the failing batch
/// committed and nothing after the failure point. The overlay's
/// assumed-base-nulls budget trips the 2^30 Term-index cap after three
/// allocations instead of a billion.
TEST(DeltaDiffDirectedTest, ResourceExhaustionIsThreadCountInvariant) {
  // Six facts, one single-round rule allocating one null per firing: the
  // fourth binding in the batch exhausts a budget of three.
  const char* text =
      "R(a1, b1). R(a2, b2). R(a3, b3). R(a4, b4). R(a5, b5). "
      "R(a6, b6).\n"
      "R(x, y) -> S(y, z).";
  constexpr std::uint32_t kNullBudget = 3;
  for (chase::ChaseVariant variant : kVariants) {
    chase::ChaseResult reference;
    std::string reference_sorted;
    for (std::uint32_t num_threads : {1u, 2u, 8u}) {
      core::SymbolTable symbols;
      auto p = tgd::ParseProgram(&symbols, text);
      ASSERT_TRUE(p.ok()) << p.status().ToString();
      core::SymbolOverlay overlay(
          symbols, core::Term::kIndexMask + 1 - kNullBudget);
      chase::ChaseOptions copt;
      copt.variant = variant;
      copt.num_threads = num_threads;
      chase::ChaseResult r =
          chase::RunChase(&overlay, p->tgds, p->database, copt);
      std::string label = std::string(chase::ChaseVariantName(variant)) +
                          " threads=" + std::to_string(num_threads);
      EXPECT_EQ(r.outcome, chase::ChaseOutcome::kResourceExhausted)
          << label;
      // Exactly the three in-budget nulls were interned and committed:
      // the instance holds the six facts plus one S atom per successful
      // binding, whatever the thread count.
      EXPECT_EQ(overlay.num_nulls() -
                    (core::Term::kIndexMask + 1 - kNullBudget),
                kNullBudget)
          << label;
      EXPECT_EQ(r.instance.size(), 6u + kNullBudget) << label;
      std::string sorted = r.instance.ToSortedString(overlay);
      if (num_threads == 1) {
        reference = std::move(r);
        reference_sorted = std::move(sorted);
        continue;
      }
      EXPECT_EQ(sorted, reference_sorted) << label;
      EXPECT_EQ(r.stats.triggers_fired, reference.stats.triggers_fired)
          << label;
      EXPECT_EQ(r.stats.triggers_satisfied,
                reference.stats.triggers_satisfied)
          << label;
      EXPECT_EQ(r.stats.arena_bytes, reference.stats.arena_bytes)
          << label;
      EXPECT_EQ(r.stats.peak_atoms, reference.stats.peak_atoms) << label;
    }
  }
}

/// triggers_satisfied counts restricted-only skips: the other variants
/// never check head satisfaction.
TEST(ChaseStatsTest, TriggersSatisfiedIsRestrictedOnly) {
  // The database already holds every witness, so the restricted chase
  // skips while the others fire.
  const char* text =
      "Emp(e1, d1). Mgr(d1, m1).\n"
      "Emp(e, d) -> Mgr(d, m).";
  for (chase::ChaseVariant variant : kVariants) {
    std::string sorted;
    chase::ChaseResult r = RunProgram(text, variant, true, &sorted);
    if (variant == chase::ChaseVariant::kRestricted) {
      EXPECT_GT(r.stats.triggers_satisfied, 0u);
      EXPECT_EQ(r.stats.triggers_fired, 0u);
    } else {
      EXPECT_EQ(r.stats.triggers_satisfied, 0u);
      EXPECT_GT(r.stats.triggers_fired, 0u);
    }
  }
}

/// delta_atoms_scanned is a semi-naive-engine counter: it must stay 0
/// on the full-scan path, while join_probes counts in both engines (the
/// quantity the ablation bench compares) and drops with delta on.
TEST(ChaseStatsTest, DeltaCountersZeroWhenDeltaDisabled) {
  const char* text =
      "E(v0, v1). E(v1, v2). E(v2, v3). E(v3, v4).\n"
      "E(x, y) -> T(x, y).\n"
      "E(x, y), T(y, z) -> T(x, z).";
  std::string sorted;
  chase::ChaseResult off = RunProgram(
      text, chase::ChaseVariant::kSemiOblivious, false, &sorted);
  EXPECT_EQ(off.stats.delta_atoms_scanned, 0u);
  EXPECT_GT(off.stats.join_probes, 0u);

  chase::ChaseResult on = RunProgram(
      text, chase::ChaseVariant::kSemiOblivious, true, &sorted);
  EXPECT_GT(on.stats.delta_atoms_scanned, 0u);
  EXPECT_GT(on.stats.join_probes, 0u);
  EXPECT_LE(on.stats.join_probes, off.stats.join_probes);
}

}  // namespace
}  // namespace nuchase
