// Differential safety net for the semi-naive trigger engine: the
// delta-seeded engine and the full-scan baseline must produce
// byte-identical instances for every chase variant, on seeded random
// workloads and on hand-picked programs that stress the restricted
// variant's order sensitivity. Plus accounting tests for the new
// ChaseStats counters, and a check that a thread count requested
// through api::SessionOptions leaves every result unchanged.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "api/program.h"
#include "api/session.h"
#include "chase/chase.h"
#include "core/symbol_table.h"
#include "core/term.h"
#include "tgd/classify.h"
#include "tgd/parser.h"
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

/// Runs one (variant, use_delta, use_reliances) cell on a
/// fresh parse/generation of the same workload, so null naming cannot leak
/// between cells through the symbol table.
struct CellResult {
  chase::ChaseResult result;
  std::string sorted;
};

class DeltaDiffRandomTest : public ::testing::TestWithParam<DiffParams> {
 protected:
  workload::Workload MakeWorkload(core::SymbolTable* symbols) {
    workload::RandomTgdOptions options;
    options.seed = GetParam().seed;
    options.target = GetParam().clazz;
    options.name_tag = GetParam().seed;
    return workload::MakeRandomWorkload(symbols, options);
  }

  CellResult RunCell(chase::ChaseVariant variant, bool use_delta,
                     bool use_reliances = true) {
    core::SymbolTable symbols;
    workload::Workload w = MakeWorkload(&symbols);
    chase::ChaseOptions copt;
    copt.variant = variant;
    // Small enough that the quadratic full-scan baseline stays fast on
    // diverging workloads; both engines apply the identical canonical
    // firing sequence, so the comparison is exact at any cutoff.
    copt.max_atoms = 4000;
    copt.use_delta = use_delta;
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

/// The chase has one serial code path, so a thread count requested
/// through api::SessionOptions::set_num_threads must change nothing:
/// for every variant, a Session run at 0, 2 and 8 requested threads
/// reproduces the direct RunChase reference — byte-identical instance,
/// identical deterministic counters — and reports every parallel_*
/// counter as 0.
TEST_P(DeltaDiffRandomTest, ParallelThreadsAreByteIdentical) {
  core::SymbolTable symbols;
  workload::Workload w = MakeWorkload(&symbols);
  auto program = api::Program::Create(std::move(symbols), std::move(w.tgds),
                                      std::move(w.database));
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  for (chase::ChaseVariant variant : kVariants) {
    CellResult reference = RunCell(variant, /*use_delta=*/true);
    for (std::uint32_t num_threads : {0u, 2u, 8u}) {
      auto run = api::Session(*program, api::SessionOptions()
                                            .set_variant(variant)
                                            .set_max_atoms(4000)
                                            .set_num_threads(num_threads))
                     .Chase();
      std::string label = std::string(chase::ChaseVariantName(variant)) +
                          " threads=" + std::to_string(num_threads);
      ASSERT_TRUE(run.ok()) << label << ": " << run.status().ToString();
      const chase::ChaseStats& stats = run->stats();
      const chase::ChaseStats& want = reference.result.stats;
      EXPECT_EQ(run->outcome(), reference.result.outcome) << label;
      EXPECT_EQ(run->ToSortedString(), reference.sorted) << label;
      EXPECT_EQ(stats.triggers_fired, want.triggers_fired) << label;
      EXPECT_EQ(stats.triggers_satisfied, want.triggers_satisfied)
          << label;
      EXPECT_EQ(stats.join_probes, want.join_probes) << label;
      EXPECT_EQ(stats.delta_atoms_scanned, want.delta_atoms_scanned)
          << label;
      EXPECT_EQ(stats.rounds, want.rounds) << label;
      EXPECT_EQ(stats.arena_bytes, want.arena_bytes) << label;
      EXPECT_EQ(stats.peak_atoms, want.peak_atoms) << label;
      EXPECT_EQ(stats.parallel_rounds, 0u) << label;
      EXPECT_EQ(stats.parallel_apply_batches, 0u) << label;
      EXPECT_EQ(stats.parallel_commit_batches, 0u) << label;
    }
  }
}

/// The reliance-driven cross-rule schedule must be invisible in the
/// output: reliances on and off reproduce the no-reliances reference —
/// byte-identical instance and identical deterministic counters
/// (including join_probes and delta_atoms_scanned, the two a
/// mis-scheduled group walk would skew first) — for every variant. (The
/// name predates the removal of the parallel engine, whose thread
/// counts were a second axis here.)
TEST_P(DeltaDiffRandomTest, RelianceSchedulingIsParallelInvariant) {
  for (chase::ChaseVariant variant : kVariants) {
    CellResult reference = RunCell(variant, /*use_delta=*/true,
                                   /*use_reliances=*/false);
    for (bool use_reliances : {true, false}) {
      CellResult cell = RunCell(variant, /*use_delta=*/true, use_reliances);
      std::string label = std::string(chase::ChaseVariantName(variant)) +
                          " reliances=" + (use_reliances ? "on" : "off");
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
      // reliance_groups is Σ metadata (never workload-dependent).
      if (!use_reliances) {
        EXPECT_EQ(cell.result.stats.reliance_groups, 0u) << label;
      } else {
        EXPECT_GT(cell.result.stats.reliance_groups, 0u) << label;
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

/// Independent recursive rule families (disjoint predicates) form one
/// collect group spanning all three rules: with reliances on the round
/// walks that cross-rule group, and the result stays byte- and
/// counter-identical to the reliances-off, rule-at-a-time run.
TEST(DeltaDiffDirectedTest, IndependentFamiliesEngageCrossRuleCollect) {
  const char* text =
      "A(a1, a2). A(a2, a3). A(a3, a4). A(a4, a5). MA(a1).\n"
      "B(b1, b2). B(b2, b3). B(b3, b4). B(b4, b5). MB(b1).\n"
      "C(c1, c2). C(c2, c3). C(c3, c4). C(c4, c5). MC(c1).\n"
      "A(x, y), MA(x) -> MA(y).\n"
      "B(x, y), MB(x) -> MB(y).\n"
      "C(x, y), MC(x) -> MC(y).";
  for (chase::ChaseVariant variant : kVariants) {
    chase::ChaseResult runs[2];
    std::string sorted[2];
    for (bool use_reliances : {false, true}) {
      core::SymbolTable symbols;
      auto p = tgd::ParseProgram(&symbols, text);
      ASSERT_TRUE(p.ok()) << p.status().ToString();
      chase::ChaseOptions copt;
      copt.variant = variant;
      copt.use_reliances = use_reliances;
      runs[use_reliances] =
          chase::RunChase(&symbols, p->tgds, p->database, copt);
      sorted[use_reliances] = runs[use_reliances].instance.ToSortedString(
          symbols);
    }
    const std::string label = chase::ChaseVariantName(variant);
    const chase::ChaseResult& off = runs[0];
    const chase::ChaseResult& on = runs[1];
    EXPECT_EQ(on.outcome, chase::ChaseOutcome::kTerminated) << label;
    EXPECT_EQ(off.outcome, chase::ChaseOutcome::kTerminated) << label;
    EXPECT_EQ(sorted[1], sorted[0]) << label;
    EXPECT_EQ(on.stats.triggers_fired, off.stats.triggers_fired) << label;
    EXPECT_EQ(on.stats.triggers_satisfied, off.stats.triggers_satisfied)
        << label;
    EXPECT_EQ(on.stats.join_probes, off.stats.join_probes) << label;
    EXPECT_EQ(on.stats.delta_atoms_scanned, off.stats.delta_atoms_scanned)
        << label;
    EXPECT_EQ(on.stats.rounds, off.stats.rounds) << label;
    EXPECT_EQ(on.stats.arena_bytes, off.stats.arena_bytes) << label;
    // Disjoint families: one group spanning all three rules.
    EXPECT_EQ(on.stats.reliance_groups, 1u) << label;
    EXPECT_EQ(off.stats.reliance_groups, 0u) << label;
  }
}

/// Null-id exhaustion must surface as a clean kResourceExhausted: the
/// earlier triggers of the failing batch are committed and nothing after
/// the failure point. The overlay's assumed-base-nulls budget trips the
/// 2^30 Term-index cap after three allocations instead of a billion.
TEST(DeltaDiffDirectedTest, ResourceExhaustionIsThreadCountInvariant) {
  // Six facts, one single-round rule allocating one null per firing: the
  // fourth binding in the batch exhausts a budget of three.
  const char* text =
      "R(a1, b1). R(a2, b2). R(a3, b3). R(a4, b4). R(a5, b5). "
      "R(a6, b6).\n"
      "R(x, y) -> S(y, z).";
  constexpr std::uint32_t kNullBudget = 3;
  for (chase::ChaseVariant variant : kVariants) {
    core::SymbolTable symbols;
    auto p = tgd::ParseProgram(&symbols, text);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    core::SymbolOverlay overlay(
        symbols, core::Term::kIndexMask + 1 - kNullBudget);
    chase::ChaseOptions copt;
    copt.variant = variant;
    chase::ChaseResult r =
        chase::RunChase(&overlay, p->tgds, p->database, copt);
    const std::string label = chase::ChaseVariantName(variant);
    EXPECT_EQ(r.outcome, chase::ChaseOutcome::kResourceExhausted) << label;
    // Exactly the three in-budget nulls were interned and committed:
    // the instance holds the six facts plus one S atom per successful
    // binding, and the failing trigger counts as fired.
    EXPECT_EQ(overlay.num_nulls() -
                  (core::Term::kIndexMask + 1 - kNullBudget),
              kNullBudget)
        << label;
    EXPECT_EQ(r.instance.size(), 6u + kNullBudget) << label;
    EXPECT_EQ(r.stats.triggers_fired, kNullBudget + 1) << label;
    EXPECT_EQ(r.stats.peak_atoms, 6u + kNullBudget) << label;
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
