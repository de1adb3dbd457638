// Differential safety net for the chase engine: every chase::RunChase
// cell must match the brute-force reference chase of
// tests/reference_chase.h — outcome, sorted instance, null provenance
// and counters — for every chase variant, on seeded random workloads
// and on hand-picked programs that stress the restricted variant's
// order sensitivity. The semi-oblivious result must not depend on the
// order of Σ or D. Plus accounting tests for the ChaseStats counters,
// and a check that a thread count requested through
// api::SessionOptions leaves every result unchanged.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "api/program.h"
#include "api/session.h"
#include "chase/chase.h"
#include "core/symbol_table.h"
#include "core/term.h"
#include "reference_chase.h"
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

using reference::ExpectSameRun;
using reference::RenderedRun;

/// Who computes a cell: the engine or the brute-force reference.
enum class Chaser { kEngine, kReference };

RenderedRun RunOn(Chaser chaser, core::SymbolTable* symbols,
                  const tgd::TgdSet& tgds, const core::Database& db,
                  const chase::ChaseOptions& options) {
  return chaser == Chaser::kEngine
             ? reference::RenderEngineRun(symbols, tgds, db, options)
             : reference::RenderReferenceRun(symbols, tgds, db, options);
}

class DeltaDiffRandomTest : public ::testing::TestWithParam<DiffParams> {
 protected:
  workload::Workload MakeWorkload(core::SymbolTable* symbols) {
    workload::RandomTgdOptions options;
    options.seed = GetParam().seed;
    options.target = GetParam().clazz;
    options.name_tag = GetParam().seed;
    return workload::MakeRandomWorkload(symbols, options);
  }

  static chase::ChaseOptions CellOptions(chase::ChaseVariant variant,
                                         bool restraint_order) {
    chase::ChaseOptions copt;
    copt.variant = variant;
    // Small enough that the brute-force reference stays fast on
    // diverging workloads; both sides fire the identical canonical
    // sequence, so the comparison is exact at any cutoff.
    copt.max_atoms = 4000;
    copt.restraint_order = restraint_order;
    return copt;
  }

  /// One (chaser, variant, restraint_order) cell on a fresh generation
  /// of the workload, so null naming cannot leak between cells through
  /// the symbol table.
  RenderedRun RunCell(Chaser chaser, chase::ChaseVariant variant,
                      bool restraint_order = false) {
    core::SymbolTable symbols;
    workload::Workload w = MakeWorkload(&symbols);
    return RunOn(chaser, &symbols, w.tgds, w.database,
                 CellOptions(variant, restraint_order));
  }
};

/// Every variant's engine run equals the reference's: same outcome,
/// sorted instance, Skolem rendering and counters. (The name predates
/// the reference; the cells once compared the engine with an
/// in-engine full-scan mode.)
TEST_P(DeltaDiffRandomTest, AllAblationCellsAgree) {
  for (chase::ChaseVariant variant : kVariants) {
    ExpectSameRun(RunCell(Chaser::kEngine, variant),
                  RunCell(Chaser::kReference, variant),
                  chase::ChaseVariantName(variant));
  }
}

/// The chase has one serial code path, so a thread count requested
/// through api::SessionOptions::set_num_threads must change nothing:
/// for every variant, a Session run at 0, 2 and 8 requested threads
/// reproduces the direct RunChase run — byte-identical instance,
/// identical deterministic counters — and reports every parallel_*
/// counter as 0.
TEST_P(DeltaDiffRandomTest, ParallelThreadsAreByteIdentical) {
  core::SymbolTable symbols;
  workload::Workload w = MakeWorkload(&symbols);
  auto program = api::Program::Create(std::move(symbols), std::move(w.tgds),
                                      std::move(w.database));
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  for (chase::ChaseVariant variant : kVariants) {
    const RenderedRun direct = RunCell(Chaser::kEngine, variant);
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
      const chase::ChaseStats& want = direct.stats;
      EXPECT_EQ(run->outcome(), direct.outcome) << label;
      EXPECT_EQ(run->ToSortedString(), direct.sorted) << label;
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

/// Reliance scheduling drives only restraint mode (the restricted
/// variant with restraint_order), which walks Σ in graph::RestraintOrder,
/// restrainers first. The engine's restraint-mode run must equal the
/// reference's, which walks the same permutation; and restraint_order
/// must be inert for the two variants whose result does not depend on
/// firing order, down to join_probes and delta_atoms_scanned. (The name predates the removal of the
/// parallel engine, of the reliance ablation and of the full-scan
/// mode, the axes this test once swept.)
TEST_P(DeltaDiffRandomTest, RelianceSchedulingIsParallelInvariant) {
  for (chase::ChaseVariant variant : kVariants) {
    const std::string label =
        std::string(chase::ChaseVariantName(variant)) + " restraint-order";
    const RenderedRun guided =
        RunCell(Chaser::kEngine, variant, /*restraint_order=*/true);
    ExpectSameRun(guided,
                  RunCell(Chaser::kReference, variant,
                          /*restraint_order=*/true),
                  label);
    if (variant == chase::ChaseVariant::kRestricted) continue;
    const RenderedRun sigma = RunCell(Chaser::kEngine, variant);
    EXPECT_EQ(guided.outcome, sigma.outcome) << label;
    EXPECT_EQ(guided.sorted, sigma.sorted) << label;
    EXPECT_EQ(guided.stats.triggers_fired, sigma.stats.triggers_fired)
        << label;
    EXPECT_EQ(guided.stats.rounds, sigma.stats.rounds) << label;
    EXPECT_EQ(guided.stats.join_probes, sigma.stats.join_probes) << label;
    EXPECT_EQ(guided.stats.delta_atoms_scanned,
              sigma.stats.delta_atoms_scanned)
        << label;
  }
}

/// Definition 3.1 names every null by its trigger, so a terminating
/// semi-oblivious chase has one result, rendered by Skolem term, for
/// every order of Σ and of D. The engine runs a seeded permutation of
/// both (each rule still named by its original index) and must
/// reproduce the reference's rendering of the original order. Seeds
/// whose run does not terminate within the budget have no unique result
/// to compare and are skipped.
TEST_P(DeltaDiffRandomTest, SemiObliviousResultIsOrderInvariant) {
  core::SymbolTable symbols;
  const workload::Workload w = MakeWorkload(&symbols);
  const chase::ChaseOptions copt =
      CellOptions(chase::ChaseVariant::kSemiOblivious, false);
  const reference::ReferenceResult want =
      reference::RunReferenceChase(&symbols, w.tgds, w.database, copt);
  if (want.outcome != chase::ChaseOutcome::kTerminated) {
    GTEST_SKIP() << "the semi-oblivious chase does not terminate within "
                 << copt.max_atoms << " atoms";
  }

  std::mt19937 rng(GetParam().seed);
  std::vector<std::uint32_t> rule_names(w.tgds.size());
  std::iota(rule_names.begin(), rule_names.end(), 0u);
  std::shuffle(rule_names.begin(), rule_names.end(), rng);
  tgd::TgdSet permuted_tgds;
  for (std::uint32_t original : rule_names) {
    permuted_tgds.Add(w.tgds.tgd(original));
  }
  std::vector<core::Atom> facts = w.database.facts();
  std::shuffle(facts.begin(), facts.end(), rng);
  core::Database permuted_db;
  for (core::Atom& fact : facts) {
    ASSERT_TRUE(permuted_db.AddFact(std::move(fact)).ok());
  }

  reference::SkolemRecorder recorder(rule_names);
  chase::ChaseOptions engine_options = copt;
  engine_options.observer = &recorder;
  const chase::ChaseResult got =
      chase::RunChase(&symbols, permuted_tgds, permuted_db, engine_options);
  ASSERT_EQ(got.outcome, chase::ChaseOutcome::kTerminated);
  EXPECT_EQ(recorder.names().RenderInstance(got.instance, symbols),
            want.names.RenderInstance(want.instance, symbols));
  EXPECT_EQ(got.stats.triggers_fired, want.stats.triggers_fired);
  EXPECT_EQ(got.stats.max_depth, want.stats.max_depth);
  EXPECT_EQ(got.stats.peak_atoms, want.stats.peak_atoms);
  EXPECT_EQ(got.stats.arena_bytes, want.stats.arena_bytes);
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

/// `text` parsed into a fresh symbol table and chased by `chaser`.
RenderedRun RunProgram(Chaser chaser, const char* text,
                       chase::ChaseVariant variant,
                       bool restraint_order = false) {
  core::SymbolTable symbols;
  auto p = tgd::ParseProgram(&symbols, text);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  chase::ChaseOptions copt;
  copt.variant = variant;
  copt.max_atoms = 2000;
  copt.restraint_order = restraint_order;
  return RunOn(chaser, &symbols, p->tgds, p->database, copt);
}

/// The restricted chase is order-sensitive: a sibling rule can satisfy
/// another rule's head before it fires. The engine must pick the
/// reference's canonical firing order, in Σ-order and in restraint
/// order.
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
      // A head satisfied by an earlier trigger of the same rule and
      // round: the trigger on E(a, b) inserts T(a, n), T(b, n), which
      // satisfies the one on E(b, a) before it fires.
      "E(a, b). E(b, a). E(x, y) -> T(x, z), T(y, z).",
      // examples/programs/restraint_order.tgd, as committed and with
      // the feeding rule listed second: restraint order terminates both.
      "N(a). N(x) -> E(x, z). N(x) -> E(x, x). E(x, y) -> N(y).",
      "N(a). N(x) -> E(x, z). E(x, y) -> N(y). N(x) -> E(x, x).",
  };
  for (const char* text : programs) {
    for (chase::ChaseVariant variant : kVariants) {
      for (bool restraint_order : {false, true}) {
        ExpectSameRun(
            RunProgram(Chaser::kEngine, text, variant, restraint_order),
            RunProgram(Chaser::kReference, text, variant, restraint_order),
            std::string(chase::ChaseVariantName(variant)) +
                (restraint_order ? " restraint-order: " : ": ") + text);
      }
    }
  }
}

/// Independent recursive rule families (disjoint predicates): no
/// family's head can satisfy another's, so restraint mode walks Σ-order
/// and the result stays byte- and counter-identical to the plain run.
/// (The name predates the single walk; restraint mode once collected
/// all three rules as one group before applying any.)
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
    for (bool restraint_order : {false, true}) {
      core::SymbolTable symbols;
      auto p = tgd::ParseProgram(&symbols, text);
      ASSERT_TRUE(p.ok()) << p.status().ToString();
      chase::ChaseOptions copt;
      copt.variant = variant;
      copt.restraint_order = restraint_order;
      runs[restraint_order] =
          chase::RunChase(&symbols, p->tgds, p->database, copt);
      sorted[restraint_order] =
          runs[restraint_order].instance.ToSortedString(symbols);
    }
    const std::string label = chase::ChaseVariantName(variant);
    const chase::ChaseResult& sigma = runs[0];
    const chase::ChaseResult& guided = runs[1];
    EXPECT_EQ(guided.outcome, chase::ChaseOutcome::kTerminated) << label;
    EXPECT_EQ(sigma.outcome, chase::ChaseOutcome::kTerminated) << label;
    EXPECT_EQ(sorted[1], sorted[0]) << label;
    EXPECT_EQ(guided.stats.triggers_fired, sigma.stats.triggers_fired)
        << label;
    EXPECT_EQ(guided.stats.triggers_satisfied,
              sigma.stats.triggers_satisfied)
        << label;
    EXPECT_EQ(guided.stats.join_probes, sigma.stats.join_probes) << label;
    EXPECT_EQ(guided.stats.delta_atoms_scanned,
              sigma.stats.delta_atoms_scanned)
        << label;
    EXPECT_EQ(guided.stats.rounds, sigma.stats.rounds) << label;
    EXPECT_EQ(guided.stats.arena_bytes, sigma.stats.arena_bytes) << label;
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
    const RenderedRun r = RunProgram(Chaser::kEngine, text, variant);
    if (variant == chase::ChaseVariant::kRestricted) {
      EXPECT_GT(r.stats.triggers_satisfied, 0u);
      EXPECT_EQ(r.stats.triggers_fired, 0u);
    } else {
      EXPECT_EQ(r.stats.triggers_satisfied, 0u);
      EXPECT_GT(r.stats.triggers_fired, 0u);
    }
  }
}

/// delta_atoms_scanned counts join seeds: each atom lies in exactly one
/// round's delta window and seeds once per body position of its
/// predicate. A terminated run therefore scans, over all atoms, the
/// number of body positions with the atom's predicate — and nothing,
/// with no probe, when no body mentions a delta predicate. (The name
/// predates the removal of the full-scan mode, where these counters
/// stayed 0.)
TEST(ChaseStatsTest, DeltaCountersZeroWhenDeltaDisabled) {
  const RenderedRun idle = RunProgram(
      Chaser::kEngine, "A(a). B(x) -> C(x).",
      chase::ChaseVariant::kSemiOblivious);
  EXPECT_EQ(idle.outcome, chase::ChaseOutcome::kTerminated);
  EXPECT_EQ(idle.stats.rounds, 1u);
  EXPECT_EQ(idle.stats.delta_atoms_scanned, 0u);
  EXPECT_EQ(idle.stats.join_probes, 0u);

  // Transitive closure of a 4-edge path: 4 E atoms, each seeding one E
  // position of each rule, and the 10 T atoms of the closure, each
  // seeding the second rule's T position.
  const RenderedRun tc = RunProgram(
      Chaser::kEngine,
      "E(v0, v1). E(v1, v2). E(v2, v3). E(v3, v4).\n"
      "E(x, y) -> T(x, y).\n"
      "E(x, y), T(y, z) -> T(x, z).",
      chase::ChaseVariant::kSemiOblivious);
  EXPECT_EQ(tc.outcome, chase::ChaseOutcome::kTerminated);
  EXPECT_EQ(tc.stats.peak_atoms, 14u);
  EXPECT_EQ(tc.stats.delta_atoms_scanned, 2u * 4u + 10u);
  EXPECT_GT(tc.stats.join_probes, 0u);
}

/// A seeded join matches the body positions before the seed position
/// against pre-delta atoms only, so every homomorphism is enumerated
/// from one seed. R(x), R(y) -> S(x, y) over R(a), R(b): round one seeds
/// position 0 from both R atoms (1 probe to pin the seed, then 2 for
/// the free R(y)) and position 1 from both (1 probe each; R(x) at
/// position 0 has no pre-delta atom to match). Round two's delta holds
/// only S atoms, which seed nothing: 2·3 + 2·1 = 8 probes in all.
TEST(ChaseStatsTest, PositionsBeforeTheSeedMatchOnlyOldAtoms) {
  const RenderedRun run =
      RunProgram(Chaser::kEngine, "R(a). R(b). R(x), R(y) -> S(x, y).",
                 chase::ChaseVariant::kSemiOblivious);
  EXPECT_EQ(run.outcome, chase::ChaseOutcome::kTerminated);
  EXPECT_EQ(run.stats.triggers_fired, 4u);
  EXPECT_EQ(run.stats.rounds, 2u);
  EXPECT_EQ(run.stats.delta_atoms_scanned, 4u);
  EXPECT_EQ(run.stats.join_probes, 8u);
}

}  // namespace
}  // namespace nuchase
