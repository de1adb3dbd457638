#ifndef NUCHASE_CHASE_CHASE_H_
#define NUCHASE_CHASE_CHASE_H_

#include <cstdint>
#include <vector>

#include "chase/forest.h"
#include "chase/observer.h"
#include "chase/trigger.h"
#include "core/database.h"
#include "core/instance.h"
#include "core/symbol_table.h"
#include "tgd/tgd.h"

namespace nuchase {
namespace graph {
class RelianceGraph;
}  // namespace graph
namespace chase {

/// Which chase procedure to run. The paper studies the semi-oblivious
/// version (Definition 3.1); the other two are provided for comparison —
/// they bracket it: every oblivious-terminating pair is semi-oblivious-
/// terminating, and every semi-oblivious-terminating pair is restricted-
/// terminating (CT_obl ⊆ CT_so ⊆ CT_res pointwise in D), and the
/// materialized sizes shrink in the same direction.
enum class ChaseVariant {
  /// Definition 3.1: nulls named ⊥^z_{σ, h|fr(σ)}; each (σ, h|fr(σ))
  /// fires at most once. Unique result [20]; the RDBMS-friendly chase
  /// of [6].
  kSemiOblivious,
  /// Nulls named ⊥^z_{σ, h}: each (σ, h) fires once, even when two
  /// homomorphisms agree only on the frontier. Produces a superset of
  /// the semi-oblivious result (up to null renaming).
  kOblivious,
  /// The standard chase: (σ, h) fires only if no extension h' ⊇ h|fr(σ)
  /// already maps head(σ) into the instance. Result depends on the
  /// firing order (ours: round-based, TGDs in Σ-order); the
  /// RAM-friendly chase of [6, 21].
  kRestricted,
};

const char* ChaseVariantName(ChaseVariant variant);

/// One JoinPlan per TGD, aligned with TgdSet order.
using JoinPlanSet = std::vector<JoinPlan>;

/// Compiles every TGD in Σ for the join kernel once (PlanJoin: slot
/// maps, the delta-seeded body orders, the head). The plans depend only
/// on Σ, so callers chasing the same rule set repeatedly (api::Program
/// sessions) compute them a single time and pass them via
/// ChaseOptions::plans; RunChase plans per run when none are supplied.
JoinPlanSet PlanJoins(const tgd::TgdSet& tgds);

/// Budgets and switches for a chase run. The semi-oblivious chase of a
/// non-terminating pair (D, Σ) is infinite, so every run is bounded by at
/// least the atom budget; deciders additionally use the depth budget
/// (Lemmas 6.2 / 7.4 / 8.2 make exceeding d_C(Σ) a proof of
/// non-termination for the guarded classes).
struct ChaseOptions {
  /// Which chase procedure to run.
  ChaseVariant variant = ChaseVariant::kSemiOblivious;
  /// Stop (outcome kAtomLimit) once the instance holds more atoms.
  std::uint64_t max_atoms = 10'000'000;
  /// If nonzero, stop (outcome kDepthLimit) once a null of depth greater
  /// than this is created.
  std::uint32_t max_depth = 0;
  /// If nonzero, stop (outcome kRoundLimit) after this many breadth-first
  /// rounds.
  std::uint64_t max_rounds = 0;
  /// Record the guarded chase forest (Section 5). Requires every fired
  /// trigger's TGD to be guarded; non-guarded TGDs get no parent edge.
  bool build_forest = false;
  /// Ablation switch for the semi-naive engine: when true (default),
  /// each round matches TGD bodies only against joins containing at
  /// least one atom from the previous round's delta, seeded through the
  /// per-predicate delta index and a join order planned from the delta
  /// atom. When false, every round re-enumerates all homomorphisms from
  /// the full instance (the naive baseline); the (σ, h) dedup set keeps
  /// the results byte-identical, only cost differs.
  bool use_delta = true;
  /// If nonzero, stop (outcome kCancelled) once the run has lasted
  /// longer than this wall-clock budget. Polled at the same granularity
  /// as `cancel`.
  std::uint64_t deadline_ms = 0;
  /// Optional cooperative cancellation token, polled at round, trigger
  /// and homomorphism granularity; when fired the run stops with outcome
  /// kCancelled and returns the consistent prefix built so far. Not
  /// owned; must outlive the run.
  const CancelToken* cancel = nullptr;
  /// Optional observation hooks (on-round / on-fire / on-done), called
  /// synchronously from the chase loop. Not owned; must outlive the run.
  ChaseObserver* observer = nullptr;
  /// Optional precomputed join plans for Σ (see PlanJoins). Must have
  /// been computed from the same TgdSet (one entry per TGD, same order);
  /// when null the run plans its own. Not owned; must outlive the run.
  const JoinPlanSet* plans = nullptr;
  /// Cross-rule scheduling switch. When true (default) the round loop
  /// walks Σ as the reliance graph's ordered collect-group partition
  /// instead of rule by rule, and reports the partition's size in
  /// ChaseStats::reliance_groups. The groups' guarantee (no forward
  /// Feeds edge inside a group; see graph::RelianceGraph) makes the walk
  /// indistinguishable from the rule-by-rule one, instance bytes and
  /// every other ChaseStats counter included. Its one effect on the
  /// result is through restraint_order, which needs it.
  bool use_reliances = true;
  /// Restricted variant only, and NOT identity-preserving: apply each
  /// collect group's triggers in the reliance graph's restraint order
  /// (restrainers first) instead of Σ-order, so heads that satisfy
  /// sibling rules' heads land first and those siblings' triggers are
  /// skipped as inactive. Changes which restricted chase is computed —
  /// deliberately: on order-sensitive programs it terminates in fewer
  /// rounds (or terminates where Σ-order diverges). The chosen order is
  /// still deterministic. Requires use_reliances; ignored by the other
  /// two variants, whose result does not depend on firing order.
  bool restraint_order = false;
  /// Optional precomputed reliance graph for Σ (api::Program computes
  /// one at parse time). Must have been built from the same TgdSet;
  /// when null, a run that needs one (use_reliances) builds its own.
  /// Not owned; must outlive the run.
  const graph::RelianceGraph* reliances = nullptr;
};

/// Why a chase run stopped.
enum class ChaseOutcome {
  kTerminated,  ///< No active trigger remains: the result is chase(D,Σ).
  kAtomLimit,   ///< Atom budget exhausted (instance is a chase prefix).
  kDepthLimit,  ///< A term of depth > max_depth appeared.
  kRoundLimit,  ///< Round budget exhausted.
  kCancelled,   ///< CancelToken fired or the deadline budget elapsed.
  /// A hard id space is exhausted: the run needed more labelled nulls
  /// than Term can index (2^30 per scope), or |Σ| exceeds the
  /// tgd::kMaxRules rule-index cap. api::Session surfaces this as a
  /// kResourceExhausted Status.
  kResourceExhausted,
};

const char* ChaseOutcomeName(ChaseOutcome outcome);

/// Counters describing a chase run.
struct ChaseStats {
  std::uint64_t triggers_fired = 0;  ///< Distinct (σ, h|fr(σ)) applied.
  /// Restricted chase only: triggers whose head was already satisfied
  /// (not active in the Definition 3.1 sense) and therefore skipped.
  std::uint64_t triggers_satisfied = 0;
  std::uint64_t rounds = 0;          ///< Breadth-first rounds executed.
  std::uint32_t max_depth = 0;       ///< maxdepth over all created terms.
  std::uint64_t database_atoms = 0;  ///< |D|.
  /// Delta atoms used as join seeds (semi-naive engine only; stays 0
  /// when ChaseOptions::use_delta is false).
  std::uint64_t delta_atoms_scanned = 0;
  /// Unification attempts of a body/head atom against a candidate
  /// instance atom, over trigger search and the restricted variant's
  /// head-satisfaction checks. Counted in both engines — the number
  /// benches compare across the delta ablation.
  std::uint64_t join_probes = 0;
  /// Bytes of term storage the result instance's columnar arena holds
  /// (used bytes, not capacity). Deterministic for a given atom set, so
  /// identical across engine ablations — the storage-layer counter
  /// tools/check_bench_regression gates on.
  std::uint64_t arena_bytes = 0;
  /// Largest number of atoms the instance held during the run (the
  /// instance only grows, so this equals its final size).
  std::uint64_t peak_atoms = 0;
  /// Number of collect groups in the reliance schedule the run walked
  /// (see ChaseOptions::use_reliances): |Σ| when every rule is its own
  /// group, smaller when independent rules share one, 0 when reliance
  /// scheduling is off. A property of Σ alone — identical for every
  /// variant/engine ablation — which is why the CLI may print it next to
  /// the byte-identical stats.
  std::uint64_t reliance_groups = 0;
  /// Inert: always 0. The chase has one serial code path; these three
  /// names remain only so that callers that still read them (the
  /// perfbench pool probe) compile.
  std::uint64_t parallel_rounds = 0;
  std::uint64_t parallel_apply_batches = 0;
  std::uint64_t parallel_commit_batches = 0;
};

/// The result of a chase run: the constructed instance (equal to
/// chase(D,Σ) iff outcome is kTerminated), statistics, and optionally the
/// guarded chase forest.
struct ChaseResult {
  ChaseOutcome outcome = ChaseOutcome::kTerminated;
  core::Instance instance;
  ChaseStats stats;
  Forest forest;

  bool Terminated() const { return outcome == ChaseOutcome::kTerminated; }
};

/// Runs the semi-oblivious chase of D w.r.t. Σ (Definition 3.2) with a
/// fair, breadth-first strategy. Because semi-oblivious null names are
/// functional in (σ, h|fr(σ)), every valid derivation has the same result
/// [20], which this function computes whenever it terminates within the
/// budgets.
///
/// `symbols` only has to allocate the run's fresh nulls: pass the plain
/// SymbolTable the inputs were built against, or — to chase a shared,
/// frozen table from many threads at once — a per-run
/// core::SymbolOverlay over it.
ChaseResult RunChase(core::SymbolScope* symbols, const tgd::TgdSet& tgds,
                     const core::Database& db, const ChaseOptions& options);

/// RunChase with default options.
ChaseResult RunChase(core::SymbolScope* symbols, const tgd::TgdSet& tgds,
                     const core::Database& db);

}  // namespace chase
}  // namespace nuchase

#endif  // NUCHASE_CHASE_CHASE_H_
