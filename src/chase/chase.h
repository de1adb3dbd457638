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

/// The "unset" sentinel for ChaseOptions::num_threads: sequential,
/// except that the NUCHASE_THREADS environment variable may raise it.
/// Any explicitly chosen count (including an explicit 1 = sequential)
/// beats the environment.
inline constexpr std::uint32_t kNumThreadsDefault = 0xffffffffu;

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
  /// instead of rule by rule: every rule in a group collects against the
  /// group-start instance — concurrently, on the worker pool, when the
  /// parallel collect engine is engaged — and the groups' guarantee (no
  /// forward Feeds edge inside a group; see graph::RelianceGraph) makes
  /// that indistinguishable from the sequential interleaving, instance
  /// bytes and every deterministic ChaseStats counter included. An
  /// ablation switch like use_delta: results identical, cost differs.
  bool use_reliances = true;
  /// Restricted variant only, and NOT identity-preserving: apply each
  /// collect group's triggers in the reliance graph's restraint order
  /// (restrainers first) instead of Σ-order, so heads that satisfy
  /// sibling rules' heads land first and those siblings' triggers are
  /// skipped as inactive. Changes which restricted chase is computed —
  /// deliberately: on order-sensitive programs it terminates in fewer
  /// rounds (or terminates where Σ-order diverges). The chosen order is
  /// still deterministic and thread-count-invariant. Requires
  /// use_reliances; ignored by the other two variants, whose result
  /// does not depend on firing order.
  bool restraint_order = false;
  /// Optional precomputed reliance graph for Σ (api::Program computes
  /// one at parse time). Must have been built from the same TgdSet;
  /// when null, a run that needs one (use_reliances) builds its own.
  /// Not owned; must outlive the run.
  const graph::RelianceGraph* reliances = nullptr;
  /// Worker count for the within-round parallel trigger engine: each
  /// round's delta seeds are sharded across this many workers (a
  /// util::ThreadPool, the calling thread included), every worker runs
  /// the allocation-free probe path against the read-only instance into
  /// a thread-local candidate buffer, and after a barrier the buffers
  /// are sort-merged into the canonical firing order — so the
  /// materialized instance and every ChaseStats counter are
  /// byte-identical to the sequential engine, for all three variants.
  ///
  ///   kNumThreadsDefault (the default, "unset")
  ///                the sequential engine — unless the NUCHASE_THREADS
  ///                environment variable names a positive worker count,
  ///                the hook CI uses to push every existing test
  ///                through the parallel path. Every explicit setting
  ///                below wins over the environment.
  ///   1            the sequential engine, unconditionally.
  ///   0            one worker per hardware thread
  ///                (std::thread::hardware_concurrency).
  ///   N > 1        exactly N workers.
  ///
  /// Two engine phases run on the pool. The semi-naive collect phase
  /// shards delta seeds across workers (it still requires use_delta and
  /// !build_forest; other runs collect sequentially — a cost statement,
  /// not a semantic one). The apply phase is parallel for every run
  /// shape: head-tuple candidate construction, the per-segment dedup
  /// probes and the per-predicate segment commits fan out, and for the
  /// restricted variant the head-satisfaction pre-checks run read-only
  /// against the frozen round-start instance. Null creation, the
  /// canonical cross-predicate index numbering and the merge callbacks
  /// stay serial in canonical trigger order — that, plus the canonical
  /// merges, is what keeps the results byte-identical.
  std::uint32_t num_threads = kNumThreadsDefault;
};

/// The worker count a run with these options will actually use: resolves
/// num_threads == 0 to the hardware concurrency and applies the
/// NUCHASE_THREADS environment override to the default. Always >= 1.
std::uint32_t ResolveNumThreads(const ChaseOptions& options);

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
  /// benches compare across the delta ablation. Under the parallel
  /// engine each worker counts into a private counter and the per-round
  /// totals are summed after the barrier, so the value is deterministic
  /// and identical to the sequential engine's for any num_threads.
  std::uint64_t join_probes = 0;
  /// Bytes of term storage the result instance's columnar arena holds
  /// (used bytes, not capacity). Deterministic for a given atom set, so
  /// identical across engine ablations — the storage-layer counter
  /// tools/check_bench_regression gates on.
  std::uint64_t arena_bytes = 0;
  /// Largest number of atoms the instance held during the run (the
  /// instance only grows, so this equals its final size).
  std::uint64_t peak_atoms = 0;
  /// Rounds whose collect phase ran on the worker pool. Engine
  /// telemetry, not part of the byte-identity contract (it is the one
  /// counter that legitimately differs between num_threads settings):
  /// 0 when the run resolved to the sequential engine, equal to
  /// `rounds` when the parallel engine was engaged. Exists so harnesses
  /// can assert — without a clock — that a run intended to be parallel
  /// actually took the parallel path (tools/check_bench_regression
  /// gates this for bench_parallel_scaling, catching silent fallbacks
  /// that byte-identity alone can never catch).
  std::uint64_t parallel_rounds = 0;
  /// Apply batches (one per rule, per round, with pending triggers)
  /// whose parallel stages — candidate build and dedup probes, or the
  /// restricted variant's pre-checks — ran on the worker pool. Engine
  /// telemetry with the same status as parallel_rounds — outside the
  /// byte-identity contract, 0 for sequential runs — and the same
  /// purpose: tools/check_bench_regression gates it to catch a parallel
  /// apply path silently falling back to serial.
  std::uint64_t parallel_apply_batches = 0;
  /// Apply batches whose per-predicate segment commit ran on the worker
  /// pool — the stage the per-predicate storage split exists for:
  /// batched candidates are probed per (segment, shard) owner and
  /// committed per segment owner concurrently, with only the canonical
  /// cross-predicate numbering and the merge callbacks left serial.
  /// Engine telemetry with the same status as parallel_apply_batches —
  /// outside the byte-identity contract, 0 for sequential runs — and
  /// the same purpose: tools/check_bench_regression gates it on every
  /// machine to catch the concurrent-commit path silently falling back
  /// to the serial one.
  std::uint64_t parallel_commit_batches = 0;
  /// Number of collect groups in the reliance schedule the run walked
  /// (see ChaseOptions::use_reliances): |Σ| when every rule is its own
  /// group, smaller when independent rules share one, 0 when reliance
  /// scheduling is off. A property of Σ alone — identical at every
  /// thread count and for every variant/engine ablation — which is why
  /// the CLI may print it next to the byte-identical stats.
  std::uint64_t reliance_groups = 0;
  /// Rounds in which at least one multi-rule collect group's seed tasks
  /// ran pooled across rules. Engine telemetry with the same status as
  /// parallel_rounds — outside the byte-identity contract, 0 for
  /// sequential runs and for schedules whose groups are all singletons —
  /// and the same purpose: tools/check_bench_regression gates it so a
  /// cross-rule path silently degrading to per-rule collect is caught
  /// without a clock.
  std::uint64_t cross_rule_parallel_rounds = 0;
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
