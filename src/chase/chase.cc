#include "chase/chase.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <thread>

#include "chase/fired_set.h"
#include "chase/trigger.h"
#include "graph/reliance.h"
#include "util/deadline.h"
#include "util/hash.h"
#include "util/parse.h"
#include "util/thread_pool.h"

namespace nuchase {
namespace chase {

using core::Atom;
using core::AtomIndex;
using core::Instance;
using core::Term;

const char* ChaseVariantName(ChaseVariant variant) {
  switch (variant) {
    case ChaseVariant::kSemiOblivious:
      return "semi-oblivious";
    case ChaseVariant::kOblivious:
      return "oblivious";
    case ChaseVariant::kRestricted:
      return "restricted";
  }
  return "?";
}

const char* ChaseOutcomeName(ChaseOutcome outcome) {
  switch (outcome) {
    case ChaseOutcome::kTerminated:
      return "terminated";
    case ChaseOutcome::kAtomLimit:
      return "atom-limit";
    case ChaseOutcome::kDepthLimit:
      return "depth-limit";
    case ChaseOutcome::kRoundLimit:
      return "round-limit";
    case ChaseOutcome::kCancelled:
      return "cancelled";
    case ChaseOutcome::kResourceExhausted:
      return "resource-exhausted";
  }
  return "?";
}

std::uint32_t ResolveNumThreads(const ChaseOptions& options) {
  std::uint32_t n = options.num_threads;
  if (n == kNumThreadsDefault) {
    // Only the unset default is overridable from the environment (the
    // hook CI uses to push every existing test through the parallel
    // engine without touching call sites); every explicit setting —
    // including an explicit 1 = sequential, which benches and
    // differential tests rely on for their reference cells — wins.
    n = 1;
    const char* env = std::getenv("NUCHASE_THREADS");
    if (env != nullptr) {
      // util::ParseCount is the CLI's strict flag parser: digit-first
      // (no whitespace/sign skipping) with the errno reset strtoul
      // callers forget — " 4" and a stale ERANGE are both rejected
      // here exactly as "--threads= 4" would be.
      unsigned long long v = 0;
      if (util::ParseCount(env, 256, &v) && v > 0) {
        n = static_cast<std::uint32_t>(v);
      } else {
        // A malformed value silently running sequential would hollow
        // out the CI shards that exist to force the parallel engine —
        // warn loudly (once per process) on stderr; stdout, which the
        // golden tests compare, stays clean.
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true)) {
          std::fprintf(stderr,
                       "nuchase: ignoring invalid NUCHASE_THREADS='%s' "
                       "(want an integer in [1, 256]); running "
                       "sequential\n", env);
        }
      }
    }
  }
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
  }
  return n;
}

JoinPlanSet PlanJoins(const tgd::TgdSet& tgds) {
  // Precondition: |Σ| ≤ tgd::kMaxRules (api::Program::Analyze and
  // RunChase both reject over-cap sets before planning).
  JoinPlanSet plans;
  plans.reserve(tgds.size());
  for (const tgd::Tgd& rule : tgds.tgds()) plans.push_back(PlanJoin(rule));
  return plans;
}

namespace {

/// A collected, not-yet-applied trigger. Its `count` images live at
/// offset `images` of the owning PendingList's arena: the frontier
/// images (sorted-frontier order), then — oblivious variant only, which
/// names nulls by them — the full body-variable images
/// (sorted-body-variable order). `guard_image` is the instance index of
/// the guard image, or kNoGuard (the TGD is not guarded, or no forest
/// is being built).
struct PendingTrigger {
  tgd::RuleIndex tgd_index;
  AtomIndex guard_image;
  std::uint64_t images;
  std::uint32_t count;

  static constexpr AtomIndex kNoGuard = 0xffffffffu;
};

/// Pending triggers plus the one Term arena all their images live in:
/// collecting a trigger appends to two reused vectors, never allocates
/// a vector of its own.
struct PendingList {
  std::vector<PendingTrigger> triggers;
  std::vector<Term> arena;

  const Term* ImagesOf(const PendingTrigger& t) const {
    return arena.data() + t.images;
  }
  void Clear() {
    triggers.clear();
    arena.clear();
  }
};

/// Canonical within-round order: rule-major (Σ-order), then by frontier
/// images, then body images (one lexicographic comparison of the image
/// run: both halves have the rule's fixed lengths). Both engines
/// (delta-seeded and full-scan) enumerate the same trigger set per
/// round but in different orders; sorting before the apply phase makes
/// the firing order — and hence the restricted-chase result —
/// independent of the engine, so the ablation cells stay
/// byte-identical. The leading tgd_index key is what lets one sort serve
/// the cross-rule collect too: a whole group's worker buffers merge into
/// per-rule runs in Σ-order, each run internally in the exact order the
/// rule's solo collect would have produced.
bool PendingBefore(const PendingTrigger& a, const Term* a_images,
                   const PendingTrigger& b, const Term* b_images) {
  if (a.tgd_index != b.tgd_index) return a.tgd_index < b.tgd_index;
  return std::lexicographical_compare(a_images, a_images + a.count,
                                      b_images, b_images + b.count);
}

/// Sorts a list into canonical (PendingBefore) order.
void SortPending(PendingList* list) {
  const Term* arena = list->arena.data();
  std::sort(list->triggers.begin(), list->triggers.end(),
            [arena](const PendingTrigger& a, const PendingTrigger& b) {
              return PendingBefore(a, arena + a.images, b, arena + b.images);
            });
}

/// Two candidates with equal (rule, images) are the same trigger (their
/// dedup keys coincide), so PendingBefore is a total order on the
/// deduplicated set and a weak order with duplicate-adjacency on the
/// raw parallel candidate buffers — exactly what the merge needs: sort,
/// then drop consecutive equals.
bool SameTrigger(const PendingTrigger& a, const Term* a_images,
                 const PendingTrigger& b, const Term* b_images) {
  return a.tgd_index == b.tgd_index && a.count == b.count &&
         std::equal(a_images, a_images + a.count, b_images);
}

/// The one definition of trigger identity that the sequential engine,
/// the parallel workers and the merge all share: writes the dedup key
/// of (σ_ti, h) into `*key` (cleared first; a reused buffer). Key:
/// (σ, h|fr(σ)) for the semi-oblivious and restricted variants (result
/// and head-satisfaction depend only on the frontier restriction),
/// (σ, h) for the oblivious one. `slots` is h in the plan's slot
/// layout.
void BuildFiredKey(const JoinPlan& plan, tgd::RuleIndex ti, bool oblivious,
                   const Term* slots, std::vector<std::uint32_t>* key) {
  key->clear();
  key->push_back(ti);
  if (oblivious) {
    for (std::uint32_t s = 0; s < plan.num_body_slots; ++s) {
      key->push_back(slots[s].bits());
    }
  } else {
    for (std::uint32_t s : plan.frontier_slots) {
      key->push_back(slots[s].bits());
    }
  }
}

/// The same key rebuilt from a collected trigger's images (the merge
/// path, where h is gone). Consistent with BuildFiredKey by
/// construction: the oblivious key images are the body images, which
/// follow the frontier images in the arena.
void FiredKeyOf(const PendingTrigger& trig, const Term* images,
                const JoinPlan& plan, bool oblivious,
                std::vector<std::uint32_t>* key) {
  const std::size_t skip = oblivious ? plan.frontier_slots.size() : 0;
  key->clear();
  key->push_back(trig.tgd_index);
  for (std::size_t i = skip; i < trig.count; ++i) {
    key->push_back(images[i].bits());
  }
}

/// Appends (σ_ti, h) to `list`: its images go to the list's arena.
void AppendPending(const JoinPlan& plan, tgd::RuleIndex ti, bool oblivious,
                   const Term* slots, AtomIndex guard_image,
                   PendingList* list) {
  PendingTrigger trig;
  trig.tgd_index = ti;
  trig.guard_image = guard_image;
  trig.images = list->arena.size();
  for (std::uint32_t s : plan.frontier_slots) {
    list->arena.push_back(slots[s]);
  }
  if (oblivious) {
    list->arena.insert(list->arena.end(), slots,
                       slots + plan.num_body_slots);
  }
  trig.count = static_cast<std::uint32_t>(list->arena.size() - trig.images);
  list->triggers.push_back(trig);
}

/// Copies a trigger of another list (a worker buffer) into `list`.
void CopyPending(const PendingTrigger& trig, const Term* images,
                 PendingList* list) {
  PendingTrigger copy = trig;
  copy.images = list->arena.size();
  list->arena.insert(list->arena.end(), images, images + trig.count);
  list->triggers.push_back(copy);
}

/// How binding a trigger's existential variables ended.
enum class BindResult {
  kOk,                 ///< Every null bound (all within the budget).
  kDepthLimit,         ///< A null exceeded the depth budget.
  kResourceExhausted,  ///< The scope ran out of null ids.
};

/// Binds the `num_existential` existential variables of one trigger —
/// the unit of work of the apply phase's serial pass — to fresh nulls,
/// appended to `*out` in σ's sorted existential order.
///
/// Definition 3.1 names the null for z of trigger (σ, h) ⊥^z_{σ, h|fr(σ)}
/// (oblivious: ⊥^z_{σ, h}): its identity is a function of the fired-set
/// key plus z. The fired set admits each key at most once per run and
/// every admitted trigger binds at most once, so a key never asks for
/// its nulls twice, and allocating fresh ones in canonical trigger
/// order IS the functional naming — no key -> null map is needed.
///
/// Every null has depth 1 + max({depth(h(x)) | x ∈ fr(σ)} ∪ {0})
/// (Definition 4.3), raising *observed_max_depth. Stops at the first
/// failure: a null deeper than `max_depth_limit` (0 = unlimited; the
/// breaching null still lands in `*out` and still raises
/// *observed_max_depth, mirroring how the engine's depth statistic
/// counts the breach itself) or an exhausted scope (nothing appended
/// for that variable).
BindResult BindFreshNulls(core::SymbolScope* symbols,
                          std::size_t num_existential,
                          const Term* frontier_images,
                          std::size_t num_frontier,
                          std::uint32_t max_depth_limit,
                          std::vector<Term>* out,
                          std::uint32_t* observed_max_depth) {
  std::uint32_t depth = 0;
  for (std::size_t i = 0; i < num_frontier; ++i) {
    depth = std::max(depth, symbols->depth(frontier_images[i]));
  }
  ++depth;
  for (std::size_t z = 0; z < num_existential; ++z) {
    util::StatusOr<Term> null = symbols->MakeNull(depth);
    if (!null.ok()) return BindResult::kResourceExhausted;
    out->push_back(*null);
    *observed_max_depth = std::max(*observed_max_depth, depth);
    if (max_depth_limit != 0 && depth > max_depth_limit) {
      return BindResult::kDepthLimit;
    }
  }
  return BindResult::kOk;
}

/// One delta-seeded enumeration task of the parallel collect phase:
/// seed body position `seed_pos` of rule `rule` with instance atom
/// `atom` (an atom of the previous round's delta). Tasks are built
/// rule-major over a whole collect group, so one pooled region fans the
/// group's every (rule, seed) pair across the workers.
struct SeedTask {
  tgd::RuleIndex rule;
  std::size_t seed_pos;
  AtomIndex atom;
};

/// Thread-local state of one collect worker, reused across rounds. The
/// buffers are written only by the owning worker inside a pool region
/// and read only by the merge after the barrier.
struct CollectWorker {
  PendingList candidates;
  std::vector<std::uint32_t> key;
  std::vector<std::uint32_t> last_key;  // key of candidates' last entry
  // (rule, probes) runs in task order; see collect_group_pooled.
  std::vector<std::pair<tgd::RuleIndex, std::uint64_t>> probe_runs;
  std::uint32_t deadline_poll = 0;
  bool interrupted = false;
};

/// Thread-local state of one apply-phase worker (the restricted
/// variant's read-only head-satisfaction pre-checks). Same discipline as
/// CollectWorker: written only inside the region, reduced after it.
struct ApplyWorker {
  std::uint64_t join_probes = 0;
  std::uint32_t deadline_poll = 0;
  bool interrupted = false;
};

/// Where one term of a head tuple comes from: a frontier image or a
/// bound existential null (read from the trigger's run of the pass-1
/// null buffer). TGD atoms are constant-free (tgd.h), so these two
/// sources are exhaustive.
struct HeadSlot {
  bool existential;
  std::uint32_t index;
};

/// The precompiled candidate-build recipe for one rule's head: filling a
/// trigger's head tuples is a straight copy loop driven by `slots` (all
/// head atoms concatenated), with `tuples[j]` giving each atom's
/// predicate, arity and term offset *within the trigger's slice*. The
/// parallel pass-2 workers share one immutable plan, so building
/// candidate t touches only t's slice of the shared buffers — no
/// synchronization, and bytes independent of which worker fills what.
struct HeadPlan {
  std::vector<HeadSlot> slots;
  std::vector<core::BatchTuple> tuples;
  std::size_t terms_per_trigger = 0;

  /// Writes one trigger's head tuples (terms_per_trigger terms) to
  /// `out`, from its frontier images and its bound nulls.
  void Fill(const Term* frontier_images, const Term* nulls,
            Term* out) const {
    for (std::size_t s = 0; s < slots.size(); ++s) {
      out[s] = slots[s].existential ? nulls[slots[s].index]
                                    : frontier_images[slots[s].index];
    }
  }
};

HeadPlan PlanHead(const tgd::Tgd& rule) {
  HeadPlan plan;
  auto index_of = [](const std::vector<Term>& vars, Term v) {
    return static_cast<std::uint32_t>(
        std::find(vars.begin(), vars.end(), v) - vars.begin());
  };
  for (const Atom& head_atom : rule.head()) {
    core::BatchTuple tuple;
    tuple.pred = head_atom.predicate;
    tuple.begin = plan.terms_per_trigger;
    tuple.arity = head_atom.arity();
    plan.tuples.push_back(tuple);
    for (Term v : head_atom.args) {
      HeadSlot slot;
      slot.existential =
          index_of(rule.frontier(), v) >= rule.frontier().size();
      slot.index = slot.existential ? index_of(rule.existential(), v)
                                    : index_of(rule.frontier(), v);
      plan.slots.push_back(slot);
    }
    plan.terms_per_trigger += head_atom.arity();
  }
  return plan;
}

}  // namespace

ChaseResult RunChase(core::SymbolScope* symbols, const tgd::TgdSet& tgds,
                     const core::Database& db,
                     const ChaseOptions& options) {
  ChaseResult result;
  Instance& instance = result.instance;
  const bool oblivious = options.variant == ChaseVariant::kOblivious;
  FlatFiredSet fired;
#ifndef NDEBUG
  // The debug form of BindFreshNulls' naming argument: every null key
  // (= fired-set key) binds its nulls at most once per run.
  FlatFiredSet bound_null_keys;
#endif

  // Cooperative interruption: the cancel token is a relaxed atomic read,
  // polled on every call; the deadline needs a clock read, amortized to
  // one in 64 polls. Polls happen at round, trigger and homomorphism
  // granularity, so even a diverging chase whose rounds keep growing
  // stops within a bounded slice of work.
  const auto start = std::chrono::steady_clock::now();
  const bool has_deadline = options.deadline_ms != 0;
  const auto deadline = util::DeadlineAfter(start, options.deadline_ms);
  std::uint32_t deadline_poll = 0;
  auto stop_requested = [&]() {
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      return true;
    }
    if (!has_deadline) return false;
    if ((++deadline_poll & 63u) != 0) return false;
    return std::chrono::steady_clock::now() >= deadline;
  };
  bool interrupted = false;
  // Probe-level hook for the homomorphism finders: long match-free joins
  // never reach the per-homomorphism poll, so the finder itself polls
  // this (amortized) and unwinds. Set only when there is something to
  // poll, keeping the probe loop branch-predictable otherwise.
  const std::function<bool()> probe_interrupt = stop_requested;
  const std::function<bool()>* finder_interrupt =
      (options.cancel != nullptr || has_deadline) ? &probe_interrupt
                                                  : nullptr;

  result.stats.database_atoms = db.size();
  if (options.use_delta) instance.EnableDeltaTracking();
  for (const Atom& fact : db.facts()) {
    auto [idx, fresh] = instance.Insert(fact);
    if (fresh && options.build_forest) result.forest.AddRoot(idx);
  }
  if (options.use_delta) instance.AdvanceDelta();

  // Rule-index discipline: every rule loop below compares
  // tgd::RuleIndex against tgd::RuleIndex; the cap check makes the
  // narrowing cast from tgds.size() exact. An over-cap Σ stops cleanly
  // (outcome kResourceExhausted, the database facts above a consistent
  // prefix) before any index arithmetic, planning or scheduling runs.
  const bool rules_overflow = tgds.size() > tgd::kMaxRules;
  const tgd::RuleIndex num_rules =
      rules_overflow ? 0 : static_cast<tgd::RuleIndex>(tgds.size());

  // One compiled join plan per TGD, shared by every round — and by
  // every run, when the caller supplies plans precomputed with
  // PlanJoins (api::Program does).
  JoinPlanSet local_plans;
  const JoinPlanSet* plans = options.plans;
  if (!rules_overflow &&
      (plans == nullptr || plans->size() != tgds.size())) {
    local_plans = PlanJoins(tgds);
    plans = &local_plans;
  }

  // Cross-rule schedule: the reliance graph's ordered collect-group
  // partition (api::Program supplies a graph precomputed at parse time;
  // standalone runs build their own — a one-off linear pass over Σ).
  // With reliance scheduling off, every rule is its own group, and the
  // round loop walks the same partition shape either way.
  std::optional<graph::RelianceGraph> local_reliances;
  const graph::RelianceGraph* reliances = nullptr;
  std::vector<std::vector<tgd::RuleIndex>> singleton_groups;
  const std::vector<std::vector<tgd::RuleIndex>>* groups =
      &singleton_groups;
  if (options.use_reliances && !rules_overflow) {
    reliances = options.reliances;
    if (reliances == nullptr || reliances->num_rules() != num_rules) {
      local_reliances.emplace(tgds);
      reliances = &*local_reliances;
    }
    groups = &reliances->CollectGroups();
    result.stats.reliance_groups = groups->size();
  } else {
    singleton_groups.reserve(num_rules);
    for (tgd::RuleIndex ti = 0; ti < num_rules; ++ti) {
      singleton_groups.push_back({ti});
    }
  }
  // Restraint-guided mode (restricted variant, opt-in, NOT identity-
  // preserving — see ChaseOptions::restraint_order): precompute every
  // group's restrainers-first apply order once. The order is a pure
  // function of Σ, so the mode stays deterministic and thread-count-
  // invariant even though it deliberately differs from Σ-order.
  const bool restraint_mode =
      options.use_reliances && options.restraint_order &&
      options.variant == ChaseVariant::kRestricted &&
      reliances != nullptr;
  std::vector<std::vector<tgd::RuleIndex>> restraint_orders;
  if (restraint_mode) {
    restraint_orders.reserve(groups->size());
    for (const std::vector<tgd::RuleIndex>& group : *groups) {
      restraint_orders.push_back(reliances->RestraintOrder(group));
    }
  }

  std::size_t delta_begin = 0;
  std::size_t delta_end = instance.size();
  // Scratch of the fused sequential path (collect one rule, apply it,
  // move on) and the per-rule pending lists of the group-mode paths
  // (collect a whole group, then apply its rules in order). Reused
  // across rounds: collecting allocates only while a list outgrows its
  // high-water mark.
  PendingList pending;
  std::vector<PendingList> rule_pending(num_rules);
  // Per-rule staging of the collect phase's counters (join probes,
  // delta seeds scanned). Group modes scan a whole group's seeds before
  // any member applies, but the fused reference schedule counts a
  // rule's collect work only when the walk reaches that rule — so the
  // staged counters fold into the stats immediately before each apply.
  // An atom-budget trip mid-group then never counts collects the fused
  // walk would not have run, keeping ChaseStats identical on every exit
  // path at every thread count.
  std::vector<std::uint64_t> collect_probes(num_rules, 0);
  std::vector<std::uint64_t> collect_scanned(num_rules, 0);
  // Scratch tuple for the allocation-free probe/insert fast path: every
  // h(atom) is instantiated into this buffer and handed to the instance
  // as a span; no Atom is materialized anywhere in the loop. `key` is
  // the reused fired-set key buffer of the serial paths.
  std::vector<Term> scratch;
  std::vector<std::uint32_t> key;
  // The sequential join kernel, reused by every rule and round.
  HomomorphismFinder finder(instance);
  finder.set_interrupt(finder_interrupt);

  // Parallel trigger engine. Two phases fan out over one persistent
  // worker pool. Collect: every rule's delta seeds are sharded across
  // workers (requires the delta engine and no forest; the instance and
  // the `fired` set are frozen for the whole region) and a canonical
  // merge restores the sequential firing order. Apply: runs the same
  // staged algorithm at EVERY thread count — candidate head tuples are
  // built into per-trigger slices of a shared buffer and dedup-probed
  // by the sharded batch insert (semi-oblivious/oblivious), or the
  // head-satisfaction pre-checks run read-only against the frozen
  // round-start instance (restricted) — while null creation and the
  // arena commits stay serial in canonical trigger order. Every byte of
  // the result and every deterministic ChaseStats counter is identical
  // to the num_threads == 1 run by construction.
  const std::uint32_t num_workers = ResolveNumThreads(options);
  const bool parallel =
      num_workers > 1 && options.use_delta && !options.build_forest;
  std::optional<util::ThreadPool> pool;
  std::vector<CollectWorker> workers;
  std::vector<SeedTask> seed_tasks;
  std::vector<std::size_t> merge_heads;
  if (num_workers > 1) {
    pool.emplace(num_workers);
    if (parallel) workers.resize(pool->workers());
  }
  util::ThreadPool* pool_ptr = pool.has_value() ? &*pool : nullptr;
  std::vector<ApplyWorker> apply_workers(
      pool.has_value() ? pool->workers() : 1);

  // Head-plan and scratch state of the staged apply phase (see the
  // apply block below for the stage walkthrough).
  std::vector<HeadPlan> head_plans;
  head_plans.reserve(num_rules);
  for (tgd::RuleIndex ti = 0; ti < num_rules; ++ti) {
    head_plans.push_back(PlanHead(tgds.tgd(ti)));
  }
  std::vector<Term> bound_nulls;         // pass-1 nulls, E per trigger
  std::vector<Term> apply_terms;         // pass-2 candidate tuple terms
  std::vector<core::BatchTuple> apply_tuples;
  std::vector<std::uint8_t> head_satisfied;  // restricted pre-checks

  // The loop reports its outcome; the observer's OnDone fires on every
  // exit path alike, after the stats are final.
  result.outcome = [&]() -> ChaseOutcome {
  if (rules_overflow) return ChaseOutcome::kResourceExhausted;

  // --- Collect, sequential: one rule against the current instance. ---
  // Enumerates candidate homomorphisms without touching the instance
  // while its index vectors are being iterated. The semi-naive engine
  // only joins through the previous round's delta; the naive baseline
  // re-enumerates everything and lets the `fired` set discard the
  // stale finds. Leaves `pending` in canonical (PendingBefore) order;
  // returns false when the run was interrupted.
  auto collect_rule_sequential = [&](tgd::RuleIndex ti,
                                     PendingList& pending) {
    const tgd::Tgd& rule = tgds.tgd(ti);
    const JoinPlan& plan = (*plans)[ti];
    collect_probes[ti] = 0;
    collect_scanned[ti] = 0;
    finder.set_probe_counter(&collect_probes[ti]);
    auto on_match = [&](const Term* h) {
      if (interrupted || stop_requested()) {
        interrupted = true;
        return false;  // stop enumerating; the run is being cancelled
      }
      // Round discipline for the naive baseline, mirroring the delta
      // engine exactly: a trigger is collected in the round whose
      // delta window contains its first (in body order) non-old
      // atom. Homomorphisms made only of pre-window atoms were
      // collected earlier; ones whose first non-old atom was
      // inserted *this* round (by an earlier rule) are deferred —
      // without being recorded as fired — so both engines apply the
      // same triggers in the same rounds and stay byte-identical.
      if (!options.use_delta) {
        bool in_window = false;
        for (std::size_t i = 0; i < plan.body.atoms.size(); ++i) {
          AtomIndex idx = 0;
          InstantiateInto(plan.body, i, h, &scratch);
          if (!instance.FindTuple(plan.body.atoms[i].predicate,
                                  core::TermSpan(scratch), &idx)) {
            return true;  // unreachable: h maps the body into I
          }
          if (idx >= delta_begin) {  // first non-old atom
            in_window = idx < delta_end;
            break;
          }
        }
        if (!in_window) return true;
      }
      BuildFiredKey(plan, ti, oblivious, h, &key);
      if (!fired.Insert(key)) return true;
      // The guard image feeds only the forest.
      AtomIndex guard_image = PendingTrigger::kNoGuard;
      if (options.build_forest && rule.IsGuarded()) {
        InstantiateInto(plan.body,
                        static_cast<std::size_t>(rule.guard_index()), h,
                        &scratch);
        AtomIndex gi = 0;
        if (instance.FindTuple(rule.guard().predicate,
                               core::TermSpan(scratch), &gi)) {
          guard_image = gi;
        }
      }
      AppendPending(plan, ti, oblivious, h, guard_image, &pending);
      return true;
    };

    if (options.use_delta) {
      // Semi-naive: seed every join from a delta atom, through the
      // per-predicate delta index and the precomputed join order;
      // body positions before the seed are restricted to pre-delta
      // atoms so each homomorphism is enumerated from exactly one
      // seed.
      for (std::size_t seed_pos = 0;
           seed_pos < rule.body().size() && !interrupted; ++seed_pos) {
        core::PredicateId seed_pred = rule.body()[seed_pos].predicate;
        const std::vector<AtomIndex>& seeds =
            instance.DeltaAtomsWithPredicate(seed_pred);
        result.stats.delta_atoms_scanned += seeds.size();
        const SlotConjunction& seeded = plan.seeded[seed_pos];
        for (AtomIndex a : seeds) {
          if (interrupted) break;
          finder.Begin(seeded);
          finder.RunSeeded(a, static_cast<AtomIndex>(delta_begin),
                           on_match);
        }
      }
    } else {
      // Naive baseline: re-enumerate every homomorphism from the full
      // instance; `fired` discards the ones found in earlier rounds.
      finder.Enumerate(plan.body, on_match);
    }
    if (interrupted || finder.interrupted()) return false;
    // Both engines find the same trigger set per round, in different
    // orders; sort into canonical order so the firing order (and the
    // restricted-chase result) is engine-independent. (The pooled
    // group collect below merges its worker runs into this order.)
    SortPending(&pending);
    return true;
  };

  // --- Collect, pooled: one whole group against the group-start ---
  // instance. Every member rule's (seed position, delta atom) pairs
  // become one rule-major task list sharded across the pool. Workers
  // see the instance and the `fired` set frozen (nothing is inserted
  // during the region) and push candidates into thread-local buffers;
  // every order- or state-mutating step happens after the barrier. The
  // group invariant (no member's body predicate meets any member's
  // head predicate) makes this collect byte- and probe-identical to
  // the fused sequential walk, which interleaves member applies
  // between the collects. Fills rule_pending[ti] for every member;
  // *had_tasks reports whether any seeds existed (the cross-rule
  // engagement signal); returns false when interrupted.
  auto collect_group_pooled = [&](const std::vector<tgd::RuleIndex>& group,
                                  bool* had_tasks) {
    seed_tasks.clear();
    for (tgd::RuleIndex ti : group) {
      rule_pending[ti].Clear();
      collect_probes[ti] = 0;
      collect_scanned[ti] = 0;
      const tgd::Tgd& rule = tgds.tgd(ti);
      for (std::size_t seed_pos = 0; seed_pos < rule.body().size();
           ++seed_pos) {
        const std::vector<AtomIndex>& seeds =
            instance.DeltaAtomsWithPredicate(
                rule.body()[seed_pos].predicate);
        collect_scanned[ti] += seeds.size();
        for (AtomIndex a : seeds) {
          seed_tasks.push_back(SeedTask{ti, seed_pos, a});
        }
      }
    }
    // No delta atom matches any member's body predicate: the group
    // cannot fire this round -- skip the fork/join entirely.
    *had_tasks = !seed_tasks.empty();
    if (seed_tasks.empty()) return true;
    std::atomic<std::size_t> next_task{0};
    const std::size_t chunk = std::max<std::size_t>(
        1, seed_tasks.size() /
               (static_cast<std::size_t>(pool->workers()) * 8));
    const bool pollable = options.cancel != nullptr || has_deadline;
    pool->Run([&](unsigned w) {
      CollectWorker& self = workers[w];
      self.candidates.Clear();
      // Per-worker probe attribution: the task list is rule-major and a
      // worker's ranges advance monotonically, so its probes form
      // consecutive per-rule runs. Tagging each run with its rule keeps
      // the staged per-rule fold below exact.
      self.probe_runs.clear();
      self.deadline_poll = 0;
      self.interrupted = false;
      // Per-worker interruption predicate: private poll counter, the
      // same relaxed-atomic token read and amortized clock as the
      // sequential engine's stop_requested.
      const std::function<bool()> stop = [&]() {
        if (options.cancel != nullptr && options.cancel->cancelled()) {
          return true;
        }
        if (!has_deadline) return false;
        if ((++self.deadline_poll & 63u) != 0) return false;
        return std::chrono::steady_clock::now() >= deadline;
      };
      HomomorphismFinder worker_finder(instance);
      worker_finder.set_interrupt(pollable ? &stop : nullptr);
      // The task loop retargets these whenever the (rule, seed) of the
      // current task changes; tasks are rule-major, so switches are as
      // rare as in the one-rule-at-a-time schedule.
      const JoinPlan* plan = nullptr;
      tgd::RuleIndex current_ti = 0;
      std::size_t current_seed_pos = 0;
      auto on_match = [&](const Term* h) {
        if (self.interrupted || (pollable && stop())) {
          self.interrupted = true;
          return false;
        }
        BuildFiredKey(*plan, current_ti, oblivious, h, &self.key);
        // `fired` holds only keys recorded before this region began: a
        // concurrent read-only lookup. Duplicates found within the
        // region survive to the merge, which collapses them.
        if (fired.Contains(self.key)) return true;
        // Cheap local dedup: duplicate homomorphisms produced by one
        // seed (differing only outside the key) arrive consecutively,
        // so comparing against the last candidate catches the bulk of
        // them before they cost merge work. Cross-worker (and
        // non-consecutive) duplicates are collapsed by the canonical
        // merge below.
        if (!self.candidates.triggers.empty() && self.key == self.last_key) {
          return true;
        }
        self.last_key = self.key;
        // No guard image on this path: parallel implies !build_forest,
        // and the guard image feeds only the forest.
        AppendPending(*plan, current_ti, oblivious, h,
                      PendingTrigger::kNoGuard, &self.candidates);
        return true;
      };
      while (!self.interrupted && !worker_finder.interrupted()) {
        const std::size_t begin =
            next_task.fetch_add(chunk, std::memory_order_relaxed);
        if (begin >= seed_tasks.size()) break;
        const std::size_t end = std::min(begin + chunk, seed_tasks.size());
        for (std::size_t i = begin; i < end; ++i) {
          if (self.interrupted || worker_finder.interrupted()) break;
          const SeedTask& task = seed_tasks[i];
          if (plan == nullptr || task.rule != current_ti ||
              task.seed_pos != current_seed_pos) {
            if (self.probe_runs.empty() ||
                self.probe_runs.back().first != task.rule) {
              self.probe_runs.push_back({task.rule, 0});
            }
            worker_finder.set_probe_counter(
                &self.probe_runs.back().second);
            current_ti = task.rule;
            current_seed_pos = task.seed_pos;
            plan = &(*plans)[current_ti];
          }
          worker_finder.Begin(plan->seeded[current_seed_pos]);
          worker_finder.RunSeeded(task.atom,
                                  static_cast<AtomIndex>(delta_begin),
                                  on_match);
        }
      }
      if (worker_finder.interrupted()) self.interrupted = true;
      // Sort locally, still inside the region, so the serial merge
      // below pays O(N runs) comparisons instead of a full sort.
      SortPending(&self.candidates);
    });
    for (CollectWorker& worker : workers) {
      for (const auto& run : worker.probe_runs) {
        collect_probes[run.first] += run.second;
      }
      if (worker.interrupted) interrupted = true;
    }
    if (interrupted) return false;
    // Canonical merge: the N sorted runs become one rule-major,
    // PendingBefore-ordered sequence with consecutive duplicates
    // collapsed; every kept trigger is recorded in `fired` and copied
    // to its rule's pending list. Per member rule: the same triggers,
    // in the same order, with the same `fired` entries as the rules
    // collecting one at a time.
    merge_heads.assign(workers.size(), 0);
    const PendingTrigger* last = nullptr;
    const Term* last_images = nullptr;
    while (true) {
      std::size_t best_w = workers.size();
      const PendingTrigger* best = nullptr;
      const Term* best_images = nullptr;
      for (std::size_t w = 0; w < workers.size(); ++w) {
        const PendingList& list = workers[w].candidates;
        if (merge_heads[w] >= list.triggers.size()) continue;
        const PendingTrigger& c = list.triggers[merge_heads[w]];
        const Term* c_images = list.ImagesOf(c);
        if (best == nullptr || PendingBefore(c, c_images, *best, best_images)) {
          best_w = w;
          best = &c;
          best_images = c_images;
        }
      }
      if (best == nullptr) break;
      ++merge_heads[best_w];
      // The stream is rule-major: a duplicate of the candidate can only
      // be the most recently kept trigger. (SameTrigger across distinct
      // rules is always false.)
      if (last != nullptr && SameTrigger(*last, last_images, *best,
                                         best_images)) {
        continue;
      }
      FiredKeyOf(*best, best_images, (*plans)[best->tgd_index], oblivious,
                 &key);
      fired.Insert(key);
      last = best;
      last_images = best_images;
      CopyPending(*best, best_images, &rule_pending[best->tgd_index]);
    }
    return true;
  };

  // --- Apply: one rule's canonical pending list -- one staged ---
  // algorithm at every thread count. The parallel stages degenerate to
  // inline loops when no pool exists, so num_threads changes who
  // executes a stage, never what it computes: instance bytes and every
  // deterministic counter are identical across thread counts by
  // construction. Returns kTerminated when the round may continue.
  auto apply_rule = [&](tgd::RuleIndex ti,
                        const PendingList& list) -> ChaseOutcome {
    const std::vector<PendingTrigger>& pending = list.triggers;
    if (pending.empty()) return ChaseOutcome::kTerminated;
    const tgd::Tgd& rule = tgds.tgd(ti);
    const JoinPlan& plan = (*plans)[ti];
    const HeadPlan& hplan = head_plans[ti];
    const std::size_t num_frontier = rule.frontier().size();
    const std::size_t num_existential = rule.existential().size();
    const std::size_t num_heads = rule.head().size();
    if (pool_ptr != nullptr) ++result.stats.parallel_apply_batches;
    const bool apply_pollable = options.cancel != nullptr || has_deadline;
    // The debug check of BindFreshNulls' naming argument.
    auto check_fresh_null_key = [&](const PendingTrigger& trig) {
#ifndef NDEBUG
      FiredKeyOf(trig, list.ImagesOf(trig), plan, oblivious, &key);
      const bool fresh = bound_null_keys.Insert(key);
      assert(fresh && "a fired-set key bound its nulls twice");
      (void)fresh;
#else
      (void)trig;
#endif
    };
    if (options.variant == ChaseVariant::kRestricted) {
      // Restricted chase: a trigger is applied only if no extension
      // h' ⊇ h|fr(σ) already maps head(σ) into the instance — the
      // compiled head enumerated with the frontier slots pre-bound.
      auto head_satisfied_now = [&](HomomorphismFinder* head_finder,
                                    const PendingTrigger& trig) {
        const Term* images = list.ImagesOf(trig);
        head_finder->Begin(plan.head);
        for (std::size_t i = 0; i < num_frontier; ++i) {
          head_finder->Bind(plan.frontier_slots[i], images[i]);
        }
        bool satisfied = false;
        head_finder->Run([&](const Term*) {
          satisfied = true;
          return false;  // stop at the first
        });
        return satisfied;
      };
      //
      // Stage 1 (parallel, read-only): decide head satisfaction for
      // every pending trigger against the frozen batch-start
      // instance. Satisfaction is monotone — the atom set only grows
      // — so a "satisfied at the freeze" verdict is final; only
      // not-yet-satisfied verdicts can be flipped by atoms this very
      // batch inserts, and stage 2 re-checks exactly those, exactly
      // when an insert has happened. Skip/fire decisions therefore
      // match a fully serial walk; join_probes is defined by this
      // staged schedule, deterministically (per-trigger probe counts
      // against a fixed instance, summed — worker assignment can't
      // change the total).
      const std::uint64_t frozen_size = instance.size();
      head_satisfied.assign(pending.size(), 0);
      util::ParallelChunks(
          pool_ptr, pending.size(), 1,
          [&](unsigned w, std::size_t begin, std::size_t end) {
            ApplyWorker& self = apply_workers[w];
            // Per-worker interruption predicate: private poll
            // counter, same token read and amortized clock as
            // stop_requested.
            const std::function<bool()> stop = [&]() {
              if (options.cancel != nullptr &&
                  options.cancel->cancelled()) {
                return true;
              }
              if (!has_deadline) return false;
              if ((++self.deadline_poll & 63u) != 0) return false;
              return std::chrono::steady_clock::now() >= deadline;
            };
            HomomorphismFinder head_finder(instance);
            head_finder.set_probe_counter(&self.join_probes);
            head_finder.set_interrupt(apply_pollable ? &stop : nullptr);
            for (std::size_t t = begin; t < end; ++t) {
              if (self.interrupted || head_finder.interrupted()) {
                self.interrupted = true;
                break;
              }
              head_satisfied[t] =
                  head_satisfied_now(&head_finder, pending[t]) ? 1 : 0;
            }
            if (head_finder.interrupted()) self.interrupted = true;
          });
      bool apply_interrupted = false;
      for (ApplyWorker& worker : apply_workers) {
        result.stats.join_probes += worker.join_probes;
        worker.join_probes = 0;
        if (worker.interrupted) apply_interrupted = true;
        worker.interrupted = false;
      }
      // An aborted satisfaction check certifies nothing: stop before
      // applying (or skipping) any of this batch's triggers.
      if (apply_interrupted) return ChaseOutcome::kCancelled;

      // Stage 2 (serial, canonical order): skip or fire.
      HomomorphismFinder recheck(instance);
      recheck.set_probe_counter(&result.stats.join_probes);
      recheck.set_interrupt(finder_interrupt);
      for (std::size_t t = 0; t < pending.size(); ++t) {
        const PendingTrigger& trig = pending[t];
        const Term* frontier_images = list.ImagesOf(trig);
        if (stop_requested()) return ChaseOutcome::kCancelled;
        bool satisfied = head_satisfied[t] != 0;
        if (!satisfied && instance.size() > frozen_size) {
          // Atoms inserted by earlier triggers of this batch may
          // have satisfied the head since the freeze; once
          // satisfied, monotonicity keeps the trigger satisfied
          // forever, so the `fired` entry can stand.
          satisfied = head_satisfied_now(&recheck, trig);
          if (recheck.interrupted()) return ChaseOutcome::kCancelled;
        }
        if (satisfied) {
          ++result.stats.triggers_satisfied;
          continue;
        }
        ++result.stats.triggers_fired;
        check_fresh_null_key(trig);
        bound_nulls.clear();
        const BindResult bind = BindFreshNulls(
            symbols, num_existential, frontier_images, num_frontier,
            options.max_depth, &bound_nulls, &result.stats.max_depth);
        if (options.observer != nullptr && !bound_nulls.empty()) {
          options.observer->OnNullsBound(ti, bound_nulls.data(),
                                         bound_nulls.size(),
                                         frontier_images, num_frontier);
        }
        if (bind != BindResult::kOk) {
          // Depth budget breached, or null ids wrapped past Term's
          // index space: stop with a consistent prefix. The trigger
          // was counted as fired; keep OnFire parity.
          if (options.observer != nullptr) {
            options.observer->OnFire(trig.tgd_index, instance.size());
          }
          return bind == BindResult::kDepthLimit
                     ? ChaseOutcome::kDepthLimit
                     : ChaseOutcome::kResourceExhausted;
        }
        scratch.resize(hplan.terms_per_trigger);
        hplan.Fill(frontier_images, bound_nulls.data(), scratch.data());
        for (const core::BatchTuple& tuple : hplan.tuples) {
          auto [idx, fresh] = instance.InsertTuple(
              tuple.pred,
              core::TermSpan(scratch.data() + tuple.begin, tuple.arity));
          if (fresh && options.build_forest) {
            std::uint32_t atom_depth = 0;
            for (Term term : instance.atom(idx).terms()) {
              atom_depth = std::max(atom_depth, symbols->depth(term));
            }
            if (trig.guard_image == PendingTrigger::kNoGuard) {
              result.forest.AddFloating(idx, atom_depth);
            } else {
              result.forest.AddChild(idx, trig.guard_image,
                                     atom_depth);
            }
          }
          if (instance.size() > options.max_atoms) {
            // As above: the budget-tripping trigger did fire.
            if (options.observer != nullptr) {
              options.observer->OnFire(trig.tgd_index,
                                       instance.size());
            }
            return ChaseOutcome::kAtomLimit;
          }
        }
        if (options.observer != nullptr) {
          options.observer->OnFire(trig.tgd_index, instance.size());
        }
      }
    } else {
      // Semi-oblivious / oblivious: every pending trigger fires.
      //
      // Pass 1 (serial, canonical order): bind every trigger's
      // existential nulls. Null names are functional in the firing
      // key, so binding in canonical trigger order keeps the name
      // assignment identical to a serial walk; a depth or id-space
      // failure truncates the batch — earlier triggers still apply,
      // and the failure is reported after they merge (first error in
      // canonical order wins, exactly as a serial walk would).
      std::size_t batch_n = pending.size();
      ChaseOutcome stop_outcome = ChaseOutcome::kTerminated;
      bound_nulls.clear();
      for (std::size_t t = 0; t < pending.size(); ++t) {
        const PendingTrigger& trig = pending[t];
        const Term* frontier_images = list.ImagesOf(trig);
        const std::size_t bound_before = bound_nulls.size();
        check_fresh_null_key(trig);
        const BindResult bind = BindFreshNulls(
            symbols, num_existential, frontier_images, num_frontier,
            options.max_depth, &bound_nulls, &result.stats.max_depth);
        if (options.observer != nullptr &&
            bound_nulls.size() > bound_before) {
          options.observer->OnNullsBound(
              ti, bound_nulls.data() + bound_before,
              bound_nulls.size() - bound_before, frontier_images,
              num_frontier);
        }
        if (bind != BindResult::kOk) {
          batch_n = t;
          stop_outcome = bind == BindResult::kDepthLimit
                             ? ChaseOutcome::kDepthLimit
                             : ChaseOutcome::kResourceExhausted;
          break;
        }
      }

      // Pass 2 (parallel): build every candidate head tuple into the
      // trigger's slice of the shared buffer. Pure reads of the head
      // plan, the frontier images and the pass-1 nulls; pure writes
      // of disjoint slices — worker assignment cannot affect a byte.
      apply_terms.resize(batch_n * hplan.terms_per_trigger);
      apply_tuples.resize(batch_n * num_heads);
      util::ParallelChunks(
          pool_ptr, batch_n, 16,
          [&](unsigned, std::size_t begin, std::size_t end) {
            for (std::size_t t = begin; t < end; ++t) {
              const std::size_t base = t * hplan.terms_per_trigger;
              hplan.Fill(list.ImagesOf(pending[t]),
                         bound_nulls.data() + t * num_existential,
                         apply_terms.data() + base);
              for (std::size_t j = 0; j < num_heads; ++j) {
                core::BatchTuple tuple = hplan.tuples[j];
                tuple.begin += base;
                apply_tuples[t * num_heads + j] = tuple;
              }
            }
          });

      // Pass 3: sharded parallel dedup probes + serial canonical
      // merge. The merge callback runs on this thread in batch order
      // and is the only place triggers are counted, observers fire
      // and budgets trip — bookkeeping identical to the serial walk.
      ChaseOutcome merge_stop = ChaseOutcome::kTerminated;
      if (pool_ptr != nullptr) ++result.stats.parallel_commit_batches;
      instance.InsertTupleBatch(
          apply_terms.data(), apply_tuples, pool_ptr,
          [&](std::size_t pos, AtomIndex idx, bool fresh) {
            const std::size_t t = pos / num_heads;
            const std::size_t j = pos % num_heads;
            const PendingTrigger& trig = pending[t];
            if (j == 0) {
              if (stop_requested()) {
                merge_stop = ChaseOutcome::kCancelled;
                return false;
              }
              ++result.stats.triggers_fired;
            }
            if (fresh && options.build_forest) {
              std::uint32_t atom_depth = 0;
              for (Term term : instance.atom(idx).terms()) {
                atom_depth = std::max(atom_depth, symbols->depth(term));
              }
              if (trig.guard_image == PendingTrigger::kNoGuard) {
                result.forest.AddFloating(idx, atom_depth);
              } else {
                result.forest.AddChild(idx, trig.guard_image,
                                       atom_depth);
              }
            }
            if (instance.size() > options.max_atoms) {
              // The budget-tripping trigger did fire: keep the
              // observer's OnFire tally equal to triggers_fired.
              if (options.observer != nullptr) {
                options.observer->OnFire(trig.tgd_index,
                                         instance.size());
              }
              merge_stop = ChaseOutcome::kAtomLimit;
              return false;
            }
            if (j == num_heads - 1 && options.observer != nullptr) {
              options.observer->OnFire(trig.tgd_index, instance.size());
            }
            return true;
          });
      if (merge_stop != ChaseOutcome::kTerminated) return merge_stop;
      if (stop_outcome != ChaseOutcome::kTerminated) {
        // The pass-1 failure at pending[batch_n] is this batch's
        // first error in canonical order (every earlier trigger
        // merged cleanly). The tripping trigger did fire; keep
        // OnFire parity.
        ++result.stats.triggers_fired;
        if (options.observer != nullptr) {
          options.observer->OnFire(pending[batch_n].tgd_index,
                                   instance.size());
        }
        return stop_outcome;
      }
    }
    return ChaseOutcome::kTerminated;
  };

  // Fold one rule's staged collect counters into the stats, at the
  // exact point where the fused reference walk has just finished that
  // rule's collect: immediately before its apply.
  auto fold_collect_stats = [&](tgd::RuleIndex ti) {
    result.stats.join_probes += collect_probes[ti];
    result.stats.delta_atoms_scanned += collect_scanned[ti];
    collect_probes[ti] = 0;
    collect_scanned[ti] = 0;
  };

  while (delta_begin < delta_end) {
    if (options.max_rounds != 0 &&
        result.stats.rounds >= options.max_rounds) {
      return ChaseOutcome::kRoundLimit;
    }
    if (stop_requested()) return ChaseOutcome::kCancelled;
    ++result.stats.rounds;
    if (parallel) ++result.stats.parallel_rounds;
    if (options.observer != nullptr) {
      RoundProgress progress;
      progress.round = result.stats.rounds;
      progress.atoms = instance.size();
      progress.delta_atoms = delta_end - delta_begin;
      progress.triggers_fired = result.stats.triggers_fired;
      options.observer->OnRound(progress);
    }

    // The round walks the ordered group partition of Sigma (every rule
    // its own group when reliance scheduling is off -- the historical
    // schedule, exactly). Three shapes, one semantics:
    //   pooled -- the group collect fans out over the pool, then the
    //             applies run serially in apply order;
    //   group  -- sequential collect of every member against the
    //             group-start instance, then ordered applies (the
    //             restraint path when no pool exists);
    //   fused  -- collect a rule, apply it, move on (the reference
    //             path; inside a group the three shapes are
    //             byte-identical by the group invariant).
    bool round_cross_rule = false;
    for (std::size_t g = 0; g < groups->size(); ++g) {
      const std::vector<tgd::RuleIndex>& group = (*groups)[g];
      const std::vector<tgd::RuleIndex>& order =
          restraint_mode ? restraint_orders[g] : group;
      if (parallel) {
        bool had_tasks = false;
        if (!collect_group_pooled(group, &had_tasks)) {
          return ChaseOutcome::kCancelled;
        }
        if (had_tasks && group.size() > 1) round_cross_rule = true;
        for (tgd::RuleIndex ti : order) {
          fold_collect_stats(ti);
          const ChaseOutcome oc = apply_rule(ti, rule_pending[ti]);
          if (oc != ChaseOutcome::kTerminated) return oc;
        }
      } else if (restraint_mode && group.size() > 1) {
        for (tgd::RuleIndex ti : group) {
          rule_pending[ti].Clear();
          if (!collect_rule_sequential(ti, rule_pending[ti])) {
            return ChaseOutcome::kCancelled;
          }
        }
        for (tgd::RuleIndex ti : order) {
          fold_collect_stats(ti);
          const ChaseOutcome oc = apply_rule(ti, rule_pending[ti]);
          if (oc != ChaseOutcome::kTerminated) return oc;
        }
      } else {
        for (tgd::RuleIndex ti : group) {
          pending.Clear();
          if (!collect_rule_sequential(ti, pending)) {
            return ChaseOutcome::kCancelled;
          }
          fold_collect_stats(ti);
          const ChaseOutcome oc = apply_rule(ti, pending);
          if (oc != ChaseOutcome::kTerminated) return oc;
        }
      }
    }
    if (round_cross_rule) ++result.stats.cross_rule_parallel_rounds;

    delta_begin = delta_end;
    delta_end = instance.size();
    if (options.use_delta) instance.AdvanceDelta();
  }

  return ChaseOutcome::kTerminated;
  }();

  result.stats.arena_bytes = instance.arena_bytes();
  result.stats.peak_atoms = instance.size();

  if (options.observer != nullptr) {
    options.observer->OnDone(result.outcome, result.stats);
  }
  return result;
}

ChaseResult RunChase(core::SymbolScope* symbols, const tgd::TgdSet& tgds,
                     const core::Database& db) {
  return RunChase(symbols, tgds, db, ChaseOptions{});
}

}  // namespace chase
}  // namespace nuchase
