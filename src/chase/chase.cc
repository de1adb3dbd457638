#include "chase/chase.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <thread>

#include "chase/fired_set.h"
#include "chase/null_store.h"
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
  // RunChase both reject over-cap sets before planning), making the
  // RuleIndex cast exact.
  const tgd::RuleIndex num_rules =
      static_cast<tgd::RuleIndex>(tgds.size());
  JoinPlanSet plans;
  plans.reserve(num_rules);
  for (tgd::RuleIndex ti = 0; ti < num_rules; ++ti) {
    const std::vector<Atom>& body = tgds.tgd(ti).body();
    JoinPlan plan;
    plan.reordered_bodies.resize(body.size());
    plan.old_flags.resize(body.size());
    for (std::size_t p = 0; p < body.size(); ++p) {
      std::vector<std::size_t> order = PlanJoinOrder(body, p);
      std::vector<Atom>& reordered = plan.reordered_bodies[p];
      std::vector<bool>& old_only = plan.old_flags[p];
      reordered.reserve(body.size());
      old_only.reserve(body.size());
      for (std::size_t i : order) {
        reordered.push_back(body[i]);
        old_only.push_back(i < p);
      }
    }
    plans.push_back(std::move(plan));
  }
  return plans;
}

namespace {

/// A collected, not-yet-applied trigger: the TGD index, the frontier
/// images (in sorted-frontier order), the full body-variable images (in
/// sorted-body-variable order; only kept by the oblivious variant, which
/// names nulls by them), and the instance index of the guard image
/// (kNoGuard when the TGD is not guarded).
struct PendingTrigger {
  tgd::RuleIndex tgd_index;
  std::vector<Term> frontier_images;
  std::vector<Term> body_images;
  AtomIndex guard_image;

  static constexpr AtomIndex kNoGuard = 0xffffffffu;
};

/// Canonical within-round order: rule-major (Σ-order), then by frontier
/// images, then body images. Both engines (delta-seeded and full-scan)
/// enumerate the same trigger set per round but in different orders;
/// sorting before the apply phase makes the firing order — and hence the
/// restricted-chase result — independent of the engine, so the ablation
/// cells stay byte-identical. The leading tgd_index key is what lets one
/// sort serve the cross-rule collect too: a whole group's worker buffers
/// merge into per-rule runs in Σ-order, each run internally in the exact
/// order the rule's solo collect would have produced.
bool PendingBefore(const PendingTrigger& a, const PendingTrigger& b) {
  if (a.tgd_index != b.tgd_index) return a.tgd_index < b.tgd_index;
  if (a.frontier_images != b.frontier_images) {
    return a.frontier_images < b.frontier_images;
  }
  return a.body_images < b.body_images;
}

/// Two candidates with equal (rule, frontier, body) images are the same
/// trigger (their dedup keys coincide), so PendingBefore is a total
/// order on the deduplicated set and a weak order with
/// duplicate-adjacency on the raw parallel candidate buffers — exactly
/// what the merge needs: sort, then drop consecutive equals.
bool SameTrigger(const PendingTrigger& a, const PendingTrigger& b) {
  return a.tgd_index == b.tgd_index &&
         a.frontier_images == b.frontier_images &&
         a.body_images == b.body_images;
}

/// Builds the PendingTrigger for (σ_ti, h) and its dedup key — the one
/// definition of trigger identity that the sequential engine, the
/// parallel workers and the merge all share. Key: (σ, h|fr(σ)) for the
/// semi-oblivious and restricted variants (result and
/// head-satisfaction depend only on the frontier restriction), (σ, h)
/// for the oblivious one.
void FillPendingTrigger(const tgd::Tgd& rule, std::uint32_t ti,
                        bool oblivious, const Substitution& h,
                        PendingTrigger* trig,
                        std::vector<std::uint32_t>* key) {
  trig->tgd_index = ti;
  trig->guard_image = PendingTrigger::kNoGuard;
  const std::vector<Term>& frontier = rule.frontier();
  trig->frontier_images.reserve(frontier.size());
  for (Term v : frontier) trig->frontier_images.push_back(h.at(v));
  key->clear();
  key->push_back(ti);
  if (oblivious) {
    const std::vector<Term>& body_vars = rule.body_variables();
    trig->body_images.reserve(body_vars.size());
    for (Term v : body_vars) {
      Term image = h.at(v);
      key->push_back(image.bits());
      trig->body_images.push_back(image);
    }
  } else {
    for (Term image : trig->frontier_images) {
      key->push_back(image.bits());
    }
  }
}

/// Rebuilds an already-built trigger's dedup key (the merge path, where
/// h is no longer available). Consistent with FillPendingTrigger by
/// construction: it reads the images that function stored.
std::vector<std::uint32_t> FiredKeyOf(const PendingTrigger& trig,
                                      bool oblivious) {
  const std::vector<Term>& images =
      oblivious ? trig.body_images : trig.frontier_images;
  std::vector<std::uint32_t> key;
  key.reserve(1 + images.size());
  key.push_back(trig.tgd_index);
  for (Term image : images) key.push_back(image.bits());
  return key;
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
  std::vector<PendingTrigger> candidates;
  std::uint64_t join_probes = 0;
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

/// Where one term of a head tuple comes from: a frontier image (read
/// from PendingTrigger::frontier_images) or a bound existential null
/// (read from the trigger's run of the pass-1 null buffer). TGD atoms
/// are constant-free (tgd.h), so these two sources are exhaustive.
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
  if (options.extent_log2 != 0) {
    // Re-seat the default-geometry instance before anything observes
    // it. Extent geometry is observationally invisible (same bytes,
    // same ToSortedString, same arena_bytes — padding is excluded per
    // segment), so this knob is tuning-only and golden-safe. Tuples
    // never straddle an extent boundary, so the requested geometry is
    // clamped up — equally invisibly — until one extent holds the
    // widest tuple the run can store (schema atoms cover every head
    // the chase can fire; database facts cover the initial load).
    std::uint32_t widest = 1;
    for (const Atom& fact : db.facts()) {
      widest = std::max(widest, fact.arity());
    }
    const tgd::RuleIndex num_rules =
        static_cast<tgd::RuleIndex>(tgds.size());
    for (tgd::RuleIndex ti = 0; ti < num_rules; ++ti) {
      for (const Atom& a : tgds.tgd(ti).body()) {
        widest = std::max(widest, a.arity());
      }
      for (const Atom& a : tgds.tgd(ti).head()) {
        widest = std::max(widest, a.arity());
      }
    }
    std::uint32_t log2 = options.extent_log2;
    while ((std::uint64_t{1} << log2) < widest) ++log2;
    result.instance = Instance(log2);
  }
  Instance& instance = result.instance;
  NullStore nulls(symbols);
  const bool oblivious = options.variant == ChaseVariant::kOblivious;
  FlatFiredSet fired;

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

  // One join plan per TGD, shared by every round (the body never
  // changes; only the seed position varies) — and by every run, when the
  // caller supplies plans precomputed with PlanJoins (api::Program does).
  JoinPlanSet local_plans;
  const JoinPlanSet* plans = options.plans;
  if (!rules_overflow && options.use_delta &&
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
  // (collect a whole group, then apply its rules in order).
  std::vector<PendingTrigger> pending;
  std::vector<std::vector<PendingTrigger>> rule_pending(num_rules);
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
  // h(atom) is substituted into this buffer and handed to the instance
  // as a span; no Atom is materialized anywhere in the loop.
  std::vector<Term> scratch;

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
  if (options.variant != ChaseVariant::kRestricted) {
    head_plans.reserve(num_rules);
    for (tgd::RuleIndex ti = 0; ti < num_rules; ++ti) {
      head_plans.push_back(PlanHead(tgds.tgd(ti)));
    }
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
  auto collect_rule_sequential =
      [&](tgd::RuleIndex ti, std::vector<PendingTrigger>& pending) {
    const tgd::Tgd& rule = tgds.tgd(ti);
    collect_probes[ti] = 0;
    collect_scanned[ti] = 0;
    HomomorphismFinder finder(instance, options.use_position_index);
    finder.set_probe_counter(&collect_probes[ti]);
    finder.set_interrupt(finder_interrupt);
    auto on_match = [&](const Substitution& h) {
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
        for (const Atom& body_atom : rule.body()) {
          AtomIndex idx = 0;
          ApplySubstitutionInto(body_atom, h, &scratch);
          if (!instance.FindTuple(body_atom.predicate,
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
      PendingTrigger trig;
      std::vector<std::uint32_t> key;
      FillPendingTrigger(rule, ti, oblivious, h, &trig, &key);
      if (!fired.Insert(key)) return true;
      if (rule.IsGuarded()) {
        ApplySubstitutionInto(rule.guard(), h, &scratch);
        AtomIndex gi = 0;
        if (instance.FindTuple(rule.guard().predicate,
                               core::TermSpan(scratch), &gi)) {
          trig.guard_image = gi;
        }
      }
      pending.push_back(std::move(trig));
      return true;
    };

    if (options.use_delta) {
      // Semi-naive: seed every join from a delta atom, through the
      // per-predicate delta index and the precomputed join order;
      // body positions before the seed are restricted to pre-delta
      // atoms so each homomorphism is enumerated from exactly one
      // seed.
      const JoinPlan& plan = (*plans)[ti];
      for (std::size_t seed_pos = 0;
           seed_pos < rule.body().size() && !interrupted; ++seed_pos) {
        core::PredicateId seed_pred = rule.body()[seed_pos].predicate;
        const std::vector<AtomIndex>& seeds =
            instance.DeltaAtomsWithPredicate(seed_pred);
        result.stats.delta_atoms_scanned += seeds.size();
        finder.set_old_restriction(&plan.old_flags[seed_pos],
                                   static_cast<AtomIndex>(delta_begin));
        for (AtomIndex a : seeds) {
          if (interrupted) break;
          finder.Enumerate(plan.reordered_bodies[seed_pos],
                           Substitution{}, /*seed_atom=*/0, a, on_match);
        }
      }
      finder.set_old_restriction(nullptr, 0);
    } else {
      // Naive baseline: re-enumerate every homomorphism from the full
      // instance; `fired` discards the ones found in earlier rounds.
      finder.Enumerate(rule.body(), on_match);
    }
    if (interrupted || finder.interrupted()) return false;
    // Both engines find the same trigger set per round, in different
    // orders; sort into canonical order so the firing order (and the
    // restricted-chase result) is engine-independent. (The pooled
    // group collect below merges its worker runs into this order.)
    std::sort(pending.begin(), pending.end(), PendingBefore);
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
      rule_pending[ti].clear();
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
    // Per-worker probe attribution: the task list is rule-major and a
    // worker's ranges advance monotonically, so its probes form
    // consecutive per-rule runs. Tagging each run with its rule keeps
    // the staged per-rule fold below exact.
    std::vector<std::vector<std::pair<tgd::RuleIndex, std::uint64_t>>>
        rule_probe_runs(workers.size());
    pool->Run([&](unsigned w) {
      CollectWorker& self = workers[w];
      self.candidates.clear();
      self.join_probes = 0;
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
      HomomorphismFinder finder(instance, options.use_position_index);
      finder.set_interrupt(pollable ? &stop : nullptr);
      std::vector<std::uint32_t> key;
      // The task loop retargets these whenever the (rule, seed) of the
      // current task changes; tasks are rule-major, so switches are as
      // rare as in the one-rule-at-a-time schedule.
      const tgd::Tgd* rule = nullptr;
      const JoinPlan* plan = nullptr;
      tgd::RuleIndex current_ti = 0;
      std::size_t current_seed_pos = 0;
      auto on_match = [&](const Substitution& h) {
        if (self.interrupted || (pollable && stop())) {
          self.interrupted = true;
          return false;
        }
        PendingTrigger trig;
        FillPendingTrigger(*rule, current_ti, oblivious, h, &trig, &key);
        // `fired` holds only keys recorded before this region began: a
        // concurrent read-only lookup. Duplicates found within the
        // region survive to the merge, which collapses them.
        if (fired.Contains(key)) return true;
        // Cheap local dedup: duplicate homomorphisms produced by one
        // seed (differing only outside the key) arrive consecutively,
        // so comparing against the last candidate catches the bulk of
        // them before they cost merge work. Cross-worker (and
        // non-consecutive) duplicates are collapsed by the canonical
        // merge below.
        if (!self.candidates.empty() &&
            SameTrigger(self.candidates.back(), trig)) {
          return true;
        }
        // No guard image on this path: parallel implies !build_forest,
        // and the guard image feeds only the forest.
        self.candidates.push_back(std::move(trig));
        return true;
      };
      while (!self.interrupted && !finder.interrupted()) {
        const std::size_t begin =
            next_task.fetch_add(chunk, std::memory_order_relaxed);
        if (begin >= seed_tasks.size()) break;
        const std::size_t end = std::min(begin + chunk, seed_tasks.size());
        for (std::size_t i = begin; i < end; ++i) {
          if (self.interrupted || finder.interrupted()) break;
          const SeedTask& task = seed_tasks[i];
          if (plan == nullptr || task.rule != current_ti ||
              task.seed_pos != current_seed_pos) {
            auto& runs = rule_probe_runs[w];
            if (runs.empty() || runs.back().first != task.rule) {
              runs.push_back({task.rule, 0});
            }
            finder.set_probe_counter(&runs.back().second);
            current_ti = task.rule;
            current_seed_pos = task.seed_pos;
            rule = &tgds.tgd(current_ti);
            plan = &(*plans)[current_ti];
            finder.set_old_restriction(
                &plan->old_flags[current_seed_pos],
                static_cast<AtomIndex>(delta_begin));
          }
          finder.Enumerate(plan->reordered_bodies[current_seed_pos],
                           Substitution{}, /*seed_atom=*/0, task.atom,
                           on_match);
        }
      }
      if (finder.interrupted()) self.interrupted = true;
      // Sort locally, still inside the region, so the serial merge
      // below pays O(N runs) comparisons instead of a full sort.
      std::sort(self.candidates.begin(), self.candidates.end(),
                PendingBefore);
    });
    for (std::size_t w = 0; w < workers.size(); ++w) {
      for (const auto& run : rule_probe_runs[w]) {
        collect_probes[run.first] += run.second;
      }
      if (workers[w].interrupted) interrupted = true;
    }
    if (interrupted) return false;
    // Canonical merge: the N sorted runs become one rule-major,
    // PendingBefore-ordered sequence with consecutive duplicates
    // collapsed; every kept trigger is recorded in `fired` and routed
    // to its rule's pending list. Per member rule: the same triggers,
    // in the same order, with the same `fired` entries as the rules
    // collecting one at a time.
    std::vector<std::size_t> heads(workers.size(), 0);
    tgd::RuleIndex last_rule = 0;
    bool have_last = false;
    while (true) {
      std::size_t best_w = workers.size();
      for (std::size_t w = 0; w < workers.size(); ++w) {
        if (heads[w] >= workers[w].candidates.size()) continue;
        if (best_w == workers.size() ||
            PendingBefore(workers[w].candidates[heads[w]],
                          workers[best_w].candidates[heads[best_w]])) {
          best_w = w;
        }
      }
      if (best_w == workers.size()) break;
      PendingTrigger& c = workers[best_w].candidates[heads[best_w]++];
      // The stream is rule-major: a duplicate of c can only be the most
      // recently kept trigger, which sits at the back of c's own rule's
      // list. (SameTrigger across distinct rules is always false.)
      if (have_last && SameTrigger(rule_pending[last_rule].back(), c)) {
        continue;
      }
      fired.Insert(FiredKeyOf(c, oblivious));
      last_rule = c.tgd_index;
      have_last = true;
      rule_pending[c.tgd_index].push_back(std::move(c));
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
                        std::vector<PendingTrigger>& pending)
      -> ChaseOutcome {
    if (pending.empty()) return ChaseOutcome::kTerminated;
    const tgd::Tgd& rule = tgds.tgd(ti);
    const std::vector<Term>& frontier = rule.frontier();
    if (pool_ptr != nullptr) ++result.stats.parallel_apply_batches;
    const bool apply_pollable = options.cancel != nullptr || has_deadline;
    if (options.variant == ChaseVariant::kRestricted) {
      // Restricted chase: a trigger is applied only if no extension
      // h' ⊇ h|fr(σ) already maps head(σ) into the instance.
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
            HomomorphismFinder finder(instance,
                                      options.use_position_index);
            finder.set_probe_counter(&self.join_probes);
            finder.set_interrupt(apply_pollable ? &stop : nullptr);
            for (std::size_t t = begin; t < end; ++t) {
              if (self.interrupted || finder.interrupted()) {
                self.interrupted = true;
                break;
              }
              Substitution h;
              for (std::size_t i = 0; i < frontier.size(); ++i) {
                h.emplace(frontier[i], pending[t].frontier_images[i]);
              }
              bool satisfied = false;
              finder.Enumerate(rule.head(), h, /*seed_atom=*/-1,
                               /*seed_target=*/0,
                               [&](const Substitution&) {
                                 satisfied = true;
                                 return false;  // stop at the first
                               });
              head_satisfied[t] = satisfied ? 1 : 0;
            }
            if (finder.interrupted()) self.interrupted = true;
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
      for (std::size_t t = 0; t < pending.size(); ++t) {
        const PendingTrigger& trig = pending[t];
        if (stop_requested()) return ChaseOutcome::kCancelled;
        Substitution h;
        for (std::size_t i = 0; i < frontier.size(); ++i) {
          h.emplace(frontier[i], trig.frontier_images[i]);
        }
        bool satisfied = head_satisfied[t] != 0;
        if (!satisfied && instance.size() > frozen_size) {
          // Atoms inserted by earlier triggers of this batch may
          // have satisfied the head since the freeze; once
          // satisfied, monotonicity keeps the trigger satisfied
          // forever, so the `fired` entry can stand.
          HomomorphismFinder head_finder(instance,
                                         options.use_position_index);
          head_finder.set_probe_counter(&result.stats.join_probes);
          head_finder.set_interrupt(finder_interrupt);
          head_finder.Enumerate(rule.head(), h, /*seed_atom=*/-1,
                                /*seed_target=*/0,
                                [&](const Substitution&) {
                                  satisfied = true;
                                  return false;  // stop at the first
                                });
          if (head_finder.interrupted()) {
            return ChaseOutcome::kCancelled;
          }
        }
        if (satisfied) {
          ++result.stats.triggers_satisfied;
          continue;
        }
        ++result.stats.triggers_fired;
        bound_nulls.clear();
        NullStore::BindResult bind = nulls.BindTriggerNulls(
            ti, rule.existential(), trig.frontier_images,
            trig.frontier_images, options.max_depth, &bound_nulls,
            &result.stats.max_depth);
        if (options.observer != nullptr && !bound_nulls.empty()) {
          options.observer->OnNullsBound(
              ti, bound_nulls.data(), bound_nulls.size(),
              trig.frontier_images.data(), trig.frontier_images.size());
        }
        if (bind != NullStore::BindResult::kOk) {
          // Depth budget breached, or null ids wrapped past Term's
          // index space: stop with a consistent prefix. The trigger
          // was counted as fired; keep OnFire parity.
          if (options.observer != nullptr) {
            options.observer->OnFire(trig.tgd_index, instance.size());
          }
          return bind == NullStore::BindResult::kDepthLimit
                     ? ChaseOutcome::kDepthLimit
                     : ChaseOutcome::kResourceExhausted;
        }
        for (std::size_t i = 0; i < rule.existential().size(); ++i) {
          h.emplace(rule.existential()[i], bound_nulls[i]);
        }
        for (const Atom& head_atom : rule.head()) {
          ApplySubstitutionInto(head_atom, h, &scratch);
          auto [idx, fresh] = instance.InsertTuple(
              head_atom.predicate, core::TermSpan(scratch));
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
      const std::size_t num_existential = rule.existential().size();
      std::size_t batch_n = pending.size();
      ChaseOutcome stop_outcome = ChaseOutcome::kTerminated;
      bound_nulls.clear();
      for (std::size_t t = 0; t < pending.size(); ++t) {
        const PendingTrigger& trig = pending[t];
        const std::size_t bound_before = bound_nulls.size();
        NullStore::BindResult bind = nulls.BindTriggerNulls(
            ti, rule.existential(),
            oblivious ? trig.body_images : trig.frontier_images,
            trig.frontier_images, options.max_depth, &bound_nulls,
            &result.stats.max_depth);
        if (options.observer != nullptr &&
            bound_nulls.size() > bound_before) {
          options.observer->OnNullsBound(
              ti, bound_nulls.data() + bound_before,
              bound_nulls.size() - bound_before,
              trig.frontier_images.data(), trig.frontier_images.size());
        }
        if (bind != NullStore::BindResult::kOk) {
          batch_n = t;
          stop_outcome = bind == NullStore::BindResult::kDepthLimit
                             ? ChaseOutcome::kDepthLimit
                             : ChaseOutcome::kResourceExhausted;
          break;
        }
      }

      // Pass 2 (parallel): build every candidate head tuple into the
      // trigger's slice of the shared buffer. Pure reads of the head
      // plan, the frontier images and the pass-1 nulls; pure writes
      // of disjoint slices — worker assignment cannot affect a byte.
      const HeadPlan& hplan = head_plans[ti];
      const std::size_t num_heads = rule.head().size();
      apply_terms.resize(batch_n * hplan.terms_per_trigger);
      apply_tuples.resize(batch_n * num_heads);
      util::ParallelChunks(
          pool_ptr, batch_n, 16,
          [&](unsigned, std::size_t begin, std::size_t end) {
            for (std::size_t t = begin; t < end; ++t) {
              const PendingTrigger& trig = pending[t];
              const std::size_t base = t * hplan.terms_per_trigger;
              for (std::size_t s = 0; s < hplan.slots.size(); ++s) {
                const HeadSlot& slot = hplan.slots[s];
                apply_terms[base + s] =
                    slot.existential
                        ? bound_nulls[t * num_existential + slot.index]
                        : trig.frontier_images[slot.index];
              }
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
          rule_pending[ti].clear();
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
          pending.clear();
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
