#include "chase/chase.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <functional>
#include <optional>

#include "chase/fired_set.h"
#include "chase/trigger.h"
#include "graph/reliance.h"
#include "util/deadline.h"

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
/// byte-identical.
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

/// The one definition of trigger identity: writes the dedup key of
/// (σ_ti, h) into `*key` (cleared first; a reused buffer). Key:
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

#ifndef NDEBUG
/// The same key rebuilt from a collected trigger's images (the debug
/// null-naming check, where h is gone). Consistent with BuildFiredKey
/// by construction: the oblivious key images are the body images, which
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
#endif

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

/// How binding a trigger's existential variables ended.
enum class BindResult {
  kOk,                 ///< Every null bound (all within the budget).
  kDepthLimit,         ///< A null exceeded the depth budget.
  kResourceExhausted,  ///< The scope ran out of null ids.
};

/// Binds the `num_existential` existential variables of one trigger —
/// the unit of work of the apply phase's binding pass — to fresh nulls,
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

/// Where one term of a head tuple comes from: a frontier image or a
/// bound existential null (read from the trigger's run of the pass-1
/// null buffer). TGD atoms are constant-free (tgd.h), so these two
/// sources are exhaustive.
struct HeadSlot {
  bool existential;
  std::uint32_t index;
};

/// One head atom of a HeadPlan: `pred(out[begin], ...,
/// out[begin + arity - 1])` over the buffer HeadPlan::Fill writes.
struct HeadTuple {
  core::PredicateId pred;
  std::uint32_t begin;
  std::uint32_t arity;
};

/// The precompiled build recipe for one rule's head: filling a
/// trigger's head tuples is a straight copy loop driven by `slots` (all
/// head atoms concatenated), with `tuples[j]` giving each atom's
/// predicate, arity and term offset within the filled buffer.
struct HeadPlan {
  std::vector<HeadSlot> slots;
  std::vector<HeadTuple> tuples;
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
    HeadTuple tuple;
    tuple.pred = head_atom.predicate;
    tuple.begin = static_cast<std::uint32_t>(plan.terms_per_trigger);
    tuple.arity = static_cast<std::uint32_t>(head_atom.arity());
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
  // function of Σ, so the mode stays deterministic even though it
  // deliberately differs from Σ-order.
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
  // Scratch of the fused path (collect one rule, apply it, move on) and
  // the per-rule pending lists of the restraint path (collect a whole
  // group, then apply its rules in restraint order). Reused across
  // rounds: collecting allocates only while a list outgrows its
  // high-water mark.
  PendingList pending;
  std::vector<PendingList> rule_pending(restraint_mode ? num_rules : 0);
  // Per-rule staging of the collect phase's join probes. The restraint
  // path collects a whole group before any member applies, but the
  // fused reference schedule counts a rule's collect work only when the
  // walk reaches that rule — so the staged probes fold into the stats
  // immediately before each apply. An atom-budget trip mid-group then
  // never counts collects the fused walk would not have run.
  std::vector<std::uint64_t> collect_probes(num_rules, 0);
  // Scratch tuple for the allocation-free probe/insert fast path: every
  // h(atom) is instantiated into this buffer and handed to the instance
  // as a span; no Atom is materialized anywhere in the loop. `key` is
  // the reused fired-set key buffer.
  std::vector<Term> scratch;
  std::vector<std::uint32_t> key;
  // The join kernel of the collect phase, reused by every rule and
  // round.
  HomomorphismFinder finder(instance);
  finder.set_interrupt(finder_interrupt);
  // The restricted variant's head-satisfaction kernel: one finder for
  // the pre-checks and the re-checks, counting straight into
  // join_probes.
  HomomorphismFinder head_finder(instance);
  head_finder.set_probe_counter(&result.stats.join_probes);
  head_finder.set_interrupt(finder_interrupt);

  std::vector<HeadPlan> head_plans;
  head_plans.reserve(num_rules);
  for (tgd::RuleIndex ti = 0; ti < num_rules; ++ti) {
    head_plans.push_back(PlanHead(tgds.tgd(ti)));
  }
  std::vector<Term> bound_nulls;             // pass-1 nulls, E per trigger
  std::vector<std::uint8_t> head_satisfied;  // restricted pre-checks

  // The loop reports its outcome; the observer's OnDone fires on every
  // exit path alike, after the stats are final.
  result.outcome = [&]() -> ChaseOutcome {
  if (rules_overflow) return ChaseOutcome::kResourceExhausted;

  // --- Collect: one rule against the current instance. ---
  // Enumerates candidate homomorphisms without touching the instance
  // while its index vectors are being iterated. The semi-naive engine
  // only joins through the previous round's delta; the naive baseline
  // re-enumerates everything and lets the `fired` set discard the
  // stale finds. Leaves `pending` in canonical (PendingBefore) order;
  // returns false when the run was interrupted.
  auto collect_rule = [&](tgd::RuleIndex ti, PendingList& pending) {
    const tgd::Tgd& rule = tgds.tgd(ti);
    const JoinPlan& plan = (*plans)[ti];
    collect_probes[ti] = 0;
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
    // restricted-chase result) is engine-independent.
    SortPending(&pending);
    return true;
  };

  // Inserts one firing trigger's head atoms — built from its frontier
  // images and its bound nulls — grows the forest, enforces the atom
  // budget and reports OnFire. The caller has already counted the
  // trigger as fired. Returns kTerminated when the run may continue.
  auto insert_heads = [&](const HeadPlan& hplan, const PendingTrigger& trig,
                          const Term* frontier_images,
                          const Term* nulls) -> ChaseOutcome {
    scratch.resize(hplan.terms_per_trigger);
    hplan.Fill(frontier_images, nulls, scratch.data());
    for (const HeadTuple& tuple : hplan.tuples) {
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
          result.forest.AddChild(idx, trig.guard_image, atom_depth);
        }
      }
      if (instance.size() > options.max_atoms) {
        // The budget-tripping trigger did fire: keep the observer's
        // OnFire tally equal to triggers_fired.
        if (options.observer != nullptr) {
          options.observer->OnFire(trig.tgd_index, instance.size());
        }
        return ChaseOutcome::kAtomLimit;
      }
    }
    if (options.observer != nullptr) {
      options.observer->OnFire(trig.tgd_index, instance.size());
    }
    return ChaseOutcome::kTerminated;
  };

  // --- Apply: one rule's canonical pending list, in canonical order. ---
  // Returns kTerminated when the round may continue.
  auto apply_rule = [&](tgd::RuleIndex ti,
                        const PendingList& list) -> ChaseOutcome {
    const std::vector<PendingTrigger>& pending = list.triggers;
    if (pending.empty()) return ChaseOutcome::kTerminated;
    const tgd::Tgd& rule = tgds.tgd(ti);
    const JoinPlan& plan = (*plans)[ti];
    const HeadPlan& hplan = head_plans[ti];
    const std::size_t num_frontier = rule.frontier().size();
    const std::size_t num_existential = rule.existential().size();
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
      auto head_satisfied_now = [&](const PendingTrigger& trig) {
        const Term* images = list.ImagesOf(trig);
        head_finder.Begin(plan.head);
        for (std::size_t i = 0; i < num_frontier; ++i) {
          head_finder.Bind(plan.frontier_slots[i], images[i]);
        }
        bool satisfied = false;
        head_finder.Run([&](const Term*) {
          satisfied = true;
          return false;  // stop at the first
        });
        return satisfied;
      };
      //
      // Pre-check: decide head satisfaction for every pending trigger
      // against the batch-start instance. Satisfaction is monotone —
      // the atom set only grows — so a "satisfied" verdict is final;
      // only not-yet-satisfied verdicts can be flipped by atoms this
      // very batch inserts, and the fire loop re-checks exactly those,
      // exactly when an insert has happened. Skip/fire decisions
      // therefore match a walk that checks every trigger just before
      // firing it; join_probes is defined by this two-step schedule.
      const std::uint64_t frozen_size = instance.size();
      head_satisfied.assign(pending.size(), 0);
      for (std::size_t t = 0; t < pending.size(); ++t) {
        head_satisfied[t] = head_satisfied_now(pending[t]) ? 1 : 0;
        // An aborted satisfaction check certifies nothing: stop before
        // applying (or skipping) any of this batch's triggers.
        if (head_finder.interrupted()) return ChaseOutcome::kCancelled;
      }

      // Fire loop (canonical order): skip or fire.
      for (std::size_t t = 0; t < pending.size(); ++t) {
        const PendingTrigger& trig = pending[t];
        const Term* frontier_images = list.ImagesOf(trig);
        if (stop_requested()) return ChaseOutcome::kCancelled;
        bool satisfied = head_satisfied[t] != 0;
        if (!satisfied && instance.size() > frozen_size) {
          // Atoms inserted by earlier triggers of this batch may
          // have satisfied the head since the pre-check; once
          // satisfied, monotonicity keeps the trigger satisfied
          // forever, so the `fired` entry can stand.
          satisfied = head_satisfied_now(trig);
          if (head_finder.interrupted()) return ChaseOutcome::kCancelled;
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
        const ChaseOutcome oc =
            insert_heads(hplan, trig, frontier_images, bound_nulls.data());
        if (oc != ChaseOutcome::kTerminated) return oc;
      }
    } else {
      // Semi-oblivious / oblivious: every pending trigger fires.
      //
      // Pass 1 (canonical order): bind every trigger's existential
      // nulls. Null names are functional in the firing key, so binding
      // in canonical trigger order is the functional naming. A depth or
      // id-space failure truncates the batch — earlier triggers still
      // apply, and the failure is reported after they do (first error
      // in canonical order wins).
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

      // Pass 2 (canonical order): fire the bound triggers.
      for (std::size_t t = 0; t < batch_n; ++t) {
        if (stop_requested()) return ChaseOutcome::kCancelled;
        ++result.stats.triggers_fired;
        const ChaseOutcome oc =
            insert_heads(hplan, pending[t], list.ImagesOf(pending[t]),
                         bound_nulls.data() + t * num_existential);
        if (oc != ChaseOutcome::kTerminated) return oc;
      }
      if (stop_outcome != ChaseOutcome::kTerminated) {
        // The pass-1 failure at pending[batch_n] is this batch's first
        // error in canonical order (every earlier trigger applied
        // cleanly). The tripping trigger did fire; keep OnFire parity.
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

  // Fold one rule's staged collect probes into the stats, at the exact
  // point where the fused reference walk has just finished that rule's
  // collect: immediately before its apply.
  auto fold_collect_probes = [&](tgd::RuleIndex ti) {
    result.stats.join_probes += collect_probes[ti];
    collect_probes[ti] = 0;
  };

  while (delta_begin < delta_end) {
    if (options.max_rounds != 0 &&
        result.stats.rounds >= options.max_rounds) {
      return ChaseOutcome::kRoundLimit;
    }
    if (stop_requested()) return ChaseOutcome::kCancelled;
    ++result.stats.rounds;
    if (options.observer != nullptr) {
      RoundProgress progress;
      progress.round = result.stats.rounds;
      progress.atoms = instance.size();
      progress.delta_atoms = delta_end - delta_begin;
      progress.triggers_fired = result.stats.triggers_fired;
      options.observer->OnRound(progress);
    }

    // The round walks the ordered group partition of Σ (every rule its
    // own group when reliance scheduling is off). Two shapes:
    //   restraint -- collect every member against the group-start
    //                instance, then apply in restraint order;
    //   fused     -- collect a rule, apply it, move on (inside a group
    //                this is byte-identical to collecting the whole
    //                group first, by the group invariant).
    for (std::size_t g = 0; g < groups->size(); ++g) {
      const std::vector<tgd::RuleIndex>& group = (*groups)[g];
      if (restraint_mode && group.size() > 1) {
        for (tgd::RuleIndex ti : group) {
          rule_pending[ti].Clear();
          if (!collect_rule(ti, rule_pending[ti])) {
            return ChaseOutcome::kCancelled;
          }
        }
        for (tgd::RuleIndex ti : restraint_orders[g]) {
          fold_collect_probes(ti);
          const ChaseOutcome oc = apply_rule(ti, rule_pending[ti]);
          if (oc != ChaseOutcome::kTerminated) return oc;
        }
      } else {
        for (tgd::RuleIndex ti : group) {
          pending.Clear();
          if (!collect_rule(ti, pending)) return ChaseOutcome::kCancelled;
          fold_collect_probes(ti);
          const ChaseOutcome oc = apply_rule(ti, pending);
          if (oc != ChaseOutcome::kTerminated) return oc;
        }
      }
    }

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
