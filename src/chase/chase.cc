#include "chase/chase.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <functional>
#include <numeric>

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

/// A collected, not-yet-applied trigger of the rule its PendingList
/// was collected for. Its `count` images live at offset `images` of
/// the list's arena: the frontier images (sorted-frontier order), then
/// — oblivious variant only, which names nulls by them — the full
/// body-variable images (sorted-body-variable order). `guard_image` is
/// the instance index of the guard image, or kNoGuard (the TGD is not
/// guarded, or no forest is being built).
struct PendingTrigger {
  std::uint64_t images;
  std::uint32_t count;
  AtomIndex guard_image;

  static constexpr AtomIndex kNoGuard = 0xffffffffu;
};

/// One rule's pending triggers plus the one Term arena all their images
/// live in: collecting a trigger appends to two reused vectors, never
/// allocates a vector of its own.
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

/// Canonical order of one rule's pending triggers: by frontier images,
/// then body images (one lexicographic comparison of the image run:
/// both halves have the rule's fixed lengths). The delta-seeded collect
/// finds a round's triggers in seed and join-plan order; sorting before
/// the apply phase makes the firing order — and hence null numbering
/// and the restricted-chase result — a function of Σ, D and the round
/// alone, which is what the brute-force reference chase of the tests
/// reproduces.
bool PendingBefore(const PendingTrigger& a, const Term* a_images,
                   const PendingTrigger& b, const Term* b_images) {
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
/// The same key rebuilt from a collected trigger of rule ti and its
/// images (the debug null-naming check, where h is gone). Consistent
/// with BuildFiredKey by construction: the oblivious key images are the
/// body images, which follow the frontier images in the arena.
void FiredKeyOf(tgd::RuleIndex ti, const PendingTrigger& trig,
                const Term* images, const JoinPlan& plan, bool oblivious,
                std::vector<std::uint32_t>* key) {
  const std::size_t skip = oblivious ? plan.frontier_slots.size() : 0;
  key->clear();
  key->push_back(ti);
  for (std::size_t i = skip; i < trig.count; ++i) {
    key->push_back(images[i].bits());
  }
}
#endif

/// Appends the trigger h of the list's rule: its images go to the
/// list's arena.
void AppendPending(const JoinPlan& plan, bool oblivious, const Term* slots,
                   AtomIndex guard_image, PendingList* list) {
  PendingTrigger trig;
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

/// Binds the `num_existential` existential variables of one firing
/// trigger to fresh nulls, appended to `*out` in σ's sorted existential
/// order.
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

/// Where one term of a head tuple comes from: a frontier image or one
/// of the trigger's bound existential nulls. TGD atoms are
/// constant-free (tgd.h), so these two sources are exhaustive.
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
  for (const Atom& fact : db.facts()) {
    auto [idx, fresh] = instance.Insert(fact);
    if (fresh && options.build_forest) result.forest.AddRoot(idx);
  }

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

  // Every round walks one permutation of Σ, one rule at a time:
  // collect, then apply. The permutation is Σ-order, except in restraint
  // mode (restricted variant, opt-in, NOT identity-preserving — see
  // ChaseOptions::restraint_order), where it is graph::RestraintOrder,
  // restrainers first. Both are pure functions of Σ, so every run is
  // deterministic.
  std::vector<tgd::RuleIndex> walk;
  if (options.restraint_order &&
      options.variant == ChaseVariant::kRestricted && !rules_overflow) {
    walk = graph::RestraintOrder(tgds);
  } else {
    walk.resize(num_rules);
    std::iota(walk.begin(), walk.end(), tgd::RuleIndex{0});
  }

  // The round's delta is the global index window [delta_begin,
  // delta_end): the atoms the previous round inserted (round one: D).
  AtomIndex delta_begin = 0;
  AtomIndex delta_end = static_cast<AtomIndex>(instance.size());
  // The one pending list, reused by every rule and round: collecting
  // allocates only while it outgrows its high-water mark.
  PendingList pending_list;
  // Scratch tuple for the allocation-free probe/insert fast path: every
  // h(atom) is instantiated into this buffer and handed to the instance
  // as a span; no Atom is materialized anywhere in the loop. `key` is
  // the reused fired-set key buffer.
  std::vector<Term> scratch;
  std::vector<std::uint32_t> key;
  // The join kernel of the collect phase, reused by every rule and
  // round, counting straight into join_probes.
  HomomorphismFinder finder(instance);
  finder.set_probe_counter(&result.stats.join_probes);
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
  std::vector<Term> bound_nulls;             // the firing trigger's nulls
  std::vector<std::uint8_t> head_satisfied;  // restricted pre-checks

  // The loop reports its outcome; the observer's OnDone fires on every
  // exit path alike, after the stats are final.
  result.outcome = [&]() -> ChaseOutcome {
  if (rules_overflow) return ChaseOutcome::kResourceExhausted;

  // --- Collect: one rule against the current instance. ---
  // Enumerates candidate homomorphisms without touching the instance
  // while its index vectors are being iterated, joining only through
  // the round's delta. Leaves `list` in canonical (PendingBefore) order;
  // returns false when the run was interrupted.
  auto collect_rule = [&](tgd::RuleIndex ti, PendingList& list) {
    const tgd::Tgd& rule = tgds.tgd(ti);
    const JoinPlan& plan = (*plans)[ti];
    list.Clear();
    auto on_match = [&](const Term* h) {
      if (interrupted || stop_requested()) {
        interrupted = true;
        return false;  // stop enumerating; the run is being cancelled
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
      AppendPending(plan, oblivious, h, guard_image, &list);
      return true;
    };

    // Seed every join from a delta atom of the seed position's
    // predicate, through the precomputed join order. Body positions
    // before the seed are restricted to pre-delta atoms, so each
    // homomorphism is enumerated from exactly one seed: its first (in
    // body order) atom at or past delta_begin. Positions after the seed
    // may also match atoms earlier rules inserted this round; a
    // homomorphism whose first non-old atom is one of those waits for
    // the next round, whose delta holds it.
    for (std::size_t seed_pos = 0;
         seed_pos < rule.body().size() && !interrupted; ++seed_pos) {
      const core::IndexSpan seeds = instance.AtomsWithPredicateIn(
          rule.body()[seed_pos].predicate, delta_begin, delta_end);
      result.stats.delta_atoms_scanned += seeds.size();
      const SlotConjunction& seeded = plan.seeded[seed_pos];
      for (AtomIndex a : seeds) {
        if (interrupted) break;
        finder.Begin(seeded);
        finder.RunSeeded(a, delta_begin, on_match);
      }
    }
    if (interrupted || finder.interrupted()) return false;
    SortPending(&list);
    return true;
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
    const bool restricted = options.variant == ChaseVariant::kRestricted;
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
    // Restricted pre-check: decide head satisfaction for every pending
    // trigger against the batch-start instance. Satisfaction is
    // monotone — the atom set only grows — so a "satisfied" verdict is
    // final; only not-yet-satisfied verdicts can be flipped by atoms
    // this very batch inserts, and the fire loop re-checks exactly
    // those, exactly when an insert has happened. Skip/fire decisions
    // therefore match a walk that checks every trigger just before
    // firing it; join_probes is defined by this two-step schedule.
    const std::uint64_t frozen_size = instance.size();
    if (restricted) {
      head_satisfied.assign(pending.size(), 0);
      for (std::size_t t = 0; t < pending.size(); ++t) {
        head_satisfied[t] = head_satisfied_now(pending[t]) ? 1 : 0;
        // An aborted satisfaction check certifies nothing: stop before
        // applying (or skipping) any of this batch's triggers.
        if (head_finder.interrupted()) return ChaseOutcome::kCancelled;
      }
    }

    // Fire loop (canonical order): each trigger binds its nulls and
    // inserts its heads before the next one starts, so a run stopped by
    // a budget has bound nulls for exactly the triggers it fired.
    for (std::size_t t = 0; t < pending.size(); ++t) {
      const PendingTrigger& trig = pending[t];
      const Term* frontier_images = list.ImagesOf(trig);
      if (stop_requested()) return ChaseOutcome::kCancelled;
      if (restricted) {
        bool satisfied = head_satisfied[t] != 0;
        if (!satisfied && instance.size() > frozen_size) {
          // Atoms inserted by earlier triggers of this batch may have
          // satisfied the head since the pre-check; once satisfied,
          // monotonicity keeps the trigger satisfied forever, so the
          // `fired` entry can stand.
          satisfied = head_satisfied_now(trig);
          if (head_finder.interrupted()) return ChaseOutcome::kCancelled;
        }
        if (satisfied) {
          ++result.stats.triggers_satisfied;
          continue;
        }
      }
      ++result.stats.triggers_fired;
#ifndef NDEBUG
      // The debug check of BindFreshNulls' naming argument.
      FiredKeyOf(ti, trig, frontier_images, plan, oblivious, &key);
      const bool fresh_key = bound_null_keys.Insert(key);
      assert(fresh_key && "a fired-set key bound its nulls twice");
      (void)fresh_key;
#endif
      bound_nulls.clear();
      const BindResult bind = BindFreshNulls(
          symbols, num_existential, frontier_images, num_frontier,
          options.max_depth, &bound_nulls, &result.stats.max_depth);
      if (options.observer != nullptr && !bound_nulls.empty()) {
        options.observer->OnNullsBound(ti, bound_nulls.data(),
                                       bound_nulls.size(), frontier_images,
                                       num_frontier);
      }
      if (bind != BindResult::kOk) {
        // Depth budget breached, or null ids wrapped past Term's index
        // space: stop with a consistent prefix. The trigger was counted
        // as fired; keep OnFire parity.
        if (options.observer != nullptr) {
          options.observer->OnFire(ti, instance.size());
        }
        return bind == BindResult::kDepthLimit
                   ? ChaseOutcome::kDepthLimit
                   : ChaseOutcome::kResourceExhausted;
      }
      // Head tuples, built from the frontier images and the bound nulls;
      // the forest and the atom budget are handled per atom.
      scratch.resize(hplan.terms_per_trigger);
      hplan.Fill(frontier_images, bound_nulls.data(), scratch.data());
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
            options.observer->OnFire(ti, instance.size());
          }
          return ChaseOutcome::kAtomLimit;
        }
      }
      if (options.observer != nullptr) {
        options.observer->OnFire(ti, instance.size());
      }
    }
    return ChaseOutcome::kTerminated;
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

    for (tgd::RuleIndex ti : walk) {
      if (!collect_rule(ti, pending_list)) return ChaseOutcome::kCancelled;
      const ChaseOutcome oc = apply_rule(ti, pending_list);
      if (oc != ChaseOutcome::kTerminated) return oc;
    }

    delta_begin = delta_end;
    delta_end = static_cast<AtomIndex>(instance.size());
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
