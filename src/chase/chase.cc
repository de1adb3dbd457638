#include "chase/chase.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <functional>
#include <numeric>

#include "chase/trigger.h"
#include "core/tuple_set.h"
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

/// A collected, not-yet-applied trigger: row `row` of its rule's fired
/// set, which holds its images. `guard_image` is the instance index of
/// the guard image, or kNoGuard (the TGD is not guarded, or no forest
/// is being built).
struct PendingTrigger {
  std::uint32_t row;
  AtomIndex guard_image;

  static constexpr AtomIndex kNoGuard = 0xffffffffu;
};

/// One chase run's round loop. Every round walks one permutation of Σ,
/// one rule at a time, through the phases: Collect the rule's new
/// triggers, Sort them into canonical order, then Fire them — the
/// restricted variant's CheckHeads/HeadSatisfied, then Bind and Insert
/// per trigger. Phases that can end the run return kTerminated when it
/// may continue.
///
/// Cooperative interruption: the cancel token is a relaxed atomic read,
/// polled on every StopRequested call; the deadline needs a clock read,
/// amortized to one in 64 polls. Polls happen at round, trigger and
/// homomorphism granularity — and, through the finder's interrupt hook,
/// at probe granularity inside long match-free joins — so even a
/// diverging chase whose rounds keep growing stops within a bounded
/// slice of work. `stopped_` is the one stop decision: once a poll
/// trips it, every phase unwinds and the run ends with kCancelled.
class RoundEngine {
 public:
  /// Inserts D into result->instance and prepares the plans and the
  /// walk; `result` must outlive the engine.
  RoundEngine(core::SymbolScope* symbols, const tgd::TgdSet& tgds,
              const core::Database& db, const ChaseOptions& options,
              ChaseResult* result);
  RoundEngine(const RoundEngine&) = delete;
  RoundEngine& operator=(const RoundEngine&) = delete;

  /// Runs rounds until a round's delta is empty or a budget, the cancel
  /// token or the deadline stops the run.
  ChaseOutcome Run();

 private:
  bool StopRequested();
  void Collect(tgd::RuleIndex ti);
  void Sort(tgd::RuleIndex ti);
  ChaseOutcome Fire(tgd::RuleIndex ti);
  bool CheckHeads(tgd::RuleIndex ti);
  bool HeadSatisfied(tgd::RuleIndex ti, const Term* frontier_images);
  ChaseOutcome Bind(tgd::RuleIndex ti, std::uint32_t row);
  ChaseOutcome Insert(tgd::RuleIndex ti, const PendingTrigger& trig);
  core::TermSpan FiredRow(const JoinPlan& plan, const Term* h);
  const Term* FrontierImages(tgd::RuleIndex ti, std::uint32_t row);
  core::TermSpan GatherFrontier(const JoinPlan& plan, const Term* h);

  core::SymbolScope* const symbols_;
  const tgd::TgdSet& tgds_;
  const ChaseOptions& options_;
  ChaseStats& stats_;
  Forest& forest_;
  Instance& instance_;
  const bool oblivious_;
  const bool restricted_;
  // Rule-index discipline: every rule loop compares tgd::RuleIndex
  // against tgd::RuleIndex; the cap check makes the narrowing from
  // tgds.size() exact. An over-cap Σ stops cleanly (outcome
  // kResourceExhausted, the database facts a consistent prefix) before
  // any index arithmetic, planning or scheduling runs.
  const bool rules_overflow_;

  const bool has_deadline_;
  const std::chrono::steady_clock::time_point deadline_;
  std::uint32_t deadline_poll_ = 0;
  bool stopped_ = false;
  // The finder's probe-level hook (see the class comment); installed
  // only when there is something to poll, keeping the probe loop
  // branch-predictable otherwise.
  const std::function<bool()> probe_interrupt_;

  // One compiled join plan per TGD, shared by every round — and by
  // every run, when the caller supplies plans precomputed with
  // PlanJoins (api::Program does).
  JoinPlanSet local_plans_;
  const JoinPlanSet* plans_;
  // The permutation of Σ every round walks: Σ-order, except in
  // restraint mode (restricted variant, opt-in, NOT identity-preserving
  // — see ChaseOptions::restraint_order), where it is
  // graph::RestraintOrder, restrainers first. Both are pure functions
  // of Σ, so every run is deterministic.
  std::vector<tgd::RuleIndex> walk_;

  // The fired set: one TupleSet per rule, whose rows are the trigger
  // identities FiredRow defines. A pending trigger is a row number.
  std::vector<core::TupleSet> fired_;
#ifndef NDEBUG
  // The debug form of Bind's naming argument: bound_[ti][row] is set
  // once the trigger in that fired-set row bound its nulls, which may
  // happen at most once per run.
  std::vector<std::vector<bool>> bound_;
#endif
  // The one join kernel, counting straight into join_probes: the
  // collect's body joins and the restricted head checks. A rule's
  // collect always finishes before its fire loop starts.
  HomomorphismFinder finder_;

  // The round's delta is the global index window [delta_begin_,
  // delta_end_): the atoms the previous round inserted (round one: D).
  AtomIndex delta_begin_ = 0;
  AtomIndex delta_end_ = 0;
  // The one pending list, reused by every rule and round: collecting
  // allocates only while it outgrows its high-water mark.
  std::vector<PendingTrigger> pending_;
  // The firing trigger in its rule's slot layout: frontier images at
  // JoinPlan::frontier_slots, bound nulls at num_body_slots + z.
  std::vector<Term> slots_;
  // Scratch tuple for the allocation-free probe/insert fast path: every
  // h(atom) is instantiated into this buffer and handed to the instance
  // as a span; no Atom is materialized anywhere in the loop.
  std::vector<Term> scratch_;
  // A trigger's frontier images, gathered by GatherFrontier.
  std::vector<Term> frontier_;
  std::vector<std::uint8_t> head_satisfied_;  // restricted pre-checks
};

RoundEngine::RoundEngine(core::SymbolScope* symbols,
                         const tgd::TgdSet& tgds, const core::Database& db,
                         const ChaseOptions& options, ChaseResult* result)
    : symbols_(symbols),
      tgds_(tgds),
      options_(options),
      stats_(result->stats),
      forest_(result->forest),
      instance_(result->instance),
      oblivious_(options.variant == ChaseVariant::kOblivious),
      restricted_(options.variant == ChaseVariant::kRestricted),
      rules_overflow_(tgds.size() > tgd::kMaxRules),
      has_deadline_(options.deadline_ms != 0),
      deadline_(util::DeadlineAfter(std::chrono::steady_clock::now(),
                                    options.deadline_ms)),
      probe_interrupt_([this] { return StopRequested(); }),
      plans_(options.plans),
      finder_(result->instance) {
  finder_.set_probe_counter(&stats_.join_probes);
  if (options.cancel != nullptr || has_deadline_) {
    finder_.set_interrupt(&probe_interrupt_);
  }
  stats_.database_atoms = db.size();
  for (const Atom& fact : db.facts()) {
    auto [idx, fresh] = instance_.Insert(fact);
    if (fresh && options.build_forest) forest_.AddRoot(idx);
  }
  delta_end_ = static_cast<AtomIndex>(instance_.size());
  if (rules_overflow_) return;
  if (plans_ == nullptr || plans_->size() != tgds.size()) {
    local_plans_ = PlanJoins(tgds);
    plans_ = &local_plans_;
  }
  if (options.restraint_order && restricted_) {
    walk_ = graph::RestraintOrder(tgds);
  } else {
    walk_.resize(tgds.size());
    std::iota(walk_.begin(), walk_.end(), tgd::RuleIndex{0});
  }
  fired_.reserve(tgds.size());
  for (tgd::RuleIndex ti = 0; ti < tgds.size(); ++ti) {
    const JoinPlan& plan = (*plans_)[ti];
    fired_.emplace_back(ti, oblivious_ ? plan.num_body_slots
                                       : plan.frontier_slots.size());
  }
#ifndef NDEBUG
  bound_.resize(tgds.size());
#endif
}

bool RoundEngine::StopRequested() {
  if (stopped_) return true;
  if (options_.cancel != nullptr && options_.cancel->cancelled()) {
    stopped_ = true;
  } else if (has_deadline_ && (++deadline_poll_ & 63u) == 0) {
    stopped_ = std::chrono::steady_clock::now() >= deadline_;
  }
  return stopped_;
}

ChaseOutcome RoundEngine::Run() {
  if (rules_overflow_) return ChaseOutcome::kResourceExhausted;
  while (delta_begin_ < delta_end_) {
    if (options_.max_rounds != 0 && stats_.rounds >= options_.max_rounds) {
      return ChaseOutcome::kRoundLimit;
    }
    if (StopRequested()) return ChaseOutcome::kCancelled;
    ++stats_.rounds;
    if (options_.observer != nullptr) {
      RoundProgress progress;
      progress.round = stats_.rounds;
      progress.atoms = instance_.size();
      progress.delta_atoms = delta_end_ - delta_begin_;
      progress.triggers_fired = stats_.triggers_fired;
      options_.observer->OnRound(progress);
    }
    for (tgd::RuleIndex ti : walk_) {
      Collect(ti);
      if (stopped_) return ChaseOutcome::kCancelled;
      Sort(ti);
      const ChaseOutcome outcome = Fire(ti);
      if (outcome != ChaseOutcome::kTerminated) return outcome;
    }
    delta_begin_ = delta_end_;
    delta_end_ = static_cast<AtomIndex>(instance_.size());
  }
  return ChaseOutcome::kTerminated;
}

// Collect: fills pending_ with rule ti's new triggers, enumerating
// candidate homomorphisms without touching the instance while its index
// vectors are being iterated, and joining only through the round's
// delta.
//
// Every join is seeded from a delta atom of the seed position's
// predicate, through the precomputed join order. Body positions before
// the seed are restricted to pre-delta atoms, so each homomorphism is
// enumerated from exactly one seed: its first (in body order) atom at or
// past delta_begin_. Positions after the seed may also match atoms
// earlier rules inserted this round; a homomorphism whose first non-old
// atom is one of those waits for the next round, whose delta holds it.
void RoundEngine::Collect(tgd::RuleIndex ti) {
  const tgd::Tgd& rule = tgds_.tgd(ti);
  const JoinPlan& plan = (*plans_)[ti];
  core::TupleSet& fired = fired_[ti];
  pending_.clear();
  auto on_match = [&](const Term* h) {
    if (StopRequested()) return false;  // the run is being cancelled
    const auto [row, fresh] = fired.Insert(FiredRow(plan, h));
    if (!fresh) return true;
    // The guard image feeds only the forest.
    AtomIndex guard_image = PendingTrigger::kNoGuard;
    if (options_.build_forest && rule.IsGuarded()) {
      InstantiateInto(plan.body,
                      static_cast<std::size_t>(rule.guard_index()), h,
                      &scratch_);
      AtomIndex gi = 0;
      if (instance_.FindTuple(rule.guard().predicate,
                              core::TermSpan(scratch_), &gi)) {
        guard_image = gi;
      }
    }
    pending_.push_back({row, guard_image});
    return true;
  };
  for (std::size_t seed_pos = 0;
       seed_pos < rule.body().size() && !stopped_; ++seed_pos) {
    const core::IndexSpan seeds = instance_.AtomsWithPredicateIn(
        rule.body()[seed_pos].predicate, delta_begin_, delta_end_);
    stats_.delta_atoms_scanned += seeds.size();
    const SlotConjunction& seeded = plan.seeded[seed_pos];
    for (AtomIndex a : seeds) {
      if (stopped_) break;
      finder_.Begin(seeded);
      finder_.RunSeeded(a, delta_begin_, on_match);
    }
  }
}

// The one definition of trigger identity: the fired-set row of trigger
// h of a rule (h in the plan's slot layout; the set's id is the rule).
// The row is h|fr(σ), the frontier images in sorted-frontier order, for
// the semi-oblivious and restricted variants (result and
// head-satisfaction depend only on the frontier restriction), and h,
// the body images in slot order, for the oblivious one.
core::TermSpan RoundEngine::FiredRow(const JoinPlan& plan, const Term* h) {
  if (oblivious_) return core::TermSpan(h, plan.num_body_slots);
  return GatherFrontier(plan, h);
}

// The frontier images of the trigger in row `row` of rule ti's fired
// set, in sorted-frontier order: the row itself, or — oblivious, whose
// rows are body images — gathered from it. Valid until the next call.
const Term* RoundEngine::FrontierImages(tgd::RuleIndex ti,
                                        std::uint32_t row) {
  const Term* images = fired_[ti].Row(row).data();
  if (!oblivious_) return images;
  return GatherFrontier((*plans_)[ti], images).data();
}

// Writes h's images at the plan's frontier slots into frontier_.
core::TermSpan RoundEngine::GatherFrontier(const JoinPlan& plan,
                                           const Term* h) {
  frontier_.clear();
  for (std::uint32_t s : plan.frontier_slots) frontier_.push_back(h[s]);
  return core::TermSpan(frontier_);
}

// Sort: puts pending_ into canonical order — by frontier images, then
// (oblivious only) body images; rows are distinct, so the order is
// total. Collect finds a round's triggers in seed and join-plan order;
// sorting before the fire loop makes the firing order — and hence null
// numbering and the restricted-chase result — a function of Σ, D and
// the round alone, which is what the brute-force reference chase of
// the tests reproduces.
void RoundEngine::Sort(tgd::RuleIndex ti) {
  const core::TupleSet& fired = fired_[ti];
  const std::vector<std::uint32_t>& frontier_slots =
      (*plans_)[ti].frontier_slots;
  const bool oblivious = oblivious_;
  std::sort(pending_.begin(), pending_.end(),
            [&](const PendingTrigger& a, const PendingTrigger& b) {
              const core::TermSpan ra = fired.Row(a.row);
              const core::TermSpan rb = fired.Row(b.row);
              if (oblivious) {
                // A body-image row: its frontier images come first.
                for (std::uint32_t s : frontier_slots) {
                  if (ra[s] != rb[s]) return ra[s] < rb[s];
                }
              }
              return std::lexicographical_compare(ra.begin(), ra.end(),
                                                  rb.begin(), rb.end());
            });
}

// Fire: applies rule ti's canonical pending list, in canonical order.
// Each trigger binds its nulls and inserts its heads before the next
// one starts, so a run stopped by a budget has bound nulls for exactly
// the triggers it fired.
ChaseOutcome RoundEngine::Fire(tgd::RuleIndex ti) {
  if (pending_.empty()) return ChaseOutcome::kTerminated;
  const std::uint64_t frozen_size = instance_.size();
  if (restricted_ && !CheckHeads(ti)) return ChaseOutcome::kCancelled;
  for (std::size_t t = 0; t < pending_.size(); ++t) {
    const PendingTrigger& trig = pending_[t];
    if (StopRequested()) return ChaseOutcome::kCancelled;
    if (restricted_) {
      bool satisfied = head_satisfied_[t] != 0;
      if (!satisfied && instance_.size() > frozen_size) {
        // Atoms inserted by earlier triggers of this batch may have
        // satisfied the head since the pre-check; once satisfied,
        // monotonicity keeps the trigger satisfied forever, so the
        // `fired_` entry can stand.
        satisfied = HeadSatisfied(ti, FrontierImages(ti, trig.row));
        if (stopped_) return ChaseOutcome::kCancelled;
      }
      if (satisfied) {
        ++stats_.triggers_satisfied;
        continue;
      }
    }
    ++stats_.triggers_fired;
    ChaseOutcome outcome = Bind(ti, trig.row);
    if (outcome == ChaseOutcome::kTerminated) outcome = Insert(ti, trig);
    // A trigger a budget stops did fire: keep the observer's OnFire
    // tally equal to triggers_fired.
    if (options_.observer != nullptr) {
      options_.observer->OnFire(ti, instance_.size());
    }
    if (outcome != ChaseOutcome::kTerminated) return outcome;
  }
  return ChaseOutcome::kTerminated;
}

// Restricted pre-check: decides head satisfaction for every pending
// trigger against the batch-start instance. Satisfaction is monotone —
// the atom set only grows — so a "satisfied" verdict is final; only
// not-yet-satisfied verdicts can be flipped by atoms this very batch
// inserts, and Fire re-checks exactly those, exactly when an insert has
// happened. Skip/fire decisions therefore match a walk that checks
// every trigger just before firing it; join_probes is defined by this
// two-step schedule. Returns false when the run was stopped: an aborted
// check certifies nothing, so no trigger of the batch may fire or be
// skipped.
bool RoundEngine::CheckHeads(tgd::RuleIndex ti) {
  head_satisfied_.assign(pending_.size(), 0);
  for (std::size_t t = 0; t < pending_.size(); ++t) {
    head_satisfied_[t] =
        HeadSatisfied(ti, FrontierImages(ti, pending_[t].row)) ? 1 : 0;
    if (stopped_) return false;
  }
  return true;
}

// Head check: true iff some extension h' ⊇ h|fr(σ) already maps
// head(σ) into the instance — the compiled head enumerated with the
// frontier slots pre-bound.
bool RoundEngine::HeadSatisfied(tgd::RuleIndex ti,
                                const Term* frontier_images) {
  const JoinPlan& plan = (*plans_)[ti];
  finder_.Begin(plan.head);
  for (std::size_t i = 0; i < plan.frontier_slots.size(); ++i) {
    finder_.Bind(plan.frontier_slots[i], frontier_images[i]);
  }
  bool satisfied = false;
  finder_.Run([&](const Term*) {
    satisfied = true;
    return false;  // stop at the first
  });
  return satisfied;
}

// Bind: writes the firing trigger, row `row` of rule ti's fired set,
// into slots_ — its frontier images at the frontier slots, and fresh
// nulls for σ's existential variables at slots num_body_slots + z, in
// σ's sorted existential order.
//
// Definition 3.1 names the null for z of trigger (σ, h) ⊥^z_{σ, h|fr(σ)}
// (oblivious: ⊥^z_{σ, h}): its identity is a function of the fired-set
// row plus z. The fired set admits each row at most once per run and
// every admitted trigger binds at most once, so a row never asks for
// its nulls twice, and allocating fresh ones in canonical trigger order
// IS the functional naming — no row -> null map is needed.
//
// Every null has depth 1 + max({depth(h(x)) | x ∈ fr(σ)} ∪ {0})
// (Definition 4.3), raising max_depth. Stops at the first failure: a
// null deeper than ChaseOptions::max_depth (kDepthLimit; the breaching
// null is still bound and still raises max_depth, mirroring how the
// depth statistic counts the breach itself) or an exhausted scope
// (kResourceExhausted; nothing bound for that variable).
ChaseOutcome RoundEngine::Bind(tgd::RuleIndex ti, std::uint32_t row) {
  const JoinPlan& plan = (*plans_)[ti];
  const std::size_t num_frontier = plan.frontier_slots.size();
  const Term* frontier_images = FrontierImages(ti, row);
#ifndef NDEBUG
  std::vector<bool>& bound = bound_[ti];
  if (bound.size() <= row) bound.resize(fired_[ti].size());
  assert(!bound[row] && "a fired-set row bound its nulls twice");
  bound[row] = true;
#endif
  slots_.assign(plan.num_body_slots, kUnbound);
  std::uint32_t depth = 0;
  for (std::size_t i = 0; i < num_frontier; ++i) {
    slots_[plan.frontier_slots[i]] = frontier_images[i];
    depth = std::max(depth, symbols_->depth(frontier_images[i]));
  }
  ++depth;
  ChaseOutcome outcome = ChaseOutcome::kTerminated;
  for (std::size_t z = 0; z < tgds_.tgd(ti).existential().size(); ++z) {
    util::StatusOr<Term> null = symbols_->MakeNull(depth);
    if (!null.ok()) {
      outcome = ChaseOutcome::kResourceExhausted;
      break;
    }
    slots_.push_back(*null);
    stats_.max_depth = std::max(stats_.max_depth, depth);
    if (options_.max_depth != 0 && depth > options_.max_depth) {
      outcome = ChaseOutcome::kDepthLimit;
      break;
    }
  }
  const std::size_t num_bound = slots_.size() - plan.num_body_slots;
  if (options_.observer != nullptr && num_bound != 0) {
    options_.observer->OnNullsBound(ti, slots_.data() + plan.num_body_slots,
                                    num_bound, frontier_images,
                                    num_frontier);
  }
  return outcome;
}

// Insert: instantiates each atom of the compiled head over slots_ and
// inserts it; the forest and the atom budget are handled per atom.
ChaseOutcome RoundEngine::Insert(tgd::RuleIndex ti,
                                 const PendingTrigger& trig) {
  const SlotConjunction& head = (*plans_)[ti].head;
  for (std::size_t j = 0; j < head.atoms.size(); ++j) {
    InstantiateInto(head, j, slots_.data(), &scratch_);
    auto [idx, fresh] = instance_.InsertTuple(head.atoms[j].predicate,
                                              core::TermSpan(scratch_));
    if (fresh && options_.build_forest) {
      std::uint32_t atom_depth = 0;
      for (Term term : instance_.atom(idx).terms()) {
        atom_depth = std::max(atom_depth, symbols_->depth(term));
      }
      if (trig.guard_image == PendingTrigger::kNoGuard) {
        forest_.AddFloating(idx, atom_depth);
      } else {
        forest_.AddChild(idx, trig.guard_image, atom_depth);
      }
    }
    if (instance_.size() > options_.max_atoms) {
      return ChaseOutcome::kAtomLimit;
    }
  }
  return ChaseOutcome::kTerminated;
}

}  // namespace

ChaseResult RunChase(core::SymbolScope* symbols, const tgd::TgdSet& tgds,
                     const core::Database& db,
                     const ChaseOptions& options) {
  ChaseResult result;
  result.outcome = RoundEngine(symbols, tgds, db, options, &result).Run();
  result.stats.arena_bytes = result.instance.arena_bytes();
  result.stats.peak_atoms = result.instance.size();
  // OnDone fires on every exit path alike, after the stats are final.
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
