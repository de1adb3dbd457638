#ifndef NUCHASE_CHASE_TRIGGER_H_
#define NUCHASE_CHASE_TRIGGER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/atom.h"
#include "core/instance.h"
#include "core/term.h"
#include "tgd/tgd.h"

namespace nuchase {
namespace chase {

/// One atom of a SlotConjunction: its predicate and its argument run
/// args[begin, begin + arity).
struct SlotAtom {
  core::PredicateId predicate = core::kInvalidPredicate;
  std::uint32_t begin = 0;
  std::uint32_t arity = 0;
};

/// A conjunction of atoms compiled into dense variable slots — the form
/// every join runs on. Slot s stands for variable `variables[s]`; in
/// `args` each occurrence of it is the marker Term(kVariable, s), while
/// constants and nulls stay as they are and must match exactly. A
/// homomorphism is then a Term array indexed by slot, and every binding
/// lookup of the join kernel is an array read instead of a hash probe.
/// Rules are compiled once per program (PlanJoins), queries once per
/// evaluation.
struct SlotConjunction {
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  std::vector<SlotAtom> atoms;
  std::vector<core::Term> args;
  /// Slot -> the variable it stands for.
  std::vector<core::Term> variables;
  /// Semi-naive restriction, empty or aligned with `atoms`: in a seeded
  /// run a flagged atom only matches instance atoms below the run's old
  /// limit (see HomomorphismFinder::RunSeeded).
  std::vector<std::uint8_t> old_only;

  std::uint32_t num_slots() const {
    return static_cast<std::uint32_t>(variables.size());
  }
  const core::Term* ArgsOf(std::size_t i) const {
    return args.data() + atoms[i].begin;
  }
  /// The slot of variable `var`, or kNoSlot.
  std::uint32_t SlotOf(core::Term var) const;
};

/// Compiles `atoms` over the slot map `variables` (slot s stands for
/// variables[s]). Variables of `atoms` missing from the map get new
/// slots, appended in first-occurrence order.
SlotConjunction CompileConjunction(const std::vector<core::Atom>& atoms,
                                   std::vector<core::Term> variables = {});

/// The image of a slot no binding has reached yet. Its tag (kind 3) is
/// no TermKind, so it never equals a stored term.
inline constexpr core::Term kUnbound = core::Term::FromBits(0xffffffffu);

/// Writes atom `i` of `q` under the slot images `slots` into `*out`
/// (cleared first): a bound slot becomes its image, an unbound one
/// (kUnbound) the variable it stands for. The allocation-free
/// instantiation the chase feeds straight into Instance::FindTuple.
void InstantiateInto(const SlotConjunction& q, std::size_t i,
                     const core::Term* slots, std::vector<core::Term>* out);

/// Static body-atom reordering for semi-naive (delta-seeded) matching:
/// returns a permutation of [0, body.size()) that starts with `seed_pos`
/// and greedily appends the atom sharing the most variables with the
/// already-placed prefix (ties: fewer unbound variables, then original
/// order). The enumerator's dynamic most-bound-first selection then uses
/// this order as its tie-break, so the join grows connected from the
/// delta atom instead of wandering through cartesian products.
std::vector<std::size_t> PlanJoinOrder(const std::vector<core::Atom>& body,
                                       std::size_t seed_pos);

/// One TGD compiled for the join kernel. Every conjunction shares the
/// rule's slot map: body_variables() first (so slots [0, |body vars|)
/// are h's body images in sorted-variable order), then existential().
struct JoinPlan {
  /// body(σ) in its own order: the naive collect, the guard image and
  /// model checks.
  SlotConjunction body;
  /// seeded[p]: the body reordered by PlanJoinOrder(body, p), so the
  /// delta-seeded atom comes first and each following atom is maximally
  /// connected to the prefix. Its old_only flags mark the atoms whose
  /// original position precedes p: restricting those to pre-delta atoms
  /// makes every homomorphism enumerable from exactly one seed position
  /// — its first (in body order) delta atom.
  std::vector<SlotConjunction> seeded;
  /// head(σ): the restricted variant's head check runs it with the
  /// frontier slots pre-bound.
  SlotConjunction head;
  /// frontier_slots[i] is the slot of frontier()[i].
  std::vector<std::uint32_t> frontier_slots;
  /// |body_variables()|.
  std::uint32_t num_body_slots = 0;
};

/// Compiles one TGD (see JoinPlan).
JoinPlan PlanJoin(const tgd::Tgd& rule);

/// The join kernel: enumerates homomorphisms from a SlotConjunction
/// into an Instance. Shared by the chase (trigger search, Definition
/// 3.1, and the restricted head checks) and the query layer.
///
/// State is a slot array (kUnbound = free), a done flag per atom and a
/// trail of the slots bound so far, undone level by level on backtrack.
/// All three are buffers of the finder, sized to the conjunction at
/// Begin and kept across calls: a reused finder makes no allocation
/// once it has seen its widest conjunction, and there is no cap on the
/// number of atoms or variables. The callback is a template parameter,
/// called directly with the slot array.
///
/// Atom selection is greedy most-bound-first: the undone atom with the
/// fewest candidates, where candidates come from the per-predicate list
/// or, for each bound position, the (predicate, position, term) index;
/// ties go to the earlier atom. Enumeration order — and hence the
/// probe count — is a function of the conjunction and the instance.
///
/// Not thread-safe (the buffers are the finder's); give each thread its
/// own finder over the shared, frozen instance.
class HomomorphismFinder {
 public:
  /// `use_position_index` = false disables the secondary
  /// (predicate, position, term) index and joins through the
  /// per-predicate lists only. The chase always joins through the
  /// index; scan mode is the test hook that checks indexed enumeration
  /// against the plain scan (kernel_test, robustness_test).
  explicit HomomorphismFinder(const core::Instance& instance,
                              bool use_position_index = true)
      : instance_(instance), use_position_index_(use_position_index) {}

  /// When set, every unification attempt of a pattern atom against a
  /// candidate instance atom increments *counter (the `join_probes`
  /// statistic of ChaseStats). The pointer must outlive the finder.
  void set_probe_counter(std::uint64_t* counter) {
    probe_counter_ = counter;
  }

  /// When set, enumeration polls (*interrupt)() once every 1024 probes
  /// and unwinds early (without further callbacks) when it returns true
  /// — the hook the chase engine uses to honour its CancelToken/deadline
  /// inside long match-free joins, where the per-homomorphism poll never
  /// runs. Sticky per finder: once tripped, `interrupted()` stays true
  /// and later runs stop before their first callback. The pointee must
  /// outlive the finder; pass nullptr to clear.
  void set_interrupt(const std::function<bool()>* interrupt) {
    interrupt_ = interrupt;
  }

  /// True iff an enumeration was aborted by the interrupt hook.
  bool interrupted() const { return interrupted_; }

  /// Starts an enumeration of `q` with every slot unbound. `q` must
  /// outlive the run.
  void Begin(const SlotConjunction& q) {
    q_ = &q;
    slots_.assign(q.num_slots(), kUnbound);
    done_.assign(q.atoms.size(), 0);
    trail_.clear();
    trail_.reserve(q.num_slots());
  }

  /// Pre-binds slot `s` of the begun conjunction to `t` (the restricted
  /// head check binds the frontier this way).
  void Bind(std::uint32_t s, core::Term t) { slots_[s] = t; }

  /// Runs the begun enumeration: calls cb(slots) once per homomorphism
  /// extending the pre-bound slots, where slots[s] is the image of
  /// q.variables[s]. Enumeration stops when cb returns false.
  template <typename Callback>
  void Run(Callback&& cb) {
    restrict_old_ = false;
    Recurse(q_->atoms.size(), cb);
  }

  /// Seeded run of the semi-naive collect: pins q.atoms[0] (q must have
  /// one) to instance atom `seed` and restricts every atom flagged in
  /// q.old_only to instance atoms below `old_limit`.
  template <typename Callback>
  void RunSeeded(core::AtomIndex seed, core::AtomIndex old_limit,
                 Callback&& cb) {
    restrict_old_ = true;
    old_limit_ = old_limit;
    const SlotAtom& first = q_->atoms[0];
    if (instance_.atom(seed).predicate() != first.predicate) return;
    if (!Match(q_->ArgsOf(0), first.arity, instance_.TupleData(seed))) {
      return;
    }
    done_[0] = 1;
    Recurse(q_->atoms.size() - 1, cb);
  }

  /// Begin(q), then Run(cb).
  template <typename Callback>
  void Enumerate(const SlotConjunction& q, Callback&& cb) {
    Begin(q);
    Run(cb);
  }

 private:
  /// Unifies `pattern` (compiled args) with the stored tuple `fact`,
  /// binding free slots. On mismatch every slot bound by this attempt
  /// is unbound again.
  bool Match(const core::Term* pattern, std::uint32_t arity,
             const core::Term* fact) {
    if (probe_counter_ != nullptr) ++*probe_counter_;
    if (interrupt_ != nullptr && (++interrupt_tick_ & 1023u) == 0 &&
        (*interrupt_)()) {
      interrupted_ = true;
    }
    const std::size_t mark = trail_.size();
    for (std::uint32_t i = 0; i < arity; ++i) {
      const core::Term p = pattern[i];
      const core::Term f = fact[i];
      if (p.IsVariable()) {
        core::Term& slot = slots_[p.index()];
        if (slot == kUnbound) {
          slot = f;
          trail_.push_back(p.index());
        } else if (slot != f) {
          UndoTo(mark);
          return false;
        }
      } else if (p != f) {  // constant or null: must match exactly
        UndoTo(mark);
        return false;
      }
    }
    return true;
  }

  void UndoTo(std::size_t mark) {
    for (std::size_t k = trail_.size(); k > mark; --k) {
      slots_[trail_[k - 1]] = kUnbound;
    }
    trail_.resize(mark);
  }

  /// Picks the undone atom with the fewest (restricted) candidates.
  /// Returns false when some undone atom has none (a dead branch) or
  /// none is left; otherwise sets *best and its candidate prefix.
  bool PickAtom(std::size_t* best, core::IndexSpan* candidates) const;

  /// Number of leading candidates in `candidates` (ascending) that the
  /// old-only restriction allows for atom `i`.
  std::size_t RestrictedCount(std::size_t i,
                              core::IndexSpan candidates) const;

  template <typename Callback>
  bool Recurse(std::size_t remaining, Callback& cb) {
    if (interrupted_) return false;
    if (remaining == 0) {
      return cb(static_cast<const core::Term*>(slots_.data()));
    }
    std::size_t best = 0;
    core::IndexSpan candidates;
    if (!PickAtom(&best, &candidates)) return true;
    const SlotAtom& atom = q_->atoms[best];
    const core::Term* pattern = q_->ArgsOf(best);
    done_[best] = 1;
    for (core::AtomIndex idx : candidates) {
      const std::size_t mark = trail_.size();
      const bool matched =
          Match(pattern, atom.arity, instance_.TupleData(idx));
      if (interrupted_) {
        UndoTo(mark);
        done_[best] = 0;
        return false;
      }
      if (!matched) continue;
      const bool keep_going = Recurse(remaining - 1, cb);
      UndoTo(mark);
      if (!keep_going) {
        done_[best] = 0;
        return false;
      }
    }
    done_[best] = 0;
    return true;
  }

  const core::Instance& instance_;
  bool use_position_index_;
  std::uint64_t* probe_counter_ = nullptr;
  const std::function<bool()>* interrupt_ = nullptr;
  std::uint32_t interrupt_tick_ = 0;
  bool interrupted_ = false;

  // The begun enumeration.
  const SlotConjunction* q_ = nullptr;
  bool restrict_old_ = false;
  core::AtomIndex old_limit_ = 0;
  std::vector<core::Term> slots_;
  std::vector<std::uint8_t> done_;
  std::vector<std::uint32_t> trail_;
};

}  // namespace chase
}  // namespace nuchase

#endif  // NUCHASE_CHASE_TRIGGER_H_
