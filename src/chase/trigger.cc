#include "chase/trigger.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

namespace nuchase {
namespace chase {

using core::Atom;
using core::AtomIndex;
using core::IndexSpan;
using core::Term;

std::uint32_t SlotConjunction::SlotOf(Term var) const {
  const auto it = std::find(variables.begin(), variables.end(), var);
  return it == variables.end()
             ? kNoSlot
             : static_cast<std::uint32_t>(it - variables.begin());
}

SlotConjunction CompileConjunction(const std::vector<Atom>& atoms,
                                   std::vector<Term> variables) {
  SlotConjunction q;
  q.variables = std::move(variables);
  q.atoms.reserve(atoms.size());
  for (const Atom& atom : atoms) {
    SlotAtom compiled;
    compiled.predicate = atom.predicate;
    compiled.begin = static_cast<std::uint32_t>(q.args.size());
    compiled.arity = atom.arity();
    q.atoms.push_back(compiled);
    for (Term t : atom.args) {
      if (t.IsVariable()) {
        std::uint32_t slot = q.SlotOf(t);
        if (slot == SlotConjunction::kNoSlot) {
          slot = q.num_slots();
          q.variables.push_back(t);
        }
        t = Term(core::TermKind::kVariable, slot);
      }
      q.args.push_back(t);
    }
  }
  return q;
}

void InstantiateInto(const SlotConjunction& q, std::size_t i,
                     const Term* slots, std::vector<Term>* out) {
  const SlotAtom& atom = q.atoms[i];
  const Term* pattern = q.ArgsOf(i);
  out->clear();
  for (std::uint32_t k = 0; k < atom.arity; ++k) {
    Term t = pattern[k];
    if (t.IsVariable()) {
      const Term image = slots[t.index()];
      t = image == kUnbound ? q.variables[t.index()] : image;
    }
    out->push_back(t);
  }
}

std::vector<std::size_t> PlanJoinOrder(const std::vector<Atom>& body,
                                       std::size_t seed_pos) {
  std::vector<std::size_t> order;
  order.reserve(body.size());
  std::vector<bool> placed(body.size(), false);
  std::unordered_set<Term> bound;

  auto place = [&](std::size_t i) {
    order.push_back(i);
    placed[i] = true;
    for (Term t : body[i].args) {
      if (t.IsVariable()) bound.insert(t);
    }
  };
  place(seed_pos);

  while (order.size() < body.size()) {
    std::size_t best = body.size();
    std::size_t best_shared = 0;
    std::size_t best_free = std::numeric_limits<std::size_t>::max();
    for (std::size_t i = 0; i < body.size(); ++i) {
      if (placed[i]) continue;
      std::size_t shared = 0;
      std::size_t free_vars = 0;
      for (Term t : body[i].args) {
        if (!t.IsVariable()) continue;
        if (bound.count(t)) {
          ++shared;
        } else {
          ++free_vars;
        }
      }
      if (best == body.size() || shared > best_shared ||
          (shared == best_shared && free_vars < best_free)) {
        best = i;
        best_shared = shared;
        best_free = free_vars;
      }
    }
    place(best);
  }
  return order;
}

JoinPlan PlanJoin(const tgd::Tgd& rule) {
  const std::vector<Atom>& body = rule.body();
  std::vector<Term> slots = rule.body_variables();
  slots.insert(slots.end(), rule.existential().begin(),
               rule.existential().end());
  JoinPlan plan;
  plan.num_body_slots =
      static_cast<std::uint32_t>(rule.body_variables().size());
  plan.body = CompileConjunction(body, slots);
  plan.head = CompileConjunction(rule.head(), slots);
  for (Term v : rule.frontier()) {
    plan.frontier_slots.push_back(plan.body.SlotOf(v));
  }
  plan.seeded.reserve(body.size());
  for (std::size_t p = 0; p < body.size(); ++p) {
    std::vector<Atom> reordered;
    std::vector<std::uint8_t> old_only;
    reordered.reserve(body.size());
    old_only.reserve(body.size());
    for (std::size_t i : PlanJoinOrder(body, p)) {
      reordered.push_back(body[i]);
      old_only.push_back(i < p ? 1 : 0);
    }
    plan.seeded.push_back(CompileConjunction(reordered, slots));
    plan.seeded.back().old_only = std::move(old_only);
  }
  return plan;
}

std::size_t HomomorphismFinder::RestrictedCount(
    std::size_t i, IndexSpan candidates) const {
  if (!restrict_old_ || q_->old_only.empty() || q_->old_only[i] == 0) {
    return candidates.size();
  }
  // Candidate lists are ascending in insertion order, so the old atoms
  // form a prefix.
  return static_cast<std::size_t>(
      std::lower_bound(candidates.begin(), candidates.end(), old_limit_) -
      candidates.begin());
}

bool HomomorphismFinder::PickAtom(std::size_t* best_out,
                                  IndexSpan* candidates_out) const {
  const std::vector<SlotAtom>& atoms = q_->atoms;
  std::size_t best = atoms.size();
  std::size_t best_count = std::numeric_limits<std::size_t>::max();
  IndexSpan best_candidates;
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    if (done_[i] != 0) continue;
    const SlotAtom& a = atoms[i];
    IndexSpan candidates = instance_.AtomsWithPredicate(a.predicate);
    std::size_t count = RestrictedCount(i, candidates);
    if (use_position_index_) {
      const Term* pattern = q_->ArgsOf(i);
      for (std::uint32_t pos = 0; pos < a.arity; ++pos) {
        Term t = pattern[pos];
        if (t.IsVariable()) {
          t = slots_[t.index()];
          if (t == kUnbound) continue;
        }
        const IndexSpan narrowed =
            instance_.AtomsWithTermAt(a.predicate, pos, t);
        const std::size_t narrowed_count = RestrictedCount(i, narrowed);
        if (narrowed_count < count) {
          count = narrowed_count;
          candidates = narrowed;
        }
      }
    }
    if (count < best_count) {
      best_count = count;
      best = i;
      best_candidates = candidates;
      if (count == 0) break;
    }
  }
  // No undone atom left, or no match for some atom: a dead branch.
  if (best == atoms.size() || best_count == 0) return false;
  *best_out = best;
  *candidates_out = IndexSpan(best_candidates.data(), best_count);
  return true;
}

}  // namespace chase
}  // namespace nuchase
