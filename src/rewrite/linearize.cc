#include "rewrite/linearize.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <unordered_set>

namespace nuchase {
namespace rewrite {

using core::Atom;
using core::Term;
using saturation::CAtom;
using saturation::CAtomSet;
using util::Status;
using util::StatusOr;

std::string SigmaType::Name(const core::SymbolTable& symbols) const {
  std::string out = "[";
  out += guard.ToString(symbols);
  out += '|';
  bool first = true;
  for (const CAtom& a : others) {
    if (!first) out += ',';
    first = false;
    out += a.ToString(symbols);
  }
  out += ']';
  return out;
}

namespace {

/// Maps the terms of a tuple to integers by first occurrence (the paper's
/// canonical Σ-type numbering: t1 = 1, ti ≤ max + 1).
std::unordered_map<Term, std::uint32_t> FirstOccurrenceIds(
    const std::vector<Term>& tuple) {
  std::unordered_map<Term, std::uint32_t> ids;
  for (Term t : tuple) {
    ids.emplace(t, static_cast<std::uint32_t>(ids.size() + 1));
  }
  return ids;
}

/// Renames a CAtom through an int→int map.
CAtom RenameCAtom(const CAtom& atom,
                  const std::unordered_map<std::uint32_t, std::uint32_t>&
                      renaming) {
  CAtom out = atom;
  for (std::uint32_t& t : out.args) t = renaming.at(t);
  return out;
}

/// Bookkeeping for interning [τ] predicates.
class TypeRegistry {
 public:
  TypeRegistry(core::SymbolTable* symbols, Linearized* out)
      : symbols_(symbols), out_(out) {}

  /// Interns τ; appends it to the worklist when new. Returns the [τ]
  /// predicate.
  core::PredicateId Intern(const SigmaType& type) {
    std::string name = type.Name(*symbols_);
    auto it = by_name_.find(name);
    if (it != by_name_.end()) return it->second;
    auto pred = symbols_->InternPredicate(
        name, static_cast<std::uint32_t>(type.guard.args.size()));
    assert(pred.ok());
    by_name_.emplace(std::move(name), *pred);
    out_->types.emplace(*pred, type);
    worklist_.push_back(*pred);
    return *pred;
  }

  bool HasPending() const { return !worklist_.empty(); }
  core::PredicateId PopPending() {
    core::PredicateId p = worklist_.front();
    worklist_.pop_front();
    return p;
  }
  std::size_t size() const { return by_name_.size(); }

 private:
  core::SymbolTable* symbols_;
  Linearized* out_;
  std::unordered_map<std::string, core::PredicateId> by_name_;
  std::deque<core::PredicateId> worklist_;
};

}  // namespace

StatusOr<Linearized> Linearize(const core::Database& db,
                               const tgd::TgdSet& tgds,
                               core::SymbolTable* symbols,
                               const LinearizeOptions& options) {
  for (const tgd::Tgd& rule : tgds.tgds()) {
    if (!rule.IsGuarded()) {
      return Status::FailedPrecondition(
          "linearization requires a guarded TGD set");
    }
  }
  auto oracle = saturation::TypeOracle::Create(*symbols, tgds,
                                               options.oracle);
  if (!oracle.ok()) return oracle.status();

  Linearized out;
  TypeRegistry registry(symbols, &out);

  // --- lin(D): the type of every database atom, from complete(D, Σ). ---
  auto completed = oracle->Complete(db.facts());
  if (!completed.ok()) return completed.status();

  // Index complete(D, Σ) by first argument: the atoms inside dom(fact)
  // are the 0-ary ones plus atoms listed under one of fact's terms.
  std::unordered_map<Term, std::vector<const Atom*>> by_first;
  std::vector<const Atom*> nullary;
  for (const Atom& beta : *completed) {
    if (beta.args.empty()) {
      nullary.push_back(&beta);
    } else {
      by_first[beta.args[0]].push_back(&beta);
    }
  }

  for (const Atom& fact : db.facts()) {
    std::unordered_map<Term, std::uint32_t> ids =
        FirstOccurrenceIds(fact.args);
    SigmaType type;
    type.guard.predicate = fact.predicate;
    for (Term t : fact.args) type.guard.args.push_back(ids.at(t));
    auto add_if_inside = [&](const Atom* beta) {
      bool inside = std::all_of(
          beta->args.begin(), beta->args.end(),
          [&ids](Term t) { return ids.count(t) > 0; });
      if (!inside) return;
      CAtom mapped;
      mapped.predicate = beta->predicate;
      for (Term t : beta->args) mapped.args.push_back(ids.at(t));
      if (mapped == type.guard) return;
      type.others.insert(std::move(mapped));
    };
    for (const Atom* beta : nullary) add_if_inside(beta);
    for (const auto& entry : ids) {
      auto it = by_first.find(entry.first);
      if (it == by_first.end()) continue;
      for (const Atom* beta : it->second) add_if_inside(beta);
    }
    core::PredicateId tau = registry.Intern(type);
    Status st = out.database.AddFact(Atom(tau, fact.args));
    if (!st.ok()) return st;
  }

  // --- Reachable fragment of lin(Σ): worklist over Σ-types. ---
  while (registry.HasPending()) {
    if (registry.size() > options.max_types) {
      return Status::ResourceExhausted("linearization type budget exceeded");
    }
    core::PredicateId tau_pred = registry.PopPending();
    // Copy: out.types may rehash while we emit child types.
    SigmaType tau = out.types.at(tau_pred);
    CAtomSet tau_atoms = tau.others;
    tau_atoms.insert(tau.guard);
    std::uint32_t num_terms = 0;
    for (std::uint32_t t : tau.guard.args) num_terms = std::max(num_terms, t);

    for (const tgd::Tgd& rule : tgds.tgds()) {
      const Atom& guard = rule.guard();
      if (guard.predicate != tau.guard.predicate) continue;
      // The homomorphism h: body(σ) → atoms(τ) with h(guard(σ)) =
      // guard(τ) is determined by aligning the guard (it contains every
      // body variable); it exists iff the alignment is consistent and
      // every side atom lands inside atoms(τ).
      std::unordered_map<Term, std::uint32_t> h;
      bool consistent = true;
      for (std::size_t i = 0; i < guard.args.size(); ++i) {
        auto [it, fresh] = h.emplace(guard.args[i], tau.guard.args[i]);
        if (!fresh && it->second != tau.guard.args[i]) {
          consistent = false;
          break;
        }
      }
      if (!consistent) continue;
      bool sides_ok = true;
      for (std::size_t b = 0;
           b < rule.body().size() && sides_ok; ++b) {
        if (static_cast<int>(b) == rule.guard_index()) continue;
        CAtom side;
        side.predicate = rule.body()[b].predicate;
        for (Term v : rule.body()[b].args) side.args.push_back(h.at(v));
        if (!tau_atoms.count(side)) sides_ok = false;
      }
      if (!sides_ok) continue;

      // Extend h with fresh integers for the existential variables
      // (the paper uses ar(Σ)+i; any integers above dom(τ) work).
      std::unordered_map<Term, std::uint32_t> extended = h;
      std::uint32_t next_fresh = num_terms + 1;
      for (Term z : rule.existential()) extended.emplace(z, next_fresh++);

      // Small instance I = {α_1, ..., α_m} ∪ atoms(τ).
      std::vector<CAtom> heads;
      CAtomSet small_instance = tau_atoms;
      for (const Atom& head_atom : rule.head()) {
        CAtom a;
        a.predicate = head_atom.predicate;
        for (Term v : head_atom.args) a.args.push_back(extended.at(v));
        small_instance.insert(a);
        heads.push_back(std::move(a));
      }
      auto complete_small = oracle->CompleteCanonical(small_instance);
      if (!complete_small.ok()) return complete_small.status();

      // Child types τ_i: the completion restricted to dom(α_i), renamed
      // canonically (the paper's ρ).
      std::vector<Atom> lin_head;
      for (std::size_t i = 0; i < heads.size(); ++i) {
        const CAtom& alpha = heads[i];
        std::unordered_set<std::uint32_t> alpha_dom(alpha.args.begin(),
                                                    alpha.args.end());
        std::unordered_map<std::uint32_t, std::uint32_t> rho;
        for (std::uint32_t t : alpha.args) {
          rho.emplace(t, static_cast<std::uint32_t>(rho.size() + 1));
        }
        SigmaType child;
        child.guard = RenameCAtom(alpha, rho);
        for (const CAtom& beta : *complete_small) {
          bool inside = true;
          for (std::uint32_t t : beta.args) {
            if (!alpha_dom.count(t)) {
              inside = false;
              break;
            }
          }
          if (!inside) continue;
          CAtom renamed = RenameCAtom(beta, rho);
          if (renamed == child.guard) continue;
          child.others.insert(std::move(renamed));
        }
        core::PredicateId child_pred = registry.Intern(child);
        lin_head.emplace_back(child_pred, rule.head()[i].args);
      }

      std::vector<Atom> lin_body{Atom(tau_pred, guard.args)};
      auto lin_rule =
          tgd::Tgd::Create(std::move(lin_body), std::move(lin_head));
      if (!lin_rule.ok()) return lin_rule.status();
      out.tgds.Add(std::move(*lin_rule));
    }
  }

  out.num_types = out.types.size();
  out.oracle_stats = oracle->stats();
  return out;
}

StatusOr<GSimplified> GSimplify(const core::Database& db,
                                const tgd::TgdSet& tgds,
                                core::SymbolTable* symbols,
                                const LinearizeOptions& options) {
  auto lin = Linearize(db, tgds, symbols, options);
  if (!lin.ok()) return lin.status();

  Simplifier simplifier(symbols);
  auto simple_tgds = simplifier.SimplifyTgds(lin->tgds);
  if (!simple_tgds.ok()) return simple_tgds.status();

  GSimplified out;
  out.database = simplifier.SimplifyDatabase(lin->database);
  out.tgds = std::move(*simple_tgds);
  out.num_types = lin->num_types;
  out.num_linear_tgds = lin->tgds.size();
  return out;
}

}  // namespace rewrite
}  // namespace nuchase
