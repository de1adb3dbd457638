#include "saturation/type_oracle.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

namespace nuchase {
namespace saturation {

using core::Atom;
using core::Term;
using util::Status;
using util::StatusOr;

namespace {

/// The atoms of a world by first argument (CSR over the local terms
/// 1..num_terms) plus its 0-ary atoms. Every atom over a term set T is
/// 0-ary or listed under its first argument, which lies in T.
class FirstArgIndex {
 public:
  FirstArgIndex(const CAtomSet& atoms, std::uint32_t num_terms)
      : offsets_(num_terms + 2, 0) {
    for (const CAtom& a : atoms) {
      if (a.args.empty()) {
        nullary_.push_back(&a);
      } else {
        ++offsets_[a.args[0]];
      }
    }
    for (std::size_t t = 1; t < offsets_.size(); ++t) {
      offsets_[t] += offsets_[t - 1];
    }
    // offsets_[t] is now the end of t's list; filling backwards moves it
    // to the start, and offsets_[t + 1] becomes the end.
    by_first_.resize(offsets_.back());
    for (const CAtom& a : atoms) {
      if (!a.args.empty()) by_first_[--offsets_[a.args[0]]] = &a;
    }
  }

  /// Calls fn on every atom whose terms all lie in `terms` (sorted,
  /// distinct). Returns the number of atoms visited.
  template <typename Fn>
  std::uint64_t ForEachAtomOver(const std::vector<std::uint32_t>& terms,
                                Fn fn) const {
    for (const CAtom* a : nullary_) fn(*a);
    std::uint64_t visited = nullary_.size();
    for (std::uint32_t t : terms) {
      for (std::uint32_t i = offsets_[t]; i < offsets_[t + 1]; ++i) {
        const CAtom& a = *by_first_[i];
        ++visited;
        bool inside = std::all_of(
            a.args.begin(), a.args.end(), [&terms](std::uint32_t u) {
              return std::binary_search(terms.begin(), terms.end(), u);
            });
        if (inside) fn(a);
      }
    }
    return visited;
  }

 private:
  std::vector<std::uint32_t> offsets_;
  std::vector<const CAtom*> by_first_;
  std::vector<const CAtom*> nullary_;
};

}  // namespace

StatusOr<TypeOracle> TypeOracle::Create(const core::SymbolTable& symbols,
                                        const tgd::TgdSet& tgds,
                                        const Options& options) {
  std::vector<CompiledRule> rules;
  for (const tgd::Tgd& rule : tgds.tgds()) {
    if (!rule.IsGuarded()) {
      return Status::FailedPrecondition(
          "TypeOracle requires a guarded TGD set");
    }
    std::unordered_map<Term, std::uint32_t> slot;
    for (Term v : rule.guard().args) {
      const auto next = static_cast<std::uint32_t>(slot.size());
      slot.emplace(v, next);
    }
    CompiledRule compiled;
    compiled.num_body_vars = static_cast<std::uint32_t>(slot.size());
    for (Term z : rule.existential()) {
      const auto next = static_cast<std::uint32_t>(slot.size());
      slot.emplace(z, next);
    }
    compiled.num_existentials =
        static_cast<std::uint32_t>(rule.existential().size());
    auto compile = [&slot](const Atom& atom) {
      Pattern p;
      p.predicate = atom.predicate;
      for (Term v : atom.args) p.slots.push_back(slot.at(v));
      return p;
    };
    compiled.guard = compile(rule.guard());
    for (std::size_t b = 0; b < rule.body().size(); ++b) {
      if (static_cast<int>(b) == rule.guard_index()) continue;
      compiled.sides.push_back(compile(rule.body()[b]));
    }
    for (const Atom& head_atom : rule.head()) {
      compiled.head.push_back(compile(head_atom));
    }
    for (Term x : rule.frontier()) compiled.frontier.push_back(slot.at(x));
    rules.push_back(std::move(compiled));
  }
  return TypeOracle(symbols, std::move(rules), options);
}

Status TypeOracle::CheckBudget() const {
  if (memo_.size() > options_.max_worlds) {
    return Status::ResourceExhausted(
        "type oracle world budget exceeded (" +
        std::to_string(options_.max_worlds) + ")");
  }
  if (total_atoms_ > options_.max_total_atoms) {
    return Status::ResourceExhausted("type oracle atom budget exceeded");
  }
  return Status::OK();
}

void TypeOracle::Pattern::Instantiate(const std::vector<std::uint32_t>& h,
                                      CAtom* out) const {
  out->predicate = predicate;
  out->args.resize(slots.size());
  for (std::size_t p = 0; p < slots.size(); ++p) out->args[p] = h[slots[p]];
}

StatusOr<bool> TypeOracle::OnePass(std::uint32_t num_terms, Entry* entry,
                                   std::uint32_t depth) {
  ++stats_.passes;
  const CAtomSet& S = entry->atoms;
  std::optional<FirstArgIndex> index;  // built by the first child world
  CAtomSet additions;
  std::vector<std::uint32_t> h;  // slot -> local term; 0 = unbound
  std::vector<std::uint32_t> frontier_images;
  CAtom probe;

  for (const CompiledRule& rule : rules_) {
    const core::PredicateId guard_pred = rule.guard.predicate;
    for (auto it = S.lower_bound(CAtom(guard_pred, {}));
         it != S.end() && it->predicate == guard_pred; ++it) {
      ++stats_.atoms_scanned;
      // The guard binds every body variable.
      h.assign(rule.num_body_vars + rule.num_existentials, 0);
      bool consistent = true;
      for (std::size_t p = 0; p < rule.guard.slots.size(); ++p) {
        std::uint32_t& bound = h[rule.guard.slots[p]];
        if (bound == 0) {
          bound = it->args[p];
        } else if (bound != it->args[p]) {
          consistent = false;
          break;
        }
      }
      if (!consistent) continue;
      bool sides_hold = std::all_of(
          rule.sides.begin(), rule.sides.end(), [&](const Pattern& side) {
            side.Instantiate(h, &probe);
            return S.count(probe) > 0;
          });
      if (!sides_hold) continue;

      if (rule.num_existentials == 0) {
        for (const Pattern& head_atom : rule.head) {
          head_atom.Instantiate(h, &probe);
          if (!S.count(probe)) additions.insert(probe);
        }
        continue;
      }

      // Child world: instantiated head atoms (existentials get fresh
      // integers above the world's term range) plus the current atoms
      // over the frontier images.
      for (std::uint32_t i = 0; i < rule.num_existentials; ++i) {
        h[rule.num_body_vars + i] = num_terms + 1 + i;
      }
      CAtomSet world;
      for (const Pattern& head_atom : rule.head) {
        head_atom.Instantiate(h, &probe);
        world.insert(probe);
      }
      frontier_images.clear();
      for (std::uint32_t slot : rule.frontier) {
        frontier_images.push_back(h[slot]);
      }
      std::sort(frontier_images.begin(), frontier_images.end());
      frontier_images.erase(
          std::unique(frontier_images.begin(), frontier_images.end()),
          frontier_images.end());
      if (!index) index.emplace(S, num_terms);
      stats_.atoms_scanned += index->ForEachAtomOver(
          frontier_images, [&world](const CAtom& a) { world.insert(a); });

      Canonicalized canon = Canonicalize(world);
      ++stats_.child_evals;
      StatusOr<const CAtomSet*> child = Eval(canon.key, depth + 1);
      if (!child.ok()) return child.status();
      for (const CAtom& atom : **child) {
        CAtom translated = atom;
        bool has_fresh = false;
        for (std::uint32_t& t : translated.args) {
          std::uint32_t original = canon.new_to_old[t - 1];
          if (original > num_terms) {  // a fresh (existential) term
            has_fresh = true;
            break;
          }
          t = original;
        }
        if (has_fresh) continue;
        if (!S.count(translated)) additions.insert(std::move(translated));
      }
    }
  }

  if (additions.empty()) return false;
  total_atoms_ += additions.size();
  entry->atoms.merge(additions);
  ++epoch_;
  NUCHASE_RETURN_IF_ERROR(CheckBudget());
  return true;
}

StatusOr<const CAtomSet*> TypeOracle::Eval(const CKey& key,
                                           std::uint32_t depth) {
  if (depth > options_.max_recursion) {
    return Status::ResourceExhausted("type oracle recursion too deep");
  }
  auto [it, inserted] = memo_.try_emplace(key);
  Entry& entry = it->second;
  if (inserted) {
    entry.atoms.insert(key.atoms.begin(), key.atoms.end());
    total_atoms_ += key.atoms.size();
    NUCHASE_RETURN_IF_ERROR(CheckBudget());
  }
  if (entry.in_progress) return &entry.atoms;
  if (entry.converged_epoch == epoch_) {
    if (depth > 0) ++stats_.child_evals_skipped;
    return &entry.atoms;
  }

  entry.in_progress = true;
  while (true) {
    const std::uint64_t pass_epoch = epoch_;
    StatusOr<bool> grew = OnePass(key.num_terms, &entry, depth);
    if (!grew.ok()) {
      entry.in_progress = false;
      return grew.status();
    }
    if (!*grew) {
      // Converged only if no memo entry grew during the pass: a child
      // that grew may still feed atoms back into this world.
      if (epoch_ == pass_epoch) entry.converged_epoch = epoch_;
      break;
    }
  }
  entry.in_progress = false;
  return &entry.atoms;
}

StatusOr<CAtomSet> TypeOracle::CompleteCanonical(const CAtomSet& world) {
  Canonicalized canon = Canonicalize(world);
  const CAtomSet* completed = nullptr;
  std::uint64_t start_epoch = 0;
  do {
    start_epoch = epoch_;
    StatusOr<const CAtomSet*> root = Eval(canon.key, 0);
    if (!root.ok()) return root.status();
    completed = *root;
  } while (epoch_ != start_epoch);

  CAtomSet out;
  for (const CAtom& atom : *completed) {
    CAtom translated = atom;
    for (std::uint32_t& t : translated.args) t = canon.new_to_old[t - 1];
    out.insert(std::move(translated));
  }
  return out;
}

StatusOr<std::vector<Atom>> TypeOracle::Complete(
    const std::vector<Atom>& atoms) {
  // Map terms to local integers (by ascending bit pattern: deterministic).
  std::vector<Term> terms;
  for (const Atom& a : atoms) {
    for (Term t : a.args) {
      if (t.IsVariable()) {
        return Status::InvalidArgument(
            "Complete() expects ground atoms (constants/nulls)");
      }
      terms.push_back(t);
    }
  }
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  std::unordered_map<Term, std::uint32_t> to_int;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    to_int.emplace(terms[i], static_cast<std::uint32_t>(i + 1));
  }

  CAtomSet world;
  for (const Atom& a : atoms) {
    CAtom c;
    c.predicate = a.predicate;
    c.args.reserve(a.args.size());
    for (Term t : a.args) c.args.push_back(to_int.at(t));
    world.insert(std::move(c));
  }

  auto completed = CompleteCanonical(world);
  if (!completed.ok()) return completed.status();

  std::vector<Atom> out;
  out.reserve(completed->size());
  for (const CAtom& c : *completed) {
    Atom a;
    a.predicate = c.predicate;
    a.args.reserve(c.args.size());
    for (std::uint32_t t : c.args) a.args.push_back(terms[t - 1]);
    out.push_back(std::move(a));
  }
  return out;
}

StatusOr<bool> TypeOracle::EntailsPropositional(const core::Database& db,
                                                core::PredicateId pred) {
  auto completed = Complete(db.facts());
  if (!completed.ok()) return completed.status();
  for (const Atom& a : *completed) {
    if (a.predicate == pred && a.args.empty()) return true;
  }
  return false;
}

}  // namespace saturation
}  // namespace nuchase
