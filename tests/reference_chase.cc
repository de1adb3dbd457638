#include "reference_chase.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <optional>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "graph/reliance.h"

namespace nuchase {
namespace reference {

using core::Atom;
using core::PredicateId;
using core::Term;

namespace {

/// splitmix64's finalizer.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Variable -> image, in binding order; a variable that is not listed
/// is unbound. Undone by truncation.
using Binding = std::vector<std::pair<Term, Term>>;

const Term* Lookup(const Binding& binding, Term var) {
  for (const auto& [v, image] : binding) {
    if (v == var) return &image;
  }
  return nullptr;
}

/// The reference's atom set: atoms in insertion order, deduplicated
/// through a std::set, with a std::map index from a predicate to its
/// atoms, and from each of its (position, term) pairs to the atoms that
/// hold the term there.
class AtomStore {
 public:
  /// Inserts pred(args) unless it is present.
  void Insert(PredicateId pred, std::vector<Term> args) {
    if (!seen_.emplace(pred, args).second) return;
    const std::size_t index = atoms_.size();
    PredicateIndex& entry = index_[pred];
    entry.atoms.push_back(index);
    entry.by_term.resize(args.size());
    for (std::size_t p = 0; p < args.size(); ++p) {
      entry.by_term[p][args[p]].push_back(index);
    }
    atoms_.emplace_back(pred, std::move(args));
  }

  std::size_t size() const { return atoms_.size(); }
  const Atom& atom(std::size_t i) const { return atoms_[i]; }

  /// Indexes of atoms that may match `pattern` (an atom over variables)
  /// under `binding`: the shortest of the predicate's list and the
  /// lists of the positions whose variable is bound.
  const std::vector<std::size_t>& Candidates(const Atom& pattern,
                                             const Binding& binding) const {
    static const std::vector<std::size_t> kNone;
    const auto entry = index_.find(pattern.predicate);
    if (entry == index_.end()) return kNone;
    const std::vector<std::size_t>* best = &entry->second.atoms;
    for (std::size_t p = 0; p < pattern.args.size(); ++p) {
      const Term* image = Lookup(binding, pattern.args[p]);
      if (image == nullptr) continue;
      const auto& by_term = entry->second.by_term[p];
      const auto list = by_term.find(*image);
      if (list == by_term.end()) return kNone;
      if (list->second.size() < best->size()) best = &list->second;
    }
    return *best;
  }

 private:
  struct PredicateIndex {
    std::vector<std::size_t> atoms;
    std::vector<std::map<Term, std::vector<std::size_t>>> by_term;
  };
  std::vector<Atom> atoms_;
  std::set<std::pair<PredicateId, std::vector<Term>>> seen_;
  std::map<PredicateId, PredicateIndex> index_;
};

/// Nested loops: calls emit(binding, matched) for every extension of
/// `*binding` that maps atoms[i..] into `store`, where matched[k] is the
/// index of the atom atoms[k] maps to. emit returns false to stop the
/// enumeration; Extend then returns false too.
template <typename Emit>
bool Extend(const AtomStore& store, const std::vector<Atom>& atoms,
            std::size_t i, Binding* binding,
            std::vector<std::size_t>* matched, Emit& emit) {
  if (i == atoms.size()) return emit(*binding, *matched);
  const Atom& pattern = atoms[i];
  const std::size_t mark = binding->size();
  for (std::size_t index : store.Candidates(pattern, *binding)) {
    const Atom& fact = store.atom(index);
    bool unifies = true;
    for (std::size_t p = 0; p < pattern.args.size() && unifies; ++p) {
      const Term* image = Lookup(*binding, pattern.args[p]);
      if (image == nullptr) {
        binding->emplace_back(pattern.args[p], fact.args[p]);
      } else {
        unifies = *image == fact.args[p];
      }
    }
    bool go_on = true;
    if (unifies) {
      matched->push_back(index);
      go_on = Extend(store, atoms, i + 1, binding, matched, emit);
      matched->pop_back();
    }
    binding->resize(mark);
    if (!go_on) return false;
  }
  return true;
}

std::vector<Term> ImagesOf(const Binding& h, const std::vector<Term>& vars) {
  std::vector<Term> out;
  for (Term v : vars) out.push_back(*Lookup(h, v));
  return out;
}

/// A collected trigger: its rule, h|fr(σ) in frontier() order and, for
/// the oblivious variant, h in body_variables() order.
struct Trigger {
  tgd::RuleIndex rule;
  std::vector<Term> frontier;
  std::vector<Term> body;

  bool operator<(const Trigger& o) const {
    return std::tie(rule, frontier, body) <
           std::tie(o.rule, o.frontier, o.body);
  }
};

class ReferenceChase {
 public:
  ReferenceChase(core::SymbolScope* symbols, const tgd::TgdSet& tgds,
                 const chase::ChaseOptions& options, ReferenceResult* out)
      : symbols_(symbols),
        tgds_(tgds),
        options_(options),
        oblivious_(options.variant == chase::ChaseVariant::kOblivious),
        restricted_(options.variant == chase::ChaseVariant::kRestricted),
        out_(out) {}

  chase::ChaseOutcome Run(const core::Database& db) {
    for (const Atom& fact : db.facts()) {
      store_.Insert(fact.predicate, fact.args);
    }
    const std::vector<tgd::RuleIndex> walk = Walk();
    std::size_t window_begin = 0;
    std::size_t window_end = store_.size();
    while (window_begin < window_end) {
      if (options_.max_rounds != 0 &&
          out_->stats.rounds >= options_.max_rounds) {
        return chase::ChaseOutcome::kRoundLimit;
      }
      ++out_->stats.rounds;
      for (tgd::RuleIndex ti : walk) {
        for (const Trigger& trigger : Collect(ti, window_begin, window_end)) {
          if (auto stop = Fire(trigger)) return *stop;
        }
      }
      window_begin = window_end;
      window_end = store_.size();
    }
    return chase::ChaseOutcome::kTerminated;
  }

  const AtomStore& store() const { return store_; }

 private:
  /// The permutation of Σ the rounds walk: Σ-order, or in restraint
  /// mode graph::RestraintOrder's placement rule recomputed by brute
  /// force over every rule pair (only graph::Restrains is shared with
  /// the engine). Each step places the smallest unplaced rule that no
  /// unplaced rule one-way-restrains, else the smallest unplaced rule.
  std::vector<tgd::RuleIndex> Walk() const {
    const bool guided = options_.restraint_order && restricted_;
    const tgd::RuleIndex n = static_cast<tgd::RuleIndex>(tgds_.size());
    auto one_way = [&](tgd::RuleIndex r, tgd::RuleIndex s) {
      return r != s && graph::Restrains(tgds_.tgd(r), tgds_.tgd(s)) &&
             !graph::Restrains(tgds_.tgd(s), tgds_.tgd(r));
    };
    std::vector<bool> placed(n, false);
    std::vector<tgd::RuleIndex> walk;
    while (walk.size() < n) {
      tgd::RuleIndex pick = n;
      for (tgd::RuleIndex s = 0; s < n && pick == n; ++s) {
        bool restrained = placed[s];
        for (tgd::RuleIndex r = 0; r < n && guided && !restrained; ++r) {
          restrained = !placed[r] && one_way(r, s);
        }
        if (!restrained) pick = s;
      }
      if (pick == n) {
        pick = static_cast<tgd::RuleIndex>(
            std::find(placed.begin(), placed.end(), false) - placed.begin());
      }
      placed[pick] = true;
      walk.push_back(pick);
    }
    return walk;
  }

  /// Rule ti's new triggers of the round with window
  /// [window_begin, window_end), in firing order.
  std::vector<Trigger> Collect(tgd::RuleIndex ti, std::size_t window_begin,
                               std::size_t window_end) {
    const tgd::Tgd& rule = tgds_.tgd(ti);
    std::vector<Trigger> found;
    auto emit = [&](const Binding& h, const std::vector<std::size_t>& atoms) {
      const auto first_new =
          std::find_if(atoms.begin(), atoms.end(),
                       [&](std::size_t a) { return a >= window_begin; });
      if (first_new == atoms.end() || *first_new >= window_end) return true;
      Trigger trigger{ti, ImagesOf(h, rule.frontier()), {}};
      if (oblivious_) trigger.body = ImagesOf(h, rule.body_variables());
      if (collected_
              .emplace(ti, oblivious_ ? trigger.body : trigger.frontier)
              .second) {
        found.push_back(std::move(trigger));
      }
      return true;
    };
    Binding binding;
    std::vector<std::size_t> matched;
    Extend(store_, rule.body(), 0, &binding, &matched, emit);
    std::sort(found.begin(), found.end());
    return found;
  }

  /// Fires (or, restricted and satisfied, skips) one trigger; returns
  /// the outcome when a stop rule ends the run.
  std::optional<chase::ChaseOutcome> Fire(const Trigger& trigger) {
    const tgd::Tgd& rule = tgds_.tgd(trigger.rule);
    Binding h;
    for (std::size_t i = 0; i < rule.frontier().size(); ++i) {
      h.emplace_back(rule.frontier()[i], trigger.frontier[i]);
    }
    if (restricted_) {
      bool satisfied = false;
      auto found = [&](const Binding&, const std::vector<std::size_t>&) {
        satisfied = true;
        return false;
      };
      Binding extension = h;
      std::vector<std::size_t> matched;
      Extend(store_, rule.head(), 0, &extension, &matched, found);
      if (satisfied) {
        ++out_->stats.triggers_satisfied;
        return std::nullopt;
      }
    }
    ++out_->stats.triggers_fired;
    std::uint32_t depth = 0;
    for (Term t : trigger.frontier) {
      const auto d = depths_.find(t);
      if (d != depths_.end()) depth = std::max(depth, d->second);
    }
    ++depth;
    for (std::size_t z = 0; z < rule.existential().size(); ++z) {
      const util::StatusOr<Term> null = symbols_->MakeNull(depth);
      if (!null.ok()) return chase::ChaseOutcome::kResourceExhausted;
      depths_[*null] = depth;
      out_->names.Name(*null, trigger.rule, z,
                       oblivious_ ? trigger.body : trigger.frontier);
      out_->stats.max_depth = std::max(out_->stats.max_depth, depth);
      if (options_.max_depth != 0 && depth > options_.max_depth) {
        return chase::ChaseOutcome::kDepthLimit;
      }
      h.emplace_back(rule.existential()[z], *null);
    }
    for (const Atom& head : rule.head()) {
      store_.Insert(head.predicate, ImagesOf(h, head.args));
      if (store_.size() > options_.max_atoms) {
        return chase::ChaseOutcome::kAtomLimit;
      }
    }
    return std::nullopt;
  }

  core::SymbolScope* symbols_;
  const tgd::TgdSet& tgds_;
  const chase::ChaseOptions& options_;
  const bool oblivious_;
  const bool restricted_;
  ReferenceResult* out_;
  AtomStore store_;
  /// Every key ever collected: (rule, h|fr(σ)), oblivious (rule, h).
  std::set<std::pair<tgd::RuleIndex, std::vector<Term>>> collected_;
  /// Depth of every null this run allocated.
  std::map<Term, std::uint32_t> depths_;
};

}  // namespace

void SkolemNames::Name(Term null, std::uint32_t rule, std::size_t z,
                       std::vector<Term> args) {
  skolems_[null] = Skolem{rule, z, std::move(args)};
}

std::uint64_t SkolemNames::Hash(Term t,
                                const core::SymbolScope& symbols) const {
  const auto skolem = skolems_.find(t);
  if (skolem == skolems_.end()) {
    return Mix(std::hash<std::string>()(symbols.TermToString(t)));
  }
  const auto done = hashes_.find(t);
  if (done != hashes_.end()) return done->second;
  std::uint64_t h = Mix(Mix(skolem->second.rule) ^ skolem->second.z);
  for (Term arg : skolem->second.args) h = Mix(h ^ Hash(arg, symbols));
  hashes_[t] = h;
  return h;
}

std::string SkolemNames::Render(Term t,
                                const core::SymbolScope& symbols) const {
  const auto skolem = skolems_.find(t);
  if (skolem == skolems_.end()) return symbols.TermToString(t);
  char hash[17];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(Hash(t, symbols)));
  return "f" + std::to_string(skolem->second.rule) + "_" +
         std::to_string(skolem->second.z) + "#" + hash;
}

std::string SkolemNames::RenderInstance(
    const core::Instance& instance, const core::SymbolScope& symbols) const {
  std::vector<std::string> lines;
  for (core::AtomIndex i = 0; i < instance.size(); ++i) {
    const core::AtomView atom = instance.atom(i);
    std::string line = symbols.predicate_name(atom.predicate()) + "(";
    for (std::uint32_t p = 0; p < atom.arity(); ++p) {
      if (p != 0) line += ", ";
      line += Render(atom.arg(p), symbols);
    }
    lines.push_back(line + ")");
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

void SkolemRecorder::OnNullsBound(std::uint32_t tgd_index,
                                  const Term* nulls, std::size_t num_nulls,
                                  const Term* frontier,
                                  std::size_t num_frontier) {
  const std::uint32_t rule =
      rule_names_.empty() ? tgd_index : rule_names_[tgd_index];
  for (std::size_t z = 0; z < num_nulls; ++z) {
    names_.Name(nulls[z], rule, z,
                std::vector<Term>(frontier, frontier + num_frontier));
  }
}

ReferenceResult RunReferenceChase(core::SymbolScope* symbols,
                                  const tgd::TgdSet& tgds,
                                  const core::Database& db,
                                  const chase::ChaseOptions& options) {
  ReferenceResult result;
  ReferenceChase chase(symbols, tgds, options, &result);
  result.outcome = chase.Run(db);
  result.stats.database_atoms = db.size();
  const AtomStore& store = chase.store();
  result.stats.peak_atoms = store.size();
  for (std::size_t i = 0; i < store.size(); ++i) {
    result.stats.arena_bytes += store.atom(i).args.size() * sizeof(Term);
    result.instance.Insert(store.atom(i));
  }
  return result;
}

RenderedRun RenderEngineRun(core::SymbolScope* symbols,
                            const tgd::TgdSet& tgds,
                            const core::Database& db,
                            chase::ChaseOptions options) {
  SkolemRecorder recorder;
  options.observer = &recorder;
  const chase::ChaseResult result = chase::RunChase(symbols, tgds, db, options);
  RenderedRun run;
  run.variant = options.variant;
  run.outcome = result.outcome;
  run.stats = result.stats;
  run.sorted = result.instance.ToSortedString(*symbols);
  run.skolem = recorder.names().RenderInstance(result.instance, *symbols);
  return run;
}

RenderedRun RenderReferenceRun(core::SymbolScope* symbols,
                               const tgd::TgdSet& tgds,
                               const core::Database& db,
                               const chase::ChaseOptions& options) {
  const ReferenceResult result = RunReferenceChase(symbols, tgds, db, options);
  RenderedRun run;
  run.variant = options.variant;
  run.outcome = result.outcome;
  run.stats = result.stats;
  run.sorted = result.instance.ToSortedString(*symbols);
  run.skolem = result.names.RenderInstance(result.instance, *symbols);
  return run;
}

void ExpectSameRun(const RenderedRun& engine, const RenderedRun& reference,
                   const std::string& label) {
  EXPECT_EQ(engine.outcome, reference.outcome) << label;
  EXPECT_EQ(engine.sorted, reference.sorted) << label;
  EXPECT_EQ(engine.stats.triggers_fired, reference.stats.triggers_fired)
      << label;
  EXPECT_EQ(engine.stats.triggers_satisfied,
            reference.stats.triggers_satisfied)
      << label;
  EXPECT_EQ(engine.stats.rounds, reference.stats.rounds) << label;
  EXPECT_EQ(engine.stats.max_depth, reference.stats.max_depth) << label;
  EXPECT_EQ(engine.stats.peak_atoms, reference.stats.peak_atoms) << label;
  EXPECT_EQ(engine.stats.arena_bytes, reference.stats.arena_bytes) << label;
  if (engine.variant != chase::ChaseVariant::kOblivious) {
    EXPECT_EQ(engine.skolem, reference.skolem) << label;
  }
}

}  // namespace reference
}  // namespace nuchase
