#ifndef NUCHASE_SATURATION_TYPE_ORACLE_H_
#define NUCHASE_SATURATION_TYPE_ORACLE_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/atom.h"
#include "core/database.h"
#include "core/symbol_table.h"
#include "saturation/canonical.h"
#include "tgd/tgd.h"
#include "util/status.h"

namespace nuchase {
namespace saturation {

/// Guarded saturation: computes complete(I, Σ) — the atoms over dom(I)
/// that belong to chase(I, Σ) — for a guarded set Σ (Appendix E,
/// "Auxiliary Notions"). This is the substrate of the linearization of
/// Section 8 (computing types and their completions) and also yields a
/// decider for propositional atom entailment PAE(G).
///
/// Algorithm: a memoized monotone fixpoint over canonical worlds (the
/// recursion behind Lemma 6 of [19]). A pass over a world W with current
/// atoms S:
///   1. matches every guard(σ) against the atoms of S with the guard's
///      predicate (S is ordered by predicate, so this is a range of S);
///      the guard binds every body variable, so each side atom is one
///      membership lookup in S;
///   2. adds the head atoms of triggers without existential variables;
///   3. for every trigger with existential variables, builds the child
///      world — the instantiated head atoms plus the atoms of S over the
///      frontier images — from a by-first-argument index of S (plus the
///      0-ary atoms), evaluates it, and adds its completion restricted to
///      non-fresh terms.
/// Additions are buffered until the pass ends and children write only
/// their own memo entries, so S and its index stay fixed during a pass
/// (the index holds pointers into S). For a fixed Σ a pass costs O(|S|)
/// to index plus, per trigger, a bounded number of lookups in S and a
/// scan of the atoms listed under its frontier images — no scan of S per
/// guard match or per child world.
///
/// Memo entries grow monotonically inside finite lattices (all worlds
/// except the root have at most ar(Σ) + #existentials terms), so the
/// global fixpoint terminates; budgets bound the exponential type space.
/// A world whose evaluation is in progress answers with its current
/// value (this cuts cycles of self-similar worlds). Every growth of any
/// memo entry bumps a growth epoch; a world whose last pass grew nothing
/// anywhere is marked converged in that epoch and is not re-run until
/// some entry grows again, so converged child worlds cost one lookup.
class TypeOracle {
 public:
  struct Options {
    /// Maximum number of memoized worlds before ResourceExhausted.
    std::uint64_t max_worlds = 200000;
    /// Maximum total atoms across all memo entries.
    std::uint64_t max_total_atoms = 5'000'000;
    /// Maximum recursion depth through child worlds.
    std::uint32_t max_recursion = 4096;
  };

  /// Deterministic work counters, cumulative over the oracle's lifetime.
  struct Stats {
    /// Passes over a world (rounds of the local fixpoint).
    std::uint64_t passes = 0;
    /// Evaluations of child worlds requested by existential triggers.
    std::uint64_t child_evals = 0;
    /// Of those, the ones answered by the converged-epoch check.
    std::uint64_t child_evals_skipped = 0;
    /// Atoms visited while matching guards and building child worlds.
    std::uint64_t atoms_scanned = 0;
  };

  /// Fails (FailedPrecondition) if Σ is not guarded.
  static util::StatusOr<TypeOracle> Create(const core::SymbolTable& symbols,
                                           const tgd::TgdSet& tgds,
                                           const Options& options);

  /// complete(I, Σ) for an instance given as atoms over constants/nulls
  /// (no variables). The result contains the input atoms.
  util::StatusOr<std::vector<core::Atom>> Complete(
      const std::vector<core::Atom>& atoms);

  /// complete(·) over canonical worlds (used by the linearizer, whose
  /// Σ-types already live in integer-term form). The returned set is in
  /// the *canonical* numbering of `world` — callers translate via the
  /// Canonicalized mapping they obtained.
  util::StatusOr<CAtomSet> CompleteCanonical(const CAtomSet& world);

  /// PAE (Theorem 8.5): is the 0-ary atom `pred`() in chase(D, Σ)?
  util::StatusOr<bool> EntailsPropositional(const core::Database& db,
                                            core::PredicateId pred);

  std::size_t memo_size() const { return memo_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  /// An atom pattern of a rule with its variables numbered as slots:
  /// body variables 0..n-1 by first occurrence in the guard, then the
  /// existential variables.
  struct Pattern {
    core::PredicateId predicate = core::kInvalidPredicate;
    std::vector<std::uint32_t> slots;

    /// Writes the atom under the slot binding h into *out, reusing its
    /// storage.
    void Instantiate(const std::vector<std::uint32_t>& h, CAtom* out) const;
  };
  struct CompiledRule {
    Pattern guard;
    std::vector<Pattern> sides;
    std::vector<Pattern> head;
    std::vector<std::uint32_t> frontier;
    std::uint32_t num_body_vars = 0;
    std::uint32_t num_existentials = 0;
  };
  /// A memoized world: its current atoms and its evaluation state.
  struct Entry {
    CAtomSet atoms;
    bool in_progress = false;
    /// Growth epoch of the last pass that grew nothing anywhere.
    std::uint64_t converged_epoch = kNeverConverged;
  };
  static constexpr std::uint64_t kNeverConverged = ~std::uint64_t{0};

  TypeOracle(const core::SymbolTable& symbols,
             std::vector<CompiledRule> rules, const Options& options)
      : symbols_(symbols), rules_(std::move(rules)), options_(options) {}

  /// Evaluates the world to a local fixpoint using current memo values
  /// for children; returns its (current) memo entry.
  util::StatusOr<const CAtomSet*> Eval(const CKey& key, std::uint32_t depth);

  /// One pass over all triggers of the world; returns whether S grew.
  util::StatusOr<bool> OnePass(std::uint32_t num_terms, Entry* entry,
                               std::uint32_t depth);

  util::Status CheckBudget() const;

  const core::SymbolTable& symbols_;
  std::vector<CompiledRule> rules_;
  Options options_;

  std::unordered_map<CKey, Entry, CKeyHash> memo_;
  std::uint64_t epoch_ = 0;
  std::uint64_t total_atoms_ = 0;
  Stats stats_;
};

}  // namespace saturation
}  // namespace nuchase

#endif  // NUCHASE_SATURATION_TYPE_ORACLE_H_
