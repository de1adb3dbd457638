#ifndef NUCHASE_CORE_SYMBOL_TABLE_H_
#define NUCHASE_CORE_SYMBOL_TABLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/term.h"
#include "util/status.h"

namespace nuchase {
namespace core {

/// Numeric handle of a predicate inside a Context.
using PredicateId = std::uint32_t;

/// Sentinel for "no predicate".
inline constexpr PredicateId kInvalidPredicate = 0xffffffffu;

/// The symbol operations the chase engine and result rendering need:
/// resolving predicates, computing term depths (Definition 4.3),
/// allocating fresh labelled nulls, and printing terms. Two
/// implementations exist:
///
///   - SymbolTable: the plain mutable interning table (single-threaded
///     callers, and the frozen base owned by an api::Program);
///   - SymbolOverlay: a per-chase-run view over a frozen SymbolTable
///     that allocates fresh nulls locally, so any number of concurrent
///     runs can share one const base table without synchronization.
///
/// Thread safety: the const surface (depth, num_nulls, name lookups,
/// printing) is safe to read concurrently as long as nothing mutates
/// the scope — a frozen SymbolTable is therefore fully thread-shared.
/// MakeNull and the interning methods mutate and must stay
/// single-threaded per scope; concurrent chase runs get isolation from
/// per-run SymbolOverlays rather than locks.
class SymbolScope {
 public:
  virtual ~SymbolScope() = default;

  /// Allocates a fresh labelled null with the given depth. Fails with
  /// kResourceExhausted once the scope has allocated all 2^30 null ids
  /// Term can index — ids never silently wrap.
  virtual util::StatusOr<Term> MakeNull(std::uint32_t depth) = 0;

  /// Depth of a term (Definition 4.3): 0 for constants, the recorded
  /// creation depth for nulls. Must not be called on variables.
  virtual std::uint32_t depth(Term t) const = 0;

  virtual std::uint32_t num_nulls() const = 0;

  virtual const std::string& predicate_name(PredicateId id) const = 0;
  virtual std::uint32_t arity(PredicateId id) const = 0;

  /// Printable form of any term.
  virtual std::string TermToString(Term t) const = 0;
};

/// Interning table for the symbols of one Context: predicate names with
/// arities, constant names, variable names, and labelled nulls.
///
/// Nulls are not named by strings; they are allocated by the chase (or the
/// rewriting machinery) and carry a depth (Definition 4.3). Their printable
/// form is "_:n<k>".
class SymbolTable final : public SymbolScope {
 public:
  SymbolTable() = default;

  // Predicates -------------------------------------------------------------

  /// Interns a predicate with the given name and arity. Returns an error if
  /// the name is already interned with a different arity.
  util::StatusOr<PredicateId> InternPredicate(const std::string& name,
                                              std::uint32_t arity);

  /// Looks up a predicate by name.
  util::StatusOr<PredicateId> FindPredicate(const std::string& name) const;

  const std::string& predicate_name(PredicateId id) const override {
    return predicates_[id].name;
  }
  std::uint32_t arity(PredicateId id) const override {
    return predicates_[id].arity;
  }
  std::uint32_t num_predicates() const {
    return static_cast<std::uint32_t>(predicates_.size());
  }

  // Constants & variables ----------------------------------------------------

  /// Interns a constant by name (idempotent). Fails with
  /// kResourceExhausted once all 2^30 constant ids Term can index are
  /// taken — ids never silently wrap past Term::kIndexBits.
  util::StatusOr<Term> InternConstant(const std::string& name);
  /// Interns a variable by name (idempotent). Variable ids are bounded
  /// by the distinct variable names of the (finite) input program, so
  /// unlike constants/nulls this cannot realistically exhaust Term's
  /// index space; overflow is asserted, not surfaced.
  Term InternVariable(const std::string& name);

  const std::string& constant_name(Term t) const;
  const std::string& variable_name(Term t) const;

  std::uint32_t num_constants() const {
    return static_cast<std::uint32_t>(constant_names_.size());
  }
  std::uint32_t num_variables() const {
    return static_cast<std::uint32_t>(variable_names_.size());
  }

  // Nulls --------------------------------------------------------------------

  /// Allocates a fresh labelled null with the given depth.
  util::StatusOr<Term> MakeNull(std::uint32_t depth) override;

  /// Depth of a term (Definition 4.3): 0 for constants, the recorded
  /// creation depth for nulls. Must not be called on variables.
  std::uint32_t depth(Term t) const override;

  std::uint32_t num_nulls() const override {
    return static_cast<std::uint32_t>(null_depths_.size());
  }

  /// Printable form of any term.
  std::string TermToString(Term t) const override;

 private:
  struct PredicateInfo {
    std::string name;
    std::uint32_t arity;
  };

  std::vector<PredicateInfo> predicates_;
  std::unordered_map<std::string, PredicateId> predicate_by_name_;

  std::vector<std::string> constant_names_;
  std::unordered_map<std::string, std::uint32_t> constant_by_name_;

  std::vector<std::string> variable_names_;
  std::unordered_map<std::string, std::uint32_t> variable_by_name_;

  std::vector<std::uint32_t> null_depths_;
};

/// Per-run overlay over a frozen base table. Reads (predicates,
/// constants, variables, and the base's pre-existing nulls) delegate to
/// the base without any mutation; fresh nulls allocated through the
/// overlay live in the overlay only, numbered directly after the base's.
/// N overlays over one const SymbolTable therefore run concurrently
/// without synchronization, and — because each run starts numbering at
/// base.num_nulls() — produce identical null names for identical runs.
///
/// The base must outlive the overlay and must not be mutated while any
/// overlay over it is in use.
class SymbolOverlay final : public SymbolScope {
 public:
  explicit SymbolOverlay(const SymbolTable& base)
      : base_(&base), base_nulls_(base.num_nulls()) {}

  /// Test-only: pretends the base already holds `assume_base_nulls`
  /// nulls, so the Term-index budget left for this overlay is exactly
  /// Term::kIndexMask + 1 - assume_base_nulls. Regression tests use it
  /// to trip kResourceExhausted after a handful of allocations instead
  /// of 2^30. The phantom base nulls must never be resolved — depth()
  /// and TermToString() on a null the overlay did not allocate read the
  /// real base and would answer for the wrong null (or walk off it).
  SymbolOverlay(const SymbolTable& base, std::uint32_t assume_base_nulls)
      : base_(&base), base_nulls_(assume_base_nulls) {}

  util::StatusOr<Term> MakeNull(std::uint32_t depth) override;
  std::uint32_t depth(Term t) const override;

  std::uint32_t num_nulls() const override {
    return base_nulls_ + static_cast<std::uint32_t>(null_depths_.size());
  }

  const std::string& predicate_name(PredicateId id) const override {
    return base_->predicate_name(id);
  }
  std::uint32_t arity(PredicateId id) const override {
    return base_->arity(id);
  }

  std::string TermToString(Term t) const override;

  const SymbolTable& base() const { return *base_; }

 private:
  const SymbolTable* base_;
  std::uint32_t base_nulls_;
  /// Depths of the overlay-allocated nulls; overlay null k has term
  /// index base_nulls_ + k.
  std::vector<std::uint32_t> null_depths_;
};

}  // namespace core
}  // namespace nuchase

#endif  // NUCHASE_CORE_SYMBOL_TABLE_H_
