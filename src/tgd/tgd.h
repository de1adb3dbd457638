#ifndef NUCHASE_TGD_TGD_H_
#define NUCHASE_TGD_TGD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/atom.h"
#include "core/symbol_table.h"
#include "util/status.h"

namespace nuchase {
namespace tgd {

/// The one rule-index type: positions into a TgdSet, the entries of
/// graph::RestraintOrder, and the rule index the chase engine packs into
/// its 32-bit trigger dedup keys are all this. Loops over Σ compare a
/// RuleIndex against a RuleIndex (never a raw size_t), which is what
/// kMaxRules exists to license: a TgdSet past the cap is rejected up
/// front (api::Program with InvalidArgument at analysis, chase::RunChase
/// with kResourceExhausted), so every in-engine narrowing cast is exact.
using RuleIndex = std::uint32_t;

/// Largest admissible |Σ|. Far above any real program (the guarded
/// linearization budget tops out at 100k rules) while keeping RuleIndex
/// arithmetic trivially overflow-free.
inline constexpr std::size_t kMaxRules = std::size_t{1} << 18;

/// A tuple-generating dependency (TGD, Section 2):
///   φ(x̄,ȳ) → ∃z̄ ψ(x̄,z̄)
/// Body and head are non-empty conjunctions of constant-free atoms. The
/// frontier fr(σ) is the set of variables occurring in both body and head;
/// head variables outside the frontier are existentially quantified.
class Tgd {
 public:
  /// Validates and builds a TGD. Fails if body or head is empty, any
  /// argument is not a variable, or the head is disconnected from the rest
  /// in a malformed way (head variables are fine: non-body head variables
  /// are existential by definition).
  static util::StatusOr<Tgd> Create(std::vector<core::Atom> body,
                                    std::vector<core::Atom> head);

  const std::vector<core::Atom>& body() const { return body_; }
  const std::vector<core::Atom>& head() const { return head_; }

  /// fr(σ): variables occurring in both body and head (sorted).
  const std::vector<core::Term>& frontier() const { return frontier_; }
  /// Existentially quantified variables: head variables not in the body
  /// (sorted).
  const std::vector<core::Term>& existential() const { return existential_; }
  /// All body variables (sorted).
  const std::vector<core::Term>& body_variables() const {
    return body_variables_;
  }

  bool IsFrontier(core::Term v) const;
  bool IsExistential(core::Term v) const;

  /// Index into body() of the leftmost atom containing all body variables,
  /// or -1 if the TGD is not guarded (Section 2, "Guardedness").
  int guard_index() const { return guard_index_; }
  bool IsGuarded() const { return guard_index_ >= 0; }
  /// guard(σ). Must only be called when IsGuarded().
  const core::Atom& guard() const { return body_[guard_index_]; }

  /// True iff the body consists of a single atom.
  bool IsLinear() const { return body_.size() == 1; }
  /// True iff linear and no variable occurs twice in the body atom.
  bool IsSimpleLinear() const;

  /// Renders "R(x, y) -> S(y, z) ." with the given symbol table.
  std::string ToString(const core::SymbolTable& symbols) const;

 private:
  Tgd() = default;

  std::vector<core::Atom> body_;
  std::vector<core::Atom> head_;
  std::vector<core::Term> frontier_;
  std::vector<core::Term> existential_;
  std::vector<core::Term> body_variables_;
  int guard_index_ = -1;
};

/// A finite set Σ of TGDs together with the derived schema quantities the
/// paper uses: sch(Σ), ar(Σ), atoms(Σ) and ||Σ|| = |atoms(Σ)|·|sch(Σ)|·ar(Σ).
class TgdSet {
 public:
  TgdSet() = default;

  void Add(Tgd tgd) { tgds_.push_back(std::move(tgd)); }

  const std::vector<Tgd>& tgds() const { return tgds_; }
  std::size_t size() const { return tgds_.size(); }
  bool empty() const { return tgds_.empty(); }
  const Tgd& tgd(std::size_t i) const { return tgds_[i]; }

  /// sch(Σ): predicates occurring in the TGDs (sorted, deduplicated).
  std::vector<core::PredicateId> SchemaPredicates() const;

  /// ar(Σ): maximum arity over sch(Σ); 0 for the empty set.
  std::uint32_t MaxArity(const core::SymbolTable& symbols) const;

  /// |atoms(Σ)|: number of distinct atoms occurring in the TGDs.
  std::uint64_t NumAtoms() const;

  /// ||Σ|| = |atoms(Σ)| · |sch(Σ)| · ar(Σ).
  std::uint64_t Norm(const core::SymbolTable& symbols) const;

  /// Multi-line rendering of all TGDs.
  std::string ToString(const core::SymbolTable& symbols) const;

 private:
  std::vector<Tgd> tgds_;
};

}  // namespace tgd
}  // namespace nuchase

#endif  // NUCHASE_TGD_TGD_H_
