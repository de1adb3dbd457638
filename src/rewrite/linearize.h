#ifndef NUCHASE_REWRITE_LINEARIZE_H_
#define NUCHASE_REWRITE_LINEARIZE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/database.h"
#include "core/symbol_table.h"
#include "rewrite/simplify.h"
#include "saturation/canonical.h"
#include "saturation/type_oracle.h"
#include "tgd/tgd.h"
#include "util/status.h"

namespace nuchase {
namespace rewrite {

/// A Σ-type τ = (α, T) (Appendix E): a canonical guard atom α over the
/// integers 1..k (numbered by first occurrence) together with a set T of
/// atoms over dom(α). [τ] becomes a fresh predicate of arity ar(α).
struct SigmaType {
  saturation::CAtom guard;
  saturation::CAtomSet others;  // T = atoms(τ) \ {guard}

  /// Canonical interning string, also the [τ] predicate name, e.g.
  /// "[R(1,1,2,3)|Q(1,3)]".
  std::string Name(const core::SymbolTable& symbols) const;
};

/// Result of linearizing (D, Σ) for guarded Σ (Section 8): lin(D), the
/// fragment of lin(Σ) reachable from the types of lin(D), and the [τ]
/// registry. Unreachable Σ-types cannot occur in chase(lin(D), lin(Σ))
/// nor make a cycle lin(D)-supported, so every decider built on this
/// fragment is faithful (see DESIGN.md).
struct Linearized {
  core::Database database;
  tgd::TgdSet tgds;
  /// [τ] predicate → its Σ-type.
  std::unordered_map<core::PredicateId, SigmaType> types;
  /// Number of Σ-types generated (= types.size()).
  std::size_t num_types = 0;
  /// Work counters of the type oracle behind complete(D, Σ) and the
  /// Σ-type completions.
  saturation::TypeOracle::Stats oracle_stats;
};

/// Options bounding the (exponential in general) type generation.
struct LinearizeOptions {
  std::uint64_t max_types = 100000;
  saturation::TypeOracle::Options oracle;
};

/// Computes lin(D) and the reachable fragment of lin(Σ). Fails
/// (FailedPrecondition) if Σ is not guarded, or (ResourceExhausted) when
/// budgets are hit.
util::StatusOr<Linearized> Linearize(const core::Database& db,
                                     const tgd::TgdSet& tgds,
                                     core::SymbolTable* symbols,
                                     const LinearizeOptions& options);

/// gsimple(·) = simple(lin(·)) (Section 8): the composed rewriting used
/// by Theorem 8.3. The returned simplifier retains predicate origins.
struct GSimplified {
  core::Database database;
  tgd::TgdSet tgds;
  std::size_t num_types = 0;
  std::size_t num_linear_tgds = 0;
};

util::StatusOr<GSimplified> GSimplify(const core::Database& db,
                                      const tgd::TgdSet& tgds,
                                      core::SymbolTable* symbols,
                                      const LinearizeOptions& options);

}  // namespace rewrite
}  // namespace nuchase

#endif  // NUCHASE_REWRITE_LINEARIZE_H_
