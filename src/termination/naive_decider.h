#ifndef NUCHASE_TERMINATION_NAIVE_DECIDER_H_
#define NUCHASE_TERMINATION_NAIVE_DECIDER_H_

#include <cstdint>

#include "chase/chase.h"
#include "core/database.h"
#include "core/symbol_table.h"
#include "tgd/classify.h"
#include "tgd/tgd.h"

namespace nuchase {
namespace termination {

/// Three-valued answer of a ChTrm decider.
enum class Decision {
  kTerminates,        ///< Σ ∈ CT_D.
  kDoesNotTerminate,  ///< Σ ∉ CT_D.
  kUnknown,           ///< A practical budget was hit before a certificate.
};

const char* DecisionName(Decision d);

/// Outcome of the naive decision procedure together with the run's
/// certificates and budgets.
struct NaiveDecision {
  Decision decision = Decision::kUnknown;
  chase::ChaseOutcome outcome = chase::ChaseOutcome::kTerminated;
  /// Atoms materialized before stopping.
  std::uint64_t atoms = 0;
  /// maxdepth observed.
  std::uint32_t max_depth = 0;
  /// The class-specific depth bound d_C(Σ) used (inf if unusable).
  double depth_bound = 0;
  /// The size bound |D|·f_C(Σ) (inf if unusable).
  double size_bound = 0;
  /// Wall time of the chase, in seconds.
  double seconds = 0;
};

/// `engine` with the fields a termination decision owns reset: the
/// semi-oblivious variant (Definition 3.1, whose result is unique), no
/// depth or round budget, no forest, and Σ-order firing. Everything
/// else — atom budget, engine switches, deadline, hooks, plans,
/// reliances — is kept. Every chase run by DecideByChase and
/// the advisor starts from this.
chase::ChaseOptions DecisionChaseOptions(const chase::ChaseOptions& engine);

/// The naive ChTrm procedure sketched in Section 3 (and made worst-case
/// tight by items (2) of Theorems 6.4 / 7.5 / 8.3): chase D w.r.t. Σ and
///   - accept when the chase terminates;
///   - reject when a term of depth > d_C(Σ) appears (Lemmas 6.2/7.4/8.2:
///     finite chase implies maxdepth ≤ d_C(Σ)) or when the instance
///     exceeds |D|·f_C(Σ) atoms;
///   - report kUnknown when only the hard practical cap stopped the run
///     (possible for guarded sets, whose bounds overflow quickly).
/// `engine` carries the engine switches, deadline, hooks and
/// precomputed plans into the bounded run; the decision-relevant
/// fields are owned by the procedure (DecisionChaseOptions, then the
/// depth and atom budgets above).
NaiveDecision DecideByChase(core::SymbolTable* symbols,
                            const tgd::TgdSet& tgds,
                            const core::Database& db,
                            std::uint64_t hard_atom_cap = 10'000'000,
                            const chase::ChaseOptions& engine = {});

}  // namespace termination
}  // namespace nuchase

#endif  // NUCHASE_TERMINATION_NAIVE_DECIDER_H_
