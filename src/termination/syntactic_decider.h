#ifndef NUCHASE_TERMINATION_SYNTACTIC_DECIDER_H_
#define NUCHASE_TERMINATION_SYNTACTIC_DECIDER_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "core/database.h"
#include "core/symbol_table.h"
#include "rewrite/linearize.h"
#include "termination/ladder.h"
#include "termination/naive_decider.h"
#include "tgd/classify.h"
#include "tgd/tgd.h"
#include "util/status.h"

namespace nuchase {
namespace termination {

/// Outcome of a syntactic (characterization-based) ChTrm decision.
struct SyntacticDecision {
  Decision decision = Decision::kUnknown;
  /// Class whose characterization was applied.
  tgd::TgdClass used_class = tgd::TgdClass::kGeneral;
  /// The procedure that decided: "weak-acyclicity" (SL),
  /// "simplification+WA" (L), "linearization+simplification+WA" (G),
  /// or "ladder:wa" / "ladder:ja" / "ladder:mfa" (general Σ); empty
  /// when the decision is kUnknown.
  std::string method;
  /// Pipeline stage sizes (0 when the stage was not needed):
  std::uint64_t simple_tgds = 0;  ///< |simple(Σ)| or |gsimple(Σ)|.
  std::uint64_t lin_types = 0;    ///< Σ-types generated (guarded only).
  std::uint64_t lin_tgds = 0;     ///< |lin(Σ)| fragment (guarded only).
  /// Wall time in seconds.
  double seconds = 0;
};

/// ChTrm(SL) (Theorem 6.4): Σ ∈ CT_D iff Σ is D-weakly-acyclic. Fails
/// (FailedPrecondition) if Σ is not simple linear.
util::StatusOr<SyntacticDecision> DecideSimpleLinear(
    core::SymbolTable* symbols, const tgd::TgdSet& tgds,
    const core::Database& db);

/// ChTrm(L) (Theorem 7.5): Σ ∈ CT_D iff simple(Σ) is
/// simple(D)-weakly-acyclic. Fails if Σ is not linear.
util::StatusOr<SyntacticDecision> DecideLinear(core::SymbolTable* symbols,
                                               const tgd::TgdSet& tgds,
                                               const core::Database& db);

/// ChTrm(G) (Theorem 8.3): Σ ∈ CT_D iff gsimple(Σ) is
/// gsimple(D)-weakly-acyclic. Fails if Σ is not guarded, or with
/// ResourceExhausted when the type budget is hit.
util::StatusOr<SyntacticDecision> DecideGuarded(
    core::SymbolTable* symbols, const tgd::TgdSet& tgds,
    const core::Database& db,
    const rewrite::LinearizeOptions& options = {});

/// ChTrm for arbitrary TGDs from a run of the acyclicity ladder
/// (WA → JA → MFA, termination/ladder.h): kTerminates with method
/// "ladder:<rung>" when some rung proves Σ ∈ CT_D, kUnknown otherwise —
/// never kDoesNotTerminate, since ChTrm(TGD) is undecidable
/// (Proposition 4.2) and every rung is merely sufficient.
SyntacticDecision DecideGeneral(const LadderResult& ladder);

/// Dispatches on Classify(Σ): SL → DecideSimpleLinear, L → DecideLinear,
/// G → DecideGuarded, and general TGDs to DecideGeneral over a fresh
/// RunLadder (kUnknown when no rung certifies; the exact procedures of
/// the three classes never return kUnknown).
util::StatusOr<SyntacticDecision> Decide(core::SymbolTable* symbols,
                                         const tgd::TgdSet& tgds,
                                         const core::Database& db);

/// Test hook: count of syntactic-decision computations (the bodies of
/// the three class procedures, and Decide's ladder runs for general Σ)
/// since process start. The facade caching test pins that repeated
/// Session::Decide/Advise calls over one frozen Program recompute
/// nothing.
std::atomic<std::uint64_t>& DeciderInvocationsForTest();

}  // namespace termination
}  // namespace nuchase

#endif  // NUCHASE_TERMINATION_SYNTACTIC_DECIDER_H_
