#ifndef NUCHASE_TERMINATION_LADDER_H_
#define NUCHASE_TERMINATION_LADDER_H_

#include <string>

#include "core/database.h"
#include "core/symbol_table.h"
#include "graph/joint_acyclicity.h"
#include "graph/weak_acyclicity.h"
#include "termination/mfa.h"
#include "termination/naive_decider.h"
#include "tgd/tgd.h"

namespace nuchase {
namespace termination {

/// The acyclicity ladder: WA (D-relative) → JA → MFA, cheapest rung
/// first, each rung carrying its machine-readable witness. Every rung is
/// a *sufficient* condition for semi-oblivious termination on D — WA
/// relative to the given database, JA and MFA uniformly — so the ladder
/// verdict is kTerminates or kUnknown, never kDoesNotTerminate.
struct LadderResult {
  /// Rung 1: D-relative weak acyclicity (witness: supported special-
  /// cycle positions).
  graph::WeakAcyclicityResult wa;
  /// Whether Σ is weakly acyclic for EVERY database (the uniform claim
  /// JA subsumes).
  bool uniformly_weakly_acyclic = false;
  /// Rung 2: joint acyclicity (witness: existential-variable cycle).
  graph::JointAcyclicityResult ja;
  /// Rung 3: MFA via the critical-instance chase (witness: self-fed
  /// null). Only meaningful when mfa_ran.
  bool mfa_ran = false;
  MfaResult mfa;
  /// kTerminates when some rung certifies Σ, else kUnknown.
  Decision verdict = Decision::kUnknown;
  /// The certifying rung: "wa", "ja", "mfa"; empty when kUnknown.
  std::string rung;
};

/// Runs the ladder bottom-up, short-circuiting the chase-backed MFA rung
/// when a cheaper rung already certifies (WA and JA are always computed
/// — both are near-free and the diagnostics surface their witnesses).
/// The MFA rung runs with the default MfaOptions budgets.
LadderResult RunLadder(const core::SymbolTable& symbols,
                       const tgd::TgdSet& tgds, const core::Database& db);

}  // namespace termination
}  // namespace nuchase

#endif  // NUCHASE_TERMINATION_LADDER_H_
