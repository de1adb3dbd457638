#ifndef NUCHASE_TERMINATION_ADVISOR_H_
#define NUCHASE_TERMINATION_ADVISOR_H_

#include <optional>
#include <string>

#include "chase/chase.h"
#include "core/database.h"
#include "core/symbol_table.h"
#include "termination/ladder.h"
#include "termination/naive_decider.h"
#include "termination/syntactic_decider.h"
#include "tgd/classify.h"
#include "tgd/tgd.h"
#include "util/status.h"

namespace nuchase {
namespace termination {

/// High-level report of the materialization advisor: the OBDA use case of
/// Section 1. Given (D, Σ), decide whether materialization (running the
/// chase to completion) is possible, and optionally do it.
struct AdvisorReport {
  tgd::TgdClass tgd_class = tgd::TgdClass::kGeneral;
  Decision decision = Decision::kUnknown;
  /// Which procedure produced the decision ("weak-acyclicity",
  /// "simplification+WA", "linearization+simplification+WA",
  /// "ladder:wa" / "ladder:ja" / "ladder:mfa", "bounded-chase").
  std::string method;
  /// The paper's guarantee |chase(D,Σ)| ≤ |D|·f_C(Σ) (inf when unusable).
  double size_bound = 0;
  /// Depth bound d_C(Σ).
  double depth_bound = 0;
  /// Present when materialization was requested and the chase terminates.
  std::optional<chase::ChaseResult> materialization;
};

struct AdvisorOptions {
  /// Every chase the advisor runs (the bounded-chase fallback and the
  /// materialization) starts from these options: engine switches,
  /// atom budget, deadline, hooks, and precomputed plans
  /// and reliances for Σ. The decision-relevant fields are reset first
  /// (see DecisionChaseOptions). A cancelled materialization surfaces
  /// as ResourceExhausted. No pointer is owned; all must outlive the
  /// call.
  chase::ChaseOptions chase;
  /// Run the chase and attach the materialization when Σ ∈ CT_D.
  bool materialize = true;
  /// Budget for guarded linearization.
  std::uint64_t max_types = 100000;
  /// Optional precomputed analysis artifacts from a frozen
  /// api::Program (borrowed; must outlive the call): the acyclicity-
  /// ladder run consulted for general Σ before any bounded-chase
  /// fallback, and the memoized class decision for SL/L/G. Either may
  /// be null; the advisor then computes what it needs. `syntactic` is
  /// only honoured when its used_class matches Classify(Σ).
  const LadderResult* ladder = nullptr;
  const SyntacticDecision* syntactic = nullptr;
};

/// Classifies Σ, picks the worst-case-optimal syntactic decider for its
/// class (falling back to the bounded chase for non-guarded sets, where
/// ChTrm is undecidable in general), and optionally materializes
/// chase(D, Σ).
util::StatusOr<AdvisorReport> Advise(core::SymbolTable* symbols,
                                     const tgd::TgdSet& tgds,
                                     const core::Database& db,
                                     const AdvisorOptions& options = {});

}  // namespace termination
}  // namespace nuchase

#endif  // NUCHASE_TERMINATION_ADVISOR_H_
