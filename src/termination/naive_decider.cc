#include "termination/naive_decider.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "termination/bounds.h"

namespace nuchase {
namespace termination {

const char* DecisionName(Decision d) {
  switch (d) {
    case Decision::kTerminates:
      return "terminates";
    case Decision::kDoesNotTerminate:
      return "does-not-terminate";
    case Decision::kUnknown:
      return "unknown";
  }
  return "?";
}

chase::ChaseOptions DecisionChaseOptions(const chase::ChaseOptions& engine) {
  chase::ChaseOptions options = engine;
  options.variant = chase::ChaseVariant::kSemiOblivious;
  options.max_depth = 0;
  options.max_rounds = 0;
  options.build_forest = false;
  options.restraint_order = false;
  return options;
}

NaiveDecision DecideByChase(core::SymbolTable* symbols,
                            const tgd::TgdSet& tgds,
                            const core::Database& db,
                            const chase::ChaseOptions& engine,
                            chase::ChaseResult* run) {
  NaiveDecision out;
  tgd::TgdClass clazz = tgd::Classify(tgds);
  out.depth_bound = DepthBound(clazz, tgds, *symbols);
  out.size_bound = SizeBound(db.size(), SizeFactor(clazz, tgds, *symbols));

  chase::ChaseOptions options = DecisionChaseOptions(engine);
  // Depth budget: exceeding d_C(Σ) certifies non-termination
  // (Lemmas 6.2 / 7.4 / 8.2 via Theorems 6.4 / 7.5 / 8.3).
  bool depth_budget_exact = false;
  if (std::isfinite(out.depth_bound) &&
      out.depth_bound < static_cast<double>(
                            std::numeric_limits<std::uint32_t>::max())) {
    options.max_depth = static_cast<std::uint32_t>(out.depth_bound);
    depth_budget_exact = true;
  }
  // Atom budget: exceeding |D|·f_C(Σ) certifies non-termination
  // (items (2) of the same theorems).
  bool atom_budget_exact = false;
  if (std::isfinite(out.size_bound) &&
      out.size_bound < static_cast<double>(options.max_atoms)) {
    options.max_atoms = static_cast<std::uint64_t>(out.size_bound);
    atom_budget_exact = true;
  }

  auto start = std::chrono::steady_clock::now();
  chase::ChaseResult result = chase::RunChase(symbols, tgds, db, options);
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  out.outcome = result.outcome;
  out.atoms = result.instance.size();
  out.max_depth = result.stats.max_depth;

  switch (result.outcome) {
    case chase::ChaseOutcome::kTerminated:
      out.decision = Decision::kTerminates;
      break;
    case chase::ChaseOutcome::kDepthLimit:
      out.decision = depth_budget_exact ? Decision::kDoesNotTerminate
                                        : Decision::kUnknown;
      break;
    case chase::ChaseOutcome::kAtomLimit:
      out.decision = atom_budget_exact ? Decision::kDoesNotTerminate
                                       : Decision::kUnknown;
      break;
    case chase::ChaseOutcome::kRoundLimit:
      out.decision = Decision::kUnknown;
      break;
    case chase::ChaseOutcome::kCancelled:
      // An interrupted run certifies nothing in either direction.
      out.decision = Decision::kUnknown;
      break;
    case chase::ChaseOutcome::kResourceExhausted:
      // Ran out of null ids before any budget: certifies nothing.
      out.decision = Decision::kUnknown;
      break;
  }
  if (run != nullptr) *run = std::move(result);
  return out;
}

}  // namespace termination
}  // namespace nuchase
