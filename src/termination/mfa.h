#ifndef NUCHASE_TERMINATION_MFA_H_
#define NUCHASE_TERMINATION_MFA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "core/symbol_table.h"
#include "tgd/tgd.h"

namespace nuchase {
namespace termination {

/// How the MFA-style critical-instance check ended.
enum class MfaStatus {
  /// The semi-oblivious chase of the critical database terminated within
  /// budget: Σ ∈ CT uniformly (Marnette — SO-termination on D_Σ implies
  /// termination on every database).
  kAcyclic,
  /// The null-depth tripwire fired and the deepest null's provenance
  /// chain passes one (rule, existential) twice: a self-fed null term,
  /// the machine-readable witness that the acyclicity test failed.
  /// Says nothing about non-termination — only that this rung cannot
  /// certify Σ.
  kCyclic,
  /// A budget other than the depth tripwire stopped the chase (atom
  /// budget, null-id space, cancellation): inconclusive.
  kBudget,
};

const char* MfaStatusName(MfaStatus status);

/// One step of the self-fed-null witness: a null minted for existential
/// variable `variable` of rule `rule` along the deepest provenance chain.
struct MfaCycleStep {
  tgd::RuleIndex rule = 0;
  core::Term variable;
};

struct MfaResult {
  MfaStatus status = MfaStatus::kBudget;
  /// Atoms the critical-instance chase materialized before stopping.
  std::uint64_t critical_atoms = 0;
  /// Deepest null depth observed (= the tripwire's breach depth when
  /// kCyclic).
  std::uint32_t max_depth_seen = 0;
  /// kCyclic witness: the (rule, existential) cycle along the breaching
  /// null's deepest-parent chain, innermost repeat first. Empty
  /// otherwise.
  std::vector<MfaCycleStep> cycle;
  /// kCyclic: the breaching null rendered against the check's private
  /// scope (e.g. "_:n17"), for diagnostics.
  std::string witness_null;
};

struct MfaOptions {
  /// Atom budget of the critical-instance chase.
  std::uint64_t max_atoms = 100000;
  /// Null-depth tripwire; 0 = auto: (total existential variables of Σ)
  /// + 2. Any limit ≥ that total pigeonhole-guarantees a self-fed
  /// witness on a breach, since the deepest-parent chain steps down one
  /// depth level per null and each level is labelled by one of the
  /// |existentials| (rule, variable) pairs.
  std::uint32_t max_depth = 0;
};

/// The MFA rung of the acyclicity ladder: chases the critical database
/// D_Σ (termination/uniform.h) with the semi-oblivious engine and a
/// null-depth tripwire. kAcyclic is an exact certificate of uniform
/// termination; kCyclic/kBudget are inconclusive, with kCyclic carrying
/// the self-fed-null witness. Works on a private copy of `symbols`.
MfaResult CheckMfa(const core::SymbolTable& symbols, const tgd::TgdSet& tgds,
                   const MfaOptions& options = {});

}  // namespace termination
}  // namespace nuchase

#endif  // NUCHASE_TERMINATION_MFA_H_
