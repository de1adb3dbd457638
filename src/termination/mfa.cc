#include "termination/mfa.h"

#include <cstddef>
#include <unordered_map>
#include <utility>
#include <vector>

#include "termination/uniform.h"

namespace nuchase {
namespace termination {

namespace {

using core::Term;

/// Where a null came from: the rule and existential ordinal that minted
/// it, and the deepest labelled null among its trigger's frontier images
/// (its provenance parent; absent for depth-1 nulls).
struct NullOrigin {
  tgd::RuleIndex rule = 0;
  std::uint32_t ordinal = 0;
  Term parent;
  bool has_parent = false;
};

/// Records, off the engine's serial null-binding stream, enough
/// provenance to reconstruct the deepest-parent chain of the breaching
/// null when the depth tripwire fires.
class ProvenanceObserver final : public chase::ChaseObserver {
 public:
  explicit ProvenanceObserver(const core::SymbolScope* scope)
      : scope_(scope) {}

  void OnNullsBound(std::uint32_t tgd_index, const Term* nulls,
                    std::size_t num_nulls, const Term* frontier,
                    std::size_t num_frontier) override {
    Term parent;
    bool has_parent = false;
    std::uint32_t parent_depth = 0;
    for (std::size_t i = 0; i < num_frontier; ++i) {
      if (!frontier[i].IsNull()) continue;
      const std::uint32_t d = scope_->depth(frontier[i]);
      if (!has_parent || d > parent_depth) {
        has_parent = true;
        parent_depth = d;
        parent = frontier[i];
      }
    }
    for (std::size_t i = 0; i < num_nulls; ++i) {
      // Nulls are functional in (rule, frontier images), so a re-found
      // null re-reports the same origin; first write wins either way.
      origins_.emplace(
          nulls[i], NullOrigin{tgd_index, static_cast<std::uint32_t>(i),
                               parent, has_parent});
      const std::uint32_t d = scope_->depth(nulls[i]);
      if (!has_deepest_ || d > deepest_depth_) {
        has_deepest_ = true;
        deepest_depth_ = d;
        deepest_ = nulls[i];
      }
    }
  }

  bool has_deepest() const { return has_deepest_; }
  Term deepest() const { return deepest_; }
  const NullOrigin* origin(Term null) const {
    auto it = origins_.find(null);
    return it == origins_.end() ? nullptr : &it->second;
  }

 private:
  const core::SymbolScope* scope_;
  std::unordered_map<Term, NullOrigin> origins_;
  Term deepest_;
  std::uint32_t deepest_depth_ = 0;
  bool has_deepest_ = false;
};

}  // namespace

const char* MfaStatusName(MfaStatus status) {
  switch (status) {
    case MfaStatus::kAcyclic: return "acyclic";
    case MfaStatus::kCyclic: return "cyclic";
    case MfaStatus::kBudget: return "budget";
  }
  return "?";
}

MfaResult CheckMfa(const core::SymbolTable& symbols, const tgd::TgdSet& tgds,
                   const MfaOptions& options) {
  MfaResult out;
  core::SymbolTable scratch = symbols;
  auto critical = MakeCriticalDatabase(&scratch, tgds);
  if (!critical.ok()) return out;  // id space exhausted: kBudget.

  std::size_t total_existentials = 0;
  for (const tgd::Tgd& rule : tgds.tgds()) {
    total_existentials += rule.existential().size();
  }
  const std::uint32_t depth_limit =
      options.max_depth != 0
          ? options.max_depth
          : static_cast<std::uint32_t>(total_existentials) + 2;

  ProvenanceObserver provenance(&scratch);
  chase::ChaseOptions copt;
  copt.variant = chase::ChaseVariant::kSemiOblivious;
  copt.max_atoms = options.max_atoms;
  copt.max_depth = depth_limit;
  copt.observer = &provenance;
  chase::ChaseResult run = chase::RunChase(&scratch, tgds, *critical, copt);

  out.critical_atoms = run.instance.size();
  out.max_depth_seen = run.stats.max_depth;
  if (run.outcome == chase::ChaseOutcome::kTerminated) {
    out.status = MfaStatus::kAcyclic;
    return out;
  }
  if (run.outcome != chase::ChaseOutcome::kDepthLimit) return out;

  // Depth tripwire: walk the deepest-parent chain from the breaching
  // null, labelling each link (rule, existential ordinal), until a label
  // repeats — the self-fed null term. With the auto depth limit the
  // chain is longer than the label alphabet, so a repeat is guaranteed;
  // a caller-chosen shallow limit may breach without one (kBudget).
  if (!provenance.has_deepest()) return out;
  std::vector<std::pair<tgd::RuleIndex, std::uint32_t>> labels;
  Term at = provenance.deepest();
  out.witness_null = scratch.TermToString(at);
  while (true) {
    const NullOrigin* origin = provenance.origin(at);
    if (origin == nullptr) break;
    const std::pair<tgd::RuleIndex, std::uint32_t> label(origin->rule,
                                                         origin->ordinal);
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (labels[i] == label) {
        // Cycle: steps i..end of the walk so far, breach side first.
        for (std::size_t j = i; j < labels.size(); ++j) {
          const tgd::Tgd& rule = tgds.tgd(labels[j].first);
          out.cycle.push_back(MfaCycleStep{
              labels[j].first, rule.existential()[labels[j].second]});
        }
        out.status = MfaStatus::kCyclic;
        return out;
      }
    }
    labels.push_back(label);
    if (!origin->has_parent) break;
    at = origin->parent;
  }
  return out;
}

}  // namespace termination
}  // namespace nuchase
