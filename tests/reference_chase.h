// A brute-force chase for the differential tests: an oracle for
// chase::RunChase that shares none of the engine's machinery (no join
// plans, no homomorphism finder, no fired set, no head plans, no
// position index or dedup of core::Instance). It enumerates every body
// homomorphism with nested loops over a private std::map index, and
// names every null it invents by its Skolem term (Definition 3.1).
#ifndef NUCHASE_TESTS_REFERENCE_CHASE_H_
#define NUCHASE_TESTS_REFERENCE_CHASE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "chase/chase.h"
#include "chase/observer.h"
#include "core/database.h"
#include "core/instance.h"
#include "core/symbol_table.h"
#include "core/term.h"
#include "tgd/tgd.h"

namespace nuchase {
namespace reference {

/// Names labelled nulls by the Skolem terms they stand for. Definition
/// 3.1 names the null that trigger (σ, h) invents for z ⊥^z_{σ,h|fr(σ)}:
/// the term f_{σ,z}(h|fr(σ)). Rendered through these names, a chase
/// result no longer depends on the order its nulls were allocated in.
class SkolemNames {
 public:
  /// Records that `null` is f_{rule,z}(args).
  void Name(core::Term null, std::uint32_t rule, std::size_t z,
            std::vector<core::Term> args);

  /// `t` rendered: a named null as "f<rule>_<z>#<hash>", where the
  /// 64-bit hash covers its whole Skolem term (arguments hashed the
  /// same way, constants by name); any other term as `symbols` prints
  /// it. Spelling nested terms out instead would grow exponentially
  /// with depth where arguments share nulls.
  std::string Render(core::Term t, const core::SymbolScope& symbols) const;

  /// The atoms of `instance`, sorted, one per line, each term rendered
  /// by Render.
  std::string RenderInstance(const core::Instance& instance,
                             const core::SymbolScope& symbols) const;

 private:
  struct Skolem {
    std::uint32_t rule;
    std::size_t z;
    std::vector<core::Term> args;
  };
  /// The structural hash Render prints (memoized).
  std::uint64_t Hash(core::Term t, const core::SymbolScope& symbols) const;

  std::map<core::Term, Skolem> skolems_;
  mutable std::map<core::Term, std::uint64_t> hashes_;
};

/// Names an engine run's nulls through ChaseObserver::OnNullsBound:
/// each is f_{σ,z} over the trigger's frontier images, with σ named
/// `rule_names[tgd_index]` (its own index when `rule_names` is empty; a
/// run over a permuted Σ passes every rule's original index). The hook
/// carries no body images, so this names the nulls of the
/// semi-oblivious and restricted variants only.
class SkolemRecorder : public chase::ChaseObserver {
 public:
  explicit SkolemRecorder(std::vector<std::uint32_t> rule_names = {})
      : rule_names_(std::move(rule_names)) {}

  void OnNullsBound(std::uint32_t tgd_index, const core::Term* nulls,
                    std::size_t num_nulls, const core::Term* frontier,
                    std::size_t num_frontier) override;

  const SkolemNames& names() const { return names_; }

 private:
  std::vector<std::uint32_t> rule_names_;
  SkolemNames names_;
};

/// What RunReferenceChase computed.
struct ReferenceResult {
  chase::ChaseOutcome outcome = chase::ChaseOutcome::kTerminated;
  /// The final atom set, in the reference's insertion order.
  core::Instance instance;
  /// triggers_fired, triggers_satisfied, rounds, max_depth,
  /// database_atoms, peak_atoms and arena_bytes, with RunChase's
  /// meanings. The join counters stay 0.
  chase::ChaseStats stats;
  /// Every null the run allocated, by its Skolem term. Oblivious nulls
  /// are named over h's body-variable images (sorted-variable order),
  /// the others over h|fr(σ) (sorted-frontier order).
  SkolemNames names;
};

/// Computes what chase::RunChase(symbols, tgds, db, options) returns,
/// by brute force:
///   - D is inserted in order. Round k's window is the atoms round k-1
///     inserted; round 1's is D.
///   - Σ is walked one rule at a time, in Σ-order, or in restraint mode
///     (options.restraint_order with the restricted variant) in
///     graph::RestraintOrder's order, recomputed by brute force over
///     every rule pair from graph::Restrains. Each rule collects against
///     the instance as the rules before it left it, then fires.
///   - Collecting a rule enumerates every homomorphism h of its body
///     into the whole instance. h is collected in the round whose
///     window holds its first (in body order) atom at or past the
///     window start; if that atom is newer than the window, h waits
///     for a later round. An h whose key — (σ, h|fr(σ)), oblivious
///     (σ, h) — was collected before is dropped. A rule's triggers fire
///     in the order of their image bits (frontier images, then, for
///     the oblivious variant, body images).
///   - Just before a restricted trigger would fire, a brute-force
///     search for an extension of h|fr(σ) mapping head(σ) into the
///     instance decides whether it is skipped as satisfied.
///   - A firing trigger allocates one null per existential variable
///     (sorted order) through symbols->MakeNull, at depth 1 + the
///     depth of its deepest frontier image (Definition 4.3), then
///     inserts its head atoms in order.
///   - Stops: max_rounds before a round would start; max_depth at the
///     first null deeper than it (the trigger counts as fired and
///     inserts nothing); max_atoms after the insert that takes the
///     instance past it; kResourceExhausted when MakeNull fails.
/// Every other option (observer, plans, cancellation, forest) is
/// ignored.
ReferenceResult RunReferenceChase(core::SymbolScope* symbols,
                                  const tgd::TgdSet& tgds,
                                  const core::Database& db,
                                  const chase::ChaseOptions& options);

// Comparing the engine with the reference --------------------------------

/// One chase run, rendered for comparison.
struct RenderedRun {
  chase::ChaseVariant variant = chase::ChaseVariant::kSemiOblivious;
  chase::ChaseOutcome outcome = chase::ChaseOutcome::kTerminated;
  chase::ChaseStats stats;
  /// core::Instance::ToSortedString of the result.
  std::string sorted;
  /// SkolemNames::RenderInstance of the result.
  std::string skolem;
};

/// chase::RunChase, with a SkolemRecorder observing (`options.observer`
/// is replaced).
RenderedRun RenderEngineRun(core::SymbolScope* symbols,
                            const tgd::TgdSet& tgds,
                            const core::Database& db,
                            chase::ChaseOptions options);

/// RunReferenceChase.
RenderedRun RenderReferenceRun(core::SymbolScope* symbols,
                               const tgd::TgdSet& tgds,
                               const core::Database& db,
                               const chase::ChaseOptions& options);

/// Expects an engine run to equal a reference run on everything the
/// reference computes: outcome, sorted instance, triggers fired and
/// satisfied, rounds, max_depth, peak_atoms and arena_bytes, and —
/// except for the oblivious variant, whose engine nulls SkolemRecorder
/// cannot name — the Skolem rendering.
void ExpectSameRun(const RenderedRun& engine, const RenderedRun& reference,
                   const std::string& label);

}  // namespace reference
}  // namespace nuchase

#endif  // NUCHASE_TESTS_REFERENCE_CHASE_H_
