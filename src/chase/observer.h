#ifndef NUCHASE_CHASE_OBSERVER_H_
#define NUCHASE_CHASE_OBSERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "core/term.h"

namespace nuchase {
namespace chase {

enum class ChaseOutcome;
struct ChaseStats;

/// Progress snapshot delivered to ChaseObserver::OnRound at the start of
/// every breadth-first round.
struct RoundProgress {
  /// 1-based round number about to execute.
  std::uint64_t round = 0;
  /// Atoms in the instance when the round starts.
  std::size_t atoms = 0;
  /// Atoms in the previous round's delta (the join seeds of this round).
  std::size_t delta_atoms = 0;
  /// Triggers fired so far, over all previous rounds.
  std::uint64_t triggers_fired = 0;
};

/// Observation hooks for a chase run. All callbacks are invoked
/// synchronously from the chase loop, on the thread running the chase;
/// implementations must not re-enter the engine or mutate the inputs.
/// Every hook has an empty default so observers override only what they
/// need.
class ChaseObserver {
 public:
  virtual ~ChaseObserver() = default;

  /// Start of each breadth-first round.
  virtual void OnRound(const RoundProgress& progress) { (void)progress; }

  /// A trigger of TGD `tgd_index` (position in Σ) fired; the instance now
  /// holds `atoms` atoms.
  virtual void OnFire(std::uint32_t tgd_index, std::size_t atoms) {
    (void)tgd_index;
    (void)atoms;
  }

  /// The null-binding pass bound the labelled nulls of one trigger of
  /// TGD `tgd_index`: `nulls[i]` is the null (possibly re-found, not
  /// fresh) for the rule's i-th sorted existential variable, `frontier`
  /// the trigger's h(fr(σ)) the null depths derive from. Called in
  /// canonical trigger order for every variant, so a recording observer
  /// sees a deterministic provenance stream. On a depth-budget breach
  /// the partial binding — breaching null included — is still reported
  /// before OnDone; this is the hook the MFA rung's self-fed-null
  /// witness is reconstructed from. Terms are plain values; resolve
  /// depths and names through the run's core::SymbolScope.
  virtual void OnNullsBound(std::uint32_t tgd_index,
                            const core::Term* nulls, std::size_t num_nulls,
                            const core::Term* frontier,
                            std::size_t num_frontier) {
    (void)tgd_index;
    (void)nulls;
    (void)num_nulls;
    (void)frontier;
    (void)num_frontier;
  }

  /// Exactly once, with the final outcome, before RunChase returns.
  virtual void OnDone(ChaseOutcome outcome, const ChaseStats& stats) {
    (void)outcome;
    (void)stats;
  }
};

/// Cooperative cancellation flag for a chase run. Cancel() may be called
/// from any thread (typically not the one chasing); the engine polls the
/// token at round, trigger and homomorphism granularity and stops with
/// ChaseOutcome::kCancelled in bounded time, returning the consistent
/// chase prefix built so far.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

}  // namespace chase
}  // namespace nuchase

#endif  // NUCHASE_CHASE_OBSERVER_H_
