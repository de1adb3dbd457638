#ifndef NUCHASE_WORKLOAD_DEPTH_FAMILY_H_
#define NUCHASE_WORKLOAD_DEPTH_FAMILY_H_

#include <cstdint>

#include "workload/lower_bounds.h"

namespace nuchase {
namespace workload {

/// Proposition 4.5's family: Σ = { R(x,y), P(x,z,v) → ∃w P(y,w,z) } and
/// D_n = { P(a1,b,b), R(a1,a2), ..., R(a_{n−1},a_n) }, with |D_n| = n and
/// maxdepth(D_n, Σ) = n − 1. Demonstrates that, unlike the uniform case
/// (Theorem 4.4), no database-independent depth bound exists for
/// arbitrary TGDs. Note Σ is not guarded.
Workload MakeDepthFamily(core::SymbolTable* symbols, std::uint32_t n);

/// Section 3's canonical non-terminating pair: D = { R(a,b) },
/// Σ = { R(x,y) → ∃z R(y,z) }.
Workload MakeInfinitePath(core::SymbolTable* symbols);

/// Section 3's fairness example: Σ = { R(x,y) → ∃z R(y,z),
/// R(x,y) → P(x,y) } over D = { R(a,b) }; an unfair derivation that never
/// fires the second TGD does not satisfy Σ.
Workload MakeFairnessExample(core::SymbolTable* symbols);

/// Example 7.1: D = { R(a,b) }, Σ = { R(x,x) → ∃z R(z,x) }. The chase is
/// finite (no trigger at all) although Σ is not D-weakly-acyclic —
/// non-uniform weak-acyclicity is too coarse for non-simple linear TGDs.
Workload MakeExample71(core::SymbolTable* symbols);

/// Proposition 4.5's companion observation: the same Σ as
/// MakeDepthFamily over D = { P(a,a,a), R(a,a) } has an infinite chase
/// (so Σ ∉ CT).
Workload MakeDepthFamilyInfinite(core::SymbolTable* symbols);

/// The wide depth family — a recursive workload with wide rounds.
/// Proposition 4.5's rule extended with a third,
/// frontier-free body atom, over `width` disjoint chains instead of one:
///
///   Σ = { R(x,y), P(x,z,v), S(x,u) → ∃w P(y,w,z) }
///   D  = { R(c_i^a, c_{i+1}^a)  | a < width, i < layers }   (chains)
///      ∪ { P(c_1^a, s_j, s_j)   | a < width, j < payloads } (seeds)
///      ∪ { S(c_i^a, u_m)        | a < width, i ≤ layers,
///                                 m < noise }               (noise)
///
/// Every chase round advances width·payloads payload streams one chain
/// layer: the round's delta holds width·payloads P-atoms, each seeding
/// a join that probes its node's `noise` S-atoms, and the `noise`
/// homomorphisms per trigger collapse to one firing (u is not in the
/// frontier). That gives wide rounds of independent delta seeds,
/// per-seed join work that dominates the apply phase, and duplicate
/// homomorphisms that the fired set must collapse — while rounds stay
/// a constant width (the chains are disjoint, so nothing compounds).
/// Null depth still grows by one per layer, as in the narrow family:
/// the propagated payload position carries the previous round's null.
/// The chase terminates with width·payloads·layers derived atoms after
/// `layers` rounds and width·payloads·noise·layers join probes of
/// S-work.
Workload MakeWideDepthFamily(core::SymbolTable* symbols,
                             std::uint32_t layers, std::uint32_t width,
                             std::uint32_t payloads,
                             std::uint32_t noise);

}  // namespace workload
}  // namespace nuchase

#endif  // NUCHASE_WORKLOAD_DEPTH_FAMILY_H_
