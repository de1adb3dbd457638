#ifndef NUCHASE_TERMINATION_BOUNDS_H_
#define NUCHASE_TERMINATION_BOUNDS_H_

#include <cstddef>

#include "core/symbol_table.h"
#include "tgd/classify.h"
#include "tgd/tgd.h"

namespace nuchase {
namespace termination {

/// The database-independent depth bounds d_C(Σ) of Section 5:
///   d_SL(Σ) = |sch(Σ)| · ar(Σ)
///   d_L(Σ)  = |sch(Σ)| · ar(Σ)^(ar(Σ)+1)
///   d_G(Σ)  = |sch(Σ)| · ar(Σ)^(2·ar(Σ)+1) · 2^(|sch(Σ)|·ar(Σ)^ar(Σ))
/// Values can overflow any integer type for guarded sets; doubles
/// saturate to +inf, which callers treat as "no usable budget".
double DepthBoundSL(const tgd::TgdSet& tgds,
                    const core::SymbolTable& symbols);
double DepthBoundL(const tgd::TgdSet& tgds, const core::SymbolTable& symbols);
double DepthBoundG(const tgd::TgdSet& tgds, const core::SymbolTable& symbols);

/// d_C(Σ) for the given class (kGeneral has no bound: returns +inf).
double DepthBound(tgd::TgdClass clazz, const tgd::TgdSet& tgds,
                  const core::SymbolTable& symbols);

/// The generic size bound of Proposition 5.2 with depth d:
///   (d+1) · ||Σ||^(2·ar(Σ)·(d+1)),
/// so that |chase(D,Σ)| ≤ |D| · SizeFactor(...). With d = d_C(Σ) this is
/// the f_C(Σ) of Theorems 6.4 / 7.5 / 8.3.
double SizeFactor(double depth, const tgd::TgdSet& tgds,
                  const core::SymbolTable& symbols);

/// f_C(Σ) = SizeFactor(d_C(Σ), Σ).
double SizeFactorSL(const tgd::TgdSet& tgds,
                    const core::SymbolTable& symbols);
double SizeFactorL(const tgd::TgdSet& tgds, const core::SymbolTable& symbols);
double SizeFactorG(const tgd::TgdSet& tgds, const core::SymbolTable& symbols);
double SizeFactor(tgd::TgdClass clazz, const tgd::TgdSet& tgds,
                  const core::SymbolTable& symbols);

/// The size bound |D|·f_C(Σ) given f_C(Σ) = `size_factor`: +inf
/// whenever the factor is not finite, so an empty D never turns an
/// unusable factor into NaN.
double SizeBound(std::size_t database_size, double size_factor);

/// Lemma 5.1's per-depth tree bound ||Σ||^(2·ar(Σ)·(i+1)).
double GtreeLevelBound(std::uint32_t depth, const tgd::TgdSet& tgds,
                       const core::SymbolTable& symbols);

}  // namespace termination
}  // namespace nuchase

#endif  // NUCHASE_TERMINATION_BOUNDS_H_
