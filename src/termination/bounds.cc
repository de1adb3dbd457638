#include "termination/bounds.h"

#include <cmath>
#include <limits>

namespace nuchase {
namespace termination {

namespace {

double SchemaSize(const tgd::TgdSet& tgds) {
  return static_cast<double>(tgds.SchemaPredicates().size());
}

double Arity(const tgd::TgdSet& tgds, const core::SymbolTable& symbols) {
  return static_cast<double>(tgds.MaxArity(symbols));
}

}  // namespace

double DepthBoundSL(const tgd::TgdSet& tgds,
                    const core::SymbolTable& symbols) {
  return SchemaSize(tgds) * Arity(tgds, symbols);
}

double DepthBoundL(const tgd::TgdSet& tgds,
                   const core::SymbolTable& symbols) {
  double ar = Arity(tgds, symbols);
  return SchemaSize(tgds) * std::pow(ar, ar + 1);
}

double DepthBoundG(const tgd::TgdSet& tgds,
                   const core::SymbolTable& symbols) {
  double ar = Arity(tgds, symbols);
  double sch = SchemaSize(tgds);
  return sch * std::pow(ar, 2 * ar + 1) *
         std::exp2(sch * std::pow(ar, ar));
}

double DepthBound(tgd::TgdClass clazz, const tgd::TgdSet& tgds,
                  const core::SymbolTable& symbols) {
  switch (clazz) {
    case tgd::TgdClass::kSimpleLinear:
      return DepthBoundSL(tgds, symbols);
    case tgd::TgdClass::kLinear:
      return DepthBoundL(tgds, symbols);
    case tgd::TgdClass::kGuarded:
      return DepthBoundG(tgds, symbols);
    case tgd::TgdClass::kGeneral:
      return std::numeric_limits<double>::infinity();
  }
  return std::numeric_limits<double>::infinity();
}

double SizeFactor(double depth, const tgd::TgdSet& tgds,
                  const core::SymbolTable& symbols) {
  double norm = static_cast<double>(tgds.Norm(symbols));
  double ar = Arity(tgds, symbols);
  return (depth + 1) * std::pow(norm, 2 * ar * (depth + 1));
}

double SizeFactorSL(const tgd::TgdSet& tgds,
                    const core::SymbolTable& symbols) {
  return SizeFactor(DepthBoundSL(tgds, symbols), tgds, symbols);
}

double SizeFactorL(const tgd::TgdSet& tgds,
                   const core::SymbolTable& symbols) {
  return SizeFactor(DepthBoundL(tgds, symbols), tgds, symbols);
}

double SizeFactorG(const tgd::TgdSet& tgds,
                   const core::SymbolTable& symbols) {
  return SizeFactor(DepthBoundG(tgds, symbols), tgds, symbols);
}

double SizeFactor(tgd::TgdClass clazz, const tgd::TgdSet& tgds,
                  const core::SymbolTable& symbols) {
  return SizeFactor(DepthBound(clazz, tgds, symbols), tgds, symbols);
}

double SizeBound(std::size_t database_size, double size_factor) {
  if (!std::isfinite(size_factor)) {
    return std::numeric_limits<double>::infinity();
  }
  return static_cast<double>(database_size) * size_factor;
}

double GtreeLevelBound(std::uint32_t depth, const tgd::TgdSet& tgds,
                       const core::SymbolTable& symbols) {
  double norm = static_cast<double>(tgds.Norm(symbols));
  double ar = static_cast<double>(tgds.MaxArity(symbols));
  return std::pow(norm, 2 * ar * (depth + 1));
}

}  // namespace termination
}  // namespace nuchase
