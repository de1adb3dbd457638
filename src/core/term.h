#ifndef NUCHASE_CORE_TERM_H_
#define NUCHASE_CORE_TERM_H_

#include <cstdint>

namespace nuchase {
namespace core {

/// Kind of a term (Section 2 of the paper: constants C, labelled nulls N,
/// variables V are pairwise disjoint countably infinite sets).
enum class TermKind : std::uint32_t {
  kConstant = 0,
  kNull = 1,
  kVariable = 2,
};

/// A term handle: 2 tag bits (TermKind) + 30 index bits into the respective
/// store of the owning Context. Value-semantic, cheap to copy and hash.
class Term {
 public:
  constexpr Term() : bits_(0) {}
  constexpr Term(TermKind kind, std::uint32_t index)
      : bits_((static_cast<std::uint32_t>(kind) << kIndexBits) | index) {}

  constexpr TermKind kind() const {
    return static_cast<TermKind>(bits_ >> kIndexBits);
  }
  constexpr std::uint32_t index() const { return bits_ & kIndexMask; }

  bool IsConstant() const { return kind() == TermKind::kConstant; }
  bool IsNull() const { return kind() == TermKind::kNull; }
  bool IsVariable() const { return kind() == TermKind::kVariable; }

  /// Raw 32-bit encoding; stable within one Context, usable as a hash/map
  /// key.
  constexpr std::uint32_t bits() const { return bits_; }
  static constexpr Term FromBits(std::uint32_t bits) {
    Term t;
    t.bits_ = bits;
    return t;
  }

  constexpr bool operator==(const Term& o) const { return bits_ == o.bits_; }
  constexpr bool operator!=(const Term& o) const { return bits_ != o.bits_; }
  bool operator<(const Term& o) const { return bits_ < o.bits_; }

  static constexpr std::uint32_t kIndexBits = 30;
  static constexpr std::uint32_t kIndexMask = (1u << kIndexBits) - 1;

 private:
  std::uint32_t bits_;
};

}  // namespace core
}  // namespace nuchase

namespace std {
template <>
struct hash<nuchase::core::Term> {
  size_t operator()(const nuchase::core::Term& t) const {
    return std::hash<uint32_t>{}(t.bits());
  }
};
}  // namespace std

#endif  // NUCHASE_CORE_TERM_H_
