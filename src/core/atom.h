#ifndef NUCHASE_CORE_ATOM_H_
#define NUCHASE_CORE_ATOM_H_

#include <cstdint>
#include <vector>

#include "core/symbol_table.h"
#include "core/term.h"
#include "util/hash.h"

namespace nuchase {
namespace core {

/// A non-owning view of a contiguous run of terms (the argument tuple of
/// one atom). Value-semantic and trivially copyable; the pointed-at
/// storage must outlive the span. This is the currency of the columnar
/// storage layer: probes, inserts and joins hand tuples around as spans,
/// never as owning vectors.
class TermSpan {
 public:
  TermSpan() : data_(nullptr), size_(0) {}
  TermSpan(const Term* data, std::uint32_t size)
      : data_(data), size_(size) {}
  explicit TermSpan(const std::vector<Term>& v)
      : data_(v.data()), size_(static_cast<std::uint32_t>(v.size())) {}

  const Term* data() const { return data_; }
  std::uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Term operator[](std::uint32_t i) const { return data_[i]; }
  const Term* begin() const { return data_; }
  const Term* end() const { return data_ + size_; }

  bool operator==(const TermSpan& o) const {
    if (size_ != o.size_) return false;
    for (std::uint32_t i = 0; i < size_; ++i) {
      if (data_[i] != o.data_[i]) return false;
    }
    return true;
  }
  bool operator!=(const TermSpan& o) const { return !(*this == o); }

  std::vector<Term> ToVector() const {
    return std::vector<Term>(begin(), end());
  }

 private:
  const Term* data_;
  std::uint32_t size_;
};

/// Hash of a (predicate, tuple) pair. The single hash recipe shared by
/// the row-probing dedup index of core::Instance and every caller that
/// needs a tuple key — hashing a materialized Atom and hashing its span
/// agree by construction. Every word passes through a full 64-bit mixer
/// (splitmix64 finalizer): the open-addressing table indexes by the LOW
/// bits of this value, so — unlike unordered_map's prime-modulo
/// buckets — weak bits would turn directly into probe-chain clustering.
inline std::size_t TupleHash(PredicateId predicate, TermSpan terms) {
  std::uint64_t seed = util::Mix64(predicate);
  for (Term t : terms) {
    seed = util::Mix64(seed ^ t.bits());
  }
  return static_cast<std::size_t>(seed);
}

/// An atom R(t1,...,tn): a predicate applied to a tuple of terms
/// (Section 2). This owning form is the working currency of *formulas* —
/// TGD bodies and heads, query atoms, database facts — where tuples are
/// small, long-lived and carry variables. Chase instances do NOT store
/// Atoms: they keep all tuples in per-predicate row vectors
/// (core::Instance) and hand out AtomView handles.
struct Atom {
  PredicateId predicate = kInvalidPredicate;
  std::vector<Term> args;

  Atom() = default;
  Atom(PredicateId pred, std::vector<Term> arguments)
      : predicate(pred), args(std::move(arguments)) {}

  std::uint32_t arity() const {
    return static_cast<std::uint32_t>(args.size());
  }

  /// The argument tuple as a span (valid while `args` is not mutated).
  TermSpan terms() const { return TermSpan(args); }

  bool operator==(const Atom& o) const {
    return predicate == o.predicate && args == o.args;
  }
  bool operator!=(const Atom& o) const { return !(*this == o); }
  bool operator<(const Atom& o) const {
    if (predicate != o.predicate) return predicate < o.predicate;
    return args < o.args;
  }

  /// True iff every argument is a constant (i.e. the atom is a fact).
  bool IsFact() const {
    for (Term t : args) {
      if (!t.IsConstant()) return false;
    }
    return true;
  }

  /// Renders the atom with the given symbol table, e.g. "R(a, _:n3)".
  std::string ToString(const SymbolScope& symbols) const;
};

struct AtomHash {
  std::size_t operator()(const Atom& a) const {
    return TupleHash(a.predicate, a.terms());
  }
};

/// A stable, cheap handle to one atom of an Instance: its predicate plus
/// the offset of its argument tuple *within that predicate's row
/// vector* (row number × arity) — storage is partitioned by predicate,
/// and the instance's directory of AtomRefs (indexed by global
/// AtomIndex, assigned in insertion order across all predicates) is the
/// global-index indirection that ties the partition back together; it
/// is append-only and its entries never change. The predicate's (fixed)
/// arity rides along in otherwise-padding bytes so resolving a ref to
/// its tuple costs one 16-byte load plus one segment load — the join
/// kernel probes millions of refs; further dependent lookups per probe
/// are measurable.
struct AtomRef {
  std::uint64_t offset = 0;
  PredicateId predicate = kInvalidPredicate;
  std::uint32_t arity = 0;

  AtomRef() = default;
  AtomRef(PredicateId pred, std::uint64_t off, std::uint32_t n)
      : offset(off), predicate(pred), arity(n) {}
};

/// A non-owning view of one stored atom: predicate + argument tuple read
/// directly out of the owning instance's row vector. The view holds a
/// raw pointer into that vector, so it is valid until the next insert
/// into the instance (which may grow the vector); moving the owning
/// Instance keeps it valid. Resolve the atom index again after
/// inserting.
class AtomView {
 public:
  AtomView() : tuple_(nullptr) {}
  AtomView(const Term* tuple, PredicateId predicate, std::uint32_t arity)
      : tuple_(tuple), predicate_(predicate), arity_(arity) {}

  PredicateId predicate() const { return predicate_; }
  std::uint32_t arity() const { return arity_; }
  Term arg(std::uint32_t i) const { return tuple_[i]; }

  /// The argument tuple as a raw span, pointing straight into the
  /// instance's rows; valid as long as the view is.
  TermSpan terms() const { return TermSpan(tuple_, arity_); }

  /// True iff every argument is a constant.
  bool IsFact() const {
    for (std::uint32_t i = 0; i < arity_; ++i) {
      if (!arg(i).IsConstant()) return false;
    }
    return true;
  }

  /// Materializes an owning Atom (copying the tuple out of the rows).
  Atom ToAtom() const { return Atom(predicate_, terms().ToVector()); }

  /// Renders the atom with the given symbol table, e.g. "R(a, _:n3)".
  std::string ToString(const SymbolScope& symbols) const;

 private:
  const Term* tuple_;
  PredicateId predicate_ = kInvalidPredicate;
  std::uint32_t arity_ = 0;
};

}  // namespace core
}  // namespace nuchase

#endif  // NUCHASE_CORE_ATOM_H_
