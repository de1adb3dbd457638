// Property test for the columnar storage layer: core::Instance
// (per-predicate row vectors + AtomRef directory + row-probing
// open-addressing dedup)
// must behave exactly like a naive reference container — an
// insertion-ordered vector of owning Atoms with a set for dedup —
// under random insert / find / iterate sequences over mixed predicates
// and arities, including the per-predicate index windows the
// semi-naive chase reads its delta through.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/atom.h"
#include "core/instance.h"
#include "core/symbol_table.h"

namespace nuchase {
namespace core {
namespace {

/// The naive reference: insertion-ordered atoms, set-based dedup, scan-
/// based lookups.
struct ReferenceInstance {
  std::vector<Atom> atoms;
  std::set<Atom> dedup;

  std::pair<AtomIndex, bool> Insert(const Atom& a) {
    auto it = dedup.find(a);
    if (it != dedup.end()) {
      auto pos = std::find(atoms.begin(), atoms.end(), a);
      return {static_cast<AtomIndex>(pos - atoms.begin()), false};
    }
    dedup.insert(a);
    atoms.push_back(a);
    return {static_cast<AtomIndex>(atoms.size() - 1), true};
  }

  bool Find(const Atom& a, AtomIndex* idx) const {
    auto pos = std::find(atoms.begin(), atoms.end(), a);
    if (pos == atoms.end()) return false;
    *idx = static_cast<AtomIndex>(pos - atoms.begin());
    return true;
  }

  std::string ToSortedString(const SymbolScope& symbols) const {
    std::vector<std::string> lines;
    for (const Atom& a : atoms) lines.push_back(a.ToString(symbols));
    std::sort(lines.begin(), lines.end());
    std::string out;
    for (const std::string& l : lines) {
      out += l;
      out += '\n';
    }
    return out;
  }
};

/// Full structural comparison of `inst` against `ref`: directory,
/// dedup stability, accounting, rendering, and every
/// segment-derived view — per-predicate lists (global indexes,
/// insertion order: the cross-predicate interleaving is exactly what
/// the per-segment atom lists must reconstruct), recorded arities and
/// the per-position join index over every term of `terms`.
void ExpectMatchesReference(const Instance& inst,
                            const ReferenceInstance& ref,
                            const SymbolTable& symbols,
                            const std::vector<PredicateId>& preds,
                            const std::vector<Term>& terms) {
  ASSERT_EQ(inst.size(), ref.atoms.size());
  std::uint64_t expected_terms = 0;
  for (AtomIndex i = 0; i < inst.size(); ++i) {
    AtomView v = inst.atom(i);
    EXPECT_EQ(v.ToAtom(), ref.atoms[i]) << "index " << i;
    EXPECT_EQ(v.arity(), ref.atoms[i].arity());
    expected_terms += v.arity();
    AtomIndex found = 0;
    ASSERT_TRUE(inst.Find(ref.atoms[i], &found));
    EXPECT_EQ(found, i);  // dedup stability: first insert wins forever
  }
  EXPECT_EQ(inst.arena_terms(), expected_terms);
  EXPECT_EQ(inst.arena_bytes(), expected_terms * sizeof(Term));
  EXPECT_EQ(inst.ToSortedString(symbols), ref.ToSortedString(symbols));

  for (PredicateId pred : preds) {
    std::vector<AtomIndex> want_idx;
    for (std::size_t i = 0; i < ref.atoms.size(); ++i) {
      if (ref.atoms[i].predicate == pred) {
        want_idx.push_back(static_cast<AtomIndex>(i));
      }
    }
    EXPECT_EQ(inst.AtomsWithPredicate(pred), want_idx);
    if (!want_idx.empty()) {
      EXPECT_EQ(inst.PredicateArity(pred), symbols.arity(pred));
    }
    for (std::uint32_t pos = 0; pos < symbols.arity(pred); ++pos) {
      for (Term t : terms) {
        std::vector<AtomIndex> want_at;
        for (AtomIndex i : want_idx) {
          if (ref.atoms[i].args[pos] == t) want_at.push_back(i);
        }
        EXPECT_EQ(inst.AtomsWithTermAt(pred, pos, t), want_at);
      }
    }
  }
}

/// AtomsWithPredicateIn over the global index window [begin, end) must
/// list, for every predicate, exactly the reference atoms of that
/// predicate inside the window, ascending.
void ExpectWindowMatchesReference(const Instance& inst,
                                  const ReferenceInstance& ref,
                                  const std::vector<PredicateId>& preds,
                                  AtomIndex begin, AtomIndex end) {
  for (PredicateId pred : preds) {
    std::vector<AtomIndex> want;
    for (AtomIndex i = begin; i < end && i < ref.atoms.size(); ++i) {
      if (ref.atoms[i].predicate == pred) want.push_back(i);
    }
    const IndexSpan got = inst.AtomsWithPredicateIn(pred, begin, end);
    EXPECT_EQ(std::vector<AtomIndex>(got.begin(), got.end()), want)
        << "window [" << begin << ", " << end << ")";
  }
}

/// A random window over an instance of `size` atoms: empty, full, or
/// random bounds.
std::pair<AtomIndex, AtomIndex> RandomWindow(std::mt19937* rng,
                                             std::size_t size) {
  const AtomIndex n = static_cast<AtomIndex>(size);
  const AtomIndex a = static_cast<AtomIndex>((*rng)() % (n + 1));
  const AtomIndex b = static_cast<AtomIndex>((*rng)() % (n + 1));
  switch ((*rng)() % 4) {
    case 0:
      return {a, a};
    case 1:
      return {0, n};
    default:
      return {std::min(a, b), std::max(a, b)};
  }
}

class StorageFuzz : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(StorageFuzz, ArenaAgreesWithNaiveReference) {
  const std::uint32_t seed = GetParam();
  std::mt19937 rng(seed);
  SymbolTable symbols;

  // Mixed predicates with mixed arities, including a 0-ary one.
  std::vector<PredicateId> preds;
  for (std::uint32_t p = 0; p < 6; ++p) {
    auto id = symbols.InternPredicate("P" + std::to_string(p), p % 4);
    ASSERT_TRUE(id.ok());
    preds.push_back(*id);
  }
  std::vector<Term> pool;
  for (std::uint32_t c = 0; c < 12; ++c) {
    pool.push_back(*symbols.InternConstant("c" + std::to_string(c)));
  }
  for (std::uint32_t n = 0; n < 4; ++n) {
    pool.push_back(*symbols.MakeNull(1 + n % 3));
  }

  auto random_atom = [&]() {
    PredicateId pred = preds[rng() % preds.size()];
    std::vector<Term> args;
    for (std::uint32_t i = 0; i < symbols.arity(pred); ++i) {
      args.push_back(pool[rng() % pool.size()]);
    }
    return Atom(pred, std::move(args));
  };

  Instance inst;
  ReferenceInstance ref;

  for (std::uint32_t step = 0; step < 900; ++step) {
    const std::uint32_t op = rng() % 100;
    if (op < 60) {
      // Insert (sometimes through the span fast path, sometimes via the
      // Atom wrapper, sometimes re-inserting an existing view's tuple —
      // the aliasing case: under its own predicate it is a duplicate,
      // under another predicate of the same arity the span reads one
      // segment's rows while the insert appends to another's).
      Atom a = random_atom();
      if (op < 10 && !inst.empty()) {
        AtomIndex i = static_cast<AtomIndex>(rng() % inst.size());
        AtomView v = inst.atom(i);
        auto [idx, fresh] = inst.InsertTuple(v.predicate(), v.terms());
        EXPECT_FALSE(fresh);
        EXPECT_EQ(idx, i);
        v = inst.atom(i);  // a view lives until the next insert
        for (PredicateId other : preds) {
          if (other == v.predicate() ||
              symbols.arity(other) != v.arity()) {
            continue;
          }
          const Atom moved(other, v.terms().ToVector());
          const auto got = inst.InsertTuple(other, v.terms());
          EXPECT_EQ(got, ref.Insert(moved)) << "step " << step;
          EXPECT_EQ(inst.atom(got.first).ToAtom(), moved);
          EXPECT_EQ(inst.atom(i).ToAtom(), ref.atoms[i]);
          break;
        }
        continue;
      }
      auto got = (op % 2) == 0
                     ? inst.Insert(a)
                     : inst.InsertTuple(a.predicate, a.terms());
      auto want = ref.Insert(a);
      EXPECT_EQ(got, want) << "step " << step;
    } else if (op < 85) {
      // Find/Contains on a mix of present and absent tuples.
      Atom a = random_atom();
      AtomIndex got_idx = 0, want_idx = 0;
      bool got = inst.Find(a, &got_idx);
      bool want = ref.Find(a, &want_idx);
      EXPECT_EQ(got, want);
      if (got && want) {
        EXPECT_EQ(got_idx, want_idx);
      }
      EXPECT_EQ(inst.ContainsTuple(a.predicate, a.terms()),
                ref.dedup.count(a) > 0);
    } else if (op < 95) {
      // Iterate: every view must render the reference atom at its index
      // (spot-check a random window; full check after the loop).
      if (!inst.empty()) {
        AtomIndex i = static_cast<AtomIndex>(rng() % inst.size());
        EXPECT_EQ(inst.atom(i).ToAtom(), ref.atoms[i]);
      }
    } else {
      // Index windows: the per-predicate atoms of a random global
      // index range.
      const auto [begin, end] = RandomWindow(&rng, inst.size());
      ExpectWindowMatchesReference(inst, ref, preds, begin, end);
    }
  }

  ExpectMatchesReference(inst, ref, symbols, preds, pool);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorageFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

/// Drives random batches through InsertTuple — each batch laid out back
/// to back in one shared term buffer, the shape of the chase's head
/// inserts, with intra-batch duplicates, arena duplicates and 0-ary
/// tuples — and checks every (index, fresh) verdict and the final state
/// against the naive reference's serial loop. The batches put far more
/// atoms into each predicate than StorageFuzz does, so every dedup table
/// grows through several doublings and the position lists spill to the
/// heap.
class BatchFuzz : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BatchFuzz, BatchInsertAgreesWithSerialLoop) {
  const std::uint32_t seed = GetParam();
  std::mt19937 rng(seed);
  SymbolTable symbols;

  std::vector<PredicateId> preds;
  for (std::uint32_t p = 0; p < 5; ++p) {
    auto id = symbols.InternPredicate("B" + std::to_string(p), p % 4);
    ASSERT_TRUE(id.ok());
    preds.push_back(*id);
  }
  // A small term pool makes duplicates — within a batch and across
  // batches — common rather than accidental.
  std::vector<Term> terms_pool;
  for (std::uint32_t c = 0; c < 9; ++c) {
    terms_pool.push_back(*symbols.InternConstant("b" + std::to_string(c)));
  }

  Instance inst;
  ReferenceInstance ref;
  // Start of the window of atoms inserted since the last check — the
  // shape of a chase round's delta.
  AtomIndex window_begin = 0;

  struct Tuple {
    PredicateId pred;
    std::size_t begin;
    std::uint32_t arity;
  };
  for (std::uint32_t round = 0; round < 48; ++round) {
    std::vector<Term> buffer;
    std::vector<Tuple> tuples;
    const std::uint32_t count = rng() % 64;
    for (std::uint32_t i = 0; i < count; ++i) {
      if (!tuples.empty() && rng() % 4 == 0) {
        // Intra-batch duplicate: repeat an earlier tuple verbatim (at a
        // fresh buffer position, so it dedups by value, not by offset).
        Tuple dup = tuples[rng() % tuples.size()];
        const std::size_t from = dup.begin;
        dup.begin = buffer.size();
        for (std::uint32_t a = 0; a < dup.arity; ++a) {
          buffer.push_back(buffer[from + a]);
        }
        tuples.push_back(dup);
        continue;
      }
      const PredicateId pred = preds[rng() % preds.size()];
      tuples.push_back({pred, buffer.size(), symbols.arity(pred)});
      for (std::uint32_t a = 0; a < symbols.arity(pred); ++a) {
        buffer.push_back(terms_pool[rng() % terms_pool.size()]);
      }
    }

    for (std::size_t i = 0; i < tuples.size(); ++i) {
      const Tuple& t = tuples[i];
      const TermSpan span(buffer.data() + t.begin, t.arity);
      const auto got = inst.InsertTuple(t.pred, span);
      EXPECT_EQ(got, ref.Insert(Atom(t.pred, span.ToVector())))
          << "round " << round << " tuple " << i;
    }
    if (rng() % 4 == 0) {
      const AtomIndex window_end = static_cast<AtomIndex>(inst.size());
      ExpectWindowMatchesReference(inst, ref, preds, window_begin,
                                   window_end);
      window_begin = window_end;
      const auto [begin, end] = RandomWindow(&rng, inst.size());
      ExpectWindowMatchesReference(inst, ref, preds, begin, end);
    }
  }

  ExpectMatchesReference(inst, ref, symbols, preds, terms_pool);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u,
                                           9u, 10u, 11u, 12u));

}  // namespace
}  // namespace core
}  // namespace nuchase
