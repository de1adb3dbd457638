// Property test for the columnar storage layer: core::Instance (flat
// term arena + AtomRef directory + arena-probing open-addressing dedup)
// must behave exactly like a naive reference container — an
// insertion-ordered vector of owning Atoms with a set for dedup —
// under random insert / find / iterate sequences over mixed predicates
// and arities, including the delta rotation of the semi-naive engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "chase/chase.h"
#include "core/atom.h"
#include "core/instance.h"
#include "core/symbol_table.h"
#include "workload/depth_family.h"

namespace nuchase {
namespace core {
namespace {

/// The naive reference: insertion-ordered atoms, set-based dedup, scan-
/// based lookups and domain.
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

  std::vector<Term> Domain() const {
    std::vector<Term> out;
    std::set<std::uint32_t> seen;
    for (const Atom& a : atoms) {
      for (Term t : a.args) {
        if (seen.insert(t.bits()).second) out.push_back(t);
      }
    }
    return out;
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
/// dedup stability, accounting, domain, rendering, and every
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
  EXPECT_EQ(inst.ActiveDomain(), ref.Domain());
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

  // A third of the seeds shrink the extents to 2^3 = 8 terms, so tuples
  // hit extent-boundary padding constantly; nothing observable may
  // change — padding is invisible to accounting, lookup and iteration.
  Instance inst(seed % 3 == 0 ? 3u : Instance::kDefaultExtentLog2);
  ReferenceInstance ref;
  // Half the seeds exercise the delta machinery alongside.
  const bool track_delta = (seed % 2) == 0;
  if (track_delta) inst.EnableDeltaTracking();
  std::vector<Atom> rotation_window;  // fresh atoms since last rotation

  for (std::uint32_t step = 0; step < 900; ++step) {
    const std::uint32_t op = rng() % 100;
    if (op < 60) {
      // Insert (sometimes through the span fast path, sometimes via the
      // Atom wrapper, sometimes re-inserting an existing view's tuple —
      // the aliasing case).
      Atom a = random_atom();
      if (op < 10 && !inst.empty()) {
        AtomIndex i = static_cast<AtomIndex>(rng() % inst.size());
        AtomView v = inst.atom(i);
        auto [idx, fresh] = inst.InsertTuple(v.predicate(), v.terms());
        EXPECT_FALSE(fresh);
        EXPECT_EQ(idx, i);
        continue;
      }
      auto got = (op % 2) == 0
                     ? inst.Insert(a)
                     : inst.InsertTuple(a.predicate, a.terms());
      auto want = ref.Insert(a);
      EXPECT_EQ(got, want) << "step " << step;
      if (track_delta && got.second) rotation_window.push_back(a);
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
    } else if (op < 95 || !track_delta) {
      // Iterate: every view must render the reference atom at its index
      // (spot-check a random window; full check after the loop).
      if (!inst.empty()) {
        AtomIndex i = static_cast<AtomIndex>(rng() % inst.size());
        EXPECT_EQ(inst.atom(i).ToAtom(), ref.atoms[i]);
      }
    } else {
      // Delta rotation: the atoms inserted since the previous rotation
      // become the current delta, grouped per predicate in insertion
      // order.
      EXPECT_EQ(inst.AdvanceDelta(), rotation_window.size());
      std::unordered_map<PredicateId, std::vector<Atom>> per_pred;
      for (const Atom& a : rotation_window) {
        per_pred[a.predicate].push_back(a);
      }
      for (PredicateId pred : preds) {
        const std::vector<AtomIndex>& delta =
            inst.DeltaAtomsWithPredicate(pred);
        const std::vector<Atom>& want = per_pred[pred];
        ASSERT_EQ(delta.size(), want.size());
        for (std::size_t k = 0; k < delta.size(); ++k) {
          EXPECT_EQ(inst.atom(delta[k]).ToAtom(), want[k]);
        }
      }
      rotation_window.clear();
    }
  }

  ExpectMatchesReference(inst, ref, symbols, preds, pool);

  // Views obtained before further growth stay valid (the arena is
  // resolved through the vector object, offsets never move).
  if (!inst.empty()) {
    AtomView early = inst.atom(0);
    Atom expect_first = ref.atoms[0];
    for (std::uint32_t extra = 0; extra < 64; ++extra) {
      Atom a = random_atom();
      inst.Insert(a);
      ref.Insert(a);
    }
    EXPECT_EQ(early.ToAtom(), expect_first);
  }
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
/// heap. Seeds vary the extent size.
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

  Instance inst(seed % 2 == 0 ? 3u : Instance::kDefaultExtentLog2);
  ReferenceInstance ref;
  inst.EnableDeltaTracking();
  std::size_t fresh_since_rotation = 0;

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
      if (got.second) ++fresh_since_rotation;
    }
    if (rng() % 4 == 0) {
      EXPECT_EQ(inst.AdvanceDelta(), fresh_since_rotation);
      fresh_since_rotation = 0;
    }
  }

  ExpectMatchesReference(inst, ref, symbols, preds, terms_pool);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u,
                                           9u, 10u, 11u, 12u));

/// Deterministic extent-boundary coverage: with 4-term extents an
/// arity-3 tuple cannot use a 1-term tail, so the second insert starts
/// a fresh extent. The padding must be invisible to accounting, the
/// first tuple's storage must not move, and 0-ary tuples (which store
/// no terms at all) must dedup like any other atom.
TEST(StorageExtents, BoundaryPaddingIsInvisible) {
  SymbolTable symbols;
  PredicateId r = *symbols.InternPredicate("R", 3);
  PredicateId z = *symbols.InternPredicate("Z", 0);
  Term a = *symbols.InternConstant("a");
  Term b = *symbols.InternConstant("b");
  Term c = *symbols.InternConstant("c");

  Instance inst(/*extent_log2=*/2);
  std::vector<Term> t0{a, b, c};
  std::vector<Term> t1{b, c, a};
  auto [i0, f0] = inst.InsertTuple(r, TermSpan(t0));
  EXPECT_TRUE(f0);
  const Term* first = inst.TupleData(i0);
  auto [i1, f1] = inst.InsertTuple(r, TermSpan(t1));
  EXPECT_TRUE(f1);
  EXPECT_EQ(inst.arena_terms(), 6u);
  EXPECT_EQ(inst.arena_bytes(), 6 * sizeof(Term));
  EXPECT_EQ(inst.TupleData(i0), first);

  auto [zi, zf] = inst.InsertTuple(z, TermSpan());
  EXPECT_TRUE(zf);
  auto dup = inst.InsertTuple(z, TermSpan());
  EXPECT_EQ(dup.first, zi);
  EXPECT_FALSE(dup.second);
  EXPECT_EQ(inst.arena_terms(), 6u);

  AtomIndex found = 0;
  ASSERT_TRUE(inst.FindTuple(r, TermSpan(t1), &found));
  EXPECT_EQ(found, i1);
  EXPECT_EQ(inst.atom(i1).arg(2), a);
  EXPECT_EQ(inst.atom(zi).arity(), 0u);
}

/// Extent geometry is internal to Instance and observationally
/// invisible: a chase result re-inserted, in insertion order, into
/// instances with 4-, 8- and 128-term extents must reproduce the default
/// geometry's directory, rendering and arena_bytes. arena_bytes would
/// drift first if a partially filled extent's tail padding ever leaked
/// into the accounting; every predicate segment has its own tail. The
/// oblivious variant diverges on the wide depth family and is cut by
/// the atom budget, which makes no difference here.
TEST(StorageExtents, ChaseResultIsExtentGeometryInvariant) {
  for (chase::ChaseVariant variant :
       {chase::ChaseVariant::kSemiOblivious, chase::ChaseVariant::kOblivious,
        chase::ChaseVariant::kRestricted}) {
    SymbolTable symbols;
    workload::Workload w = workload::MakeWideDepthFamily(
        &symbols, /*layers=*/6, /*width=*/4, /*payloads=*/3, /*noise=*/5);
    chase::ChaseOptions copt;
    copt.variant = variant;
    copt.max_atoms = 3000;
    const chase::ChaseResult reference =
        chase::RunChase(&symbols, w.tgds, w.database, copt);
    const Instance& ref = reference.instance;
    ASSERT_GT(reference.stats.arena_bytes, 0u);
    ASSERT_EQ(ref.arena_bytes(), reference.stats.arena_bytes);
    const std::string ref_sorted = ref.ToSortedString(symbols);

    for (std::uint32_t extent_log2 : {2u, 3u, 7u}) {
      const std::string label =
          std::string(chase::ChaseVariantName(variant)) +
          " extent_log2=" + std::to_string(extent_log2);
      Instance inst(extent_log2);
      for (AtomIndex i = 0; i < ref.size(); ++i) {
        const AtomView a = ref.atom(i);
        const auto [idx, fresh] = inst.InsertTuple(a.predicate(), a.terms());
        EXPECT_TRUE(fresh) << label;
        EXPECT_EQ(idx, i) << label;
      }
      ASSERT_EQ(inst.size(), ref.size()) << label;
      EXPECT_EQ(inst.arena_terms(), ref.arena_terms()) << label;
      EXPECT_EQ(inst.arena_bytes(), ref.arena_bytes()) << label;
      EXPECT_EQ(inst.ToSortedString(symbols), ref_sorted) << label;
      for (AtomIndex i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(inst.atom(i).ToAtom(), ref.atom(i).ToAtom()) << label;
      }
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace nuchase
