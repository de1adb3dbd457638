// Property test for the columnar storage layer: core::Instance (flat
// term arena + AtomRef directory + arena-probing open-addressing dedup)
// must behave exactly like a naive reference container — an
// insertion-ordered vector of owning Atoms with a set for dedup —
// under random insert / find / iterate sequences over mixed predicates
// and arities, including the delta rotation of the semi-naive engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "chase/chase.h"
#include "core/atom.h"
#include "core/instance.h"
#include "core/symbol_table.h"
#include "util/thread_pool.h"
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

  // Full structural comparison at the end.
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

  // Per-predicate views over the segmented layout: each predicate's
  // index list must be the reference sequence filtered to it (global
  // indexes, insertion order — the cross-predicate interleaving is
  // exactly what the per-segment atom lists must reconstruct), and the
  // per-position join index must agree tuple-for-tuple.
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
      for (Term t : pool) {
        std::vector<AtomIndex> want_at;
        for (AtomIndex i : want_idx) {
          if (ref.atoms[i].args[pos] == t) want_at.push_back(i);
        }
        EXPECT_EQ(inst.AtomsWithTermAt(pred, pos, t), want_at);
      }
    }
  }

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

/// Drives InsertTupleBatch with random batches — intra-batch
/// duplicates, arena duplicates, 0-ary tuples, early-stopped merges —
/// and checks the callback sequence and the final state against the
/// equivalent serial InsertTuple loop (and the naive reference). Seeds
/// vary the worker pool (none / 3 / 8 workers, the latter far
/// oversubscribing this container) and the extent size: the batch path
/// must be byte-identical in every configuration.
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
  // A small term pool makes duplicates — within a batch, across
  // batches, and across dedup shards — common rather than accidental.
  std::vector<Term> terms_pool;
  for (std::uint32_t c = 0; c < 9; ++c) {
    terms_pool.push_back(*symbols.InternConstant("b" + std::to_string(c)));
  }

  std::optional<util::ThreadPool> pool;
  if (seed % 3 == 1) pool.emplace(3);
  if (seed % 3 == 2) pool.emplace(8);
  const std::uint32_t extent_log2 =
      seed % 2 == 0 ? 3u : Instance::kDefaultExtentLog2;
  Instance batched(extent_log2);
  Instance serial(extent_log2);
  ReferenceInstance ref;
  batched.EnableDeltaTracking();
  serial.EnableDeltaTracking();

  using Event = std::tuple<std::size_t, AtomIndex, bool>;
  for (std::uint32_t round = 0; round < 48; ++round) {
    std::vector<Term> buffer;
    std::vector<BatchTuple> tuples;
    const std::uint32_t count = rng() % 24;
    for (std::uint32_t i = 0; i < count; ++i) {
      if (!tuples.empty() && rng() % 4 == 0) {
        // Intra-batch duplicate: repeat an earlier tuple verbatim (at a
        // fresh buffer position, so it dedups by value, not by offset).
        const BatchTuple prev = tuples[rng() % tuples.size()];
        BatchTuple dup = prev;
        dup.begin = buffer.size();
        for (std::uint32_t a = 0; a < prev.arity; ++a) {
          buffer.push_back(buffer[prev.begin + a]);
        }
        tuples.push_back(dup);
        continue;
      }
      PredicateId pred = preds[rng() % preds.size()];
      BatchTuple t;
      t.pred = pred;
      t.begin = buffer.size();
      t.arity = symbols.arity(pred);
      for (std::uint32_t a = 0; a < t.arity; ++a) {
        buffer.push_back(terms_pool[rng() % terms_pool.size()]);
      }
      tuples.push_back(t);
    }

    // Some rounds veto the merge midway: the scrubbed tail must behave
    // as if those tuples were never offered (later batches re-insert
    // them fresh).
    const std::size_t stop_after =
        (rng() % 5 == 0 && !tuples.empty()) ? rng() % tuples.size() + 1
                                            : tuples.size() + 1;

    std::vector<Event> batch_events;
    std::size_t merged = batched.InsertTupleBatch(
        buffer.data(), tuples, pool.has_value() ? &*pool : nullptr,
        [&](std::size_t pos, AtomIndex idx, bool fresh) {
          batch_events.emplace_back(pos, idx, fresh);
          return batch_events.size() < stop_after;
        });

    std::vector<Event> serial_events;
    for (std::size_t i = 0;
         i < tuples.size() && serial_events.size() < stop_after; ++i) {
      const BatchTuple& t = tuples[i];
      TermSpan span(buffer.data() + t.begin, t.arity);
      auto [idx, fresh] = serial.InsertTuple(t.pred, span);
      serial_events.emplace_back(i, idx, fresh);
      ref.Insert(Atom(t.pred, span.ToVector()));
    }

    EXPECT_EQ(merged, batch_events.size());
    EXPECT_EQ(batch_events, serial_events) << "round " << round;
    if (rng() % 4 == 0) {
      EXPECT_EQ(batched.AdvanceDelta(), serial.AdvanceDelta());
    }
  }

  // Full structural comparison: directory, dedup, accounting, domain
  // and rendering all agree with the serial loop and the reference.
  ASSERT_EQ(batched.size(), serial.size());
  EXPECT_EQ(batched.arena_terms(), serial.arena_terms());
  EXPECT_EQ(batched.arena_bytes(), serial.arena_bytes());
  for (AtomIndex i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched.atom(i).ToAtom(), serial.atom(i).ToAtom());
    AtomIndex found = 0;
    ASSERT_TRUE(batched.Find(serial.atom(i).ToAtom(), &found));
    EXPECT_EQ(found, i);
  }
  EXPECT_EQ(batched.ActiveDomain(), serial.ActiveDomain());
  EXPECT_EQ(batched.ToSortedString(symbols), serial.ToSortedString(symbols));
  EXPECT_EQ(batched.ToSortedString(symbols), ref.ToSortedString(symbols));
  // The parallel per-predicate commits must leave every segment-derived
  // view — per-predicate lists, recorded arities, the per-position join
  // index — identical to the serial loop's, not merely the same global
  // directory.
  for (PredicateId pred : preds) {
    EXPECT_EQ(batched.AtomsWithPredicate(pred),
              serial.AtomsWithPredicate(pred));
    EXPECT_EQ(batched.PredicateArity(pred), serial.PredicateArity(pred));
    for (std::uint32_t pos = 0; pos < symbols.arity(pred); ++pos) {
      for (Term t : terms_pool) {
        EXPECT_EQ(batched.AtomsWithTermAt(pred, pos, t),
                  serial.AtomsWithTermAt(pred, pos, t));
      }
    }
  }
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

/// An early-stopped merge must leave every segment exactly as if the
/// vetoed tail had never been offered — even though per-predicate
/// commits land segment-side (in parallel) before the serial merge
/// walks the batch. Covers both rollback shapes: a predicate whose
/// FIRST atom sat in the vetoed tail (its whole segment unwinds, arity
/// included) and a predicate keeping earlier atoms (only its raw tail
/// truncates).
TEST(StorageExtents, EarlyStopRollsBackSegments) {
  SymbolTable symbols;
  PredicateId p = *symbols.InternPredicate("P", 2);
  PredicateId q = *symbols.InternPredicate("Q", 3);
  Term a = *symbols.InternConstant("a");
  Term b = *symbols.InternConstant("b");
  Term c = *symbols.InternConstant("c");

  util::ThreadPool pool(3);
  Instance inst(/*extent_log2=*/2);
  std::vector<Term> seeded{a, b};
  auto [i0, f0] = inst.InsertTuple(p, TermSpan(seeded));
  ASSERT_TRUE(f0);

  // Batch: P(b,c), Q(a,b,c), P(c,a) — all fresh. Stop after the first
  // merge callback: Q's first-ever atom and P's second batch atom are
  // vetoed after their segments committed them.
  std::vector<Term> buffer{b, c, a, b, c, c, a};
  std::vector<BatchTuple> tuples(3);
  tuples[0] = {p, 0, 2};
  tuples[1] = {q, 2, 3};
  tuples[2] = {p, 5, 2};
  std::size_t merged = inst.InsertTupleBatch(
      buffer.data(), tuples, &pool,
      [&](std::size_t pos, AtomIndex idx, bool fresh) {
        EXPECT_EQ(pos, 0u);
        EXPECT_EQ(idx, 1u);
        EXPECT_TRUE(fresh);
        return false;  // veto everything after P(b,c)
      });
  EXPECT_EQ(merged, 1u);

  // Observable state: two P atoms, nothing else. Accounting is exact
  // (no phantom terms from the unwound commits), Q reverts to unseen,
  // and the vetoed tuples are genuinely absent, not tombstoned.
  EXPECT_EQ(inst.size(), 2u);
  EXPECT_EQ(inst.arena_terms(), 4u);
  EXPECT_EQ(inst.arena_bytes(), 4 * sizeof(Term));
  EXPECT_TRUE(inst.AtomsWithPredicate(q).empty());
  EXPECT_EQ(inst.PredicateArity(q), 0u);
  std::vector<Term> qt{a, b, c};
  std::vector<Term> pt{c, a};
  EXPECT_FALSE(inst.ContainsTuple(q, TermSpan(qt)));
  EXPECT_FALSE(inst.ContainsTuple(p, TermSpan(pt)));

  // Re-offering the vetoed tuples behaves as a first offer: fresh
  // inserts, contiguous global indexes, arity recorded anew.
  auto [qi, qf] = inst.InsertTuple(q, TermSpan(qt));
  EXPECT_TRUE(qf);
  EXPECT_EQ(qi, 2u);
  auto [pi, pf] = inst.InsertTuple(p, TermSpan(pt));
  EXPECT_TRUE(pf);
  EXPECT_EQ(pi, 3u);
  EXPECT_EQ(inst.PredicateArity(q), 3u);
  EXPECT_EQ(inst.arena_terms(), 9u);
  EXPECT_EQ(inst.atom(i0).arg(0), a);
  EXPECT_EQ(inst.atom(qi).arg(2), c);
  EXPECT_EQ(inst.AtomsWithPredicate(p),
            (std::vector<AtomIndex>{0, 1, 3}));
}

/// Extent geometry is internal to Instance and observationally
/// invisible: a chase result re-inserted, batch by batch, into
/// instances with 4-, 8- and 128-term extents — serially and on a
/// 4-worker pool — must reproduce the default geometry's directory,
/// rendering and arena_bytes. arena_bytes would drift first if a
/// partially filled extent's tail padding ever leaked into the
/// accounting; every predicate segment has its own tail. The oblivious
/// variant diverges on the wide depth family and is cut by the atom
/// budget, which makes no difference here.
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

    // The whole result in insertion order, offered in 97-tuple batches
    // so extents fill and spill across batch boundaries.
    std::vector<Term> buffer;
    std::vector<BatchTuple> all;
    for (AtomIndex i = 0; i < ref.size(); ++i) {
      const AtomView a = ref.atom(i);
      all.push_back({a.predicate(), buffer.size(), a.arity()});
      for (std::uint32_t k = 0; k < a.arity(); ++k) {
        buffer.push_back(a.arg(k));
      }
    }

    for (std::uint32_t extent_log2 : {2u, 3u, 7u}) {
      for (std::uint32_t workers : {0u, 4u}) {
        std::optional<util::ThreadPool> pool;
        if (workers > 0) pool.emplace(workers);
        const std::string label =
            std::string(chase::ChaseVariantName(variant)) +
            " extent_log2=" + std::to_string(extent_log2) +
            " workers=" + std::to_string(workers);
        Instance inst(extent_log2);
        for (std::size_t begin = 0; begin < all.size(); begin += 97) {
          const std::vector<BatchTuple> batch(
              all.begin() + static_cast<std::ptrdiff_t>(begin),
              all.begin() + static_cast<std::ptrdiff_t>(
                                std::min(all.size(), begin + 97)));
          std::size_t merged = inst.InsertTupleBatch(
              buffer.data(), batch, pool.has_value() ? &*pool : nullptr,
              [&](std::size_t pos, AtomIndex idx, bool fresh) {
                EXPECT_TRUE(fresh) << label;
                EXPECT_EQ(idx, begin + pos) << label;
                return true;
              });
          ASSERT_EQ(merged, batch.size()) << label;
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
}

}  // namespace
}  // namespace core
}  // namespace nuchase
