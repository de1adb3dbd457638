// Unit tests for core::TupleSet — the one dedup table, shared by the
// instance's predicate segments and the chase's per-rule fired sets.
// Callers observe membership, row numbers and row contents, so these
// tests pin exactly that surface: first-insert / duplicate semantics
// across growth, the empty tuple of a 0-ary set, and independence of
// sets with different ids.
#include "core/tuple_set.h"

#include <cstdint>
#include <vector>

#include "gtest/gtest.h"

namespace nuchase {
namespace core {
namespace {

using Tuple = std::vector<Term>;

Tuple Constants(std::vector<std::uint32_t> ids) {
  Tuple out;
  for (std::uint32_t id : ids) out.push_back(Term(TermKind::kConstant, id));
  return out;
}

TEST(TupleSet, InsertIsFirstTimeOnlyAndFindAgrees) {
  TupleSet set(/*id=*/0, /*arity=*/3);
  const Tuple t = Constants({1, 2, 3});
  std::uint32_t row = 99;
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.Find(TermSpan(t), &row));

  EXPECT_EQ(set.Insert(TermSpan(t)), std::make_pair(0u, true));
  EXPECT_EQ(set.Insert(TermSpan(t)), std::make_pair(0u, false));
  ASSERT_TRUE(set.Find(TermSpan(t), &row));
  EXPECT_EQ(row, 0u);
  EXPECT_EQ(set.Row(0), TermSpan(t));
  EXPECT_EQ(set.size(), 1u);

  // Tuples differing in one position are distinct rows, numbered in
  // insertion order; a tuple of another arity is never found.
  const Tuple shifted = Constants({2, 2, 3});
  EXPECT_EQ(set.Insert(TermSpan(shifted)), std::make_pair(1u, true));
  const Tuple shorter = Constants({1, 2});
  EXPECT_FALSE(set.Find(TermSpan(shorter), &row));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.num_terms(), 6u);
}

TEST(TupleSet, NullaryTupleIsATuple) {
  // A rule with an empty frontier has one trigger identity: the empty
  // tuple.
  TupleSet set(/*id=*/4, /*arity=*/0);
  std::uint32_t row = 99;
  EXPECT_FALSE(set.Find(TermSpan(), &row));
  EXPECT_EQ(set.Insert(TermSpan()), std::make_pair(0u, true));
  EXPECT_EQ(set.Insert(TermSpan()), std::make_pair(0u, false));
  ASSERT_TRUE(set.Find(TermSpan(), &row));
  EXPECT_EQ(row, 0u);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.num_terms(), 0u);
}

TEST(TupleSet, SurvivesGrowthWithoutForgettingOrInventing) {
  TupleSet set(/*id=*/1, /*arity=*/3);
  // Push far past the 64-slot first table (several doublings) and
  // re-check every tuple on both sides of each growth boundary.
  const std::uint32_t n = 5000;
  auto tuple = [](std::uint32_t i, std::uint32_t last) {
    return Constants({i, i ^ 0x9e37u, last});
  };
  for (std::uint32_t i = 0; i < n; ++i) {
    const Tuple t = tuple(i, i * 3u);
    ASSERT_EQ(set.Insert(TermSpan(t)), std::make_pair(i, true)) << i;
    ASSERT_EQ(set.Insert(TermSpan(t)), std::make_pair(i, false)) << i;
  }
  EXPECT_EQ(set.size(), n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint32_t row = 0;
    const Tuple t = tuple(i, i * 3u);
    ASSERT_TRUE(set.Find(TermSpan(t), &row)) << i;
    ASSERT_EQ(row, i);
    ASSERT_EQ(set.Row(row), TermSpan(t)) << i;
    const Tuple absent = tuple(i, i * 3u + 1u);
    ASSERT_FALSE(set.Find(TermSpan(absent), &row)) << i;
  }
}

TEST(TupleSet, EqualTuplesInSetsWithDifferentIdsStayIndependent) {
  // The fired set keeps one set per rule; two rules that share a
  // frontier image must not see each other's triggers.
  TupleSet rule0(/*id=*/0, /*arity=*/2);
  TupleSet rule1(/*id=*/1, /*arity=*/2);
  const Tuple t = Constants({7, 8});
  std::uint32_t row = 0;
  EXPECT_TRUE(rule0.Insert(TermSpan(t)).second);
  EXPECT_FALSE(rule1.Find(TermSpan(t), &row));
  EXPECT_TRUE(rule1.Insert(TermSpan(t)).second);
  EXPECT_FALSE(rule0.Insert(TermSpan(t)).second);
  EXPECT_FALSE(rule1.Insert(TermSpan(t)).second);
  EXPECT_EQ(rule0.size(), 1u);
  EXPECT_EQ(rule1.size(), 1u);
}

}  // namespace
}  // namespace core
}  // namespace nuchase
