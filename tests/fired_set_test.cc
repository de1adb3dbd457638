// Unit tests for chase::FlatFiredSet — the collect phase's (σ, h)-dedup
// table. The chase only ever observes membership (Insert's bool and
// Contains), so these tests pin exactly that surface: first-insert /
// duplicate semantics across growth, and the adversarial shapes open
// addressing has to survive (shared prefixes, length-only differences,
// empty keys).
#include "chase/fired_set.h"

#include <cstdint>
#include <vector>

#include "gtest/gtest.h"

namespace nuchase {
namespace chase {
namespace {

using Key = std::vector<std::uint32_t>;

TEST(FlatFiredSet, InsertIsFirstTimeOnlyAndContainsAgrees) {
  FlatFiredSet set;
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.Contains(Key{1, 2, 3}));

  EXPECT_TRUE(set.Insert(Key{1, 2, 3}));
  EXPECT_FALSE(set.Insert(Key{1, 2, 3}));
  EXPECT_TRUE(set.Contains(Key{1, 2, 3}));
  EXPECT_EQ(set.size(), 1u);

  // Shared-prefix and length-only variants are distinct keys: the rule
  // index prefixes every trigger key, so rules sharing a frontier image
  // differ only in one word, and a trigger of a shorter-frontier rule
  // can be a strict prefix of another's.
  EXPECT_TRUE(set.Insert(Key{1, 2}));
  EXPECT_TRUE(set.Insert(Key{1, 2, 3, 4}));
  EXPECT_TRUE(set.Insert(Key{2, 2, 3}));
  EXPECT_FALSE(set.Contains(Key{1}));
  EXPECT_EQ(set.size(), 4u);
}

TEST(FlatFiredSet, EmptyKeyIsAKey) {
  FlatFiredSet set;
  EXPECT_FALSE(set.Contains(Key{}));
  EXPECT_TRUE(set.Insert(Key{}));
  EXPECT_FALSE(set.Insert(Key{}));
  EXPECT_TRUE(set.Contains(Key{}));
  EXPECT_EQ(set.size(), 1u);
}

TEST(FlatFiredSet, SurvivesGrowthWithoutForgettingOrInventing) {
  FlatFiredSet set;
  // Push far past the 256-slot initial table (several doublings) and
  // re-check every key on both sides of each growth boundary.
  const std::uint32_t n = 5000;
  for (std::uint32_t i = 0; i < n; ++i) {
    ASSERT_TRUE(set.Insert(Key{i, i ^ 0x9e37u, i * 3u})) << i;
    ASSERT_FALSE(set.Insert(Key{i, i ^ 0x9e37u, i * 3u})) << i;
  }
  EXPECT_EQ(set.size(), n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ASSERT_TRUE(set.Contains(Key{i, i ^ 0x9e37u, i * 3u})) << i;
    ASSERT_FALSE(set.Contains(Key{i, i ^ 0x9e37u, i * 3u + 1u})) << i;
  }
}

}  // namespace
}  // namespace chase
}  // namespace nuchase
