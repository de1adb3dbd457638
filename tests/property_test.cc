#include <gtest/gtest.h>

#include <cmath>

#include "chase/chase.h"
#include "query/evaluator.h"
#include "termination/bounds.h"
#include "termination/naive_decider.h"
#include "termination/syntactic_decider.h"
#include "termination/ucq_decider.h"
#include "tgd/classify.h"
#include "workload/random_tgds.h"

namespace nuchase {
namespace {

using termination::Decision;

struct PropertyParams {
  std::uint32_t seed;
  tgd::TgdClass clazz;
};

std::string ParamName(
    const ::testing::TestParamInfo<PropertyParams>& info) {
  return std::string(tgd::TgdClassName(info.param.clazz)) + "_seed" +
         std::to_string(info.param.seed);
}

std::vector<PropertyParams> MakeSweep(tgd::TgdClass clazz,
                                      std::uint32_t count) {
  std::vector<PropertyParams> out;
  for (std::uint32_t seed = 1; seed <= count; ++seed) {
    out.push_back({seed, clazz});
  }
  return out;
}

class RandomWorkloadTest
    : public ::testing::TestWithParam<PropertyParams> {
 protected:
  void SetUp() override {
    workload::RandomTgdOptions options;
    options.seed = GetParam().seed;
    options.target = GetParam().clazz;
    options.name_tag = GetParam().seed;
    workload_ = workload::MakeRandomWorkload(&symbols_, options);
    ASSERT_TRUE(tgd::ClassContainedIn(tgd::Classify(workload_.tgds),
                                      GetParam().clazz));
  }

  core::SymbolTable symbols_;
  workload::Workload workload_;
};

/// Property 1 (Theorems 6.4 / 7.5 / 8.3): the syntactic decider and the
/// bounded-chase ground truth agree.
TEST_P(RandomWorkloadTest, SyntacticDeciderMatchesGroundTruth) {
  chase::ChaseOptions capped;
  capped.max_atoms = 300'000;
  termination::NaiveDecision truth = termination::DecideByChase(
      &symbols_, workload_.tgds, workload_.database, capped);
  if (truth.decision == Decision::kUnknown) {
    GTEST_SKIP() << "ground truth exceeded its practical budget";
  }
  auto syntactic = termination::Decide(&symbols_, workload_.tgds,
                                       workload_.database);
  ASSERT_TRUE(syntactic.ok()) << syntactic.status().ToString();
  EXPECT_EQ(syntactic->decision, truth.decision) << workload_.name;
}

/// Property 2: a terminated chase result is a model of Σ and respects
/// the paper's size and depth bounds.
TEST_P(RandomWorkloadTest, TerminatingChaseRespectsBounds) {
  chase::ChaseOptions options;
  options.max_atoms = 200000;
  chase::ChaseResult result = chase::RunChase(&symbols_, workload_.tgds,
                                              workload_.database, options);
  if (!result.Terminated()) {
    GTEST_SKIP() << "non-terminating workload";
  }
  EXPECT_TRUE(query::Satisfies(result.instance, workload_.tgds))
      << workload_.name;

  tgd::TgdClass clazz = tgd::Classify(workload_.tgds);
  double depth_bound =
      termination::DepthBound(clazz, workload_.tgds, symbols_);
  EXPECT_LE(static_cast<double>(result.stats.max_depth), depth_bound)
      << workload_.name;
  double size_bound =
      static_cast<double>(workload_.database.size()) *
      termination::SizeFactor(clazz, workload_.tgds, symbols_);
  EXPECT_LE(static_cast<double>(result.instance.size()), size_bound)
      << workload_.name;
}

/// Property 3 (Theorems 6.6 / 7.7): the UCQ data-complexity decider
/// agrees with the syntactic one on SL and L inputs.
TEST_P(RandomWorkloadTest, UcqDeciderMatchesSyntactic) {
  tgd::TgdClass clazz = tgd::Classify(workload_.tgds);
  if (clazz != tgd::TgdClass::kSimpleLinear &&
      clazz != tgd::TgdClass::kLinear) {
    GTEST_SKIP() << "UCQ decider applies to SL and L only";
  }
  auto syntactic = termination::Decide(&symbols_, workload_.tgds,
                                       workload_.database);
  ASSERT_TRUE(syntactic.ok());
  auto via_ucq = termination::DecideByUcq(&symbols_, workload_.tgds,
                                          workload_.database);
  ASSERT_TRUE(via_ucq.ok()) << via_ucq.status().ToString();
  EXPECT_EQ(*via_ucq, syntactic->decision) << workload_.name;
}

/// Property 4 (Lemma 5.1): per-depth guarded-forest levels obey
/// |gtree_i(δ,α)| ≤ ||Σ||^{2·ar(Σ)·(i+1)} for guarded workloads.
TEST_P(RandomWorkloadTest, GtreeLevelsRespectLemma51) {
  if (GetParam().clazz != tgd::TgdClass::kGuarded) {
    GTEST_SKIP() << "forest bound is stated for guarded sets";
  }
  chase::ChaseOptions options;
  options.max_atoms = 50000;
  options.build_forest = true;
  chase::ChaseResult result = chase::RunChase(&symbols_, workload_.tgds,
                                              workload_.database, options);
  if (!result.Terminated()) GTEST_SKIP() << "non-terminating";
  for (core::AtomIndex root : result.forest.roots()) {
    for (const auto& [depth, count] :
         result.forest.GtreeDepthHistogram(root)) {
      EXPECT_LE(static_cast<double>(count),
                termination::GtreeLevelBound(depth, workload_.tgds,
                                             symbols_))
          << workload_.name << " root=" << root << " depth=" << depth;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SimpleLinear, RandomWorkloadTest,
    ::testing::ValuesIn(MakeSweep(tgd::TgdClass::kSimpleLinear, 12)),
    ParamName);
INSTANTIATE_TEST_SUITE_P(
    Linear, RandomWorkloadTest,
    ::testing::ValuesIn(MakeSweep(tgd::TgdClass::kLinear, 12)),
    ParamName);
INSTANTIATE_TEST_SUITE_P(
    Guarded, RandomWorkloadTest,
    ::testing::ValuesIn(MakeSweep(tgd::TgdClass::kGuarded, 12)),
    ParamName);

}  // namespace
}  // namespace nuchase
