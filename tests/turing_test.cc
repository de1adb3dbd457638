#include <gtest/gtest.h>

#include <ostream>

#include "chase/chase.h"
#include "tgd/classify.h"
#include "workload/turing.h"

namespace nuchase {
namespace workload {
namespace {

TEST(TmSimulatorTest, HaltingMachineHalts) {
  for (std::uint32_t k : {0u, 1u, 3u, 6u}) {
    auto steps = SimulateTm(MakeHaltingTm(k), 1000);
    ASSERT_TRUE(steps.has_value()) << "k=" << k;
    EXPECT_EQ(*steps, k) << "k=" << k;
  }
}

TEST(TmSimulatorTest, LoopingMachinesDoNot) {
  EXPECT_FALSE(SimulateTm(MakeLoopingTm(), 2000).has_value());
  EXPECT_FALSE(SimulateTm(MakeSpinningTm(), 2000).has_value());
}

TEST(TmSimulatorTest, ZigZagHalts) {
  auto steps = SimulateTm(MakeZigZagTm(), 100);
  ASSERT_TRUE(steps.has_value());
  EXPECT_EQ(*steps, 3u);
}

TEST(TuringEncodingTest, SigmaStarIsFixedAndConstantFree) {
  core::SymbolTable symbols;
  tgd::TgdSet sigma = MakeTuringTgds(&symbols);
  EXPECT_EQ(sigma.size(), 6u);
  // Σ★ is far from guarded (Deutsch–Nash–Remmel-style encodings).
  EXPECT_EQ(tgd::Classify(sigma), tgd::TgdClass::kGeneral);
}

TEST(TuringEncodingTest, DatabaseStoresMachineAndConfiguration) {
  core::SymbolTable symbols;
  TuringMachine tm = MakeHaltingTm(2);
  core::Database db = MakeTuringDatabase(&symbols, tm);
  auto trans = symbols.FindPredicate("Trans");
  ASSERT_TRUE(trans.ok());
  std::uint64_t trans_facts = 0;
  for (const core::Atom& f : db.facts()) {
    if (f.predicate == *trans) ++trans_facts;
  }
  EXPECT_EQ(trans_facts, tm.rules.size());
  EXPECT_TRUE(symbols.FindPredicate("Head").ok());
  EXPECT_TRUE(symbols.FindPredicate("Tape").ok());
}

/// The core of Proposition 4.2 / Appendix A, exercised: the chase of
/// D_M w.r.t. the fixed Σ★ terminates iff M halts on the empty input.
struct TmCase {
  const char* name;
  TuringMachine (*make)();
  bool halts;
};

// Without this gtest prints a TmCase as its raw bytes, which include
// pointer values; ctest would then name each case after addresses that
// change from build to build.
void PrintTo(const TmCase& c, std::ostream* os) { *os << c.name; }

TuringMachine Halting0() { return MakeHaltingTm(0); }
TuringMachine Halting1() { return MakeHaltingTm(1); }
TuringMachine Halting4() { return MakeHaltingTm(4); }

class TuringChaseTest : public ::testing::TestWithParam<TmCase> {};

TEST_P(TuringChaseTest, ChaseTerminationMatchesHalting) {
  const TmCase& param = GetParam();
  core::SymbolTable symbols;
  TuringMachine tm = param.make();
  Workload w = MakeTuringWorkload(&symbols, tm, param.name);

  chase::ChaseOptions options;
  options.max_atoms = 20000;
  chase::ChaseResult result =
      chase::RunChase(&symbols, w.tgds, w.database, options);

  EXPECT_EQ(result.Terminated(), param.halts) << param.name;
  EXPECT_EQ(SimulateTm(tm, 5000).has_value(), param.halts) << param.name;
}

INSTANTIATE_TEST_SUITE_P(
    Machines, TuringChaseTest,
    ::testing::Values(TmCase{"halting0", &Halting0, true},
                      TmCase{"halting1", &Halting1, true},
                      TmCase{"halting4", &Halting4, true},
                      TmCase{"zigzag", &MakeZigZagTm, true},
                      TmCase{"looping", &MakeLoopingTm, false},
                      TmCase{"spinning", &MakeSpinningTm, false}),
    [](const ::testing::TestParamInfo<TmCase>& info) {
      return info.param.name;
    });

TEST(TuringChaseTest, ChaseGrowsWithRuntime) {
  // Longer computations materialize more configuration rows.
  core::SymbolTable s1, s2;
  Workload short_run =
      MakeTuringWorkload(&s1, MakeHaltingTm(1), "short");
  Workload long_run = MakeTuringWorkload(&s2, MakeHaltingTm(5), "long");
  chase::ChaseResult r1 = chase::RunChase(&s1, short_run.tgds,
                                          short_run.database);
  chase::ChaseResult r2 =
      chase::RunChase(&s2, long_run.tgds, long_run.database);
  ASSERT_TRUE(r1.Terminated());
  ASSERT_TRUE(r2.Terminated());
  EXPECT_GT(r2.instance.size(), r1.instance.size());
}

}  // namespace
}  // namespace workload
}  // namespace nuchase
