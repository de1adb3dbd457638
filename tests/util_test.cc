#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>

#include "util/deadline.h"
#include "util/hash.h"
#include "util/parse.h"
#include "util/status.h"
#include "util/table.h"

namespace nuchase {
namespace util {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad rule");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad rule");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad rule");
}

TEST(StatusTest, FactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::NotFound("nope"));
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v(std::make_unique<int>(7));
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> owned = std::move(v).value();
  EXPECT_EQ(*owned, 7);
}

TEST(DeadlineTest, AddsRepresentableBudgets) {
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(util::DeadlineAfter(start, 0), start);
  EXPECT_EQ(util::DeadlineAfter(start, 1500),
            start + std::chrono::milliseconds(1500));
}

TEST(DeadlineTest, SaturatesBudgetsBeyondTheClock) {
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t ms :
       {std::uint64_t{1} << 53, std::uint64_t{0x7fffffffffffffff},
        std::uint64_t{0xffffffffffffffff}}) {
    EXPECT_EQ(util::DeadlineAfter(start, ms),
              std::chrono::steady_clock::time_point::max())
        << ms;
  }
}

TEST(HashTest, CombineChangesSeed) {
  std::size_t seed = 0;
  HashCombine(&seed, 123);
  EXPECT_NE(seed, 0u);
}

TEST(HashTest, VectorHashDistinguishesOrder) {
  VectorHash<std::uint32_t> h;
  EXPECT_NE(h({1, 2}), h({2, 1}));
  EXPECT_EQ(h({1, 2}), h({1, 2}));
}

TEST(HashTest, VectorHashDistinguishesLength) {
  VectorHash<std::uint32_t> h;
  EXPECT_NE(h({}), h({0}));
  EXPECT_NE(h({0}), h({0, 0}));
}

TEST(TableTest, RendersAlignedColumns) {
  Table t("demo", {"name", "count"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "100"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("100"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, FormatCountSmallAndHuge) {
  EXPECT_EQ(FormatCount(42), "42");
  EXPECT_EQ(FormatCount(1000000), "1000000");
  EXPECT_EQ(FormatCount(1e12).substr(0, 1), "~");
}

TEST(ParseCountTest, AcceptsPlainDigitStringsUpToMax) {
  unsigned long long v = 99;
  EXPECT_TRUE(ParseCount("0", 10, &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseCount("42", 100, &v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(ParseCount("100", 100, &v));
  EXPECT_EQ(v, 100u);
  EXPECT_TRUE(ParseCount("18446744073709551615",
                         ~0ull, &v));
  EXPECT_EQ(v, ~0ull);
}

TEST(ParseCountTest, RejectsEverySpellingStrtoulAccepts) {
  // The whole point of the strict parser: every skip strtoull performs
  // on its own (whitespace, signs) and every suffix it tolerates is an
  // error here, as is a value past max or past unsigned long long.
  unsigned long long v = 99;
  EXPECT_FALSE(ParseCount(nullptr, 10, &v));
  EXPECT_FALSE(ParseCount("", 10, &v));
  EXPECT_FALSE(ParseCount(" 4", 10, &v));
  EXPECT_FALSE(ParseCount("\t4", 10, &v));
  EXPECT_FALSE(ParseCount("+4", 10, &v));
  EXPECT_FALSE(ParseCount("-4", 10, &v));
  EXPECT_FALSE(ParseCount("4 ", 10, &v));
  EXPECT_FALSE(ParseCount("4x", 10, &v));
  EXPECT_FALSE(ParseCount("0x8", 10, &v));
  EXPECT_FALSE(ParseCount("11", 10, &v));
  EXPECT_FALSE(ParseCount("18446744073709551616", ~0ull, &v));
  // Failure never writes through the out pointer.
  EXPECT_EQ(v, 99u);
}

TEST(ParseCountTest, ResetsErrnoBeforeParsing) {
  // A stale ERANGE from an earlier call must not poison a valid parse —
  // the bug bare strtoul callers hit when they test errno without
  // resetting it.
  unsigned long long v = 0;
  ASSERT_FALSE(ParseCount("18446744073709551616", ~0ull, &v));
  // errno is now ERANGE; the next parse must still succeed.
  EXPECT_TRUE(ParseCount("7", 10, &v));
  EXPECT_EQ(v, 7u);
}

}  // namespace
}  // namespace util
}  // namespace nuchase
