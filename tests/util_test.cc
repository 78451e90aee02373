#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <string>
#include <vector>

#include "lqdb/util/interner.h"
#include "lqdb/util/parse.h"
#include "lqdb/util/result.h"
#include "lqdb/util/rng.h"
#include "lqdb/util/status.h"
#include "lqdb/util/table.h"
#include "lqdb/util/thread_pool.h"

namespace lqdb {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kCancelled,
        StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kFailedPrecondition,
        StatusCode::kUnimplemented, StatusCode::kInternal,
        StatusCode::kResourceExhausted}) {
    EXPECT_FALSE(StatusCodeToString(code).empty());
    EXPECT_NE(StatusCodeToString(code), "Unknown");
  }
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyTypesWork) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

Result<int> Doubled(Result<int> in) {
  LQDB_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(Doubled(21).value(), 42);
  EXPECT_EQ(Doubled(Status::Internal("boom")).status().code(),
            StatusCode::kInternal);
}

TEST(InternerTest, AssignsDenseIdsInOrder) {
  Interner interner;
  EXPECT_EQ(interner.Intern("a"), 0u);
  EXPECT_EQ(interner.Intern("b"), 1u);
  EXPECT_EQ(interner.Intern("a"), 0u);
  EXPECT_EQ(interner.size(), 2u);
  EXPECT_EQ(interner.NameOf(0), "a");
  EXPECT_EQ(interner.NameOf(1), "b");
}

TEST(InternerTest, FindMissesReturnSentinel) {
  Interner interner;
  EXPECT_EQ(interner.Find("ghost"), Interner::kNotFound);
  interner.Intern("ghost");
  EXPECT_NE(interner.Find("ghost"), Interner::kNotFound);
}

TEST(InternerTest, ManySymbolsStayConsistent) {
  Interner interner;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(interner.Intern("sym" + std::to_string(i)),
              static_cast<uint32_t>(i));
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(interner.NameOf(i), "sym" + std::to_string(i));
  }
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Below(17), 17u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(ThreadPoolTest, AsyncReturnsFutureValues) {
  ThreadPool pool(2);
  std::future<int> f1 = pool.Async([] { return 40 + 2; });
  std::future<std::string> f2 =
      pool.Async([]() -> std::string { return "done"; });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "done");
}

TEST(ThreadPoolTest, AsyncTasksRunConcurrentlyWithSubmit) {
  ThreadPool pool(4);
  std::atomic<int> sum{0};
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.Async([i] { return i; }));
    pool.Submit([&sum, i] { sum.fetch_add(i); });
  }
  int total = 0;
  for (std::future<int>& f : futures) total += f.get();
  pool.Wait();
  EXPECT_EQ(total, 31 * 32 / 2);
  EXPECT_EQ(sum.load(), 31 * 32 / 2);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer", "22"});
  std::string out = t.ToString();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TablePrinterTest, ShortRowsArePadded) {
  TablePrinter t({"a", "b", "c"});
  t.AddRow({"only"});
  EXPECT_NE(t.ToString().find("only"), std::string::npos);
}

TEST(FormatDoubleTest, RendersDigits) {
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FormatDouble(2.0, 1), "2.0");
}

TEST(ParseStrictTest, AcceptsPureDecimals) {
  unsigned long long u = 1;
  EXPECT_TRUE(ParseStrictUint("0", &u));
  EXPECT_EQ(u, 0ull);
  EXPECT_TRUE(ParseStrictUint("42", &u));
  EXPECT_EQ(u, 42ull);
  EXPECT_TRUE(ParseStrictUint("18446744073709551615", &u));  // ULLONG_MAX
  EXPECT_EQ(u, 18446744073709551615ull);
}

TEST(ParseStrictTest, RejectsGarbageSignsAndOverflow) {
  unsigned long long u = 0;
  // The prefix-parsing behaviors of std::stoi that bit the shell and the
  // text format: trailing garbage, signs, spaces — all rejected outright.
  EXPECT_FALSE(ParseStrictUint("", &u));
  EXPECT_FALSE(ParseStrictUint("4x", &u));
  EXPECT_FALSE(ParseStrictUint("-1", &u));
  EXPECT_FALSE(ParseStrictUint("+1", &u));
  EXPECT_FALSE(ParseStrictUint(" 1", &u));
  EXPECT_FALSE(ParseStrictUint("0x10", &u));
  EXPECT_FALSE(ParseStrictUint("18446744073709551616", &u));  // ULLONG_MAX+1
}

TEST(ParseStrictTest, IntVariantBoundsTheValue) {
  int v = -1;
  EXPECT_TRUE(ParseStrictInt("2147483647", &v));  // INT_MAX
  EXPECT_EQ(v, 2147483647);
  EXPECT_FALSE(ParseStrictInt("2147483648", &v));
  EXPECT_FALSE(ParseStrictInt("99999999999999999999", &v));
  EXPECT_TRUE(ParseStrictInt("7", &v, /*max=*/7));
  EXPECT_EQ(v, 7);
  EXPECT_FALSE(ParseStrictInt("8", &v, /*max=*/7));
}

}  // namespace
}  // namespace lqdb
