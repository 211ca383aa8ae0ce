#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/source_location.hpp"
#include "support/string_utils.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

namespace qirkit {
namespace {

TEST(StringUtils, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringUtils, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3U);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringUtils, SplitLinesHandlesCRLFAndMissingTrailingNewline) {
  const auto lines = splitLines("a\r\nb\nc");
  ASSERT_EQ(lines.size(), 3U);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[1], "b");
  EXPECT_EQ(lines[2], "c");
}

TEST(StringUtils, ParseIntAcceptsNegativesRejectsJunk) {
  EXPECT_EQ(parseInt("-42"), -42);
  EXPECT_EQ(parseInt("0"), 0);
  EXPECT_FALSE(parseInt("12x").has_value());
  EXPECT_FALSE(parseInt("").has_value());
  EXPECT_FALSE(parseInt("1e3").has_value());
}

TEST(StringUtils, ParseDoubleRoundTripsFormatDouble) {
  for (const double v : {0.0, 1.5, -2.25, 3.141592653589793, 1e-12, 6.02e23}) {
    const auto parsed = parseDouble(formatDouble(v));
    ASSERT_TRUE(parsed.has_value()) << formatDouble(v);
    EXPECT_EQ(*parsed, v);
  }
}

TEST(StringUtils, FormatDoubleAlwaysLooksFloatingPoint) {
  EXPECT_NE(formatDouble(2.0).find_first_of(".eE"), std::string::npos);
}

TEST(StringUtils, QuoteStringEscapesNonPrintable) {
  EXPECT_EQ(quoteString("ab"), "\"ab\"");
  EXPECT_EQ(quoteString(std::string("a\0b", 3)), "\"a\\00b\"");
  EXPECT_EQ(quoteString("say \"hi\""), "\"say \\22hi\\22\"");
}

TEST(SourceLoc, FormatsLineAndColumn) {
  EXPECT_EQ((SourceLoc{3, 7}).str(), "3:7");
  EXPECT_EQ(SourceLoc{}.str(), "<unknown>");
}

TEST(ParseErrorTest, CarriesLocation) {
  const ParseError err({5, 2}, "bad token");
  EXPECT_EQ(err.loc().line, 5U);
  EXPECT_NE(std::string(err.what()).find("5:2"), std::string::npos);
}

TEST(SplitMix64Test, IsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(SplitMix64Test, UniformIsInUnitInterval) {
  SplitMix64 rng(7);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(SplitMix64Test, DiscardEqualsThatManyDraws) {
  // Shot branching reads shot s's j-th draw as SplitMix64(seed + s)
  // advanced j steps, so the jump must land where j calls would.
  for (const std::uint64_t seed : {0ULL, 7ULL, ~0ULL - 3}) {
    for (const std::uint64_t n : {0ULL, 1ULL, 2ULL, 13ULL, 1000ULL}) {
      SplitMix64 stepped(seed);
      for (std::uint64_t i = 0; i < n; ++i) {
        (void)stepped();
      }
      SplitMix64 jumped(seed);
      jumped.discard(n);
      EXPECT_EQ(jumped(), stepped()) << "seed " << seed << " n " << n;
      EXPECT_EQ(jumped.uniform(), stepped.uniform());
    }
  }
}

TEST(SplitMix64Test, BelowStaysBelowBound) {
  SplitMix64 rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17U);
  }
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { ++counter; });
  }
  pool.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversTheWholeRange) {
  ThreadPool pool(3);
  std::vector<int> hits(100000, 0);
  parallelForChunked(
      pool, hits.size(),
      [&hits](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          ++hits[i];
        }
      },
      128);
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(hits.size()));
}

TEST(ThreadPoolTest, SmallRangeRunsInline) {
  ThreadPool pool(4);
  std::size_t total = 0;
  parallelForChunked(
      pool, 10, [&total](std::size_t begin, std::size_t end) { total += end - begin; },
      1024);
  EXPECT_EQ(total, 10U);
}

} // namespace
} // namespace qirkit
