// Unit tests for util: bit I/O, RNG/coin streams, stats, tables, CLI,
// thread pool, check macro.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "test_support.h"
#include "util/bitio.h"
#include "util/check.h"
#include "util/cli.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace dynet::util {
namespace {

using testsupport::expectCheckError;

TEST(Check, ThrowsWithMessage) {
  try {
    DYNET_CHECK(1 == 2) << "context " << 42;
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Check, PassesSilently) {
  DYNET_CHECK(true) << "never evaluated";
  SUCCEED();
}

TEST(BitWidth, Basics) {
  EXPECT_EQ(bitWidthFor(1), 1);
  EXPECT_EQ(bitWidthFor(2), 1);
  EXPECT_EQ(bitWidthFor(3), 2);
  EXPECT_EQ(bitWidthFor(4), 2);
  EXPECT_EQ(bitWidthFor(5), 3);
  EXPECT_EQ(bitWidthFor(1024), 10);
  EXPECT_EQ(bitWidthFor(1025), 11);
}

class BitIoRoundtrip : public ::testing::TestWithParam<int> {};

TEST_P(BitIoRoundtrip, WriteReadMatchesAtEveryWidth) {
  const int width = GetParam();
  Rng rng(static_cast<std::uint64_t>(width) * 77);
  std::vector<std::uint64_t> words(8, 0);
  std::vector<std::uint64_t> values;
  BitWriter writer(words, 512);
  int budget = 512;
  while (budget >= width) {
    std::uint64_t v = rng.u64();
    if (width < 64) {
      v &= (std::uint64_t{1} << width) - 1;
    }
    writer.put(v, width);
    values.push_back(v);
    budget -= width;
  }
  BitReader reader(words, writer.bitsWritten());
  for (const std::uint64_t v : values) {
    EXPECT_EQ(reader.get(width), v);
  }
  EXPECT_EQ(reader.bitsRemaining(), 0);
}

INSTANTIATE_TEST_SUITE_P(Widths, BitIoRoundtrip,
                         ::testing::Values(1, 2, 3, 5, 7, 8, 13, 16, 17, 31,
                                           32, 33, 48, 63, 64));

TEST(BitIo, MixedWidthSequence) {
  std::vector<std::uint64_t> words(4, 0);
  BitWriter writer(words, 256);
  writer.put(1, 1);
  writer.put(0x2a, 6);
  writer.put(0xdeadbeef, 32);
  writer.put(0, 3);
  writer.put(0x1ffff, 17);
  BitReader reader(words, writer.bitsWritten());
  EXPECT_EQ(reader.get(1), 1u);
  EXPECT_EQ(reader.get(6), 0x2au);
  EXPECT_EQ(reader.get(32), 0xdeadbeefu);
  EXPECT_EQ(reader.get(3), 0u);
  EXPECT_EQ(reader.get(17), 0x1ffffu);
}

// The failure texts of BitWriter::put and BitReader::get are part of
// their contract: a budget or width violation names the numbers involved.

TEST(BitIo, BudgetEnforced) {
  std::vector<std::uint64_t> words(4, 0);
  BitWriter writer(words, 10);
  writer.put(0x3ff, 10);
  EXPECT_THROW(writer.put(1, 1), CheckError);
  expectCheckError([&] { writer.put(1, 1); }, "bit budget exceeded: 10+1 > 10");
  // A zero-width field fits a full writer and ignores its value.
  writer.put(7, 0);
  EXPECT_EQ(writer.bitsWritten(), 10);
}

TEST(BitIo, ValueWiderThanFieldRejected) {
  std::vector<std::uint64_t> words(4, 0);
  BitWriter writer(words, 64);
  EXPECT_THROW(writer.put(4, 2), CheckError);
  expectCheckError([&] { writer.put(4, 2); }, "value 4 wider than 2 bits");
  EXPECT_EQ(writer.bitsWritten(), 0);
}

TEST(BitIo, WidthOutsideZeroTo64Rejected) {
  std::vector<std::uint64_t> words(4, 0);
  BitWriter writer(words, 256);
  expectCheckError([&] { writer.put(1, 65); }, "width=65");
  expectCheckError([&] { writer.put(0, -1); }, "width=-1");
  BitReader reader(words, 256);
  expectCheckError([&] { reader.get(65); }, "width=65");
  expectCheckError([&] { reader.get(-1); }, "width=-1");
}

TEST(BitIo, ReadPastEndRejected) {
  std::vector<std::uint64_t> words(4, 0);
  BitReader reader(words, 8);
  reader.get(8);
  EXPECT_THROW(reader.get(1), CheckError);
  expectCheckError([&] { reader.get(1); }, "read past end: 8+1 > 8");
  EXPECT_EQ(reader.get(0), 0u);
}

TEST(Real16, ZeroRoundtrips) {
  EXPECT_EQ(encodeReal16(0.0), 0);
  EXPECT_EQ(decodeReal16(0), 0.0);
}

TEST(Real16, RelativeErrorSmall) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const double x = std::exp((rng.real() - 0.5) * 60.0);
    const double back = decodeReal16(encodeReal16(x));
    EXPECT_NEAR(back / x, 1.0, 0.004) << "x=" << x;
  }
}

TEST(Real16, Monotone) {
  double prev = 0.0;
  for (int i = 0; i < 65536; i += 17) {
    const double v = decodeReal16(static_cast<std::uint16_t>(i));
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  bool all_same = true;
  bool any_diff_c = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.u64();
    all_same = all_same && (va == b.u64());
    any_diff_c = any_diff_c || (va != c.u64());
  }
  EXPECT_TRUE(all_same);
  EXPECT_TRUE(any_diff_c);
}

TEST(Rng, BelowInRangeAndRoughlyUniform) {
  Rng rng(99);
  std::vector<int> buckets(10, 0);
  for (int i = 0; i < 100000; ++i) {
    const auto v = rng.below(10);
    ASSERT_LT(v, 10u);
    ++buckets[static_cast<std::size_t>(v)];
  }
  for (const int b : buckets) {
    EXPECT_NEAR(b, 10000, 600);
  }
}

TEST(Rng, ExponentialMeanOne) {
  Rng rng(5);
  double sum = 0;
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) {
    const double e = rng.exponential();
    ASSERT_GT(e, 0.0);
    sum += e;
  }
  EXPECT_NEAR(sum / trials, 1.0, 0.02);
}

TEST(CoinStream, PureFunctionOfAddress) {
  CoinStream a(42, 7, 3);
  CoinStream b(42, 7, 3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.u64(), b.u64());
  }
}

TEST(CoinStream, DistinctAcrossNodesAndRounds) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t node = 0; node < 20; ++node) {
    for (std::uint64_t round = 1; round <= 20; ++round) {
      CoinStream s(42, node, round);
      seen.insert(s.u64());
    }
  }
  EXPECT_EQ(seen.size(), 400u);
}

TEST(CoinStream, CoinRoughlyFair) {
  int heads = 0;
  for (std::uint64_t r = 1; r <= 20000; ++r) {
    CoinStream s(1, 0, r);
    heads += s.coin() ? 1 : 0;
  }
  EXPECT_NEAR(heads, 10000, 400);
}

TEST(PrivateSeed, DistinctPerNode) {
  EXPECT_NE(privateSeed(9, 1), privateSeed(9, 2));
  EXPECT_NE(privateSeed(9, 1), privateSeed(10, 1));
  EXPECT_EQ(privateSeed(9, 1), privateSeed(9, 1));
}

TEST(Summary, Moments) {
  Summary s;
  for (const double v : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    s.add(v);
  }
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(2.5), 1e-12);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.25), 2.0);
}

TEST(Summary, EmptyRejected) {
  Summary s;
  EXPECT_THROW(s.mean(), CheckError);
  EXPECT_THROW(s.percentile(0.5), CheckError);
}

TEST(Summary, SortCacheInvalidatedByAdd) {
  // The percentile sort-cache must not serve stale order statistics after
  // an interleaved add() (the documented invalidation contract in stats.h).
  Summary s;
  s.add(10.0);
  s.add(20.0);
  EXPECT_DOUBLE_EQ(s.median(), 15.0);  // populates the cache
  s.add(0.0);                          // invalidates it
  EXPECT_DOUBLE_EQ(s.median(), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 0.0);
  s.add(30.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 30.0);
}

TEST(Summary, TailPercentileConveniences) {
  Summary s;
  for (int i = 1; i <= 100; ++i) {
    s.add(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(s.p95(), s.percentile(0.95));
  EXPECT_DOUBLE_EQ(s.p99(), s.percentile(0.99));
  EXPECT_NEAR(s.p95(), 95.05, 1e-9);
  EXPECT_NEAR(s.p99(), 99.01, 1e-9);
  EXPECT_LE(s.median(), s.p95());
  EXPECT_LE(s.p95(), s.p99());
}

TEST(Table, RendersAligned) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(std::int64_t{42});
  t.row().cell("b").cell(3.14159, 2);
  const std::string out = t.toString();
  EXPECT_NE(out.find("| alpha |"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  // All lines equal length.
  std::istringstream in(out);
  std::string line;
  std::size_t len = 0;
  while (std::getline(in, line)) {
    if (len == 0) {
      len = line.size();
    }
    EXPECT_EQ(line.size(), len);
  }
}

TEST(Table, TooManyCellsRejected) {
  Table t({"only"});
  t.row().cell("x");
  EXPECT_THROW(t.cell("y"), CheckError);
}

TEST(Cli, ParsesForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta", "4.5", "--gamma"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.integer("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(cli.real("beta", 0), 4.5);
  EXPECT_TRUE(cli.flag("gamma"));
  EXPECT_EQ(cli.integer("missing", 7), 7);
  cli.rejectUnknown();
}

/// Parses `--name=value` and returns what Cli::integer makes of it.
std::int64_t cliInteger(const std::string& value) {
  const std::string arg = "--nodes=" + value;
  const char* argv[] = {"prog", arg.c_str()};
  return Cli(2, const_cast<char**>(argv)).integer("nodes", 0);
}

double cliReal(const std::string& value) {
  const std::string arg = "--p=" + value;
  const char* argv[] = {"prog", arg.c_str()};
  return Cli(2, const_cast<char**>(argv)).real("p", 0);
}

TEST(Cli, IntegerRejectsTrailingGarbageNamingFlagAndValue) {
  for (const std::string bad : {"8x", "1e3", "abc", ""}) {
    try {
      cliInteger(bad);
      FAIL() << "expected CheckError for '" << bad << "'";
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("--nodes"), std::string::npos) << what;
      EXPECT_NE(what.find("'" + bad + "'"), std::string::npos) << what;
    }
  }
}

TEST(Cli, IntegerAcceptsNegativeValues) { EXPECT_EQ(cliInteger("-5"), -5); }

// A value outside the flag's inclusive range fails before any narrowing
// cast sees it, so 2^32 + 2 cannot wrap to 2 nor -1 to 4294967295.
TEST(Cli, IntegerRejectsValuesOutsideItsRangeNamingFlagAndValue) {
  const auto integer = [](const std::string& value, std::int64_t lo,
                          std::int64_t hi) {
    const std::string arg = "--workers=" + value;
    const char* argv[] = {"prog", arg.c_str()};
    return Cli(2, const_cast<char**>(argv)).integer("workers", 1, lo, hi);
  };
  EXPECT_EQ(integer("1", 1, 4096), 1);
  EXPECT_EQ(integer("4096", 1, 4096), 4096);
  for (const std::string bad : {"0", "-1", "4097", "4294967298"}) {
    try {
      integer(bad, 1, 4096);
      FAIL() << "expected CheckError for '" << bad << "'";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("--workers=" + bad +
                                           " is outside [1, 4096]"),
                std::string::npos)
          << e.what();
    }
  }
  // The default is returned as given, and the range defaults to int64.
  const char* argv[] = {"prog"};
  EXPECT_EQ(Cli(1, const_cast<char**>(argv)).integer("workers", 7, 1, 4), 7);
  EXPECT_EQ(cliInteger("4294967298"), 4294967298);
}

TEST(Cli, RealAcceptsDecimalAndExponentForms) {
  EXPECT_DOUBLE_EQ(cliReal("0.25"), 0.25);
  EXPECT_DOUBLE_EQ(cliReal("1e-3"), 1e-3);
  EXPECT_THROW(cliReal("0.25x"), CheckError);
  EXPECT_THROW(cliReal(""), CheckError);
}

// A real flag is finite and inside its range, closed or open below: the
// protocol zoo reads a non-positive p or n_estimate as unset, so nan or 0
// must fail at the flag instead of running on a default.
TEST(Cli, RealRejectsValuesOutsideItsRangeNamingFlagAndValue) {
  const auto real = [](const std::string& value, bool open_lo) {
    const std::string arg = "--c=" + value;
    const char* argv[] = {"prog", arg.c_str()};
    return Cli(2, const_cast<char**>(argv))
        .real("c", 0.25, 0, 1.0 / 3.0, open_lo);
  };
  EXPECT_DOUBLE_EQ(real("0", false), 0);
  EXPECT_DOUBLE_EQ(real("1e-300", true), 1e-300);
  EXPECT_DOUBLE_EQ(real("0.3333", true), 0.3333);
  for (const bool open_lo : {false, true}) {
    for (const std::string bad :
         {"-0.1", "0.34", "nan", "inf", "-inf", "1e999"}) {
      try {
        real(bad, open_lo);
        FAIL() << "expected CheckError for '" << bad << "'";
      } catch (const CheckError& e) {
        const std::string range = open_lo ? "(0, 0.333333]" : "[0, 0.333333]";
        EXPECT_NE(std::string(e.what()).find(
                      "--c=" + bad + " is not a finite number in " + range),
                  std::string::npos)
            << e.what();
      }
    }
  }
  EXPECT_THROW(real("0", true), CheckError);
  // The default is returned as given; without a range only a non-finite
  // value fails.
  const char* argv[] = {"prog"};
  EXPECT_DOUBLE_EQ(Cli(1, const_cast<char**>(argv)).real("c", 7, 0, 1), 7);
  EXPECT_DOUBLE_EQ(cliReal("-1e300"), -1e300);
  EXPECT_THROW(cliReal("nan"), CheckError);
  EXPECT_THROW(cliReal("-inf"), CheckError);
}

TEST(Cli, UnknownFlagRejected) {
  const char* argv[] = {"prog", "--typo=1"};
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_THROW(cli.rejectUnknown(), CheckError);
}

TEST(ThreadPool, RunsAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallelFor(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallelFor(100,
                                [](std::size_t i) {
                                  if (i == 57) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(3);
  for (int batch = 0; batch < 20; ++batch) {
    std::atomic<int> count{0};
    pool.parallelFor(batch + 1, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), batch + 1);
  }
}

TEST(ThreadPool, ReusableAfterException) {
  // A batch that throws must not poison the pool: workers survive and the
  // next parallelFor still runs every index.
  ThreadPool pool(3);
  for (int attempt = 0; attempt < 3; ++attempt) {
    EXPECT_THROW(pool.parallelFor(50,
                                  [](std::size_t i) {
                                    if (i % 10 == 3) {
                                      throw std::runtime_error("boom");
                                    }
                                  }),
                 std::runtime_error);
    std::atomic<int> count{0};
    pool.parallelFor(200, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 200);
  }
}

TEST(ThreadPool, NestedParallelForFromAWorker) {
  // A body that calls parallelFor on its own pool (a BatchRunner trial
  // whose engine runs node-range chunks) finishes even while every worker
  // is busy with the outer call: each caller runs what nobody claims.
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(8 * 16);
  pool.parallelFor(8, [&](std::size_t i) {
    pool.parallelFor(16,
                     [&](std::size_t j) { hits[i * 16 + j].fetch_add(1); });
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, LowestFailingIndexWins) {
  // The rethrown exception is the lowest failing index's — the one a
  // serial loop throws first — even when higher indices fail sooner.
  ThreadPool pool(4);
  for (int attempt = 0; attempt < 20; ++attempt) {
    try {
      pool.parallelFor(4, [](std::size_t i) {
        if (i == 1) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        if (i >= 1) {
          throw std::runtime_error(std::to_string(i));
        }
      });
      ADD_FAILURE() << "nothing thrown";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "1");
    }
  }
}

TEST(ThreadPool, PropagatesCheckError) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallelFor(8,
                       [](std::size_t i) { DYNET_CHECK(i != 5) << "bad"; }),
      CheckError);
}

TEST(ThreadPool, ZeroItemsNoop) {
  ThreadPool pool(2);
  pool.parallelFor(0, [](std::size_t) { FAIL(); });
  SUCCEED();
}

// ------------------------------------------------------------ parseEnvInt

TEST(ParseEnvInt, UnsetOrEmptySelectsFallback) {
  EXPECT_EQ(parseEnvInt("X", nullptr, 7, 1, 100), 7);
  EXPECT_EQ(parseEnvInt("X", "", 7, 1, 100), 7);
}

TEST(ParseEnvInt, ParsesInRangeValues) {
  EXPECT_EQ(parseEnvInt("X", "1", 7, 1, 100), 1);
  EXPECT_EQ(parseEnvInt("X", "100", 7, 1, 100), 100);
  EXPECT_EQ(parseEnvInt("X", "-5", 0, -10, 10), -5);
}

TEST(ParseEnvInt, RejectsGarbageNamingTheVariable) {
  try {
    parseEnvInt("DYNET_WIDGETS", "12abc", 7, 1, 100);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("DYNET_WIDGETS"), std::string::npos) << what;
    EXPECT_NE(what.find("12abc"), std::string::npos) << what;
    EXPECT_NE(what.find("1..100"), std::string::npos) << what;
  }
  EXPECT_THROW(parseEnvInt("X", "abc", 7, 1, 100), CheckError);
  EXPECT_THROW(parseEnvInt("X", " 4", 7, 1, 100), CheckError);
  EXPECT_THROW(parseEnvInt("X", "4 ", 7, 1, 100), CheckError);
}

TEST(ParseEnvInt, RejectsOutOfRangeAndOverflow) {
  EXPECT_THROW(parseEnvInt("X", "0", 7, 1, 100), CheckError);
  EXPECT_THROW(parseEnvInt("X", "101", 7, 1, 100), CheckError);
  EXPECT_THROW(parseEnvInt("X", "-1", 7, 1, 100), CheckError);
  // Past INT64_MAX: strtoll saturates with ERANGE; must still be loud.
  EXPECT_THROW(parseEnvInt("X", "99999999999999999999999", 7, 1, 100),
               CheckError);
}

}  // namespace
}  // namespace dynet::util
