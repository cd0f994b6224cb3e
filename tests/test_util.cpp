// Unit tests for util: CSV writer, table printer, CLI parser, subsets.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "rng/rng.h"
#include "util/cli.h"
#include "util/config.h"
#include "util/csv.h"
#include "util/error.h"
#include "util/json.h"
#include "util/stopwatch.h"
#include "util/subsets.h"
#include "util/table.h"

namespace ru = redopt::util;

// ---------------------------------------------------------------- CSV

TEST(Csv, EscapePlainCellUnchanged) { EXPECT_EQ(ru::CsvWriter::escape("hello"), "hello"); }

TEST(Csv, EscapeQuotesCommasNewlines) {
  EXPECT_EQ(ru::CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(ru::CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(ru::CsvWriter::escape("two\nlines"), "\"two\nlines\"");
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = testing::TempDir() + "redopt_csv_test.csv";
  {
    ru::CsvWriter w(path, {"x", "y"});
    w.write_row(std::vector<std::string>{"1", "2"});
    w.write_row(std::vector<double>{3.5, 4.25});
    EXPECT_EQ(w.rows_written(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::getline(in, line);
  EXPECT_EQ(line, "3.5,4.25");
  std::remove(path.c_str());
}

TEST(Csv, RejectsArityMismatch) {
  const std::string path = testing::TempDir() + "redopt_csv_arity.csv";
  ru::CsvWriter w(path, {"a", "b"});
  EXPECT_THROW(w.write_row(std::vector<std::string>{"only-one"}), redopt::PreconditionError);
  std::remove(path.c_str());
}

TEST(Csv, RejectsUnopenablePath) {
  EXPECT_THROW(ru::CsvWriter("/nonexistent-dir-xyz/file.csv", {"a"}), redopt::PreconditionError);
}

// ---------------------------------------------------------------- Table

TEST(Table, AlignsColumns) {
  ru::TablePrinter t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "22"});
  const std::string rendered = t.to_string();
  EXPECT_NE(rendered.find("longer-name  22"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, PadsShortRows) {
  ru::TablePrinter t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_NO_THROW(t.to_string());
}

TEST(Table, NumFormatsSignificantDigits) {
  EXPECT_EQ(ru::TablePrinter::num(1.23456789, 3), "1.23");
  EXPECT_EQ(ru::TablePrinter::num(1000.0, 6), "1000");
}

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(ru::TablePrinter({}), redopt::PreconditionError);
}

// ---------------------------------------------------------------- CLI

TEST(Cli, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta", "4.5", "--flag"};
  ru::Cli cli(5, argv, {"alpha", "beta", "flag"});
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(cli.get_double("beta", 0.0), 4.5);
  EXPECT_TRUE(cli.get_bool("flag", false));
}

TEST(Cli, ReturnsDefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  ru::Cli cli(1, argv, {"alpha"});
  EXPECT_EQ(cli.get_int("alpha", 7), 7);
  EXPECT_EQ(cli.get_string("alpha", "d"), "d");
  EXPECT_FALSE(cli.get("alpha").has_value());
}

TEST(Cli, RejectsUnknownFlag) {
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_THROW(ru::Cli(2, argv, {"alpha"}), redopt::PreconditionError);
}

TEST(Cli, RejectsNonFlagToken) {
  const char* argv[] = {"prog", "bare"};
  EXPECT_THROW(ru::Cli(2, argv, {"alpha"}), redopt::PreconditionError);
}

TEST(Cli, ParseChoiceReturnsIndexInDeclarationOrder) {
  const std::vector<std::string> choices = {"star", "chain", "tree"};
  EXPECT_EQ(ru::parse_choice("topology", "star", choices), 0u);
  EXPECT_EQ(ru::parse_choice("topology", "chain", choices), 1u);
  EXPECT_EQ(ru::parse_choice("topology", "tree", choices), 2u);
}

TEST(Cli, ParseChoiceErrorNamesTheFlagAndListsEveryValue) {
  const std::vector<std::string> choices = {"inproc", "socket"};
  try {
    ru::parse_choice("backend", "carrier-pigeon", choices);
    FAIL() << "expected PreconditionError";
  } catch (const redopt::PreconditionError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown backend 'carrier-pigeon'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("inproc, socket"), std::string::npos) << msg;
  }
}

TEST(Cli, ParseChoiceIsCaseSensitiveAndWholeToken) {
  const std::vector<std::string> choices = {"star", "chain", "tree"};
  EXPECT_THROW(ru::parse_choice("topology", "Star", choices), redopt::PreconditionError);
  EXPECT_THROW(ru::parse_choice("topology", "st", choices), redopt::PreconditionError);
  EXPECT_THROW(ru::parse_choice("topology", "", choices), redopt::PreconditionError);
}

TEST(Cli, ParseChoiceRejectsEmptyChoiceList) {
  EXPECT_THROW(ru::parse_choice("thing", "x", {}), redopt::PreconditionError);
}

// ---------------------------------------------------------------- Config

TEST(Config, ParsesKeyValuePairs) {
  const auto config = ru::Config::parse(
      "# a comment\n"
      "alpha = 3\n"
      "\n"
      "  beta=4.5  \n"
      "name = hello world\n"
      "flag = yes\n");
  EXPECT_EQ(config.size(), 4u);
  EXPECT_EQ(config.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(config.get_double("beta", 0.0), 4.5);
  EXPECT_EQ(config.get_string("name", ""), "hello world");
  EXPECT_TRUE(config.get_bool("flag", false));
  EXPECT_EQ(config.get_int("missing", 7), 7);
  EXPECT_FALSE(config.get("missing").has_value());
}

TEST(Config, LaterAssignmentsOverride) {
  const auto config = ru::Config::parse("x = 1\nx = 2\n");
  EXPECT_EQ(config.get_int("x", 0), 2);
  EXPECT_EQ(config.size(), 1u);
}

TEST(Config, RejectsMalformedLines) {
  EXPECT_THROW(ru::Config::parse("no equals sign\n"), redopt::PreconditionError);
  EXPECT_THROW(ru::Config::parse("= value\n"), redopt::PreconditionError);
}

TEST(Config, LoadsFromFileAndRejectsMissing) {
  const std::string path = testing::TempDir() + "redopt_config_test.cfg";
  {
    std::ofstream out(path);
    out << "k = v\n";
  }
  EXPECT_EQ(ru::Config::load(path).get_string("k", ""), "v");
  std::remove(path.c_str());
  EXPECT_THROW(ru::Config::load("/nonexistent-dir-xyz/a.cfg"), redopt::PreconditionError);
}

// ---------------------------------------------------------------- JSON

TEST(Json, EscapePlainStringUnchanged) {
  EXPECT_EQ(ru::json_escape("hello world"), "hello world");
  EXPECT_EQ(ru::json_escape(""), "");
}

TEST(Json, EscapeQuotesAndBackslashes) {
  EXPECT_EQ(ru::json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(ru::json_escape("a\\b"), "a\\\\b");
}

TEST(Json, EscapeShortFormControlCharacters) {
  EXPECT_EQ(ru::json_escape("a\nb\tc\rd\be\ff"), "a\\nb\\tc\\rd\\be\\ff");
}

TEST(Json, EscapeOtherControlCharactersAsUnicode) {
  // Control bytes with no short form must survive as \uXXXX — replacing
  // them with spaces would make two distinct inputs collide.
  EXPECT_EQ(ru::json_escape("a\x01z"), "a\\u0001z");
  EXPECT_EQ(ru::json_escape(std::string("x\x1f")), "x\\u001f");
  EXPECT_EQ(ru::json_escape(std::string("n\0l", 3)), "n\\u0000l");
  // 0x20 and above pass through.
  EXPECT_EQ(ru::json_escape("\x7f"), "\x7f");
}

TEST(Json, NumberIntegralValuesPrintWithoutExponent) {
  EXPECT_EQ(ru::json_number(0.0), "0");
  EXPECT_EQ(ru::json_number(3.0), "3");
  EXPECT_EQ(ru::json_number(-42.0), "-42");
  EXPECT_EQ(ru::json_number(123456789.0), "123456789");
}

TEST(Json, NumberFractionalValuesRoundTrip) {
  EXPECT_EQ(ru::json_number(0.5), "0.5");
  EXPECT_EQ(std::stod(ru::json_number(0.1)), 0.1);
  EXPECT_EQ(std::stod(ru::json_number(1.0 / 3.0)), 1.0 / 3.0);
  EXPECT_EQ(std::stod(ru::json_number(1e300)), 1e300);
}

TEST(Json, NumberNonFiniteBecomesNull) {
  EXPECT_EQ(ru::json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(ru::json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(ru::json_number(-std::numeric_limits<double>::infinity()), "null");
}

namespace {

/// The spelling json_number promises, through printf: "null" for
/// non-finite values, %.0f for integral values below 1e15 in magnitude,
/// %.17g for everything else.
std::string printf_json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

double from_bits(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::uint64_t to_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

TEST(Json, NumberMatchesPrintfOnSeededBitPatterns) {
  // Four draws per iteration: any bit pattern (NaN and infinity
  // included), a subnormal of either sign, an integer of magnitude up to
  // 1e15 (both sides of the integral branch's bound), and a short
  // decimal fraction.
  redopt::rng::Rng rng(2024);
  std::size_t mismatches = 0;
  std::string appended;
  const auto check = [&](double v) {
    const std::string expected = printf_json_number(v);
    appended.clear();
    ru::append_json_number(appended, v);
    if (ru::json_number(v) != expected || appended != expected) {
      if (++mismatches <= 5) ADD_FAILURE() << "bits " << to_bits(v) << ": " << expected;
    }
  };
  for (int i = 0; i < 250000; ++i) {
    check(from_bits(rng.next_u64()));
    check(from_bits(rng.next_u64() & 0x800FFFFFFFFFFFFFULL));
    check(static_cast<double>(rng.uniform_int(-1000000000000001, 1000000000000001)));
    check(static_cast<double>(rng.uniform_int(-100000, 100000)) / 1000.0);
  }
  using limits = std::numeric_limits<double>;
  for (double v : {0.0, -0.0, 1e15, -1e15, 999999999999999.0, 1e15 - 0.5}) check(v);
  for (double v : {limits::denorm_min(), limits::min(), limits::max(), limits::lowest()}) check(v);
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(ru::json_number(-0.0), "-0");
}

TEST(Json, ParseReadsBackSubnormalsBitForBit) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  for (double v : {tiny, -tiny, 1e-310, -1e-310}) {
    const ru::JsonValue parsed = ru::json_parse(ru::json_number(v));
    EXPECT_EQ(to_bits(parsed.as_number()), to_bits(v)) << ru::json_number(v);
  }
  // Overflow and underflow to zero stay errors; an exact zero does not.
  EXPECT_THROW(ru::json_parse("1e999"), redopt::PreconditionError);
  EXPECT_THROW(ru::json_parse("-1e999"), redopt::PreconditionError);
  EXPECT_THROW(ru::json_parse("1e-400"), redopt::PreconditionError);
  EXPECT_THROW(ru::json_parse("-1e-400"), redopt::PreconditionError);
  EXPECT_EQ(ru::json_parse("0e-400").as_number(), 0.0);
}

// ---------------------------------------------------------------- Stopwatch

TEST(Stopwatch, MeasuresElapsedTime) {
  ru::Stopwatch watch;
  // Burn a little CPU deterministically.
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i);
  EXPECT_GE(watch.elapsed_seconds(), 0.0);
  EXPECT_GE(watch.elapsed_ms(), 1000.0 * watch.elapsed_seconds() * 0.0);  // non-negative ms
  const double before_reset = watch.elapsed_seconds();
  watch.reset();
  EXPECT_LE(watch.elapsed_seconds(), before_reset + 1.0);
}

// ---------------------------------------------------------------- Subsets

TEST(Subsets, BinomialKnownValues) {
  EXPECT_EQ(ru::binomial(6, 0), 1u);
  EXPECT_EQ(ru::binomial(6, 1), 6u);
  EXPECT_EQ(ru::binomial(6, 3), 20u);
  EXPECT_EQ(ru::binomial(6, 6), 1u);
  EXPECT_EQ(ru::binomial(3, 5), 0u);
  EXPECT_EQ(ru::binomial(52, 5), 2598960u);
}

TEST(Subsets, EnumeratesAllUniqueSorted) {
  std::set<std::vector<std::size_t>> seen;
  ru::for_each_subset(6, 3, [&](const std::vector<std::size_t>& s) {
    EXPECT_EQ(s.size(), 3u);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
    EXPECT_TRUE(seen.insert(s).second) << "duplicate subset";
    return true;
  });
  EXPECT_EQ(seen.size(), ru::binomial(6, 3));
}

TEST(Subsets, EnumerationMatchesBinomialAcrossSizes) {
  for (std::size_t n = 0; n <= 8; ++n) {
    for (std::size_t k = 0; k <= n; ++k) {
      std::size_t count = 0;
      ru::for_each_subset(n, k, [&](const auto&) {
        ++count;
        return true;
      });
      EXPECT_EQ(count, ru::binomial(n, k)) << "n=" << n << " k=" << k;
    }
  }
}

TEST(Subsets, EarlyStopReturnsFalse) {
  std::size_t count = 0;
  const bool completed = ru::for_each_subset(5, 2, [&](const auto&) { return ++count < 3; });
  EXPECT_FALSE(completed);
  EXPECT_EQ(count, 3u);
}

TEST(Subsets, SubsetOfPoolPreservesElements) {
  const std::vector<std::size_t> pool = {10, 20, 30};
  std::vector<std::vector<std::size_t>> out;
  ru::for_each_subset_of(pool, 2, [&](const std::vector<std::size_t>& s) {
    out.push_back(s);
    return true;
  });
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], (std::vector<std::size_t>{10, 20}));
  EXPECT_EQ(out[2], (std::vector<std::size_t>{20, 30}));
}

TEST(Subsets, ComplementIsSetComplement) {
  EXPECT_EQ(ru::complement(5, {1, 3}), (std::vector<std::size_t>{0, 2, 4}));
  EXPECT_EQ(ru::complement(3, {}), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(ru::complement(3, {0, 1, 2}), (std::vector<std::size_t>{}));
}

TEST(Subsets, ZeroSizedSubsetInvokedOnce) {
  std::size_t count = 0;
  ru::for_each_subset(4, 0, [&](const std::vector<std::size_t>& s) {
    EXPECT_TRUE(s.empty());
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1u);
}
