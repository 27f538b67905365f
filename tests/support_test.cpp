#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string_view>

#include "ic/support/assert.hpp"
#include "ic/support/rng.hpp"
#include "ic/support/strings.hpp"
#include "ic/support/timer.hpp"

namespace ic {
namespace {

TEST(Strings, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim("hello"), "hello");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Strings, SplitDropsEmptyPieces) {
  const auto parts = split("a, b,,c", ", ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitHandlesNoDelimiter) {
  const auto parts = split("hello", ",");
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("INPUT(x)", "INPUT"));
  EXPECT_FALSE(starts_with("IN", "INPUT"));
}

TEST(Strings, CaseConversion) {
  EXPECT_EQ(to_lower("NaNd"), "nand");
  EXPECT_EQ(to_upper("NaNd"), "NAND");
}

TEST(Strings, FormatMseUsesScientificForHugeValues) {
  EXPECT_EQ(format_mse(0.0843), "0.0843");
  const std::string huge = format_mse(2.145e25);
  EXPECT_NE(huge.find("e+25"), std::string::npos);
}

TEST(Strings, EscapeJson) {
  EXPECT_EQ(escape_json("plain"), "plain");
  EXPECT_EQ(escape_json("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(escape_json("a\\b"), "a\\\\b");
  EXPECT_EQ(escape_json("line1\nline2\ttab"), "line1\\nline2\\ttab");
  EXPECT_EQ(escape_json(std::string_view("\x01", 1)), "\\u0001");
  EXPECT_EQ(json_quote("k\"v"), "\"k\\\"v\"");
}

struct NumberCase {
  std::string_view text;
  bool as_int;     // std::int32_t
  bool as_u64;     // std::uint64_t
  bool as_double;
};

TEST(ParseNumber, TableOfTextsPerKindOfType) {
  const NumberCase kCases[] = {
      {"42", true, true, true},
      {"0", true, true, true},
      {"-2", true, false, true},   // '-' only for a signed integer
      {"-0", true, false, true},
      {"2.9", false, false, true}, // no fraction for an integer
      {"1e3", false, false, true},
      {".5", false, false, true},
      {"", false, false, false},
      {" 4", false, false, false},
      {"4 ", false, false, false},
      {"+4", false, false, false},
      {"abc", false, false, false},
      {"12abc", false, false, false},
      {"0x10", false, false, false},
      {"1e999", false, false, false},
      {"1e-999", false, false, false},
      {"inf", false, false, false},
      {"-inf", false, false, false},
      {"nan", false, false, false},
      {"2147483648", false, true, true},  // one past int32 max
      {"-2147483649", false, false, true},
      {"18446744073709551616", false, false, true},  // one past uint64 max
      {"1.8e308", false, false, false},   // one past double max
  };
  for (const NumberCase& c : kCases) {
    EXPECT_EQ(parse_number<std::int32_t>(c.text).has_value(), c.as_int)
        << "int32 '" << c.text << "'";
    EXPECT_EQ(parse_number<std::uint64_t>(c.text).has_value(), c.as_u64)
        << "uint64 '" << c.text << "'";
    EXPECT_EQ(parse_number<double>(c.text).has_value(), c.as_double)
        << "double '" << c.text << "'";
  }
}

TEST(ParseNumber, AcceptsEachTypesMinimumAndMaximum) {
  using I = std::numeric_limits<std::int32_t>;
  using U = std::numeric_limits<std::uint64_t>;
  using P = std::numeric_limits<std::uint16_t>;
  using D = std::numeric_limits<double>;
  EXPECT_EQ(parse_number<std::int32_t>("-2147483648"), I::min());
  EXPECT_EQ(parse_number<std::int32_t>("2147483647"), I::max());
  EXPECT_EQ(parse_number<std::uint64_t>("0"), U::min());
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615"), U::max());
  EXPECT_EQ(parse_number<std::uint16_t>("65535"), P::max());
  EXPECT_FALSE(parse_number<std::uint16_t>("65536"));
  EXPECT_EQ(parse_number<double>("-1.7976931348623157e308"), D::lowest());
  EXPECT_EQ(parse_number<double>("1.7976931348623157e308"), D::max());
  EXPECT_EQ(parse_number<double>("-1e3"), -1000.0);
}

TEST(Assert, ContractViolationThrowsLogicError) {
  EXPECT_THROW(IC_ASSERT(1 == 2), std::logic_error);
  EXPECT_NO_THROW(IC_ASSERT(1 == 1));
}

TEST(Assert, InputCheckThrowsRuntimeErrorWithMessage) {
  try {
    IC_CHECK(false, "bad value " << 42);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad value 42"), std::string::npos);
  }
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  const double va = a.uniform(0, 1);
  EXPECT_EQ(va, b.uniform(0, 1));
  EXPECT_NE(va, c.uniform(0, 1));
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(1, 3));
  EXPECT_EQ(seen, (std::set<std::int64_t>{1, 2, 3}));
}

TEST(Rng, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(9);
  const auto sample = rng.sample_without_replacement(10, 7);
  EXPECT_EQ(sample.size(), 7u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 7u);
  for (std::size_t v : sample) EXPECT_LT(v, 10u);
}

TEST(Rng, SampleAllElements) {
  Rng rng(11);
  const auto sample = rng.sample_without_replacement(5, 5);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::multiset<int> a(v.begin(), v.end()), b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Timer, MeasuresElapsedTimeMonotonically) {
  Timer t;
  const double first = t.seconds();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(t.seconds(), first);
  t.restart();
  EXPECT_LT(t.seconds(), 1.0);
}

}  // namespace
}  // namespace ic
