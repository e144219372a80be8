// Differential test of the sinks' number formatter against the printf
// reference it replaced: snprintf("%.9g") with "-0" normalized to "0".
// Every deterministic document depends on the two agreeing byte for byte.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>

#include "obs/metrics_io.hpp"

namespace opass::obs {
namespace {

/// The printf-based body format_double had before the append helpers.
std::string printf_reference(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  std::string s = buf;
  if (s == "-0") s = "0";
  return s;
}

std::string appended(double value) {
  std::string s = "x";  // appends after existing content, never overwrites
  append_double(s, value);
  return s.substr(1);
}

double from_bits(std::uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof d);
  return d;
}

void expect_matches_reference(double value) {
  const std::string want = printf_reference(value);
  EXPECT_EQ(appended(value), want);
  EXPECT_EQ(format_double(value), want);
}

TEST(NumberFormat, SpecialValuesMatchPrintf) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double specials[] = {
      0.0, -0.0, kInf, -kInf, nan, -nan,
      std::numeric_limits<double>::denorm_min(), -std::numeric_limits<double>::denorm_min(),
      DBL_MIN, DBL_MAX, -DBL_MAX, DBL_EPSILON,
      // Where %.9g switches between fixed and exponent form.
      1e-5, 9.99999999e-6, 1e-4, 0.0001, 1e8, 99999999.9, 1e9, 999999999.0,
      1e10, 1e20, 1e21, 1e22, 123456789.0, 1234567890.0,
      // Rounding at the ninth significant digit.
      999999999.5, 999999999.4, 9999999995.0, 0.1234567895, 1.0000000005, 2.5, 0.5,
      1.5e-320, 1.0 / 3.0, 2.0 / 3.0, 0.1, 0.2, 0.3, 100.0, -1.0, 64.0 * 1024 * 1024};
  for (double v : specials) expect_matches_reference(v);
  EXPECT_EQ(format_double(-0.0), "0");
  EXPECT_EQ(format_double(kInf), "inf");
  EXPECT_EQ(format_double(-kInf), "-inf");
  EXPECT_EQ(format_double(1e21), "1e+21");
  EXPECT_EQ(format_double(999999999.5), "1e+09");
}

TEST(NumberFormat, RandomBitPatternsMatchPrintf) {
  std::mt19937_64 gen(20150525);
  std::size_t mismatches = 0;
  constexpr std::size_t kSamples = 1'000'000;
  for (std::size_t i = 0; i < kSamples; ++i) {
    const double v = from_bits(gen());
    if (appended(v) != printf_reference(v) && ++mismatches <= 5)
      ADD_FAILURE() << "mismatch on " << printf_reference(v);
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(NumberFormat, RandomMagnitudesMatchPrintf) {
  // Bit patterns are dominated by huge and tiny exponents; sample the range
  // the sinks actually print (ticks, seconds, bytes, ratios) densely too.
  std::mt19937_64 gen(7);
  std::uniform_real_distribution<double> exponent(-12, 24);
  std::uniform_real_distribution<double> mantissa(-1, 1);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < 200'000; ++i) {
    const double v = mantissa(gen) * std::pow(10.0, exponent(gen));
    if (appended(v) != printf_reference(v)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(NumberFormat, IntegersAreDecimal) {
  const auto u64 = [](std::uint64_t v) {
    std::string s = "x";
    append_u64(s, v);
    return s.substr(1);
  };
  const auto i64 = [](std::int64_t v) {
    std::string s = "x";
    append_i64(s, v);
    return s.substr(1);
  };
  EXPECT_EQ(u64(0), "0");
  EXPECT_EQ(u64(7), "7");
  EXPECT_EQ(u64(UINT32_MAX), "4294967295");
  EXPECT_EQ(u64(UINT64_MAX), "18446744073709551615");
  EXPECT_EQ(i64(0), "0");
  EXPECT_EQ(i64(-1), "-1");
  EXPECT_EQ(i64(1000000000), "1000000000");
  EXPECT_EQ(i64(INT64_MAX), "9223372036854775807");
  EXPECT_EQ(i64(INT64_MIN), "-9223372036854775808");
  std::mt19937_64 gen(3);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t u = gen() >> (gen() % 64);
    EXPECT_EQ(u64(u), std::to_string(u));
    const auto s = static_cast<std::int64_t>(gen());
    EXPECT_EQ(i64(s), std::to_string(s));
  }
}

}  // namespace
}  // namespace opass::obs
