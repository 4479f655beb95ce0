// The log-log slope fit behind bench_paper's growth bars. A broken fit
// would let every bar pass vacuously, so the fit is pinned on series with
// known exponents and on the degenerate series a stuck counter produces.

#include "bench/bench_util.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

namespace gkx::bench {
namespace {

std::vector<double> Sizes() { return {2, 4, 8, 16, 32, 64, 128}; }

std::vector<double> Power(const std::vector<double>& x, double c, double k) {
  std::vector<double> y;
  for (double v : x) y.push_back(c * std::pow(v, k));
  return y;
}

TEST(LogLogSlopeTest, ExactPowerLawsFitTheirExponent) {
  const std::vector<double> x = Sizes();
  const std::optional<double> linear = LogLogSlope(x, Power(x, 3.5, 1));
  ASSERT_TRUE(linear.has_value());
  EXPECT_NEAR(*linear, 1.0, 1e-9);
  const std::optional<double> quadratic = LogLogSlope(x, Power(x, 0.25, 2));
  ASSERT_TRUE(quadratic.has_value());
  EXPECT_NEAR(*quadratic, 2.0, 1e-9);
  // Unevenly spaced sizes fit the same exponent.
  const std::vector<double> uneven = {3, 5, 11, 100, 1000};
  EXPECT_NEAR(*LogLogSlope(uneven, Power(uneven, 7, 2)), 2.0, 1e-9);
}

TEST(LogLogSlopeTest, PowerLawLocalSlopesStayPutAndExponentialOnesRise) {
  const std::vector<double> x = Sizes();
  for (const std::optional<double>& slope : LocalSlopes(x, Power(x, 1, 2))) {
    ASSERT_TRUE(slope.has_value());
    EXPECT_NEAR(*slope, 2.0, 1e-9);
  }
  EXPECT_FALSE(SlopesRise(LocalSlopes(x, Power(x, 1, 2))));
  std::vector<double> exponential;
  for (double v : x) exponential.push_back(std::exp(v));
  EXPECT_TRUE(SlopesRise(LocalSlopes(x, exponential)));
}

TEST(LogLogSlopeTest, SaturatingSeriesFitsBelowLinear) {
  const std::vector<double> x = Sizes();
  std::vector<double> saturating;
  for (double v : x) saturating.push_back(100 * v / (v + 10));
  const std::optional<double> slope = LogLogSlope(x, saturating);
  ASSERT_TRUE(slope.has_value());
  EXPECT_GT(*slope, 0.0);
  EXPECT_LT(*slope, 1.0);
  EXPECT_FALSE(SlopeWithin(slope, 0.9, 1.1));
  EXPECT_TRUE(SlopeWithin(slope, -INFINITY, 1.3));
  // Its local slopes fall toward zero, the opposite of superpolynomial.
  EXPECT_FALSE(SlopesRise(LocalSlopes(x, saturating)));
}

TEST(LogLogSlopeTest, SeriesThatViolatesItsBarFails) {
  const std::vector<double> x = Sizes();
  // Linear work that a mutant scaled by x once more: slope 2, bar <= 1.25.
  EXPECT_TRUE(SlopeWithin(LogLogSlope(x, Power(x, 5, 1)), 0.5, 1.25));
  EXPECT_FALSE(SlopeWithin(LogLogSlope(x, Power(x, 5, 2)), 0.5, 1.25));
  EXPECT_FALSE(SlopeWithin(LogLogSlope(x, Power(x, 5, 2)), -INFINITY, 1.3));
}

TEST(LogLogSlopeTest, DegenerateSeriesNeverPassAGrowthBar) {
  const std::vector<double> x = Sizes();
  const std::vector<double> zeros(x.size(), 0.0);
  const std::vector<double> constant(x.size(), 76.0);
  std::vector<double> negative = Power(x, 1, 1);
  negative[3] = -negative[3];
  std::vector<double> with_zero = Power(x, 1, 1);
  with_zero.back() = 0;

  EXPECT_FALSE(LogLogSlope(x, zeros).has_value());
  EXPECT_FALSE(LogLogSlope(x, negative).has_value());
  EXPECT_FALSE(LogLogSlope(x, with_zero).has_value());
  EXPECT_FALSE(LogLogSlope(negative, Power(x, 1, 1)).has_value());
  const std::optional<double> flat = LogLogSlope(x, constant);
  ASSERT_TRUE(flat.has_value());
  EXPECT_NEAR(*flat, 0.0, 1e-12);

  for (const std::vector<double>& y : {zeros, constant, negative, with_zero}) {
    EXPECT_FALSE(SlopeWithin(LogLogSlope(x, y), 0.5, 1.25));
    EXPECT_FALSE(SlopeWithin(LogLogSlope(x, y), 0.9, 1.1));
    EXPECT_FALSE(SlopesRise(LocalSlopes(x, y)));
  }
  // A fit needs two distinct sizes.
  EXPECT_FALSE(LogLogSlope({8}, {8}).has_value());
  EXPECT_FALSE(LogLogSlope({8, 8, 8}, {1, 2, 3}).has_value());
  EXPECT_FALSE(LogLogSlope({1, 2, 3}, {1, 2}).has_value());
  EXPECT_FALSE(LogLogSlope(x, {NAN, 2, 3, 4, 5, 6, 7}).has_value());
}

}  // namespace
}  // namespace gkx::bench
