#include "util/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace cav {
namespace {

TEST(RunningStats, EmptyState) {
  const RunningStats s;
  EXPECT_EQ(s.count(), 0U);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8U);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  // Population variance is 4.0; unbiased sample variance is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_NEAR(s.sem(), std::sqrt(32.0 / 7.0) / std::sqrt(8.0), 1e-12);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStats, NumericallyStableForLargeOffsets) {
  RunningStats s;
  // Welford should not lose the variance of small deviations on a large base.
  for (int i = 0; i < 1000; ++i) s.add(1e9 + (i % 2 == 0 ? 1.0 : -1.0));
  EXPECT_NEAR(s.variance(), 1.001, 0.01);
}

TEST(Wilson, ZeroTrials) {
  const Interval ci = wilson_interval(0, 0);
  EXPECT_EQ(ci.lo, 0.0);
  EXPECT_EQ(ci.hi, 1.0);
}

TEST(Wilson, ZeroSuccessesStaysAboveZero) {
  const Interval ci = wilson_interval(0, 100);
  EXPECT_EQ(ci.lo, 0.0);
  EXPECT_GT(ci.hi, 0.0);
  EXPECT_LT(ci.hi, 0.05);  // rule of three: ~3/n
}

TEST(Wilson, AllSuccesses) {
  const Interval ci = wilson_interval(100, 100);
  EXPECT_LT(ci.lo, 1.0);
  EXPECT_GT(ci.lo, 0.95);
  EXPECT_EQ(ci.hi, 1.0);
}

TEST(Wilson, CoversPointEstimate) {
  for (std::size_t k : {1U, 10U, 50U, 90U, 99U}) {
    const Interval ci = wilson_interval(k, 100);
    const double p = k / 100.0;
    EXPECT_LE(ci.lo, p);
    EXPECT_GE(ci.hi, p);
  }
}

TEST(Wilson, ExactCoverageIsNearNominal) {
  // Exact coverage: for a true rate p, the probability over k ~ Bin(n, p)
  // that the interval built from k contains p, summed from the binomial
  // pmf rather than sampled.  The Wilson interval's known behaviour is a
  // mean coverage close to the nominal 95% with dips (not collapses) at
  // particular p — the property the NMAC-rate confidence bounds rely on.
  for (const std::size_t n : {20U, 50U, 100U, 500U, 2000U}) {
    std::vector<Interval> ci(n + 1);
    for (std::size_t k = 0; k <= n; ++k) ci[k] = wilson_interval(k, n);
    const double nd = static_cast<double>(n);
    double sum = 0.0;
    double min = 1.0;
    for (int i = 1; i <= 199; ++i) {
      const double p = i / 200.0;
      double coverage = 0.0;
      for (std::size_t k = 0; k <= n; ++k) {
        if (ci[k].lo > p || ci[k].hi < p) continue;
        const double kd = static_cast<double>(k);
        coverage += std::exp(std::lgamma(nd + 1.0) - std::lgamma(kd + 1.0) -
                             std::lgamma(nd - kd + 1.0) + kd * std::log(p) +
                             (nd - kd) * std::log1p(-p));
      }
      sum += coverage;
      min = std::min(min, coverage);
    }
    const double mean = sum / 199.0;
    EXPECT_GE(mean, 0.945) << "n = " << n;
    EXPECT_LE(mean, 0.955) << "n = " << n;
    EXPECT_GE(min, 0.90) << "n = " << n;
  }
}

TEST(Wilson, ShrinksWithSampleSize) {
  const Interval small = wilson_interval(5, 50);
  const Interval large = wilson_interval(500, 5000);
  EXPECT_LT(large.hi - large.lo, small.hi - small.lo);
}

TEST(MeanOf, Basics) {
  EXPECT_TRUE(std::isnan(mean_of({})));
  EXPECT_DOUBLE_EQ(mean_of({1.0, 2.0, 3.0}), 2.0);
}

TEST(Percentile, KnownQuantiles) {
  const std::vector<double> v{4.0, 1.0, 3.0, 2.0, 5.0};  // unsorted on purpose
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.0);
  // Interpolated between order statistics.
  EXPECT_DOUBLE_EQ(percentile(v, 0.125), 1.5);
}

TEST(Percentile, Empty) {
  EXPECT_TRUE(std::isnan(percentile({}, 0.5)));
}

}  // namespace
}  // namespace cav
