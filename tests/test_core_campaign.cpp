// ValidationCampaign work-unit surface: stripe tiling, the N-shard merge
// bit-identity contract (the property sharded execution stands on), run()
// as a single whole-range stripe, and the risk-ratio sentinel/Wilson API.
#include "core/validation_campaign.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "baselines/tcas_like.h"
#include "core/monte_carlo.h"
#include "encounter/encounter.h"

namespace cav::core {
namespace {

MonteCarloConfig small_config(std::size_t encounters = 90) {
  MonteCarloConfig config;
  config.encounters = encounters;
  config.seed = 17;
  return config;
}

void expect_rates_identical(const SystemRates& a, const SystemRates& b) {
  EXPECT_EQ(a.encounters, b.encounters);
  EXPECT_EQ(a.nmacs, b.nmacs);
  EXPECT_EQ(a.alerts, b.alerts);
  // Bit-identity, not tolerance: the canonical-cell accumulation fixes
  // the FP grouping, so the doubles must match exactly.
  EXPECT_EQ(a.mean_min_separation_m, b.mean_min_separation_m);
}

TEST(ValidationCampaignTest, RunIsASingleWholeRangeStripe) {
  const encounter::StatisticalEncounterModel model;
  const auto config = small_config();
  const ValidationCampaign campaign(model, config, "tcas", baselines::TcasLikeCas::factory(),
                                    baselines::TcasLikeCas::factory());
  const EncounterStripe whole{config.seed, 0, config.encounters};
  const SystemRates merged = campaign.merge({campaign.run_stripe(whole)});

  const CampaignResult result = campaign.run();
  expect_rates_identical(merged, result.rates);
  EXPECT_EQ(result.work_units, 1u);
  EXPECT_FALSE(result.degraded);
}

TEST(ValidationCampaignTest, StripesTileTheEncounterRange) {
  const encounter::StatisticalEncounterModel model;
  const ValidationCampaign campaign(model, small_config(), "none", {}, {});
  for (const std::size_t shards : {1u, 2u, 3u, 7u, 64u, 1000u}) {
    const auto stripes = campaign.make_stripes(shards);
    ASSERT_FALSE(stripes.empty());
    EXPECT_LE(stripes.size(), shards);
    EXPECT_EQ(stripes.front().begin, 0u);
    EXPECT_EQ(stripes.back().end, campaign.config().encounters);
    for (std::size_t i = 0; i + 1 < stripes.size(); ++i) {
      EXPECT_EQ(stripes[i].end, stripes[i + 1].begin) << "gap or overlap at stripe " << i;
      EXPECT_GT(stripes[i].size(), 0u);
    }
    for (const auto& s : stripes) EXPECT_EQ(s.seed, campaign.config().seed);
  }
}

TEST(ValidationCampaignTest, ShardedMergeIsBitIdenticalForRaggedStripeCounts) {
  // 90 encounters -> 64 canonical cells, which 2, 3, and 7 shards cut
  // raggedly (cells per stripe differ).  Whatever the striping — and
  // whatever order the results arrive in — the merge must equal the
  // single-stripe run bit for bit.
  const encounter::StatisticalEncounterModel model;
  const auto config = small_config();
  const ValidationCampaign campaign(model, config, "tcas", baselines::TcasLikeCas::factory(),
                                    baselines::TcasLikeCas::factory());
  const SystemRates whole = campaign.run().rates;

  for (const std::size_t shards : {2u, 3u, 7u}) {
    const auto stripes = campaign.make_stripes(shards);
    std::vector<StripeResult> results;
    for (const auto& stripe : stripes) results.push_back(campaign.run_stripe(stripe));
    // Completion order must not matter: merge sorts by first_cell.
    std::reverse(results.begin(), results.end());
    expect_rates_identical(campaign.merge(results), whole);
  }
}

TEST(ValidationCampaignTest, ThreadPoolDoesNotPerturbStripeResults) {
  const encounter::StatisticalEncounterModel model;
  const ValidationCampaign campaign(model, small_config(60), "none", {}, {});
  const auto stripes = campaign.make_stripes(3);
  ThreadPool pool(3);
  for (const auto& stripe : stripes) {
    const StripeResult serial = campaign.run_stripe(stripe);
    const StripeResult pooled = campaign.run_stripe(stripe, &pool);
    ASSERT_EQ(serial.cells.size(), pooled.cells.size());
    EXPECT_EQ(serial.first_cell, pooled.first_cell);
    for (std::size_t c = 0; c < serial.cells.size(); ++c) {
      EXPECT_EQ(serial.cells[c].nmacs, pooled.cells[c].nmacs);
      EXPECT_EQ(serial.cells[c].alerts, pooled.cells[c].alerts);
      EXPECT_EQ(serial.cells[c].sep_sum, pooled.cells[c].sep_sum);
    }
  }
}

TEST(ValidationCampaignTest, StripeSeedOverridesCampaignSeed) {
  // A driver can re-seed work units without rebuilding the campaign: the
  // stripe's seed governs every draw.
  const encounter::StatisticalEncounterModel model;
  const ValidationCampaign campaign(model, small_config(40), "none", {}, {});
  auto stripes = campaign.make_stripes(1);
  ASSERT_EQ(stripes.size(), 1u);
  const StripeResult original = campaign.run_stripe(stripes[0]);
  stripes[0].seed = 4242;
  const StripeResult reseeded = campaign.run_stripe(stripes[0]);
  double sep_a = 0.0, sep_b = 0.0;
  for (const auto& c : original.cells) sep_a += c.sep_sum;
  for (const auto& c : reseeded.cells) sep_b += c.sep_sum;
  EXPECT_NE(sep_a, sep_b) << "different seed must sample different traffic";
}

TEST(RiskRatioTest, WilsonVariantOnDefinedBaseline) {
  SystemRates base;
  base.encounters = 1000;
  base.nmacs = 100;
  SystemRates sys;
  sys.encounters = 1000;
  sys.nmacs = 10;

  const RiskRatioEstimate est = risk_ratio_wilson(sys, base);
  EXPECT_TRUE(est.defined);
  EXPECT_NEAR(est.ratio, 0.1, 1e-12);
  EXPECT_GT(est.lo, 0.0);
  EXPECT_LT(est.lo, est.ratio);
  EXPECT_GT(est.hi, est.ratio);
  EXPECT_TRUE(std::isfinite(est.hi));
}

TEST(RiskRatioTest, ZeroNmacBaselineYieldsSentinelNotNan) {
  SystemRates base;
  base.encounters = 500;
  base.nmacs = 0;
  SystemRates sys;
  sys.encounters = 500;
  sys.nmacs = 5;

  const RiskRatioEstimate est = risk_ratio_wilson(sys, base);
  EXPECT_FALSE(std::isnan(est.ratio)) << "the historical quiet-NaN must be gone";
  EXPECT_FALSE(est.defined);
  EXPECT_EQ(est.ratio, kRiskRatioUndefined);
  // The honest interval: bounded below (baseline's Wilson hi is > 0 on
  // finite data), unbounded above.
  EXPECT_GT(est.lo, 0.0);
  EXPECT_TRUE(std::isinf(est.hi));
}

TEST(RiskRatioTest, ZeroSystemNmacsIsAHardZeroWhenDefined) {
  SystemRates base;
  base.encounters = 200;
  base.nmacs = 20;
  SystemRates sys;
  sys.encounters = 200;
  sys.nmacs = 0;
  const RiskRatioEstimate est = risk_ratio_wilson(sys, base);
  EXPECT_TRUE(est.defined);
  EXPECT_EQ(est.ratio, 0.0);
  EXPECT_GE(est.lo, 0.0);
  EXPECT_GT(est.hi, 0.0) << "Wilson hi of 0/200 is positive — no false certainty";
}

TEST(RiskRatioTest, WilsonIntervalCoverageIsConservative) {
  // Exact coverage of risk_ratio_wilson's interval: for true rates
  // (p_base, ratio * p_base) at equal campaign sizes n, the probability
  // over independent k_sys ~ Bin(n, ratio * p_base) and k_base ~ Bin(n,
  // p_base) that [lo, hi] contains the true ratio, summed from the two
  // binomial pmfs rather than sampled.  Counts whose pmf is below 1e-16
  // are skipped (at most (n + 1) * 1e-16 of mass per axis).  Dividing the
  // two 95% Wilson bounds crosswise is conservative: every grid point
  // covers at least the nominal 95%.
  const auto pmf = [](std::size_t n, double p) {
    const double nd = static_cast<double>(n);
    std::vector<double> out(n + 1);
    for (std::size_t k = 0; k <= n; ++k) {
      const double kd = static_cast<double>(k);
      out[k] = std::exp(std::lgamma(nd + 1.0) - std::lgamma(kd + 1.0) -
                        std::lgamma(nd - kd + 1.0) + kd * std::log(p) +
                        (nd - kd) * std::log1p(-p));
    }
    return out;
  };
  for (const std::size_t n : {100U, 500U, 2000U}) {
    for (const double p_base : {0.02, 0.05, 0.1, 0.3}) {
      const std::vector<double> base_pmf = pmf(n, p_base);
      for (const double ratio : {0.05, 0.1, 0.3, 0.5, 1.0}) {
        const std::vector<double> sys_pmf = pmf(n, ratio * p_base);
        SystemRates sys;
        sys.encounters = n;
        SystemRates base;
        base.encounters = n;
        double coverage = 0.0;
        for (std::size_t ks = 0; ks <= n; ++ks) {
          if (sys_pmf[ks] < 1e-16) continue;
          sys.nmacs = ks;
          for (std::size_t kb = 0; kb <= n; ++kb) {
            if (base_pmf[kb] < 1e-16) continue;
            base.nmacs = kb;
            const RiskRatioEstimate est = risk_ratio_wilson(sys, base);
            if (est.lo <= ratio && ratio <= est.hi) coverage += sys_pmf[ks] * base_pmf[kb];
          }
        }
        EXPECT_GE(coverage, 0.95) << "n = " << n << ", p_base = " << p_base
                                  << ", ratio = " << ratio;
      }
    }
  }
}

}  // namespace
}  // namespace cav::core
