// Exact outputs of the belief-aware and horizontal-channel variants of
// the table-backed ACAS Xu CAS, recorded while each variant still had its
// own logic and adapter classes (a belief-aware logic with its own CAS
// adapter, and a combined vertical + horizontal CAS).  They pin that the
// configured AcasXuLogic / AcasXuCas reproduce those classes bit for bit:
// (a) a K=1 validation campaign, (b) the converging ring K=4 under both
// cost-level threat policies (evaluate_costs, evaluate_joint_costs,
// commit_fused), and (c) the logic's last_costs() over a fixed track
// sweep.  Doubles are written as hex floats and compared with EXPECT_EQ.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "acasx/horizontal.h"
#include "acasx/joint_solver.h"
#include "acasx/offline_solver.h"
#include "core/validation_campaign.h"
#include "scenarios/scenario_library.h"
#include "sim/acasx_cas.h"
#include "sim/simulation.h"
#include "util/thread_pool.h"

namespace cav {
namespace {

acasx::JointConfig mini_joint_config() {
  acasx::JointConfig c;
  c.space.h_ft = UniformAxis(-800.0, 800.0, 17);
  c.space.dh_own_fps = UniformAxis(-2500.0 / 60.0, 2500.0 / 60.0, 3);
  c.space.dh_int_fps = UniformAxis(-2500.0 / 60.0, 2500.0 / 60.0, 3);
  c.space.tau_max = 16;
  c.secondary.h2_ft = UniformAxis(-600.0, 600.0, 7);
  return c;
}

class TableCasGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ThreadPool pool;
    vertical_ = new std::shared_ptr<const acasx::LogicTable>(
        std::make_shared<const acasx::LogicTable>(
            acasx::solve_logic_table(acasx::AcasXuConfig::coarse(), &pool)));
    horizontal_ = new std::shared_ptr<const acasx::HorizontalTable>(
        std::make_shared<const acasx::HorizontalTable>(
            acasx::solve_horizontal_table(acasx::HorizontalConfig::coarse(), &pool)));
    joint_ = new std::shared_ptr<const acasx::JointLogicTable>(
        std::make_shared<const acasx::JointLogicTable>(
            acasx::solve_joint_table(mini_joint_config())));
  }
  static void TearDownTestSuite() {
    delete vertical_;
    delete horizontal_;
    delete joint_;
    vertical_ = nullptr;
    horizontal_ = nullptr;
    joint_ = nullptr;
  }

  /// The recorded belief: 25 ft / 1.6 fps.
  static acasx::OnlineConfig belief_online() {
    acasx::OnlineConfig online;
    online.belief.h_sigma_ft = 25.0;
    online.belief.dh_int_sigma_fps = 1.6;
    return online;
  }
  /// The belief-aware system.
  static sim::CasFactory belief(bool with_joint) {
    return sim::AcasXuCas::factory(*vertical_, belief_online(), {}, {},
                                   with_joint ? *joint_ : nullptr);
  }
  /// Vertical logic plus the horizontal channel.
  static sim::CasFactory combined(bool with_joint) {
    return sim::AcasXuCas::factory(*vertical_, {}, {}, {}, with_joint ? *joint_ : nullptr,
                                   *horizontal_);
  }

  static std::shared_ptr<const acasx::LogicTable>* vertical_;
  static std::shared_ptr<const acasx::HorizontalTable>* horizontal_;
  static std::shared_ptr<const acasx::JointLogicTable>* joint_;
};

std::shared_ptr<const acasx::LogicTable>* TableCasGoldenTest::vertical_ = nullptr;
std::shared_ptr<const acasx::HorizontalTable>* TableCasGoldenTest::horizontal_ = nullptr;
std::shared_ptr<const acasx::JointLogicTable>* TableCasGoldenTest::joint_ = nullptr;

TEST_F(TableCasGoldenTest, ValidationCampaignK1) {
  struct Golden {
    std::size_t nmacs;
    std::size_t alerts;
    double mean_min_separation_m;
  };
  core::MonteCarloConfig config;
  config.encounters = 256;
  config.seed = 17;
  const encounter::StatisticalEncounterModel model;
  const auto check = [&](const sim::CasFactory& cas, const Golden& g) {
    const core::ValidationCampaign campaign(model, config, cas()->name(), cas, cas);
    const core::SystemRates r = campaign.run().rates;
    EXPECT_EQ(r.nmacs, g.nmacs) << r.system;
    EXPECT_EQ(r.alerts, g.alerts) << r.system;
    EXPECT_EQ(r.mean_min_separation_m, g.mean_min_separation_m) << r.system;
  };
  check(belief(false), {3U, 138U, 0x1.a569cddaf0c47p+7});
  check(combined(false), {0U, 221U, 0x1.3e2e76e84846fp+8});
}

TEST_F(TableCasGoldenTest, ConvergingRingK4CostLevelPolicies) {
  struct Golden {
    bool own_nmac;
    double own_min_separation_m;
    double min_distance_m;
    int alert_cycles;  ///< summed over all five aircraft
    int fused_cycles;
    int joint_cycles;
    int disagreements;
    int reversals;
  };
  // Per system: kCostFused seeds 1..3, then kJointTable seeds 1..3.
  const Golden belief_goldens[] = {
      {true, 0x1.8a58fe3b2b12cp+3, 0x1.8a58fe3b2b12cp+3, 15, 85, 0, 11, 0},
      {true, 0x1.70981e0b02b57p+3, 0x1.70981e0b02b57p+3, 16, 85, 0, 11, 1},
      {true, 0x1.4b7a86b84df0ap+3, 0x1.4b7a86b84df0ap+3, 36, 85, 0, 3, 0},
      {true, 0x1.0b6e0f9594ea8p+3, 0x1.0b6e0f9594ea8p+3, 24, 39, 46, 9, 0},
      {false, 0x1.e0a4a16207ed3p+5, 0x1.c1c4533c5670cp+4, 19, 39, 46, 4, 0},
      {false, 0x1.2587c290b7ae6p+6, 0x1.5147a1c25d36ep+4, 28, 39, 46, 4, 0},
  };
  const Golden combined_goldens[] = {
      {false, 0x1.5cf9ec148f6fap+7, 0x1.680e2cc886c0ap+5, 46, 85, 0, 7, 0},
      {false, 0x1.47519a0127a31p+7, 0x1.47519a0127a31p+7, 53, 85, 0, 10, 0},
      {false, 0x1.00286fbb3992dp+8, 0x1.0301e6384e02ap+6, 36, 85, 0, 1, 0},
      {true, 0x1.2a25d4e1ff372p+7, 0x1.12d491cf9a067p+6, 45, 38, 47, 16, 0},
      {false, 0x1.597a31891c459p+7, 0x1.597a31891c459p+7, 58, 45, 40, 12, 1},
      {false, 0x1.02b0d0dc7e789p+8, 0x1.ce504f1ce6389p+3, 41, 41, 44, 3, 1},
  };
  const scenarios::Scenario ring = scenarios::converging_ring(4);
  const auto check = [&](const sim::CasFactory& cas, const Golden* goldens) {
    std::size_t i = 0;
    for (const sim::ThreatPolicy policy :
         {sim::ThreatPolicy::kCostFused, sim::ThreatPolicy::kJointTable}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed, ++i) {
        sim::SimConfig config;
        config.threat_policy = policy;
        const sim::SimResult r = scenarios::run_scenario(ring, config, cas, cas, seed);
        int alert_cycles = 0;
        for (const auto& a : r.agents) alert_cycles += a.alert_cycles;
        const Golden& g = goldens[i];
        const std::string where = cas()->name() + " row " + std::to_string(i);
        EXPECT_EQ(r.own_nmac(), g.own_nmac) << where;
        EXPECT_EQ(r.own_min_separation_m(), g.own_min_separation_m) << where;
        EXPECT_EQ(r.proximity.min_distance_m, g.min_distance_m) << where;
        EXPECT_EQ(alert_cycles, g.alert_cycles) << where;
        EXPECT_EQ(r.own().resolver.fused_cycles, g.fused_cycles) << where;
        EXPECT_EQ(r.own().resolver.joint_cycles, g.joint_cycles) << where;
        EXPECT_EQ(r.own().resolver.disagreements, g.disagreements) << where;
        EXPECT_EQ(r.own().reversals, g.reversals) << where;
      }
    }
  };
  check(belief(true), belief_goldens);
  check(combined(true), combined_goldens);
}

TEST_F(TableCasGoldenTest, LastCostsOverTrackSweep) {
  using acasx::Advisory;
  struct Golden {
    Advisory belief_advisory;
    Advisory point_advisory;
    std::array<double, acasx::kNumAdvisories> belief_costs;
    std::array<double, acasx::kNumAdvisories> point_costs;
  };
  const Golden goldens[] = {
      {Advisory::kCoc, Advisory::kCoc,
       {0x1.553d6fce549a3p+5, 0x1.4b008fb540e17p+8, 0x1.08e8265b4aff6p+7,
        0x1.859a31ba9913ap+8, 0x1.1121aa7989906p+7},
       {0x1.6a0418f203b1bp+5, 0x1.4f300c9a376a4p+8, 0x1.0d1ad0d1d6ba3p+7,
        0x1.8a464a1b76798p+8, 0x1.1514fa177964fp+7}},
      {Advisory::kCoc, Advisory::kCoc,
       {0x1.a1285a19c2597p+8, 0x1.0b0476ceb7c8p+9, 0x1.248bb55f434a9p+9,
        0x1.0b839d4609a18p+9, 0x1.2bd78b0bc231ap+9},
       {0x1.a9db274cef484p+8, 0x1.0d11448fe2a02p+9, 0x1.277d280d70359p+9,
        0x1.0cc318b22597p+9, 0x1.2e3da0e7d4027p+9}},
      {Advisory::kCoc, Advisory::kCoc,
       {0x1.6f72287ba99f1p+9, 0x1.f5f9d334e6ea4p+9, 0x1.87d924cab755bp+9,
        0x1.034478a461c86p+10, 0x1.7c7dc15b27124p+9},
       {0x1.7d6611078661ap+9, 0x1.00db17c6f4c32p+10, 0x1.8e6c327b207ap+9,
        0x1.08bbad6a162f8p+10, 0x1.80b0f61c1f7a8p+9}},
      {Advisory::kCoc, Advisory::kCoc,
       {0x1.24dfe93516952p+10, 0x1.35c27c56ec293p+10, 0x1.7dfe6671dc9f1p+10,
        0x1.29935b1d143a4p+10, 0x1.89b720ae011b8p+10},
       {0x1.3050f0b52bc5ep+10, 0x1.3ec5841caf5f2p+10, 0x1.8c41dcc581027p+10,
        0x1.30a9ae1a8e0b5p+10, 0x1.9837fc85f6659p+10}},
      {Advisory::kDescend2500, Advisory::kDescend2500,
       {0x1.3c2695d53c77p+9, 0x1.6caeb9ff41d82p+10, 0x1.ecca62d902e2ap+8,
        0x1.a006d6e6d8c57p+10, 0x1.b693efd81a17p+8},
       {0x1.1a0b0b545ff88p+9, 0x1.6284f13f9aa99p+10, 0x1.a088801d33f98p+8,
        0x1.9880233aa5c0dp+10, 0x1.6b36a4d37875p+8}},
      {Advisory::kDescend2500, Advisory::kDescend2500,
       {0x1.2003bc016a4e5p+12, 0x1.4931e7d82c916p+12, 0x1.f5485df645b7ap+11,
        0x1.4cbaa355faf13p+12, 0x1.d83bffd0e9528p+11},
       {0x1.2ffacad94c31ep+12, 0x1.597c435d5e942p+12, 0x1.0328b5edb26fp+12,
        0x1.5ce13e9b9da1ap+12, 0x1.e44a2d03a0db4p+11}},
      {Advisory::kClimb2500, Advisory::kClimb2500,
       {0x1.cbb9bbef80bfdp+12, 0x1.c85869cce8131p+12, 0x1.d3f89add27f7fp+12,
        0x1.bd65626c5728dp+12, 0x1.d1ce458a378c2p+12},
       {0x1.cbb9bbef80bfep+12, 0x1.c85869cce8132p+12, 0x1.d3f89add27f7fp+12,
        0x1.bd65626c5728ep+12, 0x1.d1ce458a378c4p+12}},
      {Advisory::kDescend2500, Advisory::kDescend2500,
       {0x1.17eb2c3e888e7p+13, 0x1.280ed74729ac5p+13, 0x1.0ec1e9f2827ddp+13,
        0x1.2b52801d918bdp+13, 0x1.07d12f2ac4aafp+13},
       {0x1.21cea241b9b7p+13, 0x1.324157c88ee2bp+13, 0x1.16bc53421526bp+13,
        0x1.3571454c12cc6p+13, 0x1.0f135b3d967b7p+13}},
  };
  acasx::AcasXuLogic belief_logic(*vertical_, belief_online());
  acasx::AcasXuLogic point_logic(*vertical_);
  // One logic instance per variant across the sweep, so the advisory
  // memory carries from step to step.
  const acasx::AircraftTrack own{{0, 0, 1000}, {40, 0, 0}};
  const double dz[] = {40.0, 10.0, -5.0, -30.0, 60.0, 0.0, -15.0, 25.0};
  std::size_t i = 0;
  for (double x = 1400.0; x > 250.0; x -= 150.0, ++i) {
    const acasx::AircraftTrack intruder{{x, 0, 1000 + dz[i]},
                                        {-40, 0, dz[i] > 0 ? -1.5 : 2.0}};
    EXPECT_EQ(belief_logic.decide(own, intruder), goldens[i].belief_advisory) << "step " << i;
    EXPECT_EQ(point_logic.decide(own, intruder), goldens[i].point_advisory) << "step " << i;
    for (std::size_t a = 0; a < acasx::kNumAdvisories; ++a) {
      EXPECT_EQ(belief_logic.last_costs()[a], goldens[i].belief_costs[a])
          << "step " << i << " advisory " << a;
      EXPECT_EQ(point_logic.last_costs()[a], goldens[i].point_costs[a])
          << "step " << i << " advisory " << a;
    }
  }
  EXPECT_EQ(i, std::size(goldens));
}

}  // namespace
}  // namespace cav
