// Monte-Carlo harness tests: paired traffic, rate arithmetic, and the
// qualitative system ordering (equipped safer than unequipped) on a small
// but statistically sufficient sample.  Rates come from the campaign API
// (core::ValidationCampaign).
#include "core/monte_carlo.h"

#include <gtest/gtest.h>

#include "core/validation_campaign.h"

#include <memory>

#include "acasx/offline_solver.h"
#include "baselines/tcas_like.h"
#include "sim/acasx_cas.h"

namespace cav::core {
namespace {

class MonteCarloTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    table_ = new std::shared_ptr<const acasx::LogicTable>(std::make_shared<const acasx::LogicTable>(
        acasx::solve_logic_table(acasx::AcasXuConfig::coarse())));
    pool_ = new ThreadPool();
  }
  static void TearDownTestSuite() {
    delete pool_;
    delete table_;
    pool_ = nullptr;
    table_ = nullptr;
  }
  static MonteCarloConfig small_config() {
    MonteCarloConfig config;
    config.encounters = 300;
    config.seed = 5;
    return config;
  }
  static std::shared_ptr<const acasx::LogicTable>* table_;
  static ThreadPool* pool_;
};

std::shared_ptr<const acasx::LogicTable>* MonteCarloTest::table_ = nullptr;
ThreadPool* MonteCarloTest::pool_ = nullptr;

// One whole campaign's rates: the call shape every test below shares.
SystemRates campaign_rates(const encounter::StatisticalEncounterModel& model,
                           const MonteCarloConfig& config, const std::string& system_name,
                           const sim::CasFactory& own_cas, const sim::CasFactory& intruder_cas,
                           ThreadPool* pool = nullptr) {
  return ValidationCampaign(model, config, system_name, own_cas, intruder_cas).run(pool).rates;
}

TEST_F(MonteCarloTest, UnequippedTrafficHasSubstantialNmacRate) {
  const encounter::StatisticalEncounterModel model;
  const auto rates = campaign_rates(model, small_config(), "none", {}, {}, pool_);
  EXPECT_EQ(rates.encounters, 300U);
  // The traffic mixes conflicts with safe passes; a material share of
  // encounters must still be true conflicts.
  EXPECT_GT(rates.nmac_rate(), 0.05);
  EXPECT_LT(rates.nmac_rate(), 0.60);
  EXPECT_EQ(rates.alerts, 0U) << "unequipped aircraft never alert";
}

TEST_F(MonteCarloTest, AcasReducesRiskSubstantially) {
  const encounter::StatisticalEncounterModel model;
  const auto config = small_config();
  const auto unequipped = campaign_rates(model, config, "none", {}, {}, pool_);
  const auto acas = campaign_rates(model, config, "acas",
                                   sim::AcasXuCas::factory(*table_),
                                   sim::AcasXuCas::factory(*table_), pool_);
  EXPECT_LT(acas.nmac_rate(), unequipped.nmac_rate());
  const double rr = risk_ratio(acas, unequipped);
  EXPECT_LT(rr, 0.5) << "equipped risk ratio must be well below 1";
  EXPECT_GT(acas.alert_rate(), 0.0);
}

TEST_F(MonteCarloTest, PairedTrafficAcrossSystems) {
  // Same seed -> same geometries: mean unequipped separation must be
  // bit-identical across two estimates with different system names.
  const encounter::StatisticalEncounterModel model;
  const auto a = campaign_rates(model, small_config(), "a", {}, {}, pool_);
  const auto b = campaign_rates(model, small_config(), "b", {}, {}, pool_);
  EXPECT_DOUBLE_EQ(a.mean_min_separation_m, b.mean_min_separation_m);
  EXPECT_EQ(a.nmacs, b.nmacs);
}

TEST_F(MonteCarloTest, SerialMatchesParallel) {
  const encounter::StatisticalEncounterModel model;
  MonteCarloConfig config = small_config();
  config.encounters = 60;
  const auto serial = campaign_rates(model, config, "s", {}, {});
  const auto parallel = campaign_rates(model, config, "p", {}, {}, pool_);
  EXPECT_EQ(serial.nmacs, parallel.nmacs);
  EXPECT_DOUBLE_EQ(serial.mean_min_separation_m, parallel.mean_min_separation_m);
}

TEST_F(MonteCarloTest, ResultsInvariantAcrossThreadCounts) {
  // The striped accumulators are combined in stripe order, so estimates are
  // bit-identical no matter how the work is scheduled — the lock-free
  // rewrite must not have changed results.
  const encounter::StatisticalEncounterModel model;
  MonteCarloConfig config = small_config();
  config.encounters = 90;
  const auto serial = campaign_rates(model, config, "serial", {}, {});
  for (const std::size_t threads : {1U, 2U, 5U}) {
    ThreadPool pool(threads);
    const auto parallel = campaign_rates(model, config, "parallel", {}, {}, &pool);
    EXPECT_EQ(parallel.nmacs, serial.nmacs) << threads << " threads";
    EXPECT_EQ(parallel.alerts, serial.alerts) << threads << " threads";
    EXPECT_DOUBLE_EQ(parallel.mean_min_separation_m, serial.mean_min_separation_m)
        << threads << " threads";
  }
}

TEST_F(MonteCarloTest, ConfidenceIntervalsBracketRates) {
  const encounter::StatisticalEncounterModel model;
  const auto rates = campaign_rates(model, small_config(), "none", {}, {}, pool_);
  const Interval ci = rates.nmac_ci();
  EXPECT_LE(ci.lo, rates.nmac_rate());
  EXPECT_GE(ci.hi, rates.nmac_rate());
  EXPECT_GT(ci.hi - ci.lo, 0.0);
}

TEST_F(MonteCarloTest, RiskRatioEdgeCases) {
  SystemRates zero;
  zero.system = "base";
  zero.encounters = 100;
  zero.nmacs = 0;
  SystemRates some;
  some.encounters = 100;
  some.nmacs = 10;
  // A zero-NMAC baseline used to yield a silent quiet-NaN; the ratio is
  // now the documented sentinel (and risk_ratio_wilson the uncertainty-
  // aware variant — tests/test_core_campaign.cpp).
  EXPECT_EQ(risk_ratio(some, zero), kRiskRatioUndefined);
  EXPECT_NEAR(risk_ratio(zero, some), 0.0, 1e-12);
}

TEST_F(MonteCarloTest, ZeroEncountersIsRejected) {
  // An empty stripe set used to reach parallel_for(0, ...); the config is
  // now rejected at the API boundary.
  const encounter::StatisticalEncounterModel model;
  MonteCarloConfig config = small_config();
  config.encounters = 0;
  EXPECT_THROW(campaign_rates(model, config, "none", {}, {}, pool_), ContractViolation);
  config.encounters = 10;
  config.intruders = 0;
  EXPECT_THROW(campaign_rates(model, config, "none", {}, {}, pool_), ContractViolation);
}

TEST_F(MonteCarloTest, MultiIntruderRatesInvariantAcrossThreadCounts) {
  // The multi-intruder path derives every geometry from (seed, index,
  // intruder) and every sim from (seed, index), so rates are bit-identical
  // for any thread count — the determinism contract of the pairwise path
  // extends to K > 1.
  const encounter::StatisticalEncounterModel model;
  MonteCarloConfig config = small_config();
  config.encounters = 40;
  config.intruders = 3;
  const auto serial = campaign_rates(model, config, "serial", {}, {});
  for (const std::size_t threads : {1U, 2U, 5U}) {
    ThreadPool pool(threads);
    const auto parallel = campaign_rates(model, config, "parallel", {}, {}, &pool);
    EXPECT_EQ(parallel.nmacs, serial.nmacs) << threads << " threads";
    EXPECT_EQ(parallel.alerts, serial.alerts) << threads << " threads";
    EXPECT_DOUBLE_EQ(parallel.mean_min_separation_m, serial.mean_min_separation_m)
        << threads << " threads";
  }
}

TEST_F(MonteCarloTest, MoreIntrudersMeanMoreOwnshipRisk) {
  // Density monotonicity on unequipped traffic: with three independent
  // threats per encounter the own-ship NMAC rate must exceed the
  // single-intruder rate (each intruder alone would produce roughly the
  // pairwise rate).
  const encounter::StatisticalEncounterModel model;
  MonteCarloConfig config = small_config();
  config.encounters = 200;
  const auto one = campaign_rates(model, config, "K1", {}, {}, pool_);
  config.intruders = 3;
  const auto three = campaign_rates(model, config, "K3", {}, {}, pool_);
  EXPECT_GT(three.nmac_rate(), one.nmac_rate());
}

TEST_F(MonteCarloTest, MultiIntruderEquippedBeatsUnequipped) {
  const encounter::StatisticalEncounterModel model;
  MonteCarloConfig config = small_config();
  config.encounters = 120;
  config.intruders = 3;
  const auto unequipped = campaign_rates(model, config, "none", {}, {}, pool_);
  const auto acas = campaign_rates(model, config, "acas", sim::AcasXuCas::factory(*table_),
                                   sim::AcasXuCas::factory(*table_), pool_);
  EXPECT_LT(acas.nmac_rate(), unequipped.nmac_rate());
  EXPECT_GT(acas.alert_rate(), 0.0);
  EXPECT_EQ(unequipped.alerts, 0U);
}

TEST_F(MonteCarloTest, FullEquipageFractionIsBitIdenticalToDefault) {
  // 1.0 takes the pre-fault path without drawing: identical to an
  // untouched config, bit for bit.
  const encounter::StatisticalEncounterModel model;
  MonteCarloConfig config = small_config();
  config.encounters = 60;
  config.intruders = 2;
  const auto plain = campaign_rates(model, config, "plain", {}, baselines::TcasLikeCas::factory(),
                                    pool_);
  config.equipage_fraction = 1.0;
  const auto full = campaign_rates(model, config, "full", {}, baselines::TcasLikeCas::factory(),
                                   pool_);
  EXPECT_EQ(plain.nmacs, full.nmacs);
  EXPECT_EQ(plain.alerts, full.alerts);
  EXPECT_DOUBLE_EQ(plain.mean_min_separation_m, full.mean_min_separation_m);
}

TEST_F(MonteCarloTest, ZeroEquipageFractionMatchesNullFactory) {
  // 0.0 must strip every intruder's CAS — bit-identical to passing no
  // intruder factory at all (and, like 1.0, it never draws).
  const encounter::StatisticalEncounterModel model;
  MonteCarloConfig config = small_config();
  config.encounters = 60;
  config.intruders = 2;
  const auto null_factory = campaign_rates(model, config, "null", {}, {}, pool_);
  config.equipage_fraction = 0.0;
  const auto zero = campaign_rates(model, config, "zero", {},
                                   baselines::TcasLikeCas::factory(), pool_);
  EXPECT_EQ(null_factory.nmacs, zero.nmacs);
  EXPECT_EQ(null_factory.alerts, zero.alerts);
  EXPECT_DOUBLE_EQ(null_factory.mean_min_separation_m, zero.mean_min_separation_m);
}

TEST_F(MonteCarloTest, PartialEquipageLandsBetweenTheBoundaries) {
  const encounter::StatisticalEncounterModel model;
  MonteCarloConfig config = small_config();
  config.encounters = 200;
  config.intruders = 2;
  config.sim.coordination.message_loss_prob = 0.0;
  const auto own = sim::AcasXuCas::factory(*table_);
  config.equipage_fraction = 0.0;
  const auto none = campaign_rates(model, config, "0%", own, sim::AcasXuCas::factory(*table_),
                                   pool_);
  config.equipage_fraction = 1.0;
  const auto full = campaign_rates(model, config, "100%", own, sim::AcasXuCas::factory(*table_),
                                   pool_);
  config.equipage_fraction = 0.5;
  const auto half = campaign_rates(model, config, "50%", own, sim::AcasXuCas::factory(*table_),
                                   pool_);
  // Unequipped intruders still fly their plans, so half equipage cannot be
  // safer than full or riskier than none on this paired traffic.
  EXPECT_GE(half.nmac_rate(), full.nmac_rate());
  EXPECT_LE(half.nmac_rate(), none.nmac_rate());
}

TEST_F(MonteCarloTest, DegradedRunInvariantAcrossThreadCounts) {
  // The full fault stack — bursty comms, a blackout, ADS-B dropout bursts
  // with a staleness horizon, mixed adversarial equipage — derives every
  // draw from (seed, encounter, agent), so the campaign rates stay
  // bit-identical for any thread count.
  const encounter::StatisticalEncounterModel model;
  MonteCarloConfig config = small_config();
  config.encounters = 40;
  config.intruders = 2;
  config.equipage_fraction = 0.5;
  config.unequipped_behavior = UnequippedBehavior::kManeuverAtCpa;
  config.sim.coordination.message_loss_prob = 0.2;
  config.sim.coordination.burst_enter_prob = 0.2;
  config.sim.coordination.staleness_ttl_cycles = 4;
  config.sim.fault.comms_blackouts.push_back({25.0, 40.0});
  config.sim.fault.adsb_dropout_burst_prob = 0.15;
  config.sim.fault.adsb_burst_continue_prob = 0.5;
  config.sim.fault.track_staleness_horizon_s = 8.0;
  const auto own = sim::AcasXuCas::factory(*table_);
  const auto serial = campaign_rates(model, config, "serial", own,
                                     sim::AcasXuCas::factory(*table_));
  for (const std::size_t threads : {2U, 5U}) {
    ThreadPool pool(threads);
    const auto parallel = campaign_rates(model, config, "parallel", own,
                                         sim::AcasXuCas::factory(*table_), &pool);
    EXPECT_EQ(parallel.nmacs, serial.nmacs) << threads << " threads";
    EXPECT_EQ(parallel.alerts, serial.alerts) << threads << " threads";
    EXPECT_DOUBLE_EQ(parallel.mean_min_separation_m, serial.mean_min_separation_m)
        << threads << " threads";
  }
}

TEST_F(MonteCarloTest, AdversarialUnequippedIntrudersRaiseRisk) {
  // Maneuver-at-CPA unequipped intruders chase the own-ship's altitude;
  // against an equipped own-ship they must be at least as dangerous as
  // passive unequipped ones on the same paired traffic.
  const encounter::StatisticalEncounterModel model;
  MonteCarloConfig config = small_config();
  config.encounters = 200;
  config.intruders = 2;
  config.equipage_fraction = 0.0;
  const auto own = sim::AcasXuCas::factory(*table_);
  const auto passive = campaign_rates(model, config, "passive", own, {}, pool_);
  config.unequipped_behavior = UnequippedBehavior::kManeuverAtCpa;
  const auto hostile = campaign_rates(model, config, "hostile", own, {}, pool_);
  EXPECT_GE(hostile.nmac_rate(), passive.nmac_rate());
  // The scripted maneuvers must not pollute the alert statistics.
  EXPECT_EQ(hostile.alerts == 0U, passive.alerts == 0U);
}

TEST_F(MonteCarloTest, PerAgentFaultProfilesOverrideFleetProfile) {
  // A crippling fleet-wide profile overridden per agent by none() must
  // reproduce the clean run bit for bit.
  const encounter::StatisticalEncounterModel model;
  MonteCarloConfig clean = small_config();
  clean.encounters = 60;
  MonteCarloConfig overridden = clean;
  overridden.sim.fault.adsb_dropout_burst_prob = 1.0;
  overridden.sim.fault.adsb_burst_continue_prob = 1.0;
  overridden.own_fault = sim::FaultProfile::none();
  overridden.intruder_fault = sim::FaultProfile::none();
  const auto a = campaign_rates(model, clean, "clean", {}, baselines::TcasLikeCas::factory(),
                                pool_);
  const auto b = campaign_rates(model, overridden, "override", {},
                                baselines::TcasLikeCas::factory(), pool_);
  EXPECT_EQ(a.nmacs, b.nmacs);
  EXPECT_EQ(a.alerts, b.alerts);
  EXPECT_DOUBLE_EQ(a.mean_min_separation_m, b.mean_min_separation_m);
}

TEST_F(MonteCarloTest, TcasLikeAlsoReducesRisk) {
  const encounter::StatisticalEncounterModel model;
  const auto config = small_config();
  const auto unequipped = campaign_rates(model, config, "none", {}, {}, pool_);
  const auto tcas = campaign_rates(model, config, "tcas", baselines::TcasLikeCas::factory(),
                                   baselines::TcasLikeCas::factory(), pool_);
  EXPECT_LT(tcas.nmac_rate(), unequipped.nmac_rate());
}

}  // namespace
}  // namespace cav::core
