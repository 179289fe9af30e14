// Cross-module integration tests: the full pipeline (table -> simulation ->
// fitness -> search), the paper's headline tail-vs-head-on contrast, and
// failure-injection scenarios exercising the validation framework the way
// §VII uses it.
#include <gtest/gtest.h>

#include <memory>

#include "acasx/offline_solver.h"
#include "baselines/svo.h"
#include "baselines/tcas_like.h"
#include "core/analysis.h"
#include "core/fitness.h"
#include "core/scenario_search.h"
#include "sim/acasx_cas.h"

namespace cav {
namespace {

using encounter::MultiEncounterParams;

class IntegrationTest : public ::testing::Test {
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
  static core::FitnessConfig fitness_config(std::size_t runs = 50) {
    core::FitnessConfig config;
    config.runs_per_encounter = runs;
    return config;
  }
  static sim::CasFactory acas() { return sim::AcasXuCas::factory(*table_); }

  static std::shared_ptr<const acasx::LogicTable>* table_;
  static ThreadPool* pool_;
};

std::shared_ptr<const acasx::LogicTable>* IntegrationTest::table_ = nullptr;
ThreadPool* IntegrationTest::pool_ = nullptr;

TEST_F(IntegrationTest, PaperHeadlineContrast) {
  // §VII: tail approach ~80-90/100 collisions; head-on < 5/100.
  const core::EncounterEvaluator evaluator(fitness_config(100), acas(), acas());
  const auto tail_approach = MultiEncounterParams::from_pairwise(encounter::tail_approach());
  const auto head_on = MultiEncounterParams::from_pairwise(encounter::head_on());
  const auto tail = evaluator.evaluate(tail_approach, 1);
  const auto head = evaluator.evaluate(head_on, 2);
  EXPECT_GE(tail.nmac_count, 70U);
  EXPECT_LE(head.nmac_count, 5U);
}

TEST_F(IntegrationTest, TailApproachStaysLargelyUnalerted) {
  // The causal mechanism: the tau-based logic stays silent.
  const core::EncounterEvaluator evaluator(fitness_config(), acas(), acas());
  const auto tail =
      evaluator.evaluate(MultiEncounterParams::from_pairwise(encounter::tail_approach()), 1);
  EXPECT_LT(tail.alert_fraction_own, 0.3);
  const auto head =
      evaluator.evaluate(MultiEncounterParams::from_pairwise(encounter::head_on()), 2);
  EXPECT_GT(head.alert_fraction_own, 0.9);
}

TEST_F(IntegrationTest, ShortSearchSurfacesChallengingGeometry) {
  // A modest GA budget must find encounters with near-maximal fitness
  // (i.e. reliably colliding), reproducing the paper's qualitative result.
  core::ScenarioSearchConfig config;
  config.ga.population_size = 24;
  config.ga.generations = 5;
  config.ga.seed = 11;
  config.fitness.runs_per_encounter = 10;
  const auto result =
      core::search_challenging_scenarios(config, acas(), acas(), pool_);
  EXPECT_GT(result.best_fitness(), 5000.0)
      << "the search must find encounters that mostly end in collisions";
  EXPECT_GE(result.ga.generations.back().mean_fitness,
            result.ga.generations.front().mean_fitness);
}

TEST_F(IntegrationTest, CoordinationAblation) {
  // Disabling coordination must not make head-on encounters safer; with
  // both aircraft free to pick the same sense, resolution can degrade.
  core::FitnessConfig with_coord = fitness_config(100);
  core::FitnessConfig without_coord = fitness_config(100);
  without_coord.sim.coordination.enabled = false;

  const core::EncounterEvaluator coordinated(with_coord, acas(), acas());
  const core::EncounterEvaluator uncoordinated(without_coord, acas(), acas());
  const auto head_on = MultiEncounterParams::from_pairwise(encounter::head_on());
  const auto with_c = coordinated.evaluate(head_on, 3);
  const auto without_c = uncoordinated.evaluate(head_on, 3);
  EXPECT_LE(with_c.nmac_count, without_c.nmac_count + 2)
      << "coordination must not be harmful on the canonical geometry";
}

TEST_F(IntegrationTest, SensorNoiseDegradesTailCaseFurther) {
  // Failure injection: much larger velocity noise makes tau estimates in
  // slow-closure geometry even less reliable; NMAC count must not drop.
  core::FitnessConfig clean = fitness_config(60);
  clean.sim.adsb = sim::AdsbConfig::perfect();
  core::FitnessConfig noisy = fitness_config(60);
  noisy.sim.adsb.horizontal_vel_sigma_mps = 3.0;

  const core::EncounterEvaluator clean_eval(clean, acas(), acas());
  const core::EncounterEvaluator noisy_eval(noisy, acas(), acas());
  const auto tail_approach = MultiEncounterParams::from_pairwise(encounter::tail_approach());
  const auto tail_clean = clean_eval.evaluate(tail_approach, 4);
  const auto tail_noisy = noisy_eval.evaluate(tail_approach, 4);
  EXPECT_GE(tail_noisy.nmac_count + 5, tail_clean.nmac_count);
}

TEST_F(IntegrationTest, SearchWorksAgainstBaselines) {
  // The framework is system-agnostic (§V: "the proposed approach is quite
  // general"): plugging SVO or TCAS-like in must work end to end.
  core::ScenarioSearchConfig config;
  config.ga.population_size = 8;
  config.ga.generations = 2;
  config.fitness.runs_per_encounter = 5;

  const auto svo_result = core::search_challenging_scenarios(
      config, baselines::SvoCas::factory(), baselines::SvoCas::factory(), pool_);
  EXPECT_GT(svo_result.best_fitness(), 0.0);

  const auto tcas_result = core::search_challenging_scenarios(
      config, baselines::TcasLikeCas::factory(), baselines::TcasLikeCas::factory(), pool_);
  EXPECT_GT(tcas_result.best_fitness(), 0.0);
}

TEST_F(IntegrationTest, FoundScenariosClassifiable) {
  core::ScenarioSearchConfig config;
  config.ga.population_size = 16;
  config.ga.generations = 4;
  config.ga.seed = 13;
  config.fitness.runs_per_encounter = 10;
  const auto result = core::search_challenging_scenarios(config, acas(), acas(), pool_);
  ASSERT_FALSE(result.top.empty());
  // Every found scenario classifies into a named geometry bucket and
  // renders a human-readable description.
  for (const auto& found : result.top) {
    const auto c = core::classify(found.params);
    EXPECT_FALSE(std::string(core::encounter_class_name(c)).empty());
    EXPECT_FALSE(core::describe(found.params).empty());
  }
}

TEST_F(IntegrationTest, EndToEndDeterminism) {
  // The whole pipeline re-run with identical seeds is bit-identical even
  // with parallel evaluation.
  core::ScenarioSearchConfig config;
  config.ga.population_size = 12;
  config.ga.generations = 3;
  config.ga.seed = 21;
  config.fitness.runs_per_encounter = 8;
  const auto a = core::search_challenging_scenarios(config, acas(), acas(), pool_);
  const auto b = core::search_challenging_scenarios(config, acas(), acas(), pool_);
  EXPECT_EQ(a.ga.fitness_by_evaluation, b.ga.fitness_by_evaluation);
  ASSERT_EQ(a.top.size(), b.top.size());
  for (std::size_t i = 0; i < a.top.size(); ++i) {
    EXPECT_EQ(a.top[i].params.to_array(), b.top[i].params.to_array());
  }
}

TEST_F(IntegrationTest, MixedEquipage) {
  // Equipped own-ship against an unequipped intruder still reduces NMACs
  // relative to both unequipped (single-sided resolution).
  const core::EncounterEvaluator one_sided(fitness_config(100), acas(), {});
  const core::EncounterEvaluator unequipped(fitness_config(100), {}, {});
  const auto head_on = MultiEncounterParams::from_pairwise(encounter::head_on());
  const auto one = one_sided.evaluate(head_on, 5);
  const auto none = unequipped.evaluate(head_on, 5);
  EXPECT_LT(one.nmac_count, none.nmac_count);
  EXPECT_GE(none.nmac_count, 95U) << "unequipped head-on must almost always collide";
}

}  // namespace
}  // namespace cav
