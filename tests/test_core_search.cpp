// Scenario-search integration tests with a scaled-down budget: the GA glue
// (genome <-> encounter params), telemetry, top-list deduplication, and the
// improvement property on the real simulation fitness.
#include "core/scenario_search.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "acasx/offline_solver.h"
#include "core/analysis.h"
#include "sim/acasx_cas.h"

namespace cav::core {
namespace {

class SearchTest : public ::testing::Test {
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

  static ScenarioSearchConfig small_search(std::uint64_t seed = 1) {
    ScenarioSearchConfig config;
    config.ga.population_size = 16;
    config.ga.generations = 4;
    config.ga.seed = seed;
    config.fitness.runs_per_encounter = 10;
    config.keep_top = 5;
    return config;
  }
  static sim::CasFactory acas() { return sim::AcasXuCas::factory(*table_); }

  static std::shared_ptr<const acasx::LogicTable>* table_;
  static ThreadPool* pool_;
};

std::shared_ptr<const acasx::LogicTable>* SearchTest::table_ = nullptr;
ThreadPool* SearchTest::pool_ = nullptr;

TEST(GenomeSpecMapping, BoundsMatchRanges) {
  const encounter::ParamRanges ranges;
  const ga::GenomeSpec spec = make_genome_spec(ranges, 1);
  ASSERT_EQ(spec.size(), encounter::kNumParams);
  for (std::size_t i = 0; i < spec.size(); ++i) {
    EXPECT_DOUBLE_EQ(spec.bound(i).lo, ranges.lo[i]);
    EXPECT_DOUBLE_EQ(spec.bound(i).hi, ranges.hi[i]);
  }
}

TEST_F(SearchTest, FindsChallengingScenarios) {
  const auto result = search_challenging_scenarios(small_search(), acas(), acas(), pool_);
  ASSERT_FALSE(result.top.empty());
  // With tail-approach blind spots in range, a short search already finds
  // high-fitness encounters.
  EXPECT_GT(result.best_fitness(), 0.0);
}

TEST_F(SearchTest, BestIsAtLeastInitialGenerationMax) {
  const auto result = search_challenging_scenarios(small_search(), acas(), acas(), pool_);
  EXPECT_GE(result.ga.best.fitness, result.ga.generations.front().max_fitness - 1e-9);
}

TEST_F(SearchTest, TelemetryCoversBudget) {
  const auto config = small_search();
  const auto result = search_challenging_scenarios(config, acas(), acas(), pool_);
  EXPECT_EQ(result.ga.generations.size(), config.ga.generations);
  EXPECT_EQ(result.ga.fitness_by_evaluation.size(), result.ga.total_evaluations);
  EXPECT_GT(result.wall_seconds, 0.0);
}

TEST_F(SearchTest, TopListIsSortedAndDeduplicated) {
  const auto config = small_search();
  const auto result = search_challenging_scenarios(config, acas(), acas(), pool_);
  ASSERT_LE(result.top.size(), config.keep_top);
  for (std::size_t i = 1; i < result.top.size(); ++i) {
    EXPECT_GE(result.top[i - 1].fitness, result.top[i].fitness);
  }
  // Deduplication: no two entries nearly identical in every parameter.
  for (std::size_t i = 0; i < result.top.size(); ++i) {
    for (std::size_t j = i + 1; j < result.top.size(); ++j) {
      const auto a = result.top[i].params.to_array();
      const auto b = result.top[j].params.to_array();
      bool all_close = true;
      for (std::size_t k = 0; k < a.size(); ++k) {
        const double scale = config.ranges.hi[k] - config.ranges.lo[k];
        if (std::abs(a[k] - b[k]) > 0.05 * scale) all_close = false;
      }
      EXPECT_FALSE(all_close) << "entries " << i << " and " << j << " are duplicates";
    }
  }
}

TEST_F(SearchTest, TopScenariosHaveReEvaluatedDetail) {
  const auto result = search_challenging_scenarios(small_search(), acas(), acas(), pool_);
  for (const auto& found : result.top) {
    EXPECT_EQ(found.detail.runs, 10U);
    EXPECT_GE(found.detail.fitness, 0.0);
  }
}

TEST_F(SearchTest, DeterministicPerSeed) {
  const auto a = search_challenging_scenarios(small_search(3), acas(), acas(), pool_);
  const auto b = search_challenging_scenarios(small_search(3), acas(), acas(), pool_);
  EXPECT_EQ(a.ga.fitness_by_evaluation, b.ga.fitness_by_evaluation);
  EXPECT_EQ(a.ga.best.genome, b.ga.best.genome);
}

TEST_F(SearchTest, PairwiseSearchGolden) {
  // A 32-evaluation pairwise search (12 x 3 generations, 2 elites, 6 runs
  // per encounter), recorded bit-exactly when pairwise encounters still
  // ran on a dedicated two-aircraft evaluator: the search on the K = 1
  // case of the N-aircraft evaluator must reproduce it.
  ScenarioSearchConfig config;
  config.ga.population_size = 12;
  config.ga.generations = 3;
  config.ga.seed = 5;
  config.fitness.runs_per_encounter = 6;
  const std::vector<double> fitness_by_evaluation = {
      116.89201199922672, 126.5379191277716,  10000,              133.04158305084832,
      80.790389655673252, 123.48913987756094, 10000,              10000,
      116.13603938588682, 140.68163220531298, 122.09343400788339, 116.6356584083038,
      108.13341832098148, 119.1477803345736,  108.75323902341428, 3430.5084140364456,
      115.52797367532908, 121.09739797784914, 108.83680725436479, 10000,
      6686.6323710579572, 125.6731596350816,  124.70851427058237, 112.83693211107986,
      87.260067355878547, 134.79034666270107, 6691.8848610486311, 10000,
      126.65376932368615, 105.4103238826945,  136.80680081182325, 121.45460447965623,
  };
  const ga::Genome best_genome = {
      28.027815921934465, 1.6107549912384931,  51.054288985010402,
      41.43141315541164,  2.0591172618290177,  50.314981130932196,
      23.916739607103473, 0.39991061377061099, -2.4318858570987292,
  };
  const auto result = search_challenging_scenarios(config, acas(), acas(), pool_);
  EXPECT_EQ(result.ga.fitness_by_evaluation, fitness_by_evaluation);
  EXPECT_EQ(result.ga.best.genome, best_genome);
  EXPECT_EQ(result.ga.best.fitness, 10000.0);
}

TEST_F(SearchTest, RandomSearchUsesSameBudget) {
  const auto config = small_search();
  const auto result = random_search_scenarios(config, acas(), acas(), pool_);
  EXPECT_EQ(result.ga.total_evaluations, config.ga.population_size * config.ga.generations);
  EXPECT_LE(result.top.size(), config.keep_top);
}

TEST_F(SearchTest, GenerationCallbackStreamsProgress) {
  std::size_t calls = 0;
  search_challenging_scenarios(small_search(), acas(), acas(), pool_,
                               [&calls](const ga::GenerationStats&) { ++calls; });
  EXPECT_EQ(calls, small_search().ga.generations);
}

TEST_F(SearchTest, AllEliteConfigIsRejectedUpFront) {
  // population_size == elites makes the per-generation evaluation count
  // zero (ga_budget lies, generation_of divides by zero); every search
  // entry point must reject it as a contract violation, not crash.
  auto config = small_search();
  config.ga.elites = config.ga.population_size;
  EXPECT_THROW(search_challenging_scenarios(config, acas(), acas(), pool_), ContractViolation);
  EXPECT_THROW(random_search_scenarios(config, acas(), acas(), pool_), ContractViolation);

  MultiScenarioSearchConfig multi;
  multi.ga = config.ga;
  EXPECT_THROW(search_degraded_multi_scenarios(multi, DegradedGeneRanges{}, acas(), acas(), pool_),
               ContractViolation);
}

TEST(MultiGenomeSpecMapping, TwoOwnGenesPlusSevenPerIntruder) {
  const encounter::ParamRanges ranges;
  const ga::GenomeSpec spec = make_genome_spec(ranges, 3);
  ASSERT_EQ(spec.size(), encounter::kOwnParams + 3 * encounter::kIntruderParams);
  // Own genes use the pairwise indices 0..1, every intruder block 2..8.
  EXPECT_DOUBLE_EQ(spec.bound(0).lo, ranges.lo[0]);
  EXPECT_DOUBLE_EQ(spec.bound(1).hi, ranges.hi[1]);
  for (std::size_t k = 0; k < 3; ++k) {
    for (std::size_t i = encounter::kOwnParams; i < encounter::kNumParams; ++i) {
      const std::size_t gene =
          encounter::kOwnParams + k * encounter::kIntruderParams + (i - encounter::kOwnParams);
      EXPECT_DOUBLE_EQ(spec.bound(gene).lo, ranges.lo[i]) << gene;
      EXPECT_DOUBLE_EQ(spec.bound(gene).hi, ranges.hi[i]) << gene;
    }
  }
}

TEST(DegradedGenomeSpec, AppendsFaultGenesAfterGeometry) {
  const encounter::ParamRanges ranges;
  const DegradedGeneRanges fault_ranges;
  const ga::GenomeSpec spec = make_degraded_genome_spec(ranges, 2, fault_ranges);
  const std::size_t geometry =
      encounter::kOwnParams + 2 * encounter::kIntruderParams;
  ASSERT_EQ(spec.size(), geometry + DegradedConditions::kNumGenes);
  // Geometry genes match the plain multi spec.
  const ga::GenomeSpec multi = make_genome_spec(ranges, 2);
  for (std::size_t i = 0; i < geometry; ++i) {
    EXPECT_DOUBLE_EQ(spec.bound(i).lo, multi.bound(i).lo) << i;
    EXPECT_DOUBLE_EQ(spec.bound(i).hi, multi.bound(i).hi) << i;
  }
  // Fault genes: lows all 0 (the benign corner stays in the space), highs
  // from the configured ranges, in DegradedConditions::to_vector order.
  const double his[] = {fault_ranges.message_loss_hi, fault_ranges.burst_enter_hi,
                        fault_ranges.blackout_start_hi, fault_ranges.blackout_duration_hi,
                        fault_ranges.dropout_burst_hi};
  for (std::size_t g = 0; g < DegradedConditions::kNumGenes; ++g) {
    EXPECT_DOUBLE_EQ(spec.bound(geometry + g).lo, 0.0) << g;
    EXPECT_DOUBLE_EQ(spec.bound(geometry + g).hi, his[g]) << g;
  }
}

TEST(DegradedConditions, GenomeTailRoundTrip) {
  DegradedConditions conditions;
  conditions.message_loss_prob = 0.3;
  conditions.burst_enter_prob = 0.2;
  conditions.blackout_start_s = 25.0;
  conditions.blackout_duration_s = 12.0;
  conditions.adsb_dropout_burst_prob = 0.15;
  std::vector<double> genome = {1.0, 2.0, 3.0};  // fake geometry prefix
  const auto tail = conditions.to_vector();
  genome.insert(genome.end(), tail.begin(), tail.end());
  const DegradedConditions back = DegradedConditions::from_genome_tail(genome);
  EXPECT_DOUBLE_EQ(back.message_loss_prob, 0.3);
  EXPECT_DOUBLE_EQ(back.burst_enter_prob, 0.2);
  EXPECT_DOUBLE_EQ(back.blackout_start_s, 25.0);
  EXPECT_DOUBLE_EQ(back.blackout_duration_s, 12.0);
  EXPECT_DOUBLE_EQ(back.adsb_dropout_burst_prob, 0.15);
}

TEST(DegradedConditions, ApplyWritesTheSimConfig) {
  DegradedConditions conditions;
  conditions.message_loss_prob = 0.4;
  conditions.burst_enter_prob = 0.25;
  conditions.blackout_start_s = 30.0;
  conditions.blackout_duration_s = 10.0;
  conditions.adsb_dropout_burst_prob = 0.2;
  sim::SimConfig config;
  conditions.apply(&config);
  EXPECT_DOUBLE_EQ(config.coordination.message_loss_prob, 0.4);
  EXPECT_DOUBLE_EQ(config.coordination.burst_enter_prob, 0.25);
  ASSERT_EQ(config.fault.comms_blackouts.size(), 1U);
  EXPECT_DOUBLE_EQ(config.fault.comms_blackouts[0].start_s, 30.0);
  EXPECT_DOUBLE_EQ(config.fault.comms_blackouts[0].end_s, 40.0);
  EXPECT_DOUBLE_EQ(config.fault.adsb_dropout_burst_prob, 0.2);

  // The benign corner leaves a default config untouched.
  sim::SimConfig benign;
  DegradedConditions{}.apply(&benign);
  EXPECT_DOUBLE_EQ(benign.coordination.message_loss_prob, 0.0);
  EXPECT_FALSE(benign.coordination.burst_model_active());
  EXPECT_TRUE(benign.fault.comms_blackouts.empty());
  EXPECT_FALSE(benign.fault.degrades_surveillance());
}

TEST_F(SearchTest, DegradedSearchFindsScenariosAndDecodesFaultGenes) {
  MultiScenarioSearchConfig config;
  config.ga.population_size = 10;
  config.ga.generations = 2;
  config.ga.seed = 13;
  config.intruders = 2;
  config.fitness.runs_per_encounter = 3;
  config.keep_top = 3;
  const DegradedGeneRanges fault_ranges;

  const auto result =
      search_degraded_multi_scenarios(config, fault_ranges, acas(), acas(), pool_);
  EXPECT_GT(result.best_fitness(), 0.0);
  ASSERT_FALSE(result.top.empty());
  for (const auto& found : result.top) {
    EXPECT_EQ(found.params.num_intruders(), 2U);
    EXPECT_GE(found.faults.message_loss_prob, 0.0);
    EXPECT_LE(found.faults.message_loss_prob, fault_ranges.message_loss_hi);
    EXPECT_LE(found.faults.blackout_duration_s, fault_ranges.blackout_duration_hi);
    EXPECT_EQ(found.detail.runs, 3U);
  }
}

TEST_F(SearchTest, DegradedSearchIsDeterministicPerSeed) {
  MultiScenarioSearchConfig config;
  config.ga.population_size = 8;
  config.ga.generations = 2;
  config.ga.seed = 17;
  config.intruders = 2;
  config.fitness.runs_per_encounter = 2;
  const DegradedGeneRanges fault_ranges;

  const auto a = search_degraded_multi_scenarios(config, fault_ranges, acas(), acas(), pool_);
  const auto b = search_degraded_multi_scenarios(config, fault_ranges, acas(), acas());
  EXPECT_EQ(a.ga.fitness_by_evaluation, b.ga.fitness_by_evaluation);
  EXPECT_EQ(a.ga.best.genome, b.ga.best.genome);
}

}  // namespace
}  // namespace cav::core
