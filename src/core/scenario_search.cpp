#include "core/scenario_search.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "util/expect.h"

namespace cav::core {
namespace {

/// Fixed stream id used to re-evaluate reported top scenarios, so entries
/// from different searches are comparable.
constexpr std::uint64_t kReportStreamId = 0xF00D;

/// Per-gene bounds of a K-intruder geometry genome (see make_genome_spec).
std::vector<ga::GeneBounds> geometry_bounds(const encounter::ParamRanges& ranges,
                                            std::size_t intruders) {
  std::vector<double> lo;
  std::vector<double> hi;
  encounter::multi_param_bounds(ranges, intruders, &lo, &hi);
  std::vector<ga::GeneBounds> bounds(lo.size());
  for (std::size_t i = 0; i < lo.size(); ++i) bounds[i] = {lo[i], hi[i]};
  return bounds;
}

/// Two genomes are "the same finding" when every gene is within 5% of its
/// bound width of the other; keeps the reported top lists diverse.
bool similar_genome(const ga::Genome& a, const ga::Genome& b, const ga::GenomeSpec& spec) {
  for (std::size_t i = 0; i < spec.size(); ++i) {
    const double scale = spec.bound(i).width();
    if (scale > 0.0 && std::abs(a[i] - b[i]) > 0.05 * scale) return false;
  }
  return true;
}

/// Rank the final population plus the all-time best, deduplicate in the
/// normalized genome space, and build one Found entry per survivor (the
/// caller decodes the genome and re-evaluates on kReportStreamId).  Shared
/// by the pairwise and degraded searches so the ranking, similarity
/// threshold, and reporting stream cannot drift apart.
template <typename Found, typename MakeFound>
std::vector<Found> collect_top_genomes(const ga::SearchResult& ga_result,
                                       const ga::GenomeSpec& spec, std::size_t keep_top,
                                       const MakeFound& make_found) {
  std::vector<ga::Individual> candidates = ga_result.final_population;
  candidates.push_back(ga_result.best);
  std::sort(candidates.begin(), candidates.end(),
            [](const ga::Individual& a, const ga::Individual& b) { return a.fitness > b.fitness; });

  std::vector<Found> top;
  std::vector<ga::Genome> kept;
  for (const auto& ind : candidates) {
    if (top.size() >= keep_top) break;
    const bool duplicate = std::any_of(kept.begin(), kept.end(), [&](const ga::Genome& g) {
      return similar_genome(g, ind.genome, spec);
    });
    if (duplicate) continue;
    kept.push_back(ind.genome);
    top.push_back(make_found(ind));
  }
  return top;
}

std::vector<FoundScenario> collect_top(const ga::SearchResult& ga_result,
                                       const ScenarioSearchConfig& config,
                                       const EncounterEvaluator& evaluator) {
  const ga::GenomeSpec spec = make_genome_spec(config.ranges, 1);
  return collect_top_genomes<FoundScenario>(
      ga_result, spec, config.keep_top, [&](const ga::Individual& ind) {
        const auto params = encounter::MultiEncounterParams::from_vector(ind.genome);
        FoundScenario found;
        found.params = params.pairwise(0);
        found.fitness = ind.fitness;
        found.detail = evaluator.evaluate(params, kReportStreamId);
        return found;
      });
}

/// Search-level preconditions, checked before any budget arithmetic: an
/// all-elite population makes the per-generation evaluation count zero,
/// which would turn ga_budget into a lie and generation_of into a
/// divide-by-zero.
void expect_valid_ga(const ga::GaConfig& config) {
  expect(config.population_size >= 2, "population_size >= 2");
  expect(config.generations >= 1, "generations >= 1");
  expect(config.elites < config.population_size, "elites < population_size");
}

/// Evaluation budget of the configured GA (gen 0 evaluates the full
/// population; later generations re-evaluate everything but the elites).
std::size_t ga_budget(const ga::GaConfig& config) {
  return config.population_size +
         (config.generations - 1) * (config.population_size - config.elites);
}

/// Generation a given global evaluation index belongs to.
std::size_t generation_of(std::size_t eval_index, const ga::GaConfig& config) {
  if (eval_index < config.population_size) return 0;
  const std::size_t per_gen = config.population_size - config.elites;
  if (per_gen == 0) return 0;  // degenerate config; see expect_valid_ga
  return 1 + (eval_index - config.population_size) / per_gen;
}

/// Fitness function that also records one LogEntry per evaluation.  The
/// log slots are pre-sized and indexed by the (unique, deterministic)
/// evaluation index, so parallel workers never contend.
ga::FitnessFunction make_fitness(const EncounterEvaluator& evaluator,
                                 std::vector<LogEntry>* log, const ga::GaConfig& ga_config) {
  return [&evaluator, log, ga_config](const ga::Genome& genome, std::uint64_t eval_index) {
    const auto params = encounter::MultiEncounterParams::from_vector(genome);
    const EncounterEvaluation eval = evaluator.evaluate(params, eval_index);
    if (log != nullptr && eval_index < log->size()) {
      LogEntry& entry = (*log)[eval_index];
      entry.evaluation_index = eval_index;
      entry.generation = generation_of(eval_index, ga_config);
      entry.params = params.pairwise(0);
      entry.fitness = eval.fitness;
      entry.nmac_rate = eval.nmac_rate();
      entry.alert_fraction = eval.alert_fraction_own;
      entry.eval_wall_s = eval.wall_s;
    }
    return eval.fitness;
  };
}

}  // namespace

ga::GenomeSpec make_genome_spec(const encounter::ParamRanges& ranges, std::size_t intruders) {
  return ga::GenomeSpec(geometry_bounds(ranges, intruders));
}

ScenarioSearchResult search_challenging_scenarios(const ScenarioSearchConfig& config,
                                                  const sim::CasFactory& own_cas,
                                                  const sim::CasFactory& intruder_cas,
                                                  ThreadPool* pool,
                                                  const ga::GenerationCallback& on_generation) {
  expect_valid_ga(config.ga);
  const auto t0 = std::chrono::steady_clock::now();
  const EncounterEvaluator evaluator(config.fitness, own_cas, intruder_cas);
  const ga::GenomeSpec spec = make_genome_spec(config.ranges, 1);

  ScenarioSearchResult result;
  std::vector<LogEntry> log(ga_budget(config.ga));
  result.ga =
      ga::run_ga(spec, make_fitness(evaluator, &log, config.ga), config.ga, pool, on_generation);
  log.resize(result.ga.total_evaluations);
  result.logbook = Logbook(std::move(log));
  result.top = collect_top(result.ga, config, evaluator);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

ScenarioSearchResult random_search_scenarios(const ScenarioSearchConfig& config,
                                             const sim::CasFactory& own_cas,
                                             const sim::CasFactory& intruder_cas,
                                             ThreadPool* pool) {
  expect_valid_ga(config.ga);
  const auto t0 = std::chrono::steady_clock::now();
  const EncounterEvaluator evaluator(config.fitness, own_cas, intruder_cas);
  const ga::GenomeSpec spec = make_genome_spec(config.ranges, 1);
  const std::size_t budget = config.ga.population_size * config.ga.generations;

  ScenarioSearchResult result;
  std::vector<LogEntry> log(budget);
  ga::GaConfig log_config = config.ga;  // generation_of() maps everything to gen 0
  log_config.population_size = budget;
  result.ga = ga::run_random_search(spec, make_fitness(evaluator, &log, log_config), budget,
                                    config.ga.seed, pool);
  log.resize(result.ga.total_evaluations);
  result.logbook = Logbook(std::move(log));
  result.top = collect_top(result.ga, config, evaluator);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

void DegradedConditions::apply(sim::SimConfig* sim) const {
  sim->coordination.message_loss_prob = message_loss_prob;
  sim->coordination.burst_enter_prob = burst_enter_prob;
  if (blackout_duration_s > 0.0) {
    sim->fault.comms_blackouts.push_back(
        {blackout_start_s, blackout_start_s + blackout_duration_s});
  }
  sim->fault.adsb_dropout_burst_prob = adsb_dropout_burst_prob;
  if (adsb_dropout_burst_prob > 0.0) {
    sim->fault.adsb_burst_continue_prob = kBurstContinueProb;
  }
}

std::vector<double> DegradedConditions::to_vector() const {
  return {message_loss_prob, burst_enter_prob, blackout_start_s, blackout_duration_s,
          adsb_dropout_burst_prob};
}

DegradedConditions DegradedConditions::from_genome_tail(const std::vector<double>& genome) {
  expect(genome.size() >= kNumGenes, "degraded genome carries the fault genes");
  const std::size_t base = genome.size() - kNumGenes;
  DegradedConditions c;
  c.message_loss_prob = genome[base + 0];
  c.burst_enter_prob = genome[base + 1];
  c.blackout_start_s = genome[base + 2];
  c.blackout_duration_s = genome[base + 3];
  c.adsb_dropout_burst_prob = genome[base + 4];
  return c;
}

ga::GenomeSpec make_degraded_genome_spec(const encounter::ParamRanges& ranges,
                                         std::size_t intruders,
                                         const DegradedGeneRanges& fault_ranges) {
  std::vector<ga::GeneBounds> bounds = geometry_bounds(ranges, intruders);
  bounds.push_back({0.0, fault_ranges.message_loss_hi});
  bounds.push_back({0.0, fault_ranges.burst_enter_hi});
  bounds.push_back({0.0, fault_ranges.blackout_start_hi});
  bounds.push_back({0.0, fault_ranges.blackout_duration_hi});
  bounds.push_back({0.0, fault_ranges.dropout_burst_hi});
  return ga::GenomeSpec(std::move(bounds));
}

DegradedSearchResult search_degraded_multi_scenarios(
    const MultiScenarioSearchConfig& config, const DegradedGeneRanges& fault_ranges,
    const sim::CasFactory& own_cas, const sim::CasFactory& intruder_cas, ThreadPool* pool,
    const ga::GenerationCallback& on_generation) {
  expect_valid_ga(config.ga);
  expect(config.intruders >= 1, "intruders >= 1");
  const auto t0 = std::chrono::steady_clock::now();
  const ga::GenomeSpec spec =
      make_degraded_genome_spec(config.ranges, config.intruders, fault_ranges);

  const std::size_t geometry_genes = spec.size() - DegradedConditions::kNumGenes;

  // The fault genes change the SimConfig, which is baked into the
  // evaluator, so each evaluation builds a fresh evaluator around the
  // decoded conditions (construction is two std::function copies and a
  // config copy — noise next to the 100 simulations it then runs).
  const auto evaluate_genome = [&](const ga::Genome& genome, std::uint64_t stream_id) {
    const std::vector<double> geometry(genome.begin(),
                                       genome.begin() + static_cast<long>(geometry_genes));
    const auto params = encounter::MultiEncounterParams::from_vector(geometry);
    const DegradedConditions conditions = DegradedConditions::from_genome_tail(genome);
    FitnessConfig fitness_config = config.fitness;
    conditions.apply(&fitness_config.sim);
    const EncounterEvaluator evaluator(fitness_config, own_cas, intruder_cas);
    return evaluator.evaluate(params, stream_id);
  };

  const ga::FitnessFunction fitness = [&](const ga::Genome& genome, std::uint64_t eval_index) {
    return evaluate_genome(genome, eval_index).fitness;
  };

  DegradedSearchResult result;
  result.ga = ga::run_ga(spec, fitness, config.ga, pool, on_generation);
  result.top = collect_top_genomes<FoundDegradedScenario>(
      result.ga, spec, config.keep_top, [&](const ga::Individual& ind) {
        FoundDegradedScenario found;
        const std::vector<double> geometry(
            ind.genome.begin(), ind.genome.begin() + static_cast<long>(geometry_genes));
        found.params = encounter::MultiEncounterParams::from_vector(geometry);
        found.faults = DegradedConditions::from_genome_tail(ind.genome);
        found.fitness = ind.fitness;
        found.detail = evaluate_genome(ind.genome, kReportStreamId);
        return found;
      });

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

}  // namespace cav::core
