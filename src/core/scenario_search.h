// The paper's contribution (Fig. 3): GA-driven search over the encounter
// parameter space for "challenging situations where certain undesired (or
// desired) events happen" — here, encounters where the collision avoidance
// system under test suffers a high accident rate.
//
// The loop: genomes encode the 9 encounter parameters; the scenario
// generator turns a genome into initial states; simulations score it with
// the paper's fitness; the GA breeds toward higher fitness.  Random search
// over the same space with the same budget is the baseline (§V / ref [7]).
#pragma once

#include <string>
#include <vector>

#include "core/fitness.h"
#include "core/logbook.h"
#include "encounter/encounter.h"
#include "ga/ga.h"
#include "util/thread_pool.h"

namespace cav::core {

struct ScenarioSearchConfig {
  ga::GaConfig ga;                  ///< defaults: pop 200, 5 generations (§VII)
  encounter::ParamRanges ranges;    ///< the scenario space
  FitnessConfig fitness;            ///< 100 runs per encounter (§VII)
  std::size_t keep_top = 10;        ///< distinct top scenarios to report
};

/// One challenging scenario surfaced by the search.
struct FoundScenario {
  encounter::EncounterParams params;
  double fitness = 0.0;
  EncounterEvaluation detail;  ///< re-evaluation with a fixed stream for reporting
};

struct ScenarioSearchResult {
  ga::SearchResult ga;                ///< includes the Fig. 6 per-evaluation series
  std::vector<FoundScenario> top;     ///< descending fitness, deduplicated
  Logbook logbook;                    ///< every evaluated scenario with outcome
  double wall_seconds = 0.0;

  double best_fitness() const { return ga.best.fitness; }
};

/// GA genome spec of a K-intruder encounter: 2 own genes + 7 per
/// intruder, index-aligned with encounter::MultiEncounterParams::to_vector()
/// and bounded by the pairwise ranges.  K = 1 is the paper's 9-parameter
/// genome, in encounter::EncounterParams::to_array() order.
ga::GenomeSpec make_genome_spec(const encounter::ParamRanges& ranges, std::size_t intruders);

/// Run the GA search against the system pair produced by the factories.
ScenarioSearchResult search_challenging_scenarios(const ScenarioSearchConfig& config,
                                                  const sim::CasFactory& own_cas,
                                                  const sim::CasFactory& intruder_cas,
                                                  ThreadPool* pool = nullptr,
                                                  const ga::GenerationCallback& on_generation = {});

/// Random-search baseline with an identical evaluation budget.
ScenarioSearchResult random_search_scenarios(const ScenarioSearchConfig& config,
                                             const sim::CasFactory& own_cas,
                                             const sim::CasFactory& intruder_cas,
                                             ThreadPool* pool = nullptr);

/// Multi-intruder search settings, used by the degraded-mode attack below:
/// the same GA loop over the (2 + 7K)-gene space, scored by the
/// own-ship-centric fitness on the N-aircraft engine.  To attack the fused
/// multi-threat policy instead of the nearest-threat one, set
/// fitness.sim.threat_policy = kCostFused.
struct MultiScenarioSearchConfig {
  ga::GaConfig ga;
  encounter::ParamRanges ranges;    ///< per-intruder bounds (pairwise shape)
  std::size_t intruders = 2;        ///< K >= 1
  FitnessConfig fitness;
  std::size_t keep_top = 10;
};

// --- Degraded-mode attack campaign (E14) -----------------------------
//
// The paper's claim is that search finds the weaknesses offline
// optimization hides; the degraded search extends the genome with FAULT
// GENES so the GA breeds the *conditions* along with the geometry: it can
// discover that a geometry is only deadly when the coordination link
// bursts at the wrong moment, or that a blackout window aligned with CPA
// defeats the joint table.  The benign corner (all fault genes 0) is
// inside the search space, so any degradation in a found scenario is
// something the GA chose because it paid off in fitness.

/// The degraded-mode conditions carried on the genome (kNumGenes genes,
/// appended after the (2 + 7K) geometry genes in to_vector order).
struct DegradedConditions {
  double message_loss_prob = 0.0;     ///< uniform per-link coordination loss
  double burst_enter_prob = 0.0;      ///< Gilbert–Elliott GOOD -> BAD rate
  double blackout_start_s = 0.0;      ///< fleet-wide comms blackout window
  double blackout_duration_s = 0.0;   ///< 0 = no blackout
  double adsb_dropout_burst_prob = 0.0;  ///< ADS-B outage-burst start rate

  static constexpr std::size_t kNumGenes = 5;
  /// Continuation probability of ADS-B dropout bursts (fixed, not a gene:
  /// mean burst length 2.5 cycles).
  static constexpr double kBurstContinueProb = 0.6;

  /// Write these conditions into a SimConfig (coordination loss model +
  /// fleet-wide fault profile).
  void apply(sim::SimConfig* sim) const;

  std::vector<double> to_vector() const;
  /// Decode from the last kNumGenes entries of a degraded genome.
  static DegradedConditions from_genome_tail(const std::vector<double>& genome);
};

/// Upper bounds of the fault genes (lower bounds are all 0 — the benign
/// corner stays in the space).
struct DegradedGeneRanges {
  double message_loss_hi = 0.75;
  double burst_enter_hi = 0.4;
  double blackout_start_hi = 60.0;
  double blackout_duration_hi = 40.0;
  double dropout_burst_hi = 0.4;
};

struct FoundDegradedScenario {
  encounter::MultiEncounterParams params;
  DegradedConditions faults;
  double fitness = 0.0;
  EncounterEvaluation detail;  ///< re-evaluation with a fixed stream
};

struct DegradedSearchResult {
  ga::SearchResult ga;
  std::vector<FoundDegradedScenario> top;  ///< descending fitness, deduplicated
  double wall_seconds = 0.0;

  double best_fitness() const { return ga.best.fitness; }
};

/// Genome spec of the degraded search: make_genome_spec's geometry genes
/// plus the kNumGenes fault genes.
ga::GenomeSpec make_degraded_genome_spec(const encounter::ParamRanges& ranges,
                                         std::size_t intruders,
                                         const DegradedGeneRanges& fault_ranges);

/// GA attack over (geometry x degraded conditions).  config.fitness.sim
/// supplies the baseline the fault genes are applied on top of (threat
/// policy, equipage fractions, per-agent profiles) — point
/// config.fitness.sim.threat_policy at kJointTable to attack the joint
/// table under degraded comms.
DegradedSearchResult search_degraded_multi_scenarios(
    const MultiScenarioSearchConfig& config, const DegradedGeneRanges& fault_ranges,
    const sim::CasFactory& own_cas, const sim::CasFactory& intruder_cas,
    ThreadPool* pool = nullptr, const ga::GenerationCallback& on_generation = {});

}  // namespace cav::core
