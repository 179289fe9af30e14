// Quickstart: the full pipeline in one file.
//
//   1. Generate the collision avoidance logic offline (MDP + DP -> table).
//   2. Fly a head-on encounter with both UAVs equipped: the advisories and
//      coordination resolve it (paper Fig. 5).
//   3. Fly the tail-approach geometry the paper's GA search discovered
//      (Figs. 7-8): the tau-based logic stays silent and the encounter
//      frequently ends in an NMAC.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <memory>

#include "acasx/offline_solver.h"
#include "core/fitness.h"
#include "encounter/encounter.h"
#include "sim/acasx_cas.h"
#include "util/thread_pool.h"

namespace {

void report(const char* name, const cav::core::EncounterEvaluation& eval) {
  std::printf("%-14s NMAC %3zu/%zu runs   mean miss %7.1f m   fitness %8.1f   own alerted %3.0f%%\n",
              name, eval.nmac_count, eval.runs, eval.mean_miss_m, eval.fitness,
              100.0 * eval.alert_fraction_own);
}

}  // namespace

int main() {
  using namespace cav;

  std::printf("== 1. solving the ACAS XU-style logic table (offline DP) ==\n");
  ThreadPool pool;
  acasx::SolveStats stats;
  auto table = std::make_shared<const acasx::LogicTable>(
      acasx::solve_logic_table(acasx::AcasXuConfig::standard(), &pool, &stats));
  std::printf("   %zu states x %zu tau layers solved in %.2f s (%zu Q entries)\n\n",
              stats.states_per_layer, stats.layers, stats.wall_seconds, table->num_entries());

  core::FitnessConfig fitness_config;
  fitness_config.runs_per_encounter = 100;
  const sim::CasFactory acas = sim::AcasXuCas::factory(table);
  const core::EncounterEvaluator evaluator(fitness_config, acas, acas);

  std::printf("== 2. head-on encounter, both UAVs equipped (paper Fig. 5) ==\n");
  using encounter::MultiEncounterParams;
  report("head-on",
         evaluator.evaluate(MultiEncounterParams::from_pairwise(encounter::head_on()), 1));

  std::printf("\n== 3. tail approach: climbing intruder overtakes descending own-ship ==\n");
  report("tail-approach",
         evaluator.evaluate(MultiEncounterParams::from_pairwise(encounter::tail_approach()), 2));

  std::printf("\nThe tail approach defeats tau-based alerting (closure is tiny), which is\n"
              "exactly the challenging situation the paper's GA search surfaced.\n");
  return 0;
}
