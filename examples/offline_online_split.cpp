// The production workflow mirrored by real ACAS X deployments: the logic
// table is generated OFFLINE (Fig. 1's optimization box), shipped as a
// binary artifact, and loaded by the ONLINE system at startup.  This
// example solves, saves, reloads, verifies, and flies with the reloaded
// table.
//
// Usage: offline_online_split [table.bin]
#include <chrono>
#include <cstdio>
#include <memory>

#include "acasx/offline_solver.h"
#include "core/fitness.h"
#include "encounter/encounter.h"
#include "sim/acasx_cas.h"
#include "util/thread_pool.h"

int main(int argc, char** argv) {
  using namespace cav;
  const std::string path = argc > 1 ? argv[1] : "acasx_table.bin";

  // --- Offline: solve and persist. ---
  ThreadPool pool;
  acasx::SolveStats stats;
  const acasx::LogicTable solved =
      acasx::solve_logic_table(acasx::AcasXuConfig::standard(), &pool, &stats);
  solved.save(path);
  std::printf("offline: solved %zu states x %zu tau layers in %.2f s; saved %zu Q entries (%.1f MB) to %s\n",
              stats.states_per_layer, stats.layers, stats.wall_seconds, solved.num_entries(),
              static_cast<double>(solved.num_entries() * sizeof(float)) / 1e6, path.c_str());

  // --- Online: load and verify the artifact, then fly. ---
  const auto t0 = std::chrono::steady_clock::now();
  auto loaded = std::make_shared<const acasx::LogicTable>(acasx::LogicTable::load(path));
  const double load_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  std::printf("online: loaded in %.3f s; config round-trip: tau_max=%zu, nmac_cost=%.0f\n",
              load_s, loaded->config().space.tau_max, loaded->config().costs.nmac_cost);

  // Spot-verify the payload against the in-memory original.
  std::size_t checked = 0;
  for (std::size_t i = 0; i < solved.raw().size(); i += 10007) {
    if (solved.raw()[i] != loaded->raw()[i]) {
      std::fprintf(stderr, "payload mismatch at entry %zu\n", i);
      return 1;
    }
    ++checked;
  }
  std::printf("online: %zu spot-checked entries identical\n", checked);

  core::FitnessConfig config;
  config.runs_per_encounter = 100;
  const auto acas = sim::AcasXuCas::factory(loaded);
  const core::EncounterEvaluator evaluator(config, acas, acas);
  const auto eval =
      evaluator.evaluate(encounter::MultiEncounterParams::from_pairwise(encounter::head_on()), 1);
  std::printf("online: head-on with the loaded table: NMAC %zu/%zu, mean miss %.1f m\n",
              eval.nmac_count, eval.runs, eval.mean_miss_m);
  return 0;
}
