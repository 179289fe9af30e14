// E8 — end-to-end search cost (paper §VI footnote 5: "it took about 300 s
// on an ordinary laptop PC" for the §VII search).  Microbenchmarks of the
// hot path (tau estimation, table interpolation, one encounter simulation,
// one 10-run fitness evaluation), from which the full E3 workload cost is
// projected and compared to the measured wall time in bench E3.
#include <benchmark/benchmark.h>

#include <memory>

#include "acasx/offline_solver.h"
#include "bench_common.h"
#include "core/fitness.h"
#include "encounter/encounter.h"
#include "sim/acasx_cas.h"

namespace {

using namespace cav;

std::shared_ptr<const acasx::LogicTable> table() {
  // Shared helper: disk-cached standard table (coarse under smoke mode).
  return bench::standard_table();
}

void BM_TauEstimate(benchmark::State& state) {
  const acasx::AircraftTrack own{{0, 0, 1000}, {40, 0, 0}};
  const acasx::AircraftTrack intr{{2000, 120, 1030}, {-38, 2, -1}};
  const acasx::OnlineConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(acasx::AcasXuLogic::estimate_tau(own, intr, config));
  }
}
BENCHMARK(BM_TauEstimate);

void BM_TableActionCosts(benchmark::State& state) {
  const auto& t = table();
  double tau = 3.0;
  for (auto _ : state) {
    tau = tau >= 39.0 ? 3.0 : tau + 0.37;
    benchmark::DoNotOptimize(
        t->action_costs(tau, 123.0, 4.0, -7.0, acasx::Advisory::kCoc));
  }
  state.SetLabel("5-advisory interpolated lookup (2 tau layers x 8 vertices)");
}
BENCHMARK(BM_TableActionCosts);

void BM_OnlineDecide(benchmark::State& state) {
  acasx::AcasXuLogic logic(table());
  const acasx::AircraftTrack own{{0, 0, 1000}, {40, 0, 0}};
  const acasx::AircraftTrack intr{{1400, 0, 1010}, {-40, 0, -1}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(logic.decide(own, intr));
  }
}
BENCHMARK(BM_OnlineDecide);

void BM_EncounterSimulation(benchmark::State& state) {
  const bool tail = state.range(0) == 1;
  const auto params = encounter::MultiEncounterParams::from_pairwise(
      tail ? encounter::tail_approach() : encounter::head_on());
  core::FitnessConfig config;
  config.runs_per_encounter = 1;
  const core::EncounterEvaluator evaluator(config, sim::AcasXuCas::factory(table()),
                                           sim::AcasXuCas::factory(table()));
  std::uint64_t run = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.run_once(params, 1, run++, false));
  }
  state.SetLabel(tail ? "tail approach (90 s sim)" : "head-on (85 s sim)");
}
BENCHMARK(BM_EncounterSimulation)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_FitnessEvaluation(benchmark::State& state) {
  core::FitnessConfig config;
  config.runs_per_encounter = static_cast<std::size_t>(state.range(0));
  const core::EncounterEvaluator evaluator(config, sim::AcasXuCas::factory(table()),
                                           sim::AcasXuCas::factory(table()));
  const auto params = encounter::MultiEncounterParams::from_pairwise(encounter::head_on());
  std::uint64_t stream = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.evaluate(params, stream++));
  }
  state.SetLabel("one GA individual = N stochastic runs");
}
BENCHMARK(BM_FitnessEvaluation)->Arg(10)->Arg(100)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  cav::bench::init(argc, argv);
  std::printf("E8: search cost breakdown.  Paper fn.5: the SVII search (1000\n"
              "evaluations x 100 runs) took ~300 s on a 2016 laptop in serial Java.\n"
              "Project our cost as: 1000 x BM_FitnessEvaluation/100 (serial), divided\n"
              "by worker count when the GA evaluates individuals in parallel; compare\n"
              "with the measured wall time printed by bench_ga_fitness_generations.\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
