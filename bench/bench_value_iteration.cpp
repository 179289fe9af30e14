// E6 — offline solver cost (paper §III footnote 2: "For the real ACAS XU
// model, Value Iteration takes several minutes (less than 5 minutes) on an
// ordinary laptop PC").  Google-benchmark timings for the backward-
// induction solve across discretizations, serial and parallel, plus the
// toy-model value iteration.
//
// Variants: Compiled (flat CSR arrays, with and without the compile) for
// the toy model; serial and pooled precompiled-stencil solves for the ACAS
// table.  All emit the
// logic of the reference kernels in tests/oracles/, which benches do not
// link, so the rows time only the production paths.
#include <benchmark/benchmark.h>

#include "acasx/offline_solver.h"
#include "bench_common.h"
#include "mdp/compiled_mdp.h"
#include "mdp/value_iteration.h"
#include "toy2d/toy2d_mdp.h"
#include "util/thread_pool.h"

namespace {

using namespace cav;

// ---------------------------------------------------------------- toy 2-D

void BM_SolveToy2dCompiled(benchmark::State& state) {
  const toy2d::Toy2dMdp model{toy2d::Config{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(toy2d::solve(model));
  }
  state.SetLabel("490-state SIII model, compiled CSR kernel (includes compile)");
}
BENCHMARK(BM_SolveToy2dCompiled)->Unit(benchmark::kMillisecond);

void BM_SolveToy2dCompiledSweepsOnly(benchmark::State& state) {
  // Compilation amortized outside the loop: the cost of sweeps alone, the
  // regime of model-revision loops that re-solve a structurally fixed MDP.
  const toy2d::Toy2dMdp model{toy2d::Config{}};
  const mdp::CompiledMdp compiled(model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mdp::solve_value_iteration(compiled));
  }
  state.SetLabel("490-state SIII model, pre-compiled, sweeps only");
}
BENCHMARK(BM_SolveToy2dCompiledSweepsOnly)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------------ ACAS table

void BM_SolveCoarseTable(benchmark::State& state) {
  const acasx::AcasXuConfig config = acasx::AcasXuConfig::coarse();
  for (auto _ : state) {
    benchmark::DoNotOptimize(acasx::solve_logic_table(config));
  }
  state.SetLabel("coarse grid, precompiled stencils, serial");
}
BENCHMARK(BM_SolveCoarseTable)->Unit(benchmark::kMillisecond);

void BM_SolveStandardTableSerial(benchmark::State& state) {
  const acasx::AcasXuConfig config = bench::standard_or_smoke_config();
  acasx::SolveStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(acasx::solve_logic_table(config, nullptr, &stats));
  }
  state.counters["stencil_entries"] = static_cast<double>(stats.stencil_entries);
  state.counters["stencil_build_s"] = stats.stencil_build_seconds;
  state.SetLabel("standard grid, precompiled stencils, serial");
}
BENCHMARK(BM_SolveStandardTableSerial)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_SolveStandardTableParallel(benchmark::State& state) {
  const acasx::AcasXuConfig config = bench::standard_or_smoke_config();
  ThreadPool pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(acasx::solve_logic_table(config, &pool));
  }
  state.SetLabel("standard grid, precompiled stencils + thread pool");
}
BENCHMARK(BM_SolveStandardTableParallel)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_SolveFineTableParallel(benchmark::State& state) {
  const acasx::AcasXuConfig config = [] {
    acasx::AcasXuConfig c;
    if (!bench::smoke()) c.space = acasx::StateSpaceConfig::fine();
    return c;
  }();
  ThreadPool pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(acasx::solve_logic_table(config, &pool));
  }
  state.SetLabel("fine grid (ablation discretization), precompiled stencils + pool");
}
BENCHMARK(BM_SolveFineTableParallel)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  cav::bench::init(argc, argv);
  std::printf("E6: offline logic generation cost.  Paper fn.2 claim: full value\n"
              "iteration < 5 minutes on a laptop; our backward induction over tau\n"
              "should be orders faster in optimized C++ (shape: laptop-feasible).\n"
              "Variants: *Compiled/*Table = precompiled sparse kernels;\n"
              "*Parallel adds chunked pool sweeps.\n\n");
  if (cav::bench::smoke()) {
    std::printf("[smoke] CAV_BENCH_SMOKE set: standard/fine grids replaced by\n"
                "coarse; timings are for bit-rot detection only.\n\n");
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
