// Shared plumbing for the experiment benches: a cached standard logic
// table (solved once per process), output-directory handling, and small
// printing helpers so every bench emits paper-comparable rows.
#pragma once

#include <cstdio>
#include <memory>
#include <string>

#include "acasx/offline_solver.h"
#include "util/thread_pool.h"

namespace cav::sim {
struct SimPhaseTimes;
}  // namespace cav::sim

namespace cav::bench {

/// Process-wide thread pool for solving and fitness evaluation.
inline ThreadPool& pool() {
  static ThreadPool instance;
  return instance;
}

/// Parse the shared bench flags and start the bench wall clock; call first
/// thing in main().  Currently one flag: `--json <path>` makes the bench
/// write a machine-readable result file at exit — {"bench": <name>,
/// "smoke": <bool>, "wall_s": <total>, "metrics": {...}} — which CI merges
/// into the bench_results.json artifact and feeds to
/// tools/check_bench_regression.py.  Unknown flags are ignored (the
/// bench-smoke target passes benchmark-library flags to every binary).
void init(int argc, char** argv);

/// Record a named numeric result for the --json artifact (no-op when
/// --json was not passed).  Use stable "experiment.case.metric" keys —
/// the regression baselines are keyed on them.  Re-recording a key
/// overwrites it.
void record_metric(const std::string& name, double value);

/// The standard logic table: loaded from the on-disk cache when a
/// compatible one exists (the production offline/online split), otherwise
/// solved and cached for the next bench in the run.
std::shared_ptr<const acasx::LogicTable> standard_table();

/// Where benches drop CSV artifacts (created on demand).
std::string output_dir();

/// Print a separator + title.
inline void banner(const char* title) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title);
  std::printf("==============================================================\n");
}

/// Print one run's engine phase split (SimStats::phase) as an indented
/// line of seconds per phase, headed by `label`.
void print_phase_split(const char* label, const sim::SimPhaseTimes& phase);

/// True when CAV_BENCH_SMOKE=1: the `bench-smoke` CMake target sets it so
/// every perf binary runs its code paths on shrunken workloads (coarse
/// grids, few encounters) purely to prove it still builds and executes —
/// timings in smoke mode are meaningless.
bool smoke();

/// The solver config a bench should use for "the standard table": the real
/// standard space normally, the coarse space under smoke mode.  Every bench
/// that solves its own table goes through this so none can accidentally run
/// a full standard solve inside the bench-smoke bit-rot check.
inline acasx::AcasXuConfig standard_or_smoke_config() {
  return smoke() ? acasx::AcasXuConfig::coarse() : acasx::AcasXuConfig::standard();
}

}  // namespace cav::bench
