// Offline generation of the joint-threat logic table (joint_table.h) by
// dynamic programming — the PR 1 stencil machinery lifted to the 4-D joint
// grid.
//
// The recursion is layered on tau-to-the-SECONDARY's-CPA and runs once per
// (delta bin, sense class) slab, since neither changes mid-episode:
//
//   V(0, s)   = nmac2(h2) [+ nmac1(h1) when delta = 0]      (terminal)
//   Q(t, s, a) = [t == delta] * nmac1(h1)                    (primary CPA)
//              + action_cost(ra, a)
//              + sum_noise w * V(t-1, joint_successor, ra'=a)
//   V(t, s)   = min_a Q(t, s, a)
//
// The joint successor scatters (h1', dh_own', dh_int1', h2') onto the 4-D
// grid with multilinear weights; h2 evolves deterministically at the
// slab's representative sense rate, so the successor stencil of each
// (grid point, action) depends on the sense class but not on tau or the
// delta bin.  The solver therefore precompiles ONE stencil set per sense
// class (shared StencilSet layout, acasx/stencil_set.h) and reuses it
// across every delta bin and tau layer — and, like CompiledAcasModel,
// across COST REVISIONS: JointOfflineSolver keeps the stencils and
// re-solves per CostModel bit-identically (the PR 2 refresh_costs path,
// so revision loops never pay the stencil build twice).
//
// Slabs are mutually independent (each starts its own terminal layer), so
// the whole-table solve is a loop over one per-slab kernel that writes
// straight into the table's slab slice.
#pragma once

#include <array>
#include <cstddef>

#include "acasx/joint_table.h"
#include "acasx/stencil_set.h"
#include "util/thread_pool.h"

namespace cav::acasx {

/// One stencil set per secondary sense class (the only thing the
/// abstracted secondary changes about the transition kernel).
struct JointStencilSets {
  std::array<StencilSet, kNumSecondarySenses> per_sense;

  std::size_t num_entries() const {
    std::size_t n = 0;
    for (const auto& s : per_sense) n += s.num_entries();
    return n;
  }
};

struct JointSolveStats {
  std::size_t states_per_layer = 0;    ///< grid4 x advisory-memory states
  std::size_t layers = 0;              ///< tau layers per slab
  std::size_t slabs = 0;               ///< (delta bin, sense class) slabs
  double wall_seconds = 0.0;           ///< total solve wall time
  std::size_t stencil_entries = 0;     ///< (vertex, weight) pairs, all sense sets
  double stencil_build_seconds = 0.0;  ///< time spent precompiling stencils
};

/// Compile-once / solve-per-revision joint solver.  The stencils depend
/// only on the state-space discretization, the dynamics model, and the
/// secondary abstraction — NOT on the cost model — so every solve(costs)
/// call is a cost-only refresh.  Solves with the same costs are
/// bit-identical to each other (fixed accumulation order, scheduling-
/// independent writes), with or without a thread pool.
class JointOfflineSolver {
 public:
  /// Build the per-sense stencil sets for config.space + config.secondary
  /// + config.dynamics; `pool` parallelizes the build.  config.costs is
  /// kept as the default cost model for the zero-argument solve().
  explicit JointOfflineSolver(const JointConfig& config, ThreadPool* pool = nullptr);

  /// Solve every slab's tau recursion with a revised cost model
  /// (cost-only revision: space, abstraction, and dynamics stay as
  /// compiled).  The returned table's config() carries the revised costs.
  JointLogicTable solve(const CostModel& costs, ThreadPool* pool = nullptr,
                        JointSolveStats* stats = nullptr) const;

  /// Solve with the cost model the structure was compiled with.
  JointLogicTable solve(ThreadPool* pool = nullptr, JointSolveStats* stats = nullptr) const;

  const JointConfig& config() const { return config_; }
  std::size_t stencil_entries() const { return stencils_.num_entries(); }
  double stencil_build_seconds() const { return build_seconds_; }

 private:
  JointConfig config_;
  JointStencilSets stencils_;
  double build_seconds_ = 0.0;
};

/// One-shot convenience: compile the stencils and solve once.
JointLogicTable solve_joint_table(const JointConfig& config, ThreadPool* pool = nullptr,
                                  JointSolveStats* stats = nullptr);

}  // namespace cav::acasx
