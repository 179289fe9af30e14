// Offline generation of the ACAS XU logic table by dynamic programming.
//
// Because tau (time to loss of horizontal separation) decrements
// deterministically by one per step, the MDP is layered in tau and the
// optimal costs are computed by a single backward-induction pass:
//
//   V(0, s)  = nmac_cost if |h| <= nmac_h else 0          (terminal layer)
//   Q(t, s, a) = action_cost(ra, a)
//              + sum_noise w * V(t-1, interp(h', dh_own', dh_int'), ra'=a)
//   V(t, s)  = min_a Q(t, s, a)
//
// Off-grid successor states are scattered onto grid vertices with
// multilinear weights — the interpolation step whose fidelity §IV calls
// out as a validation concern (ablated in bench_ablations).
//
// The successor stencil of each (grid point, action) — which vertices of
// the next layer receive probability mass, and with what weight — does not
// depend on tau, so the default solver PRECOMPILES all stencils once
// (noise pairs and interpolation weights folded together; acasx/
// stencil_set.h) and reduces each layer's expected-value computation to a
// sparse dot product over the previous layer, parallelized across grid
// points.  The tests compare the result bit for bit against the original
// per-layer recomputation, kept as an oracle in
// tests/oracles/acasx_reference.h.
//
// This is the paper's "Optimization" box in Fig. 1 (MDP model -> logic
// table); footnote 2 reports <5 min on a laptop for the real model — the
// bench_value_iteration binary reports our timing.
#pragma once

#include <cstddef>

#include "acasx/logic_table.h"
#include "acasx/stencil_set.h"
#include "util/thread_pool.h"

namespace cav::acasx {

struct SolveStats {
  std::size_t states_per_layer = 0;
  std::size_t layers = 0;
  double wall_seconds = 0.0;
  std::size_t stencil_entries = 0;     ///< total (vertex, weight) pairs precompiled
  double stencil_build_seconds = 0.0;  ///< time spent precompiling stencils
};

/// Solve the MDP defined by `config`; parallelizes the stencil build and
/// each tau layer over `pool` when provided.  The table is bit-identical
/// with or without a pool: each grid point's writes are independent of
/// sweep scheduling.
LogicTable solve_logic_table(const AcasXuConfig& config, ThreadPool* pool = nullptr,
                             SolveStats* stats = nullptr);

/// The compiled transition structure of the ACAS XU MDP: the successor
/// stencils depend only on the state-space discretization and the dynamics
/// model, NOT on the cost ("preference") model.  Model-revision loops that
/// re-tune punishments and re-solve (the paper's Fig. 1 revision edge, and
/// any GA over cost weights) therefore compile once and call solve() per
/// revision, skipping the stencil build — the ACAS analogue of
/// mdp::CompiledMdp::refresh_costs.
///
/// Every solve() is bit-identical to solve_logic_table() of the matching
/// config (same kernels, same accumulation order).
class CompiledAcasModel {
 public:
  /// Build the stencils for config.space + config.dynamics; `pool`
  /// parallelizes the build.  config.costs is kept as the default cost
  /// model for the zero-argument solve().
  explicit CompiledAcasModel(const AcasXuConfig& config, ThreadPool* pool = nullptr);

  /// Solve the tau recursion with a revised cost model (cost-only revision:
  /// space and dynamics stay as compiled).  The returned table's config()
  /// carries the revised costs.
  LogicTable solve(const CostModel& costs, ThreadPool* pool = nullptr,
                   SolveStats* stats = nullptr) const;

  /// Solve with the cost model the structure was compiled with.
  LogicTable solve(ThreadPool* pool = nullptr, SolveStats* stats = nullptr) const;

  const AcasXuConfig& config() const { return config_; }
  std::size_t stencil_entries() const { return stencils_.num_entries(); }
  double stencil_build_seconds() const { return build_seconds_; }

 private:
  AcasXuConfig config_;
  StencilSet stencils_;
  double build_seconds_ = 0.0;
};

}  // namespace cav::acasx
