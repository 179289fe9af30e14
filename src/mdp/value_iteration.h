// Value Iteration for finite MDPs (cost-minimizing).
//
// Supports Jacobi sweeps (classic VI) and in-place Gauss-Seidel sweeps,
// which converge in fewer iterations on layered problems like the paper's
// 2-D example where the intruder's x coordinate only decreases.
//
// The model is compiled once into flat CSR arrays (CompiledMdp) and all
// sweeps run on the compiled kernel; Jacobi sweeps additionally
// parallelize across states when a ThreadPool is supplied (Gauss-Seidel is
// inherently sequential and stays serial, but still uses the kernel).
// The results are bit-identical to the serial virtual-dispatch sweeps the
// tests keep as their oracle (tests/oracles/mdp_reference.h).
#pragma once

#include <cstddef>

#include "mdp/compiled_mdp.h"
#include "mdp/mdp.h"
#include "util/thread_pool.h"

namespace cav::mdp {

struct ValueIterationConfig {
  double discount = 1.0;          ///< 1.0 is safe for episodic/DAG models
  double tolerance = 1e-9;        ///< max-norm residual for convergence
  std::size_t max_iterations = 10000;
  bool gauss_seidel = false;      ///< update values in place during a sweep
  /// Parallel Jacobi sweeps when non-null.  Gauss-Seidel stays serial by
  /// construction.
  ThreadPool* pool = nullptr;
};

struct ValueIterationResult {
  Values values;        ///< optimal expected cost per state
  QTable q;             ///< optimal Q table
  Policy policy;        ///< greedy policy
  std::size_t iterations = 0;
  double residual = 0.0;  ///< final max-norm change
  bool converged = false;
};

/// Compile `mdp` and solve to convergence.  Throws ContractViolation on an
/// empty model.
ValueIterationResult solve_value_iteration(const FiniteMdp& mdp,
                                           const ValueIterationConfig& config = {});

/// Solve an already-compiled model (lets callers amortize compilation
/// across repeated solves, e.g. model-revision sweeps).
ValueIterationResult solve_value_iteration(const CompiledMdp& mdp,
                                           const ValueIterationConfig& config = {});

/// Finite-horizon backward induction: returns values for each
/// stage t = 0..horizon, where values[t] is the optimal expected cost with
/// t decision steps remaining.  values[0][s] = terminal_cost for terminal
/// states and 0 otherwise.  Parallelizes each stage over `pool` when given.
std::vector<Values> solve_finite_horizon(const FiniteMdp& mdp, std::size_t horizon,
                                         double discount = 1.0, ThreadPool* pool = nullptr);

/// Finite-horizon backward induction on a pre-compiled model.
std::vector<Values> solve_finite_horizon(const CompiledMdp& mdp, std::size_t horizon,
                                         double discount = 1.0, ThreadPool* pool = nullptr);

// ---------------------------------------------------------------------------
// Prioritized sweeping (residual-ordered asynchronous value iteration).
//
// Full Jacobi sweeps touch every state every iteration even when most of
// the state space is already converged; on sparse-goal models (cost mass
// concentrated in a small region, the typical shape of collision-punishment
// MDPs) almost all of that work is wasted.  solve_prioritized instead keeps
// a max-priority queue of per-state upper bounds on the Bellman residual:
// it pops the worst state, backs it up, and propagates `discount * |dV|`
// to the predecessors exposed by the compiled transpose
// (CompiledMdp::pred_offsets / pred_state).
//
// The bounds ACCUMULATE (priority[p] += discount * |dV|) rather than
// max-combine, so "queue empty" soundly certifies that every state's true
// residual is at most `tolerance`.  A final full Jacobi sweep then fills
// the Q table (states the queue never reached would otherwise keep stale
// rows), measures the exact residual, and — in the rare case floating-point
// bound arithmetic left it above tolerance — reseeds the queue and
// continues.  The fixed point matches plain value iteration within the
// shared tolerance.

struct PrioritizedSweepConfig {
  double discount = 1.0;           ///< in (0, 1]; 1.0 is safe for episodic models
  double tolerance = 1e-9;         ///< max-norm Bellman residual for convergence
  /// Soft budget on single-state backups, checked before each queue pop;
  /// 0 = 10000 * num_states.  The initial seeding pass and the final
  /// Q-filling sweep always run in full, so the total can overshoot by up
  /// to 2 * num_states.  A budget-cut result still reports the residual
  /// that final sweep measured, and a policy greedy w.r.t. its Q table
  /// (computed from the pre-sweep values — the returned values are one
  /// Bellman application ahead of it, a gap of at most `residual`).
  std::size_t max_state_updates = 0;
};

struct PrioritizedSweepResult {
  Values values;
  QTable q;
  Policy policy;
  /// Single-state Bellman backups performed: the seeding pass + queue pops
  /// + verification sweeps.  The Jacobi equivalent is
  /// iterations * (number of non-terminal states); the gap is the win.
  std::size_t state_updates = 0;
  std::size_t verification_sweeps = 0;  ///< full sweeps run after queue drains (>= 1)
  double residual = 0.0;                ///< exact max-norm residual of the last sweep
  bool converged = false;
};

/// Solve an already-compiled model by prioritized sweeping.  Reaches the
/// same fixed point as solve_value_iteration within `tolerance`; on
/// sparse-goal models it does so in far fewer state updates.
PrioritizedSweepResult solve_prioritized(const CompiledMdp& mdp,
                                         const PrioritizedSweepConfig& config = {});

// ---------------------------------------------------------------------------
// float32 value layers.
//
// For bandwidth-bound models the value vector is the hot random-access
// array; storing it in float halves the traffic (the ACAS tau layers
// already store float for the same reason).  Probabilities, costs, and all
// accumulation stay double — only the value reads/writes narrow, so the
// result tracks the double path to within float rounding: the per-sweep
// write error is one float ulp of the value scale (~6e-8 relative), and the
// converged values agree with the double path to ~1e-5 relative in
// practice (asserted at 1e-4 * ||V||_inf in the tests).
//
// Because residuals below the float ulp of the value scale are pure
// quantization noise, convergence uses max(config.tolerance, float_floor)
// where float_floor = 8 * FLT_EPSILON * ||V||_inf; the applied floor is
// reported in the result.

struct ValueIterationF32Result {
  std::vector<float> values;  ///< converged float value layer
  QTable q;                   ///< double Q, recomputed from the float values
  Policy policy;
  std::size_t iterations = 0;
  double residual = 0.0;      ///< final max-norm change (double arithmetic)
  double float_floor = 0.0;   ///< ulp-scaled convergence floor actually applied
  bool converged = false;
};

/// Jacobi value iteration with float32 value layers (serial, or parallel
/// over config.pool).  Gauss-Seidel is not supported on this path
/// (config.gauss_seidel must be false).
ValueIterationF32Result solve_value_iteration_f32(const CompiledMdp& mdp,
                                                  const ValueIterationConfig& config = {});

}  // namespace cav::mdp
