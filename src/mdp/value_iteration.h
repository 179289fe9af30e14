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

}  // namespace cav::mdp
