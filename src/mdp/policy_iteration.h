// Policy Iteration (Howard's algorithm) — the paper names it alongside
// Value Iteration as the DP techniques that "automatically figure out the
// best strategy" (§III).  Policy evaluation is iterative (successive
// approximation) rather than a linear solve, which is appropriate for the
// sparse episodic models in this library.
//
// Like value iteration, the solver compiles the model once into flat CSR
// arrays (CompiledMdp) and sweeps those.  Policy evaluation updates in
// place (Gauss-Seidel style) and stays serial; the improvement step only
// reads the value vector and parallelizes across states when a ThreadPool
// is supplied.  Results are bit-identical to the serial virtual-dispatch
// oracle in tests/oracles/mdp_reference.h.
#pragma once

#include <cstddef>

#include "mdp/compiled_mdp.h"
#include "mdp/mdp.h"
#include "util/thread_pool.h"

namespace cav::mdp {

struct PolicyIterationConfig {
  double discount = 1.0;
  double eval_tolerance = 1e-9;       ///< policy-evaluation residual
  std::size_t max_eval_sweeps = 10000;
  std::size_t max_policy_updates = 1000;
  ThreadPool* pool = nullptr;         ///< parallel improvement step when non-null
};

struct PolicyIterationResult {
  Values values;
  Policy policy;
  std::size_t policy_updates = 0;  ///< improvement rounds performed
  bool converged = false;          ///< true when the policy became stable
};

PolicyIterationResult solve_policy_iteration(const FiniteMdp& mdp,
                                             const PolicyIterationConfig& config = {});

/// Solve an already-compiled model.
PolicyIterationResult solve_policy_iteration(const CompiledMdp& mdp,
                                             const PolicyIterationConfig& config = {});

}  // namespace cav::mdp
