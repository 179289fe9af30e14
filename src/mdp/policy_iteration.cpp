#include "mdp/policy_iteration.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "util/expect.h"

namespace cav::mdp {
namespace {

void evaluate_policy_compiled(const CompiledMdp& mdp, const Policy& policy, Values& values,
                              const PolicyIterationConfig& config) {
  const std::size_t ns = mdp.num_states();
  for (std::size_t sweep = 0; sweep < config.max_eval_sweeps; ++sweep) {
    double residual = 0.0;
    for (std::size_t s = 0; s < ns; ++s) {
      const auto state = static_cast<State>(s);
      if (mdp.is_terminal(state)) continue;
      const double v = mdp.backup(state, policy[s], values, config.discount);
      residual = std::max(residual, std::abs(v - values[s]));
      values[s] = v;
    }
    if (residual <= config.eval_tolerance) break;
  }
}

}  // namespace

PolicyIterationResult solve_policy_iteration(const CompiledMdp& mdp,
                                             const PolicyIterationConfig& config) {
  const std::size_t ns = mdp.num_states();
  const std::size_t na = mdp.num_actions();
  expect(ns > 0, "MDP has at least one state");
  expect(na > 0, "MDP has at least one action");

  PolicyIterationResult result;
  result.policy.assign(ns, 0);
  result.values.assign(ns, 0.0);
  for (std::size_t s = 0; s < ns; ++s) {
    if (mdp.is_terminal(static_cast<State>(s))) {
      result.values[s] = mdp.terminal_cost(static_cast<State>(s));
    }
  }

  for (std::size_t round = 0; round < config.max_policy_updates; ++round) {
    evaluate_policy_compiled(mdp, result.policy, result.values, config);

    // Improvement only reads `values` and writes policy[s] for its own s,
    // so states are independent; the keep-current-on-near-tie rule (strict
    // improvement by more than 1e-12) is per-state and thread-agnostic.
    std::atomic<bool> stable{true};
    const auto improve_range = [&](std::size_t begin, std::size_t end) {
      bool local_stable = true;
      for (std::size_t s = begin; s < end; ++s) {
        const auto state = static_cast<State>(s);
        if (mdp.is_terminal(state)) continue;
        double best = std::numeric_limits<double>::infinity();
        Action best_a = result.policy[s];
        for (std::size_t a = 0; a < na; ++a) {
          const double q = mdp.backup(state, static_cast<Action>(a), result.values,
                                      config.discount);
          if (q < best - 1e-12) {
            best = q;
            best_a = static_cast<Action>(a);
          }
        }
        if (best_a != result.policy[s]) {
          result.policy[s] = best_a;
          local_stable = false;
        }
      }
      if (!local_stable) stable.store(false, std::memory_order_relaxed);
    };
    if (config.pool != nullptr) {
      config.pool->parallel_for_ranges(ns, improve_range);
    } else {
      improve_range(0, ns);
    }
    result.policy_updates = round + 1;
    if (stable.load()) {
      result.converged = true;
      break;
    }
  }
  return result;
}

PolicyIterationResult solve_policy_iteration(const FiniteMdp& mdp,
                                             const PolicyIterationConfig& config) {
  // CompiledMdp and the compiled overload validate the model.
  return solve_policy_iteration(CompiledMdp(mdp), config);
}

}  // namespace cav::mdp
