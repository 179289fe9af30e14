#include "mdp/value_iteration.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "util/expect.h"

namespace cav::mdp {
namespace {

void check_config(std::size_t ns, std::size_t na, const ValueIterationConfig& config) {
  expect(ns > 0, "MDP has at least one state");
  expect(na > 0, "MDP has at least one action");
  expect(config.discount > 0.0 && config.discount <= 1.0, "discount in (0, 1]");
}

/// Raise `target` to at least `value` (relaxed; used for residual reduction
/// where only the final converged maximum matters).
void atomic_max(std::atomic<double>& target, double value) {
  double cur = target.load(std::memory_order_relaxed);
  while (cur < value &&
         !target.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

ValueIterationResult solve_value_iteration(const CompiledMdp& mdp,
                                           const ValueIterationConfig& config) {
  const std::size_t ns = mdp.num_states();
  const std::size_t na = mdp.num_actions();
  check_config(ns, na, config);

  ValueIterationResult result;
  result.values.assign(ns, 0.0);
  result.q.num_actions = na;
  result.q.q.assign(ns * na, 0.0);

  for (std::size_t s = 0; s < ns; ++s) {
    const auto state = static_cast<State>(s);
    if (mdp.is_terminal(state)) {
      result.values[s] = mdp.terminal_cost(state);
      for (std::size_t a = 0; a < na; ++a) {
        result.q.at(state, static_cast<Action>(a)) = result.values[s];
      }
    }
  }

  // Terminal entries of `next` never change after this copy: every
  // non-terminal state is rewritten each Jacobi sweep.
  Values next = result.values;

  // Jacobi sweeps read `values` and write disjoint slots of `next` and the
  // Q table, so states can be updated concurrently; the residual is the
  // only shared reduction.  Gauss-Seidel reads its own writes and must stay
  // sequential to keep its (deterministic, ordered) update schedule.
  ThreadPool* pool = config.gauss_seidel ? nullptr : config.pool;

  for (std::size_t it = 0; it < config.max_iterations; ++it) {
    double residual = 0.0;
    if (config.gauss_seidel) {
      for (std::size_t s = 0; s < ns; ++s) {
        const auto state = static_cast<State>(s);
        if (mdp.is_terminal(state)) continue;
        const double v = mdp.bellman_update(state, result.values, config.discount, result.q);
        residual = std::max(residual, std::abs(v - result.values[s]));
        result.values[s] = v;
      }
    } else if (pool != nullptr) {
      std::atomic<double> shared_residual{0.0};
      pool->parallel_for_ranges(ns, [&](std::size_t begin, std::size_t end) {
        double local = 0.0;
        for (std::size_t s = begin; s < end; ++s) {
          const auto state = static_cast<State>(s);
          if (mdp.is_terminal(state)) continue;
          const double v = mdp.bellman_update(state, result.values, config.discount, result.q);
          local = std::max(local, std::abs(v - result.values[s]));
          next[s] = v;
        }
        atomic_max(shared_residual, local);
      });
      result.values.swap(next);
      residual = shared_residual.load();
    } else {
      for (std::size_t s = 0; s < ns; ++s) {
        const auto state = static_cast<State>(s);
        if (mdp.is_terminal(state)) continue;
        const double v = mdp.bellman_update(state, result.values, config.discount, result.q);
        residual = std::max(residual, std::abs(v - result.values[s]));
        next[s] = v;
      }
      result.values.swap(next);
    }
    result.iterations = it + 1;
    result.residual = residual;
    if (residual <= config.tolerance) {
      result.converged = true;
      break;
    }
  }

  result.policy = greedy_policy(result.q, ns);
  return result;
}

ValueIterationResult solve_value_iteration(const FiniteMdp& mdp,
                                           const ValueIterationConfig& config) {
  // CompiledMdp and the compiled overload validate the model and config.
  return solve_value_iteration(CompiledMdp(mdp), config);
}

std::vector<Values> solve_finite_horizon(const CompiledMdp& mdp, std::size_t horizon,
                                         double discount, ThreadPool* pool) {
  const std::size_t ns = mdp.num_states();
  expect(ns > 0, "MDP has at least one state");
  expect(mdp.num_actions() > 0, "MDP has at least one action");

  std::vector<Values> stage(horizon + 1, Values(ns, 0.0));
  for (std::size_t s = 0; s < ns; ++s) {
    if (mdp.is_terminal(static_cast<State>(s))) {
      stage[0][s] = mdp.terminal_cost(static_cast<State>(s));
    }
  }

  for (std::size_t t = 1; t <= horizon; ++t) {
    const Values& prev = stage[t - 1];
    Values& cur = stage[t];
    const auto update_range = [&](std::size_t begin, std::size_t end) {
      for (std::size_t s = begin; s < end; ++s) {
        const auto state = static_cast<State>(s);
        cur[s] = mdp.is_terminal(state) ? mdp.terminal_cost(state)
                                        : mdp.bellman_min(state, prev, discount);
      }
    };
    if (pool != nullptr) {
      pool->parallel_for_ranges(ns, update_range);
    } else {
      update_range(0, ns);
    }
  }
  return stage;
}

std::vector<Values> solve_finite_horizon(const FiniteMdp& mdp, std::size_t horizon,
                                         double discount, ThreadPool* pool) {
  return solve_finite_horizon(CompiledMdp(mdp), horizon, discount, pool);
}

}  // namespace cav::mdp
