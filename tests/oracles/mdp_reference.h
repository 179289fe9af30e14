// Test oracle: the virtual-dispatch MDP solvers as they stood before the
// compiled-kernel refactor.  Every backup re-expands the (s, a) transition
// distribution through FiniteMdp::transitions(), and every sweep is serial.
// The library's compiled solvers (value_iteration.h, policy_iteration.h)
// keep the transition order and the accumulation order of these loops, so
// the tests demand bit-identical values, Q tables and policies from them.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "mdp/mdp.h"
#include "mdp/policy_iteration.h"
#include "mdp/value_iteration.h"

namespace cav::mdp::oracle {

/// Expected cost of (s, a): cost(s,a) + discount * sum_s' p * V(s').
inline double backup(const FiniteMdp& mdp, State s, Action a, const Values& values,
                     double discount, std::vector<Transition>& scratch) {
  scratch.clear();
  mdp.transitions(s, a, scratch);
  double expected = 0.0;
  for (const Transition& t : scratch) expected += t.prob * values[t.next];
  return mdp.cost(s, a) + discount * expected;
}

/// One Bellman update for state s given current values; returns the new
/// V(s) and writes the Q row.
inline double bellman_update(const FiniteMdp& mdp, State s, const Values& values,
                             double discount, QTable& q, std::vector<Transition>& scratch) {
  const std::size_t na = mdp.num_actions();
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t a = 0; a < na; ++a) {
    const double qa = backup(mdp, s, static_cast<Action>(a), values, discount, scratch);
    q.at(s, static_cast<Action>(a)) = qa;
    best = std::min(best, qa);
  }
  return best;
}

/// Value iteration, Jacobi or Gauss-Seidel per config.gauss_seidel.
/// config.pool is ignored: the reference is serial.
inline ValueIterationResult solve_value_iteration(const FiniteMdp& mdp,
                                                  const ValueIterationConfig& config = {}) {
  const std::size_t ns = mdp.num_states();
  const std::size_t na = mdp.num_actions();

  ValueIterationResult result;
  result.values.assign(ns, 0.0);
  result.q.num_actions = na;
  result.q.q.assign(ns * na, 0.0);

  for (std::size_t s = 0; s < ns; ++s) {
    if (mdp.is_terminal(static_cast<State>(s))) {
      result.values[s] = mdp.terminal_cost(static_cast<State>(s));
      for (std::size_t a = 0; a < na; ++a) {
        result.q.at(static_cast<State>(s), static_cast<Action>(a)) = result.values[s];
      }
    }
  }

  std::vector<Transition> scratch;
  scratch.reserve(64);
  Values next(ns, 0.0);

  for (std::size_t it = 0; it < config.max_iterations; ++it) {
    double residual = 0.0;
    if (config.gauss_seidel) {
      for (std::size_t s = 0; s < ns; ++s) {
        const auto state = static_cast<State>(s);
        if (mdp.is_terminal(state)) continue;
        const double v =
            bellman_update(mdp, state, result.values, config.discount, result.q, scratch);
        residual = std::max(residual, std::abs(v - result.values[s]));
        result.values[s] = v;
      }
    } else {
      next = result.values;
      for (std::size_t s = 0; s < ns; ++s) {
        const auto state = static_cast<State>(s);
        if (mdp.is_terminal(state)) continue;
        const double v =
            bellman_update(mdp, state, result.values, config.discount, result.q, scratch);
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

/// Finite-horizon backward induction: values[t] is the optimal expected
/// cost with t decision steps remaining.
inline std::vector<Values> solve_finite_horizon(const FiniteMdp& mdp, std::size_t horizon,
                                                double discount = 1.0) {
  const std::size_t ns = mdp.num_states();
  const std::size_t na = mdp.num_actions();

  std::vector<Values> stage(horizon + 1, Values(ns, 0.0));
  for (std::size_t s = 0; s < ns; ++s) {
    if (mdp.is_terminal(static_cast<State>(s))) {
      stage[0][s] = mdp.terminal_cost(static_cast<State>(s));
    }
  }

  std::vector<Transition> scratch;
  scratch.reserve(64);
  for (std::size_t t = 1; t <= horizon; ++t) {
    for (std::size_t s = 0; s < ns; ++s) {
      const auto state = static_cast<State>(s);
      if (mdp.is_terminal(state)) {
        stage[t][s] = mdp.terminal_cost(state);
        continue;
      }
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t a = 0; a < na; ++a) {
        best = std::min(best,
                        backup(mdp, state, static_cast<Action>(a), stage[t - 1], discount, scratch));
      }
      stage[t][s] = best;
    }
  }
  return stage;
}

/// Policy iteration with in-place (Gauss-Seidel) policy evaluation.
/// config.pool is ignored: the reference is serial.
inline PolicyIterationResult solve_policy_iteration(const FiniteMdp& mdp,
                                                    const PolicyIterationConfig& config = {}) {
  const std::size_t ns = mdp.num_states();
  const std::size_t na = mdp.num_actions();

  PolicyIterationResult result;
  result.policy.assign(ns, 0);
  result.values.assign(ns, 0.0);
  for (std::size_t s = 0; s < ns; ++s) {
    if (mdp.is_terminal(static_cast<State>(s))) {
      result.values[s] = mdp.terminal_cost(static_cast<State>(s));
    }
  }

  std::vector<Transition> scratch;
  scratch.reserve(64);

  for (std::size_t round = 0; round < config.max_policy_updates; ++round) {
    for (std::size_t sweep = 0; sweep < config.max_eval_sweeps; ++sweep) {
      double residual = 0.0;
      for (std::size_t s = 0; s < ns; ++s) {
        const auto state = static_cast<State>(s);
        if (mdp.is_terminal(state)) continue;
        const double v =
            backup(mdp, state, result.policy[s], result.values, config.discount, scratch);
        residual = std::max(residual, std::abs(v - result.values[s]));
        result.values[s] = v;
      }
      if (residual <= config.eval_tolerance) break;
    }

    bool stable = true;
    for (std::size_t s = 0; s < ns; ++s) {
      const auto state = static_cast<State>(s);
      if (mdp.is_terminal(state)) continue;
      double best = std::numeric_limits<double>::infinity();
      Action best_a = result.policy[s];
      for (std::size_t a = 0; a < na; ++a) {
        const double q =
            backup(mdp, state, static_cast<Action>(a), result.values, config.discount, scratch);
        if (q < best - 1e-12) {
          best = q;
          best_a = static_cast<Action>(a);
        }
      }
      if (best_a != result.policy[s]) {
        result.policy[s] = best_a;
        stable = false;
      }
    }
    result.policy_updates = round + 1;
    if (stable) {
      result.converged = true;
      break;
    }
  }
  return result;
}

}  // namespace cav::mdp::oracle
