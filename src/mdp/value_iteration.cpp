#include "mdp/value_iteration.h"

#include <algorithm>
#include <atomic>
#include <cfloat>
#include <cmath>
#include <queue>
#include <utility>

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

PrioritizedSweepResult solve_prioritized(const CompiledMdp& mdp,
                                         const PrioritizedSweepConfig& config) {
  const std::size_t ns = mdp.num_states();
  const std::size_t na = mdp.num_actions();
  expect(ns > 0, "MDP has at least one state");
  expect(na > 0, "MDP has at least one action");
  expect(config.discount > 0.0 && config.discount <= 1.0, "discount in (0, 1]");
  const std::size_t budget =
      config.max_state_updates != 0 ? config.max_state_updates : 10000 * ns;

  PrioritizedSweepResult result;
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
  Values& v = result.values;

  // Max-heap with one live entry per state: priority[s] holds the current
  // bound and in_queue[s] says whether a heap entry exists for it.  A bound
  // that grows after its entry was pushed keeps the (now slightly low) heap
  // position — pop order is heuristic anyway; soundness only needs every
  // state with a bound above tolerance to stay queued until processed.
  std::vector<double> priority(ns, 0.0);
  std::vector<std::uint8_t> in_queue(ns, 0);
  std::priority_queue<std::pair<double, State>> heap;
  const auto enqueue = [&](State s, double p) {
    priority[s] = p;
    if (in_queue[s] == 0 && p > config.tolerance) {
      in_queue[s] = 1;
      heap.emplace(p, s);
    }
  };

  // Seed with the exact Bellman residual of every non-terminal state.
  const auto seed_all = [&] {
    for (std::size_t s = 0; s < ns; ++s) {
      const auto state = static_cast<State>(s);
      if (mdp.is_terminal(state)) continue;
      const double r = std::abs(mdp.bellman_min(state, v, config.discount) - v[s]);
      ++result.state_updates;
      enqueue(state, r);
    }
  };
  seed_all();

  const auto& pred_offsets = mdp.pred_offsets();
  const auto& pred_state = mdp.pred_state();
  Values sweep_next(ns, 0.0);

  while (true) {
    // Drain: back up the state with the (approximately) worst residual
    // bound.  Q rows are not written here — repeatedly-updated states would
    // waste the writes; the verification sweep below fills the whole table.
    while (!heap.empty() && result.state_updates < budget) {
      const State s = heap.top().second;
      heap.pop();
      // Defensive invariant check only: enqueue() pushes exactly on the
      // in_queue 0 -> 1 transition, so each heap entry is live when popped.
      if (in_queue[s] == 0) continue;
      in_queue[s] = 0;
      priority[s] = 0.0;
      const double nv = mdp.bellman_min(s, v, config.discount);
      ++result.state_updates;
      const double delta = std::abs(nv - v[s]);
      v[s] = nv;
      if (delta == 0.0) continue;
      // V(s) moved by delta, so any predecessor's Q can drift by at most
      // discount * p(s|.) * delta <= discount * delta; bounds accumulate.
      const double drift = config.discount * delta;
      for (std::size_t k = pred_offsets[s]; k < pred_offsets[s + 1]; ++k) {
        const State q = pred_state[k];
        if (mdp.is_terminal(q)) continue;
        enqueue(q, priority[q] + drift);
      }
    }
    const bool budget_exhausted = result.state_updates >= budget;

    // Queue drained: every bound is <= tolerance, which soundly bounds
    // every true residual.  One full Jacobi sweep fills the Q rows of
    // states the queue never visited and measures the exact residual.
    // This sweep also runs when the budget cut the drain short, so a
    // non-converged result still reports a measured residual and a policy
    // greedy w.r.t. its Q table (filled from the pre-sweep values; the
    // returned values end up one Bellman application ahead of it).
    double residual = 0.0;
    for (std::size_t s = 0; s < ns; ++s) {
      const auto state = static_cast<State>(s);
      if (mdp.is_terminal(state)) {
        sweep_next[s] = v[s];
        continue;
      }
      const double nv = mdp.bellman_update(state, v, config.discount, result.q);
      ++result.state_updates;
      residual = std::max(residual, std::abs(nv - v[s]));
      sweep_next[s] = nv;
    }
    v.swap(sweep_next);
    ++result.verification_sweeps;
    result.residual = residual;
    if (residual <= config.tolerance) {
      result.converged = true;
      break;
    }
    if (budget_exhausted || result.state_updates >= budget) break;
    // Either the budget interrupted the drain, or (floating-point edge)
    // the accumulated bounds under-estimated.  Reseed exactly and go on.
    for (auto& pr : priority) pr = 0.0;
    in_queue.assign(ns, 0);
    heap = {};
    seed_all();
  }

  result.policy = greedy_policy(result.q, ns);
  return result;
}

ValueIterationF32Result solve_value_iteration_f32(const CompiledMdp& mdp,
                                                  const ValueIterationConfig& config) {
  const std::size_t ns = mdp.num_states();
  const std::size_t na = mdp.num_actions();
  check_config(ns, na, config);
  expect(!config.gauss_seidel, "float32 value iteration is Jacobi-only");

  ValueIterationF32Result result;
  result.values.assign(ns, 0.0F);
  for (std::size_t s = 0; s < ns; ++s) {
    const auto state = static_cast<State>(s);
    if (mdp.is_terminal(state)) {
      result.values[s] = static_cast<float>(mdp.terminal_cost(state));
    }
  }
  std::vector<float> next = result.values;

  for (std::size_t it = 0; it < config.max_iterations; ++it) {
    double residual = 0.0;
    double value_scale = 0.0;
    if (config.pool != nullptr) {
      std::atomic<double> shared_residual{0.0};
      std::atomic<double> shared_scale{0.0};
      config.pool->parallel_for_ranges(ns, [&](std::size_t begin, std::size_t end) {
        double local_residual = 0.0;
        double local_scale = 0.0;
        for (std::size_t s = begin; s < end; ++s) {
          const auto state = static_cast<State>(s);
          if (mdp.is_terminal(state)) {
            local_scale = std::max(local_scale, std::abs(static_cast<double>(next[s])));
            continue;
          }
          const auto nv = static_cast<float>(mdp.bellman_min(state, result.values, config.discount));
          local_residual = std::max(
              local_residual, std::abs(static_cast<double>(nv) - result.values[s]));
          local_scale = std::max(local_scale, std::abs(static_cast<double>(nv)));
          next[s] = nv;
        }
        atomic_max(shared_residual, local_residual);
        atomic_max(shared_scale, local_scale);
      });
      residual = shared_residual.load();
      value_scale = shared_scale.load();
    } else {
      for (std::size_t s = 0; s < ns; ++s) {
        const auto state = static_cast<State>(s);
        if (mdp.is_terminal(state)) {
          value_scale = std::max(value_scale, std::abs(static_cast<double>(next[s])));
          continue;
        }
        const auto nv = static_cast<float>(mdp.bellman_min(state, result.values, config.discount));
        residual = std::max(residual, std::abs(static_cast<double>(nv) - result.values[s]));
        value_scale = std::max(value_scale, std::abs(static_cast<double>(nv)));
        next[s] = nv;
      }
    }
    result.values.swap(next);
    result.iterations = it + 1;
    result.residual = residual;
    // Residuals below the value scale's float ulp are quantization noise;
    // demanding less would spin forever on large-magnitude models.
    result.float_floor = 8.0 * static_cast<double>(FLT_EPSILON) * value_scale;
    if (residual <= std::max(config.tolerance, result.float_floor)) {
      result.converged = true;
      break;
    }
  }

  // Q (and the policy) are extracted in double from the converged float
  // layer, so tie-breaking follows the same rule as every other solver.
  result.q.num_actions = na;
  result.q.q.assign(ns * na, 0.0);
  for (std::size_t s = 0; s < ns; ++s) {
    const auto state = static_cast<State>(s);
    if (mdp.is_terminal(state)) {
      for (std::size_t a = 0; a < na; ++a) {
        result.q.at(state, static_cast<Action>(a)) = mdp.terminal_cost(state);
      }
      continue;
    }
    mdp.bellman_update(state, result.values, config.discount, result.q);
  }
  result.policy = greedy_policy(result.q, ns);
  return result;
}

}  // namespace cav::mdp
