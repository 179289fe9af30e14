// Compiled-kernel tests: CompiledMdp must be a faithful flattening of the
// virtual FiniteMdp (CSR rows are proper distributions), and the compiled /
// parallel solver paths must reproduce the virtual-dispatch sweeps of the
// test oracle (oracles/mdp_reference.h) exactly on the paper's toy 2-D
// model.
#include "mdp/compiled_mdp.h"

#include <gtest/gtest.h>

#include <cmath>
#include <type_traits>
#include <utility>

#include "mdp/policy_iteration.h"
#include "mdp/value_iteration.h"
#include "oracles/mdp_reference.h"
#include "toy2d/toy2d_mdp.h"
#include "util/expect.h"
#include "util/thread_pool.h"

namespace cav::mdp {
namespace {

toy2d::Toy2dMdp toy_model() { return toy2d::Toy2dMdp{toy2d::Config{}}; }

TEST(CompiledMdp, MirrorsModelShapeAndTerminals) {
  const auto model = toy_model();
  const CompiledMdp compiled(model);
  ASSERT_EQ(compiled.num_states(), model.num_states());
  ASSERT_EQ(compiled.num_actions(), model.num_actions());
  for (std::size_t s = 0; s < model.num_states(); ++s) {
    const auto state = static_cast<State>(s);
    EXPECT_EQ(compiled.is_terminal(state), model.is_terminal(state)) << "state " << s;
    if (model.is_terminal(state)) {
      EXPECT_DOUBLE_EQ(compiled.terminal_cost(state), model.terminal_cost(state));
    } else {
      for (std::size_t a = 0; a < model.num_actions(); ++a) {
        EXPECT_DOUBLE_EQ(compiled.cost(state, static_cast<Action>(a)),
                         model.cost(state, static_cast<Action>(a)));
      }
    }
  }
}

// A compiled model is a plain value: it can be returned from a factory or
// stored in a container without a shared_ptr around it.
static_assert(std::is_move_constructible_v<CompiledMdp>);

TEST(CompiledMdp, MovedModelSolvesIdentically) {
  const auto model = toy_model();
  CompiledMdp source(model);
  const CompiledMdp moved(std::move(source));
  const auto expected = solve_value_iteration(CompiledMdp(model));
  const auto result = solve_value_iteration(moved);
  EXPECT_EQ(result.values, expected.values);
  EXPECT_EQ(result.policy, expected.policy);
}

TEST(CompiledMdp, CsrRowsAreProperDistributions) {
  const auto model = toy_model();
  const CompiledMdp compiled(model);
  const auto& offsets = compiled.row_offsets();
  const auto& prob = compiled.prob();
  const auto& next = compiled.next_state();
  ASSERT_EQ(offsets.size(), compiled.num_states() * compiled.num_actions() + 1);
  for (std::size_t s = 0; s < compiled.num_states(); ++s) {
    const auto state = static_cast<State>(s);
    for (std::size_t a = 0; a < compiled.num_actions(); ++a) {
      const std::size_t r = compiled.row(state, static_cast<Action>(a));
      if (compiled.is_terminal(state)) {
        EXPECT_EQ(offsets[r], offsets[r + 1]) << "terminal rows stay empty";
        continue;
      }
      double sum = 0.0;
      for (std::size_t k = offsets[r]; k < offsets[r + 1]; ++k) {
        EXPECT_LT(next[k], compiled.num_states());
        EXPECT_GT(prob[k], 0.0);
        sum += prob[k];
      }
      EXPECT_NEAR(sum, 1.0, 1e-12) << "row (" << s << ", " << a << ")";
    }
  }
}

TEST(CompiledMdp, BackupMatchesVirtualBackup) {
  const auto model = toy_model();
  const CompiledMdp compiled(model);
  Values values(model.num_states());
  for (std::size_t s = 0; s < values.size(); ++s) {
    values[s] = std::sin(static_cast<double>(s)) * 100.0;  // arbitrary but fixed
  }
  std::vector<Transition> scratch;
  for (std::size_t s = 0; s < model.num_states(); ++s) {
    const auto state = static_cast<State>(s);
    if (model.is_terminal(state)) continue;
    for (std::size_t a = 0; a < model.num_actions(); ++a) {
      const auto action = static_cast<Action>(a);
      // CSR preserves the expansion order, so the sums round identically.
      EXPECT_EQ(compiled.backup(state, action, values, 0.97),
                oracle::backup(model, state, action, values, 0.97, scratch))
          << "state " << s << " action " << a;
    }
  }
}

TEST(CompiledMdp, RejectsEmptyModel) {
  class EmptyMdp final : public FiniteMdp {
   public:
    std::size_t num_states() const override { return 0; }
    std::size_t num_actions() const override { return 1; }
    double cost(State, Action) const override { return 0.0; }
    void transitions(State, Action, std::vector<Transition>&) const override {}
    bool is_terminal(State) const override { return true; }
  };
  EXPECT_THROW(CompiledMdp{EmptyMdp{}}, ContractViolation);
}

TEST(CompiledMdp, RejectsUnnormalizedTransitions) {
  class BrokenMdp final : public FiniteMdp {
   public:
    std::size_t num_states() const override { return 2; }
    std::size_t num_actions() const override { return 1; }
    double cost(State, Action) const override { return 0.0; }
    void transitions(State, Action, std::vector<Transition>& out) const override {
      out.push_back({1, 0.5});  // sums to 0.5, violating the contract
    }
    bool is_terminal(State s) const override { return s == 1; }
  };
  EXPECT_THROW(CompiledMdp{BrokenMdp{}}, ContractViolation);
}

TEST(CompiledValueIteration, MatchesVirtualPathExactly) {
  const auto model = toy_model();
  const auto reference = oracle::solve_value_iteration(model);
  const auto compiled = solve_value_iteration(model);

  ASSERT_TRUE(reference.converged);
  ASSERT_TRUE(compiled.converged);
  EXPECT_EQ(compiled.iterations, reference.iterations);
  ASSERT_EQ(compiled.values.size(), reference.values.size());
  for (std::size_t s = 0; s < reference.values.size(); ++s) {
    EXPECT_EQ(compiled.values[s], reference.values[s]) << "state " << s;
  }
  ASSERT_EQ(compiled.q.q.size(), reference.q.q.size());
  for (std::size_t i = 0; i < reference.q.q.size(); ++i) {
    EXPECT_EQ(compiled.q.q[i], reference.q.q[i]) << "q entry " << i;
  }
  EXPECT_EQ(compiled.policy, reference.policy);
}

TEST(CompiledValueIteration, GaussSeidelMatchesVirtualGaussSeidel) {
  const auto model = toy_model();
  ValueIterationConfig config;
  config.gauss_seidel = true;
  const auto reference = oracle::solve_value_iteration(model, config);
  const auto compiled = solve_value_iteration(model, config);
  ASSERT_EQ(compiled.values.size(), reference.values.size());
  for (std::size_t s = 0; s < reference.values.size(); ++s) {
    EXPECT_EQ(compiled.values[s], reference.values[s]) << "state " << s;
  }
  EXPECT_EQ(compiled.policy, reference.policy);
}

TEST(CompiledValueIteration, ParallelMatchesSerialForAnyThreadCount) {
  const auto model = toy_model();
  const CompiledMdp compiled(model);
  const auto serial = solve_value_iteration(compiled);
  for (const std::size_t threads : {1U, 2U, 3U, 8U}) {
    ThreadPool pool(threads);
    ValueIterationConfig config;
    config.pool = &pool;
    const auto parallel = solve_value_iteration(compiled, config);
    EXPECT_EQ(parallel.iterations, serial.iterations) << threads << " threads";
    ASSERT_EQ(parallel.values.size(), serial.values.size());
    for (std::size_t s = 0; s < serial.values.size(); ++s) {
      EXPECT_EQ(parallel.values[s], serial.values[s])
          << "state " << s << " with " << threads << " threads";
    }
    for (std::size_t i = 0; i < serial.q.q.size(); ++i) {
      EXPECT_EQ(parallel.q.q[i], serial.q.q[i])
          << "q entry " << i << " with " << threads << " threads";
    }
    EXPECT_EQ(parallel.policy, serial.policy) << threads << " threads";
  }
}

TEST(CompiledFiniteHorizon, MatchesVirtualPathExactly) {
  const auto model = toy_model();
  const auto reference = oracle::solve_finite_horizon(model, 9);
  const auto compiled = solve_finite_horizon(model, 9);
  ASSERT_EQ(reference.size(), compiled.size());
  for (std::size_t t = 0; t < reference.size(); ++t) {
    for (std::size_t s = 0; s < reference[t].size(); ++s) {
      EXPECT_EQ(compiled[t][s], reference[t][s]) << "stage " << t << " state " << s;
    }
  }
}

TEST(CompiledFiniteHorizon, MatchesPerStageAndParallel) {
  const auto model = toy_model();
  const CompiledMdp compiled(model);
  const auto serial = solve_finite_horizon(compiled, 9);
  ThreadPool pool(3);
  const auto parallel = solve_finite_horizon(compiled, 9, 1.0, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t t = 0; t < serial.size(); ++t) {
    for (std::size_t s = 0; s < serial[t].size(); ++s) {
      EXPECT_EQ(serial[t][s], parallel[t][s]) << "stage " << t << " state " << s;
    }
  }
  // The toy model is episodic with depth x_max, so the full-horizon stage
  // equals the converged value-iteration fixpoint.
  const auto vi = solve_value_iteration(compiled);
  for (std::size_t s = 0; s < vi.values.size(); ++s) {
    EXPECT_NEAR(serial.back()[s], vi.values[s], 1e-9) << "state " << s;
  }
}

TEST(CompiledPolicyIteration, MatchesVirtualAndParallelImprovement) {
  const auto model = toy_model();
  const auto reference = oracle::solve_policy_iteration(model);
  ASSERT_TRUE(reference.converged);

  const auto compiled = solve_policy_iteration(model);
  EXPECT_TRUE(compiled.converged);
  EXPECT_EQ(compiled.policy, reference.policy);
  for (std::size_t s = 0; s < reference.values.size(); ++s) {
    EXPECT_EQ(compiled.values[s], reference.values[s]) << "state " << s;
  }

  ThreadPool pool(4);
  PolicyIterationConfig parallel_config;
  parallel_config.pool = &pool;
  const auto parallel = solve_policy_iteration(model, parallel_config);
  EXPECT_TRUE(parallel.converged);
  EXPECT_EQ(parallel.policy, reference.policy);
}

TEST(CompiledMdp, RefreshCostsMatchesFreshCompileBitwise) {
  // A cost-only revision of the SIII preference weights: the refreshed
  // kernel must be indistinguishable from flattening the revised model
  // from scratch — same costs, and bit-identical solver output.
  toy2d::Config revised_config;
  revised_config.collision_cost = 25000.0;
  revised_config.maneuver_cost = 40.0;
  revised_config.level_reward = 10.0;
  const toy2d::Toy2dMdp revised(revised_config);

  CompiledMdp refreshed(toy_model());
  refreshed.refresh_costs(revised);
  const CompiledMdp fresh(revised);

  for (std::size_t s = 0; s < fresh.num_states(); ++s) {
    const auto state = static_cast<State>(s);
    if (fresh.is_terminal(state)) {
      EXPECT_EQ(refreshed.terminal_cost(state), fresh.terminal_cost(state)) << "state " << s;
      continue;
    }
    for (std::size_t a = 0; a < fresh.num_actions(); ++a) {
      EXPECT_EQ(refreshed.cost(state, static_cast<Action>(a)),
                fresh.cost(state, static_cast<Action>(a)))
          << "state " << s << " action " << a;
    }
  }

  const auto from_refreshed = solve_value_iteration(refreshed);
  const auto from_fresh = solve_value_iteration(fresh);
  ASSERT_TRUE(from_refreshed.converged);
  EXPECT_EQ(from_refreshed.iterations, from_fresh.iterations);
  for (std::size_t s = 0; s < from_fresh.values.size(); ++s) {
    EXPECT_EQ(from_refreshed.values[s], from_fresh.values[s]) << "state " << s;
  }
  for (std::size_t i = 0; i < from_fresh.q.q.size(); ++i) {
    EXPECT_EQ(from_refreshed.q.q[i], from_fresh.q.q[i]) << "q entry " << i;
  }
  EXPECT_EQ(from_refreshed.policy, from_fresh.policy);
}

TEST(CompiledMdp, RefreshCostsIsUndoneByRefreshingBack) {
  const auto base = toy_model();
  CompiledMdp compiled(base);
  const auto before = solve_value_iteration(compiled);

  toy2d::Config revised_config;
  revised_config.maneuver_cost = 900.0;
  compiled.refresh_costs(toy2d::Toy2dMdp(revised_config));
  compiled.refresh_costs(base);

  const auto after = solve_value_iteration(compiled);
  for (std::size_t s = 0; s < before.values.size(); ++s) {
    EXPECT_EQ(after.values[s], before.values[s]) << "state " << s;
  }
}

TEST(CompiledMdp, RefreshCostsRejectsStructuralChanges) {
  CompiledMdp compiled(toy_model());
  // A different grid is a structural revision, not a cost revision.
  toy2d::Config bigger;
  bigger.x_max = 12;
  EXPECT_THROW(compiled.refresh_costs(toy2d::Toy2dMdp(bigger)), ContractViolation);

  // Same shape but a different terminal set must also be rejected.
  class ShiftedTerminals final : public FiniteMdp {
   public:
    explicit ShiftedTerminals(const toy2d::Toy2dMdp& base) : base_(base) {}
    std::size_t num_states() const override { return base_.num_states(); }
    std::size_t num_actions() const override { return base_.num_actions(); }
    double cost(State s, Action a) const override { return base_.cost(s, a); }
    void transitions(State s, Action a, std::vector<Transition>& out) const override {
      base_.transitions(s, a, out);
    }
    bool is_terminal(State s) const override { return !base_.is_terminal(s); }

   private:
    const toy2d::Toy2dMdp& base_;
  };
  const auto base = toy_model();
  const auto before = solve_value_iteration(compiled);
  EXPECT_THROW(compiled.refresh_costs(ShiftedTerminals(base)), ContractViolation);

  // Strong guarantee: the rejected revision left no partial writes — a
  // caller that catches the throw and keeps the model sees it unchanged.
  const auto after = solve_value_iteration(compiled);
  for (std::size_t s = 0; s < before.values.size(); ++s) {
    ASSERT_EQ(after.values[s], before.values[s]) << "state " << s;
  }
}

TEST(CompiledValueIteration, AgreesWithToy2dSolveThroughPool) {
  // toy2d::solve is the user-facing wiring; pooled and unpooled tables
  // must encode the same logic.
  const auto model = toy_model();
  const auto serial_table = toy2d::solve(model);
  ThreadPool pool(2);
  const auto parallel_table = toy2d::solve(model, &pool);
  EXPECT_EQ(serial_table.policy(), parallel_table.policy());
  for (std::size_t s = 0; s < serial_table.values().size(); ++s) {
    EXPECT_EQ(serial_table.values()[s], parallel_table.values()[s]) << "state " << s;
  }
}

}  // namespace
}  // namespace cav::mdp
