#include "mdp/compiled_mdp.h"

#include <cmath>

#include "util/expect.h"

namespace cav::mdp {

CompiledMdp::CompiledMdp(const FiniteMdp& mdp)
    : num_states_(mdp.num_states()), num_actions_(mdp.num_actions()) {
  expect(num_states_ > 0, "MDP has at least one state");
  expect(num_actions_ > 0, "MDP has at least one action");

  const std::size_t rows = num_states_ * num_actions_;
  row_offsets_.assign(rows + 1, 0);
  cost_.assign(rows, 0.0);
  terminal_.assign(num_states_, 0);
  terminal_cost_.assign(num_states_, 0.0);

  std::vector<Transition> scratch;
  scratch.reserve(64);

  // Two-pass expansion would call transitions() twice per row; instead grow
  // the entry arrays in one pass (the expansion happens exactly once).
  next_state_.reserve(rows);  // lower bound; vectors grow geometrically
  prob_.reserve(rows);

  for (std::size_t s = 0; s < num_states_; ++s) {
    const auto state = static_cast<State>(s);
    if (mdp.is_terminal(state)) {
      terminal_[s] = 1;
      terminal_cost_[s] = mdp.terminal_cost(state);
      // Terminal rows stay empty; offsets just repeat.
      for (std::size_t a = 0; a < num_actions_; ++a) {
        row_offsets_[row(state, static_cast<Action>(a)) + 1] = next_state_.size();
      }
      continue;
    }
    for (std::size_t a = 0; a < num_actions_; ++a) {
      const auto action = static_cast<Action>(a);
      cost_[row(state, action)] = mdp.cost(state, action);
      scratch.clear();
      mdp.transitions(state, action, scratch);
      double sum = 0.0;
      for (const Transition& t : scratch) {
        ensure(t.next < num_states_, "transition target within the state space");
        ensure(t.prob >= 0.0, "transition probability non-negative");
        next_state_.push_back(t.next);
        prob_.push_back(t.prob);
        sum += t.prob;
      }
      ensure(std::abs(sum - 1.0) < 1e-6, "transition probabilities sum to 1");
      row_offsets_[row(state, action) + 1] = next_state_.size();
    }
  }
}

void CompiledMdp::refresh_costs(const FiniteMdp& mdp) {
  // Validate BEFORE writing anything: a rejected revision (e.g. an invalid
  // GA candidate the caller catches and skips) must leave the compiled
  // model exactly as it was, not half-refreshed.
  expect(mdp.num_states() == num_states_, "revised model keeps the state count");
  expect(mdp.num_actions() == num_actions_, "revised model keeps the action count");
  for (std::size_t s = 0; s < num_states_; ++s) {
    ensure(mdp.is_terminal(static_cast<State>(s)) == (terminal_[s] != 0),
           "revised model keeps the terminal set (cost-only revision)");
  }
  for (std::size_t s = 0; s < num_states_; ++s) {
    const auto state = static_cast<State>(s);
    if (terminal_[s] != 0) {
      terminal_cost_[s] = mdp.terminal_cost(state);
      continue;
    }
    for (std::size_t a = 0; a < num_actions_; ++a) {
      const auto action = static_cast<Action>(a);
      cost_[row(state, action)] = mdp.cost(state, action);
    }
  }
}

}  // namespace cav::mdp
