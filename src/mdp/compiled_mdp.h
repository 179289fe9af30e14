// Compiled-kernel representation of a FiniteMdp.
//
// The virtual FiniteMdp interface is convenient for model authors but
// expensive for solvers: every Bellman backup re-expands the (s, a)
// transition distribution through two virtual calls and a heap-backed
// scratch vector, on every sweep.  CompiledMdp pays that expansion cost
// ONCE, flattening the whole model into contiguous arrays:
//
//   * a CSR sparse matrix over (s, a) rows — row_offsets / next_state /
//     prob — holding every transition entry back to back,
//   * a dense per-(s, a) cost table,
//   * a terminal mask and terminal-value vector.
//
// Sweeps then reduce to branch-free streaming over flat arrays, which is
// both cache-friendly and safely shareable across threads (the compiled
// model is immutable after construction, except for the explicit
// refresh_costs() revision hook below).  The solvers in value_iteration.h /
// policy_iteration.h all run on this kernel.
//
// Transition entries preserve the order in which FiniteMdp::transitions()
// emitted them, so compiled backups accumulate in the same floating-point
// order as a virtual-dispatch backup and produce bit-identical values (the
// tests check this against tests/oracles/mdp_reference.h).
//
// Model-revision loops that re-tune costs while keeping the transition
// structure (the paper's Fig. 1 "manual model revision" edge re-weights
// punishments, not dynamics) call refresh_costs() instead of re-flattening:
// the CSR arrays and terminal mask stay valid.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "mdp/mdp.h"

namespace cav::mdp {

class CompiledMdp {
 public:
  /// Expand `mdp` into flat arrays.  Validates that every non-terminal
  /// (s, a) row's probabilities sum to 1 within 1e-6 (the FiniteMdp
  /// contract) and that every successor index is in range.
  explicit CompiledMdp(const FiniteMdp& mdp);

  /// Re-read the costs and terminal costs of `mdp` into the existing
  /// compiled structure — a cost-only model revision.  The transition
  /// structure (CSR arrays, terminal mask) is reused untouched,
  /// so revision loops skip the expensive re-flatten.  Validates that the
  /// state/action counts and the terminal mask match the compiled model;
  /// the caller guarantees the transition DISTRIBUTIONS are unchanged
  /// (they are not re-read).
  void refresh_costs(const FiniteMdp& mdp);

  std::size_t num_states() const { return num_states_; }
  std::size_t num_actions() const { return num_actions_; }

  bool is_terminal(State s) const { return terminal_[s] != 0; }
  double terminal_cost(State s) const { return terminal_cost_[s]; }

  /// Immediate cost of (s, a).
  double cost(State s, Action a) const { return cost_[row(s, a)]; }

  /// CSR row for (s, a): entries [row_offsets[r], row_offsets[r + 1]).
  /// Terminal states have empty rows (solvers never expand them).
  std::size_t row(State s, Action a) const {
    return static_cast<std::size_t>(s) * num_actions_ + a;
  }
  const std::vector<std::size_t>& row_offsets() const { return row_offsets_; }
  const std::vector<State>& next_state() const { return next_state_; }
  const std::vector<double>& prob() const { return prob_; }

  /// Expected cost of (s, a): cost + discount * sum_s' p * V(s'), with no
  /// virtual calls and no scratch — bit-identical to a virtual-dispatch
  /// backup over the same model.
  double backup(State s, Action a, const Values& values, double discount) const {
    const std::size_t r = row(s, a);
    double expected = 0.0;
    for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      expected += prob_[k] * values[next_state_[k]];
    }
    return cost_[r] + discount * expected;
  }

  /// Full Bellman update for one state: writes the Q row, returns the
  /// minimum (ties keep the lowest action, matching greedy_policy).
  double bellman_update(State s, const Values& values, double discount, QTable& q) const {
    double best = kInfinity;
    for (std::size_t a = 0; a < num_actions_; ++a) {
      const double qa = backup(s, static_cast<Action>(a), values, discount);
      q.at(s, static_cast<Action>(a)) = qa;
      if (qa < best) best = qa;
    }
    return best;
  }

  /// Minimum expected cost over actions without recording Q.
  double bellman_min(State s, const Values& values, double discount) const {
    double best = kInfinity;
    for (std::size_t a = 0; a < num_actions_; ++a) {
      const double qa = backup(s, static_cast<Action>(a), values, discount);
      if (qa < best) best = qa;
    }
    return best;
  }

  /// Total stored transition entries (diagnostics / benches).
  std::size_t num_entries() const { return next_state_.size(); }

 private:
  static constexpr double kInfinity = std::numeric_limits<double>::infinity();

  std::size_t num_states_ = 0;
  std::size_t num_actions_ = 0;
  std::vector<std::size_t> row_offsets_;  ///< num_states * num_actions + 1
  std::vector<State> next_state_;
  std::vector<double> prob_;
  std::vector<double> cost_;             ///< dense, row-indexed
  std::vector<std::uint8_t> terminal_;   ///< dense mask
  std::vector<double> terminal_cost_;    ///< dense, 0 for non-terminals
};

}  // namespace cav::mdp
