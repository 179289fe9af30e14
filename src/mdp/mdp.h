// Generic finite Markov Decision Process interface.
//
// The paper (§II-§III) frames collision-avoidance logic generation as: build
// an MDP over encounter states with a cost ("punishment") model, then let
// dynamic programming compute the optimal policy — "the difficult task of
// optimizing the logic can then be left for computers".  This module is the
// reusable DP machinery; concrete models (toy2d, acasx) implement the
// FiniteMdp interface or, for the large tau-layered ACAS model, a
// specialized backward-induction solver built on the same conventions.
//
// Convention: we MINIMIZE expected discounted COST, matching the paper's
// punishment framing (collision = +10000, maneuver = +100, level-off = -50).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cav::mdp {

using State = std::uint32_t;
using Action = std::uint16_t;

/// One entry of a sparse transition distribution.
struct Transition {
  State next;
  double prob;
};

/// A finite MDP with dense state/action index spaces.
///
/// Terminal states absorb: solvers never expand their transitions and fix
/// their value to terminal_cost().
class FiniteMdp {
 public:
  virtual ~FiniteMdp() = default;

  virtual std::size_t num_states() const = 0;
  virtual std::size_t num_actions() const = 0;

  /// Immediate cost of taking `a` in `s` (before the transition resolves).
  virtual double cost(State s, Action a) const = 0;

  /// Append the transition distribution for (s, a) to `out` (cleared by the
  /// caller).  Probabilities must sum to 1 within numerical tolerance.
  virtual void transitions(State s, Action a, std::vector<Transition>& out) const = 0;

  /// True for absorbing states whose value equals terminal_cost(s).
  virtual bool is_terminal(State s) const = 0;

  /// Value assigned to a terminal state (0 by default).
  virtual double terminal_cost(State) const { return 0.0; }
};

/// A deterministic policy: one action per state (meaningless at terminals).
using Policy = std::vector<Action>;

/// State-value vector, one expected cost per state.
using Values = std::vector<double>;

/// Dense Q table indexed q[s * num_actions + a].
struct QTable {
  std::size_t num_actions = 0;
  std::vector<double> q;

  double at(State s, Action a) const { return q[static_cast<std::size_t>(s) * num_actions + a]; }
  double& at(State s, Action a) { return q[static_cast<std::size_t>(s) * num_actions + a]; }
};

/// Extract the greedy (cost-minimizing) policy from a Q table.
///
/// Tie-breaking is deterministic: among equal-cost actions the LOWEST
/// action index wins.  Every solver (virtual or compiled, serial or
/// parallel) funnels through this rule, so logic tables are reproducible
/// bit-for-bit across runs and thread counts.
Policy greedy_policy(const QTable& table, std::size_t num_states);

}  // namespace cav::mdp
