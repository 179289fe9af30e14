#include "mdp/mdp.h"

#include <limits>

namespace cav::mdp {

Policy greedy_policy(const QTable& table, std::size_t num_states) {
  Policy policy(num_states, 0);
  for (std::size_t s = 0; s < num_states; ++s) {
    double best = std::numeric_limits<double>::infinity();
    Action best_a = 0;
    for (std::size_t a = 0; a < table.num_actions; ++a) {
      const double q = table.q[s * table.num_actions + a];
      // Strict < keeps the lowest action index on ties (documented contract).
      if (q < best) {
        best = q;
        best_a = static_cast<Action>(a);
      }
    }
    policy[s] = best_a;
  }
  return policy;
}

}  // namespace cav::mdp
