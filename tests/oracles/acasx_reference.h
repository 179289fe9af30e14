// Test oracle: the pairwise ACAS XU logic-table solve as it stood before
// the stencil refactor.  Each tau layer recomputes every successor scatter
// from the dynamics model: per (grid point, action), average over the
// acceleration-noise hypotheses, scatter each successor onto the grid, and
// take the costed Bellman minimum per advisory memory.
//
// The library's solve_logic_table (acasx/offline_solver.h) precompiles
// those scatters into stencils but keeps this two-level accumulation order
// (inner interpolation sum, pair-weighted outer sum), so the tests demand a
// bit-identical table from it.  Serial on purpose: the oracle is short,
// not fast.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "acasx/dynamics.h"
#include "acasx/logic_table.h"

namespace cav::acasx::oracle {

/// Expected next-layer value of one (state, action), read from the value
/// layer v_next[grid_flat * kNumAdvisories + ra].
inline double expected_next_value(const GridN<3>& grid, const std::vector<float>& v_next,
                                  double h, double dh_own, double dh_int, Advisory action,
                                  const DynamicsConfig& dyn,
                                  const std::array<NoiseSample, 3>& noise) {
  const double dt = dyn.dt_s;
  // Own-ship: deterministic compliance under an advisory, noise under COC.
  const bool own_noisy = (action == Advisory::kCoc);
  const double dh_own_cmd = advisory_rate_response(dh_own, action, dyn);

  const auto ra_next = static_cast<std::size_t>(action);
  double acc = 0.0;
  for (const NoiseSample& own_n : noise) {
    const double w_own = own_noisy ? own_n.weight : (own_n.accel_fps2 == 0.0 ? 1.0 : 0.0);
    if (w_own == 0.0) continue;
    const double dh_own_new =
        std::clamp(dh_own_cmd + (own_noisy ? own_n.accel_fps2 * dt : 0.0),
                   grid.axis(1).lo(), grid.axis(1).hi());
    for (const NoiseSample& int_n : noise) {
      const double dh_int_new =
          std::clamp(dh_int + int_n.accel_fps2 * dt, grid.axis(2).lo(), grid.axis(2).hi());
      const double h_new =
          integrate_relative_altitude(h, dh_own, dh_own_new, dh_int, dh_int_new, dt);
      double value = 0.0;
      for (const auto& vert : grid.scatter({h_new, dh_own_new, dh_int_new})) {
        value += vert.weight *
                 static_cast<double>(v_next[vert.flat * kNumAdvisories + ra_next]);
      }
      acc += w_own * int_n.weight * value;
    }
  }
  return acc;
}

/// Full backward induction over tau for `config`.
inline LogicTable solve_logic_table(const AcasXuConfig& config) {
  LogicTable table(config);
  const GridN<3>& grid = table.grid();
  const std::size_t num_points = grid.size();
  const auto noise = sigma_samples(config.dynamics.accel_noise_sigma_fps2);

  // Value layers V(tau, g, ra), alternating: layer tau lives in
  // values[tau % 2].
  std::array<std::vector<float>, 2> values;
  values.fill(std::vector<float>(num_points * kNumAdvisories, 0.0F));

  // Terminal layer (tau = 0): NMAC cost inside the vertical band, else 0,
  // for every advisory memory and every action.
  for (std::size_t g = 0; g < num_points; ++g) {
    const double h = grid.axis(0).value(grid.unflatten(g)[0]);
    const float terminal = (std::abs(h) <= config.costs.nmac_h_ft)
                               ? static_cast<float>(config.costs.nmac_cost)
                               : 0.0F;
    for (std::size_t ra = 0; ra < kNumAdvisories; ++ra) {
      values[0][g * kNumAdvisories + ra] = terminal;
      for (std::size_t a = 0; a < kNumAdvisories; ++a) {
        table.at(0, g, static_cast<Advisory>(ra), static_cast<Advisory>(a)) = terminal;
      }
    }
  }

  for (std::size_t tau = 1; tau <= config.space.tau_max; ++tau) {
    const std::vector<float>& v_prev = values[(tau - 1) % 2];
    std::vector<float>& v_cur = values[tau % 2];
    for (std::size_t g = 0; g < num_points; ++g) {
      const auto idx = grid.unflatten(g);
      const double h = grid.axis(0).value(idx[0]);
      const double dh_own = grid.axis(1).value(idx[1]);
      const double dh_int = grid.axis(2).value(idx[2]);
      // The successor values depend on the advisory memory only through
      // ra' = a, so they are computed once per point.
      std::array<double, kNumAdvisories> next_value{};
      for (std::size_t a = 0; a < kNumAdvisories; ++a) {
        next_value[a] = expected_next_value(grid, v_prev, h, dh_own, dh_int,
                                            static_cast<Advisory>(a), config.dynamics, noise);
      }
      for (std::size_t ra = 0; ra < kNumAdvisories; ++ra) {
        double best = std::numeric_limits<double>::infinity();
        for (std::size_t a = 0; a < kNumAdvisories; ++a) {
          const double q = action_cost(static_cast<Advisory>(ra), static_cast<Advisory>(a),
                                       config.costs) +
                           next_value[a];
          table.at(tau, g, static_cast<Advisory>(ra), static_cast<Advisory>(a)) =
              static_cast<float>(q);
          best = std::min(best, q);
        }
        v_cur[g * kNumAdvisories + ra] = static_cast<float>(best);
      }
    }
  }
  return table;
}

}  // namespace cav::acasx::oracle
