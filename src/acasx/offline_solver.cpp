#include "acasx/offline_solver.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "acasx/dynamics.h"
#include "util/expect.h"

namespace cav::acasx {
namespace {

/// Value function for one tau layer: v[grid_flat * kNumAdvisories + ra].
using ValueLayer = std::vector<float>;

/// Expected next-layer value for one (state, action): average over the
/// applicable acceleration-noise hypotheses, each scattered onto the grid.
/// Reference kernel — the stencil path must agree with this to rounding.
double expected_next_value(const GridN<3>& grid, const ValueLayer& v_next, double h,
                           double dh_own, double dh_int, Advisory action,
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
      const auto vertices = grid.scatter({h_new, dh_own_new, dh_int_new});
      double value = 0.0;
      for (const auto& vert : vertices) {
        value += vert.weight *
                 static_cast<double>(v_next[vert.flat * kNumAdvisories + ra_next]);
      }
      acc += w_own * int_n.weight * value;
    }
  }
  return acc;
}

/// One row's groups, built independently per grid point for parallelism.
struct StencilRow {
  struct Group {
    double pair_weight;
    std::vector<GridVertexWeight> entries;
  };
  std::vector<Group> groups;
};

/// Record the stencil row for one (grid point, action): the same noise /
/// dynamics / scatter walk as expected_next_value, stored instead of
/// evaluated.
StencilRow build_stencil_row(const GridN<3>& grid, double h, double dh_own, double dh_int,
                             Advisory action, const DynamicsConfig& dyn,
                             const std::array<NoiseSample, 3>& noise) {
  const double dt = dyn.dt_s;
  const bool own_noisy = (action == Advisory::kCoc);
  const double dh_own_cmd = advisory_rate_response(dh_own, action, dyn);

  StencilRow row;
  row.groups.reserve(noise.size() * noise.size());
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
      row.groups.push_back(
          {w_own * int_n.weight, grid.scatter({h_new, dh_own_new, dh_int_new})});
    }
  }
  return row;
}

StencilSet build_stencils(const GridN<3>& grid, const DynamicsConfig& dyn,
                          const std::array<NoiseSample, 3>& noise, ThreadPool* pool) {
  const std::size_t num_points = grid.size();
  const std::size_t num_rows = num_points * kNumAdvisories;

  // Row sizes are data-dependent, so build per-point rows independently
  // (parallel) and concatenate with a serial prefix pass afterwards.
  std::vector<StencilRow> rows(num_rows);
  const auto build_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t g = begin; g < end; ++g) {
      const auto idx = grid.unflatten(g);
      const double h = grid.axis(0).value(idx[0]);
      const double dh_own = grid.axis(1).value(idx[1]);
      const double dh_int = grid.axis(2).value(idx[2]);
      for (std::size_t a = 0; a < kNumAdvisories; ++a) {
        rows[g * kNumAdvisories + a] = build_stencil_row(
            grid, h, dh_own, dh_int, static_cast<Advisory>(a), dyn, noise);
      }
    }
  };
  if (pool != nullptr) {
    pool->parallel_for_ranges(num_points, build_range);
  } else {
    build_range(0, num_points);
  }

  StencilSet set;
  set.group_offsets.assign(num_rows + 1, 0);
  std::size_t num_groups = 0;
  std::size_t num_entries = 0;
  for (std::size_t r = 0; r < num_rows; ++r) {
    num_groups += rows[r].groups.size();
    set.group_offsets[r + 1] = num_groups;
    for (const auto& group : rows[r].groups) num_entries += group.entries.size();
  }
  set.group_weight.reserve(num_groups);
  set.entry_offsets.reserve(num_groups + 1);
  set.entry_offsets.push_back(0);
  set.vertex.reserve(num_entries);
  set.weight.reserve(num_entries);
  for (auto& row : rows) {
    for (const auto& group : row.groups) {
      set.group_weight.push_back(group.pair_weight);
      for (const auto& e : group.entries) {
        set.vertex.push_back(static_cast<std::uint32_t>(e.flat));
        set.weight.push_back(e.weight);
      }
      set.entry_offsets.push_back(set.vertex.size());
    }
    row = StencilRow{};  // release per-row heap early; caps peak memory at ~1x
  }
  return set;
}

/// Fill the terminal (tau = 0) value layer: out[g * kNumAdvisories + ra],
/// sized num_grid_points * kNumAdvisories.
void fill_pair_terminal_layer(const AcasXuConfig& config, std::span<float> out) {
  const GridN<3> grid = config.space.grid();
  expect(out.size() == grid.size() * kNumAdvisories, "terminal layer buffer matches grid");
  for (std::size_t g = 0; g < grid.size(); ++g) {
    const auto idx = grid.unflatten(g);
    const double h = grid.axis(0).value(idx[0]);
    const float terminal =
        (std::abs(h) <= config.costs.nmac_h_ft) ? static_cast<float>(config.costs.nmac_cost)
                                                : 0.0F;
    for (std::size_t ra = 0; ra < kNumAdvisories; ++ra) {
      out[g * kNumAdvisories + ra] = terminal;
    }
  }
}

/// Apply one tau layer's stencil sweep to grid points [begin, end), given
/// the full previous value layer.  Writes
///   q_out[(g - begin) * kNumAdvisories^2 + ra * kNumAdvisories + a]
///   v_out[(g - begin) * kNumAdvisories + ra]
void sweep_pair_layer_range(const AcasXuConfig& config, const StencilSet& stencils,
                            std::span<const float> v_prev, std::size_t begin, std::size_t end,
                            float* q_out, float* v_out) {
  for (std::size_t g = begin; g < end; ++g) {
    std::array<double, kNumAdvisories> next_value{};
    for (std::size_t a = 0; a < kNumAdvisories; ++a) {
      const std::size_t r = g * kNumAdvisories + a;
      double acc = 0.0;
      for (std::size_t j = stencils.group_offsets[r]; j < stencils.group_offsets[r + 1]; ++j) {
        double value = 0.0;
        for (std::size_t k = stencils.entry_offsets[j]; k < stencils.entry_offsets[j + 1]; ++k) {
          value += stencils.weight[k] *
                   static_cast<double>(v_prev[stencils.vertex[k] * kNumAdvisories + a]);
        }
        acc += stencils.group_weight[j] * value;
      }
      next_value[a] = acc;
    }
    float* const q_row = q_out + (g - begin) * kNumAdvisories * kNumAdvisories;
    float* const v_row = v_out + (g - begin) * kNumAdvisories;
    for (std::size_t ra = 0; ra < kNumAdvisories; ++ra) {
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t a = 0; a < kNumAdvisories; ++a) {
        const double q = action_cost(static_cast<Advisory>(ra), static_cast<Advisory>(a),
                                     config.costs) +
                         next_value[a];
        q_row[ra * kNumAdvisories + a] = static_cast<float>(q);
        best = std::min(best, q);
      }
      v_row[ra] = static_cast<float>(best);
    }
  }
}

/// The tau backward induction shared by solve_logic_table and
/// CompiledAcasModel::solve.  `stencils` must be non-null in
/// kPrecompiledStencils mode and is ignored in kReference mode; `config`
/// carries the cost model actually applied (possibly a revision of the one
/// the stencils were built under — the stencils only depend on space and
/// dynamics).
LogicTable run_backward_induction(const AcasXuConfig& config, const StencilSet* stencil_set,
                                  SolverMode mode, ThreadPool* pool, SolveStats* stats,
                                  std::chrono::steady_clock::time_point start_time) {
  LogicTable table(config);
  const GridN<3>& grid = table.grid();
  const std::size_t num_points = grid.size();
  const std::size_t tau_max = config.space.tau_max;
  const auto noise = sigma_samples(config.dynamics.accel_noise_sigma_fps2);

  // Terminal layer (tau = 0): the encounter resolves now; the only thing
  // that matters is whether vertical separation is an NMAC.  The value is
  // independent of rates and advisory memory.
  ValueLayer v_prev(num_points * kNumAdvisories, 0.0F);
  fill_pair_terminal_layer(config, v_prev);
  // Q at tau=0 equals the terminal value for every (ra, action) so that
  // online interpolation near tau=0 degrades gracefully.
  for (std::size_t g = 0; g < num_points; ++g) {
    for (std::size_t ra = 0; ra < kNumAdvisories; ++ra) {
      const float terminal = v_prev[g * kNumAdvisories + ra];
      for (std::size_t a = 0; a < kNumAdvisories; ++a) {
        table.at(0, g, static_cast<Advisory>(ra), static_cast<Advisory>(a)) = terminal;
      }
    }
  }

  expect(mode == SolverMode::kReference || stencil_set != nullptr,
         "stencil mode requires precompiled stencils");
  // Guard against grid/stencil divergence: a stencil set built for a
  // different discretization would silently scatter onto wrong (or
  // out-of-range) vertices.
  expect(stencil_set == nullptr ||
             stencil_set->group_offsets.size() == num_points * kNumAdvisories + 1,
         "stencils were built for this grid");

  ValueLayer v_cur(num_points * kNumAdvisories, 0.0F);

  // Per-point layer update for the reference mode: expected successor
  // values per action (hoisted out of the ra loop — they depend on the
  // advisory memory only through the successor's ra' = a), then the costed
  // Bellman minimum.  The stencil mode runs the same epilogue inside
  // sweep_pair_layer_range.
  const auto finish_point = [&](std::size_t tau, std::size_t g,
                                const std::array<double, kNumAdvisories>& next_value) {
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
  };

  const auto solve_point_reference = [&](std::size_t tau, std::size_t g) {
    const auto idx = grid.unflatten(g);
    const double h = grid.axis(0).value(idx[0]);
    const double dh_own = grid.axis(1).value(idx[1]);
    const double dh_int = grid.axis(2).value(idx[2]);
    std::array<double, kNumAdvisories> next_value{};
    for (std::size_t a = 0; a < kNumAdvisories; ++a) {
      next_value[a] = expected_next_value(grid, v_prev, h, dh_own, dh_int,
                                          static_cast<Advisory>(a), config.dynamics, noise);
    }
    finish_point(tau, g, next_value);
  };

  // The tau layer is contiguous in the table (point index next-fastest
  // after tau), so the stencil sweep writes its Q values straight into the
  // layer's slice via the shared range kernel.
  constexpr std::size_t kQPerPoint = kNumAdvisories * kNumAdvisories;
  float* const q_base = table.raw().data();

  for (std::size_t tau = 1; tau <= tau_max; ++tau) {
    float* const q_layer = q_base + tau * num_points * kQPerPoint;
    const auto sweep_range = [&](std::size_t begin, std::size_t end) {
      if (mode == SolverMode::kPrecompiledStencils) {
        sweep_pair_layer_range(config, *stencil_set, v_prev, begin, end,
                               q_layer + begin * kQPerPoint,
                               v_cur.data() + begin * kNumAdvisories);
      } else {
        for (std::size_t g = begin; g < end; ++g) solve_point_reference(tau, g);
      }
    };
    if (pool != nullptr) {
      pool->parallel_for_ranges(num_points, sweep_range);
    } else {
      sweep_range(0, num_points);
    }
    v_prev.swap(v_cur);
  }

  if (stats != nullptr) {
    stats->states_per_layer = num_points * kNumAdvisories;
    stats->layers = tau_max + 1;
    stats->wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time).count();
  }
  return table;
}

/// The one stencil-build entry point (grid + noise + timing), shared by
/// solve_logic_table's stencil mode and CompiledAcasModel so the two build
/// paths cannot diverge.
StencilSet build_stencils_for(const AcasXuConfig& config, ThreadPool* pool,
                              double& build_seconds) {
  const auto build_start = std::chrono::steady_clock::now();
  StencilSet stencils =
      build_stencils(config.space.grid(), config.dynamics,
                     sigma_samples(config.dynamics.accel_noise_sigma_fps2), pool);
  build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - build_start).count();
  return stencils;
}

}  // namespace

LogicTable solve_logic_table(const AcasXuConfig& config, ThreadPool* pool, SolveStats* stats,
                             SolverMode mode) {
  const auto start_time = std::chrono::steady_clock::now();

  StencilSet stencils;
  if (mode == SolverMode::kPrecompiledStencils) {
    double build_seconds = 0.0;
    stencils = build_stencils_for(config, pool, build_seconds);
    if (stats != nullptr) {
      stats->stencil_entries = stencils.num_entries();
      stats->stencil_build_seconds = build_seconds;
    }
  }
  return run_backward_induction(config, mode == SolverMode::kPrecompiledStencils ? &stencils : nullptr,
                                mode, pool, stats, start_time);
}

CompiledAcasModel::CompiledAcasModel(const AcasXuConfig& config, ThreadPool* pool)
    : config_(config) {
  stencils_ = build_stencils_for(config, pool, build_seconds_);
}

LogicTable CompiledAcasModel::solve(const CostModel& costs, ThreadPool* pool,
                                    SolveStats* stats) const {
  AcasXuConfig revised = config_;
  revised.costs = costs;
  const auto start_time = std::chrono::steady_clock::now();
  if (stats != nullptr) {
    stats->stencil_entries = stencils_.num_entries();
    stats->stencil_build_seconds = 0.0;  // amortized at construction
  }
  return run_backward_induction(revised, &stencils_, SolverMode::kPrecompiledStencils,
                                pool, stats, start_time);
}

LogicTable CompiledAcasModel::solve(ThreadPool* pool, SolveStats* stats) const {
  return solve(config_.costs, pool, stats);
}

}  // namespace cav::acasx
