#include "acasx/joint_solver.h"

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

/// Value function for one tau layer of one slab:
/// v[grid4_flat * kNumAdvisories + ra].
using ValueLayer = std::vector<float>;

struct StencilRow {
  struct Group {
    double pair_weight;
    std::vector<GridVertexWeight> entries;
  };
  std::vector<Group> groups;
};

/// Record the stencil row for one (joint grid point, action): the pairwise
/// noise/dynamics walk for (h1, dh_own, dh_int1) plus the deterministic
/// secondary update for h2, scattered jointly onto the 4-D grid.
StencilRow build_stencil_row(const GridN<4>& grid, double h1, double dh_own, double dh_int1,
                             double h2, double dh2_rep, Advisory action,
                             const DynamicsConfig& dyn,
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
    // The secondary's altitude responds to the own-ship's rate change with
    // the same trapezoidal integration as the primary; its own rate is the
    // slab's constant representative rate (off-grid h2' clamps at the h2
    // axis boundary via scatter, like every other table boundary).
    const double h2_new =
        integrate_relative_altitude(h2, dh_own, dh_own_new, dh2_rep, dh2_rep, dt);
    for (const NoiseSample& int_n : noise) {
      const double dh_int1_new =
          std::clamp(dh_int1 + int_n.accel_fps2 * dt, grid.axis(2).lo(), grid.axis(2).hi());
      const double h1_new =
          integrate_relative_altitude(h1, dh_own, dh_own_new, dh_int1, dh_int1_new, dt);
      row.groups.push_back(
          {w_own * int_n.weight, grid.scatter({h1_new, dh_own_new, dh_int1_new, h2_new})});
    }
  }
  return row;
}

StencilSet build_sense_stencils(const GridN<4>& grid, double dh2_rep,
                                const DynamicsConfig& dyn,
                                const std::array<NoiseSample, 3>& noise, ThreadPool* pool) {
  const std::size_t num_points = grid.size();
  const std::size_t num_rows = num_points * kNumAdvisories;

  std::vector<StencilRow> rows(num_rows);
  const auto build_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t g = begin; g < end; ++g) {
      const auto idx = grid.unflatten(g);
      const double h1 = grid.axis(0).value(idx[0]);
      const double dh_own = grid.axis(1).value(idx[1]);
      const double dh_int1 = grid.axis(2).value(idx[2]);
      const double h2 = grid.axis(3).value(idx[3]);
      for (std::size_t a = 0; a < kNumAdvisories; ++a) {
        rows[g * kNumAdvisories + a] = build_stencil_row(
            grid, h1, dh_own, dh_int1, h2, dh2_rep, static_cast<Advisory>(a), dyn, noise);
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

JointStencilSets build_stencils_for(const JointConfig& config, ThreadPool* pool,
                                    double& build_seconds) {
  const auto build_start = std::chrono::steady_clock::now();
  const GridN<4> grid = config.grid();
  const auto noise = sigma_samples(config.dynamics.accel_noise_sigma_fps2);
  JointStencilSets sets;
  for (std::size_t s = 0; s < kNumSecondarySenses; ++s) {
    const double dh2_rep =
        config.secondary.representative_rate_fps(static_cast<SecondarySense>(s));
    sets.per_sense[s] = build_sense_stencils(grid, dh2_rep, config.dynamics, noise, pool);
  }
  build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - build_start).count();
  return sets;
}

/// Solve one (delta bin, sense class) slab's full tau recursion into
/// `slab_out`, a buffer of num_tau_layers * grid4 * kNumAdvisories^2
/// floats laid out [tau][grid4][ra][action] — the table's slab layout.
/// `stencils` must be the set compiled for the slab's sense class; the
/// recursion itself is sense-blind.
void solve_joint_slab(const JointConfig& config, const StencilSet& stencils,
                      std::size_t delta_bin, ThreadPool* pool, std::span<float> slab_out) {
  const GridN<4> grid = config.grid();
  const std::size_t num_points = grid.size();
  const std::size_t tau_max = config.space.tau_max;
  constexpr std::size_t kQPerPoint = kNumAdvisories * kNumAdvisories;
  expect(stencils.group_offsets.size() == num_points * kNumAdvisories + 1,
         "joint stencils were built for this grid");
  expect(slab_out.size() == (tau_max + 1) * num_points * kQPerPoint,
         "slab buffer matches [tau][grid][ra][action]");

  // The primary's CPA layer inside this slab: delta bin values must land
  // on integer tau layers (SecondaryAbstraction's contract) and inside the
  // horizon, or the primary's conflict would never be charged.
  const double delta_layers_d = config.secondary.delta_value_s(delta_bin) / config.dynamics.dt_s;
  const auto delta_layers = static_cast<std::size_t>(std::lround(delta_layers_d));
  expect(std::abs(delta_layers_d - static_cast<double>(delta_layers)) < 1e-9,
         "delta_step_s is a multiple of the dynamics step");
  expect(delta_layers <= tau_max, "every delta bin lies inside the tau horizon");

  const auto nmac1 = [&](std::size_t g) -> double {
    const auto idx = grid.unflatten(g);
    const double h1 = grid.axis(0).value(idx[0]);
    return std::abs(h1) <= config.costs.nmac_h_ft ? config.costs.nmac_cost : 0.0;
  };

  // Terminal layer (tau = 0): the SECONDARY's CPA resolves now; the
  // primary's resolves here too when its offset bin is 0.  Like the
  // pairwise solver, Q at tau=0 holds the terminal value for every
  // (ra, action) so online interpolation near tau=0 degrades gracefully.
  ValueLayer v_prev(num_points * kNumAdvisories, 0.0F);
  for (std::size_t g = 0; g < num_points; ++g) {
    const auto idx = grid.unflatten(g);
    const double h2 = grid.axis(3).value(idx[3]);
    double terminal = std::abs(h2) <= config.costs.nmac_h_ft ? config.costs.nmac_cost : 0.0;
    if (delta_layers == 0) terminal += nmac1(g);
    const auto terminal_f = static_cast<float>(terminal);
    for (std::size_t ra = 0; ra < kNumAdvisories; ++ra) {
      v_prev[g * kNumAdvisories + ra] = terminal_f;
      for (std::size_t a = 0; a < kNumAdvisories; ++a) {
        slab_out[g * kQPerPoint + ra * kNumAdvisories + a] = terminal_f;
      }
    }
  }

  ValueLayer v_cur(num_points * kNumAdvisories, 0.0F);

  for (std::size_t tau = 1; tau <= tau_max; ++tau) {
    // The primary threat's CPA is reached at this layer: every state pays
    // its |h1| NMAC charge on top of the Bellman backup, mirroring how the
    // terminal layer charges the secondary.
    const bool primary_cpa = (tau == delta_layers);
    float* const q_layer = slab_out.data() + tau * num_points * kQPerPoint;
    const auto sweep_range = [&](std::size_t begin, std::size_t end) {
      for (std::size_t g = begin; g < end; ++g) {
        std::array<double, kNumAdvisories> next_value{};
        for (std::size_t a = 0; a < kNumAdvisories; ++a) {
          const std::size_t r = g * kNumAdvisories + a;
          double acc = 0.0;
          for (std::size_t j = stencils.group_offsets[r]; j < stencils.group_offsets[r + 1];
               ++j) {
            double value = 0.0;
            for (std::size_t k = stencils.entry_offsets[j]; k < stencils.entry_offsets[j + 1];
                 ++k) {
              value += stencils.weight[k] *
                       static_cast<double>(v_prev[stencils.vertex[k] * kNumAdvisories + a]);
            }
            acc += stencils.group_weight[j] * value;
          }
          next_value[a] = acc;
        }
        const double bonus = primary_cpa ? nmac1(g) : 0.0;
        for (std::size_t ra = 0; ra < kNumAdvisories; ++ra) {
          double best = std::numeric_limits<double>::infinity();
          for (std::size_t a = 0; a < kNumAdvisories; ++a) {
            const double q = bonus +
                             action_cost(static_cast<Advisory>(ra), static_cast<Advisory>(a),
                                         config.costs) +
                             next_value[a];
            q_layer[g * kQPerPoint + ra * kNumAdvisories + a] = static_cast<float>(q);
            best = std::min(best, q);
          }
          v_cur[g * kNumAdvisories + ra] = static_cast<float>(best);
        }
      }
    };
    if (pool != nullptr) {
      pool->parallel_for_ranges(num_points, sweep_range);
    } else {
      sweep_range(0, num_points);
    }
    v_prev.swap(v_cur);
  }
}

JointLogicTable run_joint_induction(const JointConfig& config, const JointStencilSets& stencils,
                                    ThreadPool* pool, JointSolveStats* stats,
                                    std::chrono::steady_clock::time_point start_time) {
  JointLogicTable table(config);
  // Each slab is contiguous in the table (slab index slowest), so the
  // per-slab kernel writes straight into the table's slab slice.
  const std::size_t slab_floats =
      table.num_tau_layers() * table.num_grid_points() * kNumAdvisories * kNumAdvisories;
  const std::span<float> q{table.raw()};
  for (std::size_t db = 0; db < config.secondary.num_delta_bins; ++db) {
    for (std::size_t s = 0; s < kNumSecondarySenses; ++s) {
      const std::size_t slab = config.slab_index(db, static_cast<SecondarySense>(s));
      solve_joint_slab(config, stencils.per_sense[s], db, pool,
                       q.subspan(slab * slab_floats, slab_floats));
    }
  }
  if (stats != nullptr) {
    stats->states_per_layer = table.num_grid_points() * kNumAdvisories;
    stats->layers = table.num_tau_layers();
    stats->slabs = table.num_slabs();
    stats->wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time).count();
  }
  return table;
}

}  // namespace

JointOfflineSolver::JointOfflineSolver(const JointConfig& config, ThreadPool* pool)
    : config_(config) {
  stencils_ = build_stencils_for(config, pool, build_seconds_);
}

JointLogicTable JointOfflineSolver::solve(const CostModel& costs, ThreadPool* pool,
                                          JointSolveStats* stats) const {
  JointConfig revised = config_;
  revised.costs = costs;
  const auto start_time = std::chrono::steady_clock::now();
  if (stats != nullptr) {
    stats->stencil_entries = stencils_.num_entries();
    stats->stencil_build_seconds = 0.0;  // amortized at construction
  }
  return run_joint_induction(revised, stencils_, pool, stats, start_time);
}

JointLogicTable JointOfflineSolver::solve(ThreadPool* pool, JointSolveStats* stats) const {
  return solve(config_.costs, pool, stats);
}

JointLogicTable solve_joint_table(const JointConfig& config, ThreadPool* pool,
                                  JointSolveStats* stats) {
  const auto start_time = std::chrono::steady_clock::now();
  double build_seconds = 0.0;
  const JointStencilSets stencils = build_stencils_for(config, pool, build_seconds);
  if (stats != nullptr) {
    stats->stencil_entries = stencils.num_entries();
    stats->stencil_build_seconds = build_seconds;
  }
  return run_joint_induction(config, stencils, pool, stats, start_time);
}

}  // namespace cav::acasx
