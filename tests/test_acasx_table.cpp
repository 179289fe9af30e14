// Offline-solver and logic-table properties on the coarse configuration:
// structural invariants the generated logic must have regardless of exact
// discretization (the kind of sanity validation §IV calls for).
#include "acasx/logic_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>

#include "acasx/offline_solver.h"
#include "oracles/acasx_reference.h"
#include "util/expect.h"

namespace cav::acasx {
namespace {

class TableTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    table_ = new LogicTable(solve_logic_table(AcasXuConfig::coarse()));
  }
  static void TearDownTestSuite() {
    delete table_;
    table_ = nullptr;
  }
  static const AcasXuConfig& config() { return table_->config(); }
  static LogicTable* table_;
};

LogicTable* TableTest::table_ = nullptr;

TEST_F(TableTest, AllEntriesFinite) {
  for (const float q : table_->raw()) {
    ASSERT_TRUE(std::isfinite(q));
  }
}

TEST_F(TableTest, TerminalLayerEncodesNmacCost) {
  const auto& grid = table_->grid();
  for (std::size_t g = 0; g < grid.size(); ++g) {
    const auto idx = grid.unflatten(g);
    const double h = grid.axis(0).value(idx[0]);
    const float expected =
        std::abs(h) <= config().costs.nmac_h_ft ? static_cast<float>(config().costs.nmac_cost)
                                                : 0.0F;
    EXPECT_EQ(table_->at(0, g, Advisory::kCoc, Advisory::kCoc), expected);
  }
}

TEST_F(TableTest, CocPreferredWhenSafelySeparated) {
  // Intruder 1000 ft above, both level, tau = 20 s: no maneuver needed.
  const auto costs = table_->action_costs(20.0, 1000.0, 0.0, 0.0, Advisory::kCoc);
  const std::size_t coc = static_cast<std::size_t>(Advisory::kCoc);
  for (std::size_t a = 0; a < kNumAdvisories; ++a) {
    if (a == coc) continue;
    EXPECT_LT(costs[coc], costs[a]) << "COC must beat " << advisory_name(static_cast<Advisory>(a));
  }
}

TEST_F(TableTest, AlertPreferredOnImminentCollisionCourse) {
  // Co-altitude, both level, tau = 10 s: some advisory must beat COC.
  const auto costs = table_->action_costs(10.0, 0.0, 0.0, 0.0, Advisory::kCoc);
  const double coc = costs[static_cast<std::size_t>(Advisory::kCoc)];
  double best_maneuver = coc;
  for (std::size_t a = 1; a < kNumAdvisories; ++a) {
    best_maneuver = std::min(best_maneuver, costs[a]);
  }
  EXPECT_LT(best_maneuver, coc);
}

TEST_F(TableTest, MirrorSymmetryInRelativeAltitude) {
  // Flipping (h, vo, vi) -> (-h, -vo, -vi) swaps climb and descend roles.
  const auto costs = table_->action_costs(12.0, 300.0, 5.0, -5.0, Advisory::kCoc);
  const auto mirrored = table_->action_costs(12.0, -300.0, -5.0, 5.0, Advisory::kCoc);
  EXPECT_NEAR(costs[static_cast<std::size_t>(Advisory::kClimb1500)],
              mirrored[static_cast<std::size_t>(Advisory::kDescend1500)], 0.6);
  EXPECT_NEAR(costs[static_cast<std::size_t>(Advisory::kClimb2500)],
              mirrored[static_cast<std::size_t>(Advisory::kDescend2500)], 0.6);
  EXPECT_NEAR(costs[static_cast<std::size_t>(Advisory::kCoc)],
              mirrored[static_cast<std::size_t>(Advisory::kCoc)], 0.6);
}

TEST_F(TableTest, AdvisoryPushesAwayFromIntruder) {
  // Intruder 300 ft ABOVE on a converging vertical path at tau = 8 s:
  // descending must be cheaper than climbing into it.
  const auto costs = table_->action_costs(8.0, 300.0, 0.0, -10.0, Advisory::kCoc);
  EXPECT_LT(costs[static_cast<std::size_t>(Advisory::kDescend1500)],
            costs[static_cast<std::size_t>(Advisory::kClimb1500)]);
  // And mirrored: intruder below climbing into us -> climb is cheaper.
  const auto costs2 = table_->action_costs(8.0, -300.0, 0.0, 10.0, Advisory::kCoc);
  EXPECT_LT(costs2[static_cast<std::size_t>(Advisory::kClimb1500)],
            costs2[static_cast<std::size_t>(Advisory::kDescend1500)]);
}

TEST_F(TableTest, ValuesDecreaseWithSeparationAtSmallTau) {
  // At tau = 5 s, being co-altitude must cost at least as much as being
  // widely separated (values of the best action).
  const auto near = table_->action_costs(5.0, 0.0, 0.0, 0.0, Advisory::kCoc);
  const auto far = table_->action_costs(5.0, 900.0, 0.0, 0.0, Advisory::kCoc);
  const double best_near = *std::min_element(near.begin(), near.end());
  const double best_far = *std::min_element(far.begin(), far.end());
  EXPECT_GT(best_near, best_far);
}

TEST_F(TableTest, KeepingAdvisoryCheaperThanReversing) {
  // With an active climb and symmetric geometry, continuing the climb must
  // be cheaper than reversing to a descend (reversal surcharge).
  const auto costs = table_->action_costs(10.0, 0.0, 12.0, 0.0, Advisory::kClimb1500);
  EXPECT_LT(costs[static_cast<std::size_t>(Advisory::kClimb1500)],
            costs[static_cast<std::size_t>(Advisory::kDescend1500)]);
}

TEST_F(TableTest, InterpolationMatchesVertexValues) {
  const auto& grid = table_->grid();
  const auto idx = grid.unflatten(grid.size() / 2);
  const auto p = grid.point(idx);
  const auto costs = table_->action_costs(7.0, p[0], p[1], p[2], Advisory::kCoc);
  for (std::size_t a = 0; a < kNumAdvisories; ++a) {
    const float direct = table_->at(7, grid.flat_index(idx), Advisory::kCoc,
                                    static_cast<Advisory>(a));
    EXPECT_NEAR(costs[a], static_cast<double>(direct), 1e-4);
  }
}

TEST_F(TableTest, TauClampsToHorizon) {
  // Beyond the table horizon the lookup clamps to the last layer.
  const auto at_max = table_->action_costs(static_cast<double>(config().space.tau_max), 0.0, 0.0,
                                           0.0, Advisory::kCoc);
  const auto beyond = table_->action_costs(1e9, 0.0, 0.0, 0.0, Advisory::kCoc);
  for (std::size_t a = 0; a < kNumAdvisories; ++a) {
    EXPECT_DOUBLE_EQ(at_max[a], beyond[a]);
  }
}

TEST_F(TableTest, SaveLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/cav_table_test.bin";
  table_->save(path);
  const LogicTable loaded = LogicTable::load(path);
  EXPECT_EQ(loaded.num_entries(), table_->num_entries());
  EXPECT_EQ(loaded.config().space.tau_max, config().space.tau_max);
  EXPECT_EQ(loaded.config().space.h_ft.count(), config().space.h_ft.count());
  EXPECT_DOUBLE_EQ(loaded.config().costs.nmac_cost, config().costs.nmac_cost);
  // Spot-check payload equality.
  for (std::size_t i = 0; i < table_->raw().size(); i += 1009) {
    ASSERT_EQ(loaded.raw()[i], table_->raw()[i]);
  }
  std::remove(path.c_str());
}

TEST_F(TableTest, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/cav_table_garbage.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a table", f);
    std::fclose(f);
  }
  EXPECT_THROW(LogicTable::load(path), std::runtime_error);
  std::remove(path.c_str());
  EXPECT_THROW(LogicTable::load("/definitely/missing/file.bin"), std::runtime_error);
}

TEST(TableSolver, ParallelMatchesSerial) {
  const AcasXuConfig config = AcasXuConfig::coarse();
  const LogicTable serial = solve_logic_table(config);
  ThreadPool pool(4);
  const LogicTable parallel = solve_logic_table(config, &pool);
  ASSERT_EQ(serial.raw().size(), parallel.raw().size());
  for (std::size_t i = 0; i < serial.raw().size(); ++i) {
    ASSERT_EQ(serial.raw()[i], parallel.raw()[i]) << "entry " << i;
  }
}

TEST(TableSolver, StencilsMatchReferenceSolverExactly) {
  // The precompiled stencils preserve the reference kernel's two-level
  // accumulation order (inner interpolation sum, pair-weighted outer sum),
  // so the fast path must reproduce the oracle's table bit for bit.
  const AcasXuConfig config = AcasXuConfig::coarse();
  const LogicTable stencil = solve_logic_table(config);
  const LogicTable reference = oracle::solve_logic_table(config);
  ASSERT_EQ(stencil.raw().size(), reference.raw().size());
  for (std::size_t i = 0; i < stencil.raw().size(); ++i) {
    ASSERT_EQ(stencil.raw()[i], reference.raw()[i]) << "entry " << i;
  }
}

/// The vertical mirror of an advisory: climb <-> descend at equal strength.
Advisory mirrored(Advisory a) {
  switch (a) {
    case Advisory::kClimb1500: return Advisory::kDescend1500;
    case Advisory::kDescend1500: return Advisory::kClimb1500;
    case Advisory::kClimb2500: return Advisory::kDescend2500;
    case Advisory::kDescend2500: return Advisory::kClimb2500;
    case Advisory::kCoc: break;
  }
  return Advisory::kCoc;
}

TEST(TableSolver, MirrorSymmetryHoldsAtEveryTauLayer) {
  // The dynamics, noise and cost models are symmetric under negating the
  // vertical axis, and every grid axis is symmetric about 0, so the
  // optimal logic must be too: negating (h, dh_own, dh_int) and swapping
  // climb <-> descend in both the advisory memory and the action leaves Q
  // unchanged, and maps the greedy action to its mirror wherever the
  // choice is not a near-tie.  A property of the optimized table itself,
  // not a golden value it happens to produce.
  constexpr double kTol = 1e-9;
  const LogicTable table = solve_logic_table(AcasXuConfig::coarse());
  const auto& grid = table.grid();
  std::size_t checked_argmins = 0;
  for (std::size_t tau = 0; tau < table.num_tau_layers(); ++tau) {
    for (std::size_t g = 0; g < grid.size(); ++g) {
      auto idx = grid.unflatten(g);
      for (std::size_t d = 0; d < 3; ++d) idx[d] = grid.axis(d).count() - 1 - idx[d];
      const std::size_t mg = grid.flat_index(idx);
      for (const Advisory ra : kAllAdvisories) {
        const Advisory mra = mirrored(ra);
        std::array<double, kNumAdvisories> q{};
        for (const Advisory a : kAllAdvisories) {
          q[static_cast<std::size_t>(a)] = table.at(tau, g, ra, a);
          ASSERT_NEAR(table.at(tau, mg, mra, mirrored(a)), table.at(tau, g, ra, a), kTol)
              << "tau " << tau << " point " << g << " ra " << static_cast<int>(ra)
              << " action " << static_cast<int>(a);
        }
        std::array<std::size_t, kNumAdvisories> order{0, 1, 2, 3, 4};
        std::sort(order.begin(), order.end(),
                  [&](std::size_t x, std::size_t y) { return q[x] < q[y]; });
        if (q[order[1]] - q[order[0]] <= kTol) continue;
        ++checked_argmins;
        const auto best = static_cast<Advisory>(order[0]);
        Advisory mirror_best = Advisory::kCoc;
        double mirror_q = std::numeric_limits<double>::infinity();
        for (const Advisory a : kAllAdvisories) {
          if (table.at(tau, mg, mra, a) < mirror_q) {
            mirror_q = table.at(tau, mg, mra, a);
            mirror_best = a;
          }
        }
        ASSERT_EQ(mirror_best, mirrored(best))
            << "tau " << tau << " point " << g << " ra " << static_cast<int>(ra);
      }
    }
  }
  EXPECT_GT(checked_argmins, 0U);
}

TEST(TableSolver, CompiledModelReproducesSolveExactly) {
  // CompiledAcasModel factors the stencil build out of the solve; with the
  // costs it was compiled under it must reproduce solve_logic_table bit
  // for bit (same kernels, same accumulation order).
  const AcasXuConfig config = AcasXuConfig::coarse();
  const CompiledAcasModel model(config);
  const LogicTable fresh = solve_logic_table(config);
  const LogicTable reused = model.solve();
  ASSERT_EQ(fresh.raw().size(), reused.raw().size());
  for (std::size_t i = 0; i < fresh.raw().size(); ++i) {
    ASSERT_EQ(fresh.raw()[i], reused.raw()[i]) << "entry " << i;
  }
  EXPECT_GT(model.stencil_entries(), 0U);
  EXPECT_GT(model.stencil_build_seconds(), 0.0);
}

TEST(TableSolver, CompiledModelCostRevisionMatchesFreshSolve) {
  // A cost-only revision re-solved on the precompiled stencils must equal
  // a from-scratch solve of the revised config, bit for bit — the ACAS
  // analogue of CompiledMdp::refresh_costs.
  const AcasXuConfig config = AcasXuConfig::coarse();
  const CompiledAcasModel model(config);

  CostModel revised = config.costs;
  revised.nmac_cost = 20000.0;
  revised.maneuver_cost = 400.0;
  revised.level_reward = 10.0;
  AcasXuConfig revised_config = config;
  revised_config.costs = revised;

  const LogicTable fresh = solve_logic_table(revised_config);
  SolveStats stats;
  const LogicTable reused = model.solve(revised, nullptr, &stats);
  ASSERT_EQ(fresh.raw().size(), reused.raw().size());
  for (std::size_t i = 0; i < fresh.raw().size(); ++i) {
    ASSERT_EQ(fresh.raw()[i], reused.raw()[i]) << "entry " << i;
  }
  // The revised costs ride along on the returned table's config, and no
  // stencil build happened during the revision solve.
  EXPECT_DOUBLE_EQ(reused.config().costs.maneuver_cost, 400.0);
  EXPECT_EQ(stats.stencil_build_seconds, 0.0);
  EXPECT_EQ(stats.stencil_entries, model.stencil_entries());
}

TEST(TableSolver, StencilStatsReported) {
  SolveStats stats;
  const LogicTable table = solve_logic_table(AcasXuConfig::coarse(), nullptr, &stats);
  // Every non-degenerate (grid point, action) row scatters somewhere.
  EXPECT_GE(stats.stencil_entries, table.num_grid_points() * kNumAdvisories);
  EXPECT_GT(stats.stencil_build_seconds, 0.0);
  EXPECT_LE(stats.stencil_build_seconds, stats.wall_seconds);
}

TEST(TableSolver, StatsReported) {
  SolveStats stats;
  const LogicTable table = solve_logic_table(AcasXuConfig::coarse(), nullptr, &stats);
  EXPECT_GT(stats.states_per_layer, 0U);
  EXPECT_EQ(stats.layers, table.config().space.tau_max + 1);
  EXPECT_GT(stats.wall_seconds, 0.0);
}

TEST(TableSolver, ModeledNoiseRaisesResidualRisk) {
  // Ablation-style property: more modeled dynamics noise means a co-
  // altitude collision course at short tau cannot be mitigated as well, so
  // the optimal (best-action) expected cost rises monotonically with sigma.
  // (Alert *timing* is NOT monotone in sigma — coarse-grid interpolation
  // shifts it, the §IV inaccuracy this suite documents elsewhere.)
  double previous = -1e30;
  for (const double sigma : {1.0, 3.0, 6.0}) {
    AcasXuConfig config = AcasXuConfig::coarse();
    config.dynamics.accel_noise_sigma_fps2 = sigma;
    const LogicTable table = solve_logic_table(config);
    const auto costs = table.action_costs(10.0, 0.0, 0.0, 0.0, Advisory::kCoc);
    const double best = *std::min_element(costs.begin(), costs.end());
    EXPECT_GT(best, previous) << "sigma " << sigma;
    previous = best;
  }
}

TEST(TableSolver, AlertingHelpsUnderLowNoise) {
  // With quiet dynamics, maneuvering out of a tau=10 co-altitude collision
  // course must beat staying clear-of-conflict.
  AcasXuConfig config = AcasXuConfig::coarse();
  config.dynamics.accel_noise_sigma_fps2 = 1.0;
  const LogicTable table = solve_logic_table(config);
  const auto costs = table.action_costs(10.0, 0.0, 0.0, 0.0, Advisory::kCoc);
  double best_maneuver = 1e30;
  for (std::size_t a = 1; a < kNumAdvisories; ++a) {
    best_maneuver = std::min(best_maneuver, costs[a]);
  }
  EXPECT_LT(best_maneuver, costs[static_cast<std::size_t>(Advisory::kCoc)]);
}

}  // namespace
}  // namespace cav::acasx
