// Horizontal-logic tests: solver invariants, geometric symmetries, the
// blind-spot coverage that motivates the module, and closed-loop behaviour
// of the combined system.
#include "acasx/horizontal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "acasx/offline_solver.h"
#include "core/fitness.h"
#include "encounter/encounter.h"
#include "sim/acasx_cas.h"
#include "sim/combined_cas.h"
#include "util/expect.h"

namespace cav::acasx {
namespace {

using encounter::MultiEncounterParams;

AircraftTrack track(double x, double y, double z, double vx, double vy, double vz) {
  return {{x, y, z}, {vx, vy, vz}};
}

class HorizontalTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ThreadPool pool;
    table_ = new std::shared_ptr<const HorizontalTable>(std::make_shared<const HorizontalTable>(
        solve_horizontal_table(HorizontalConfig::coarse(), &pool)));
  }
  static void TearDownTestSuite() {
    delete table_;
    table_ = nullptr;
  }
  static const HorizontalConfig& config() { return (*table_)->config(); }
  static std::shared_ptr<const HorizontalTable>* table_;
};

std::shared_ptr<const HorizontalTable>* HorizontalTest::table_ = nullptr;

TEST_F(HorizontalTest, AllEntriesFinite) {
  for (const float q : (*table_)->raw()) {
    ASSERT_TRUE(std::isfinite(q));
  }
}

TEST_F(HorizontalTest, ConflictDiskIsAbsorbingCost) {
  const auto costs = (*table_)->action_costs(0.0, 0.0, 10.0, 0.0);
  for (const double c : costs) {
    EXPECT_NEAR(c, config().conflict_cost, 1.0);
  }
}

TEST_F(HorizontalTest, SafeDivergingStatePrefersStraight) {
  // Intruder behind and receding: straight collects the reward.
  const auto costs = (*table_)->action_costs(-1200.0, 0.0, -30.0, 0.0);
  EXPECT_LT(costs[0], costs[1]);
  EXPECT_LT(costs[0], costs[2]);
  // Value approaches the all-straight fixed point -reward/(1-discount).
  const double baseline = -config().straight_reward / (1.0 - config().discount);
  EXPECT_NEAR(costs[0], baseline, 150.0);
}

TEST_F(HorizontalTest, SlowOvertakeThreatIsVisible) {
  // The tau blind spot geometry: intruder 200 m behind closing slowly.
  // The relative-velocity state makes this a real, costed threat, and
  // near the conflict disk turning beats holding course.  (Far out, the
  // DP rationally defers the turn — see SlowOvertakeDefersTurnWhenFar.)
  for (const double rv : {4.0, 6.0, 12.0}) {
    const auto costs = (*table_)->action_costs(-200.0, 0.0, rv, 0.0);
    const double best = *std::min_element(costs.begin(), costs.end());
    EXPECT_GT(best, 0.0) << "rv = " << rv << ": slow overtake must not look safe";
    EXPECT_LT(std::min(costs[1], costs[2]), costs[0]) << "rv = " << rv;
  }
}

TEST_F(HorizontalTest, SlowOvertakeDefersTurnWhenFar) {
  // 800 m out at 4 m/s the conflict is minutes away: holding course and
  // turning later is cheaper — but the state must still cost more than a
  // diverging one (the threat is visible, just not urgent).
  const auto closing = (*table_)->action_costs(-800.0, 0.0, 4.0, 0.0);
  const auto diverging = (*table_)->action_costs(-800.0, 0.0, -4.0, 0.0);
  EXPECT_LT(closing[0], std::min(closing[1], closing[2]));
  const double best_closing = *std::min_element(closing.begin(), closing.end());
  const double best_diverging = *std::min_element(diverging.begin(), diverging.end());
  EXPECT_GT(best_closing, best_diverging);
}

TEST_F(HorizontalTest, MirrorSymmetry) {
  // Reflecting the geometry across the own-ship axis (dy -> -dy,
  // rvy -> -rvy) swaps the left/right advisories.
  const auto costs = (*table_)->action_costs(900.0, 300.0, -40.0, -5.0);
  const auto mirrored = (*table_)->action_costs(900.0, -300.0, -40.0, 5.0);
  EXPECT_NEAR(costs[0], mirrored[0], 1.0);
  EXPECT_NEAR(costs[static_cast<std::size_t>(TurnAdvisory::kTurnLeft)],
              mirrored[static_cast<std::size_t>(TurnAdvisory::kTurnRight)], 1.0);
  EXPECT_NEAR(costs[static_cast<std::size_t>(TurnAdvisory::kTurnRight)],
              mirrored[static_cast<std::size_t>(TurnAdvisory::kTurnLeft)], 1.0);
}

TEST_F(HorizontalTest, CostDecreasesWithMissDistance) {
  // Same closing velocity, growing lateral offset: the best cost falls.
  double previous = std::numeric_limits<double>::infinity();
  for (const double dy : {0.0, 400.0, 800.0, 1400.0}) {
    const auto costs = (*table_)->action_costs(1000.0, dy, -40.0, 0.0);
    const double best = *std::min_element(costs.begin(), costs.end());
    EXPECT_LE(best, previous + 1.0) << "dy = " << dy;
    previous = best;
  }
}

/// Very small space for solver-plumbing tests (serial solves stay fast).
HorizontalConfig tiny_config() {
  HorizontalConfig c;
  c.x_m = UniformAxis(-1200.0, 1200.0, 9);
  c.y_m = UniformAxis(-1200.0, 1200.0, 9);
  c.rvx_mps = UniformAxis(-60.0, 60.0, 7);
  c.rvy_mps = UniformAxis(-60.0, 60.0, 7);
  c.conflict_radius_m = 300.0;
  c.tolerance = 2.0;
  c.max_iterations = 250;
  return c;
}

TEST_F(HorizontalTest, SolverStatsReported) {
  HorizontalSolveStats stats;
  const HorizontalTable t = solve_horizontal_table(tiny_config(), nullptr, &stats);
  EXPECT_GT(stats.states, 0U);
  EXPECT_GT(stats.iterations, 5U);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_LE(stats.residual, tiny_config().tolerance + 1e-9);
}

TEST_F(HorizontalTest, ParallelMatchesSerial) {
  const HorizontalConfig config = tiny_config();
  const HorizontalTable serial = solve_horizontal_table(config);
  ThreadPool pool(4);
  const HorizontalTable parallel = solve_horizontal_table(config, &pool);
  ASSERT_EQ(serial.raw().size(), parallel.raw().size());
  for (std::size_t i = 0; i < serial.raw().size(); ++i) {
    ASSERT_EQ(serial.raw()[i], parallel.raw()[i]) << "entry " << i;
  }
}

TEST_F(HorizontalTest, OnlineFarTrafficStraight) {
  HorizontalLogic logic(*table_);
  EXPECT_EQ(logic.decide(track(0, 0, 1000, 35, 0, 0), track(9000, 0, 1000, -35, 0, 0)),
            TurnAdvisory::kStraight);
}

TEST_F(HorizontalTest, OnlineSlowOvertakeTurns) {
  HorizontalLogic logic(*table_);
  // Own at 25 m/s, intruder 200 m behind at 31 m/s on the same course:
  // inside the turn-now region of the solved policy.
  const auto a = logic.decide(track(0, 0, 1000, 25, 0, 0), track(-200, 0, 1000, 31, 0, 0));
  EXPECT_NE(a, TurnAdvisory::kStraight);
}

TEST_F(HorizontalTest, OnlineBodyFrameIsHeadingRelative) {
  // The same geometry rotated by 90 degrees must give the same advisory.
  HorizontalLogic logic_east(*table_);
  const auto east = logic_east.decide(track(0, 0, 1000, 25, 0, 0), track(-300, 40, 1000, 31, 0, 0));
  HorizontalLogic logic_north(*table_);
  const auto north =
      logic_north.decide(track(0, 0, 1000, 0, 25, 0), track(-40, -300, 1000, 0, 31, 0));
  EXPECT_EQ(east, north);
}

TEST_F(HorizontalTest, OnlineZeroSpeedIsStraight) {
  HorizontalLogic logic(*table_);
  EXPECT_EQ(logic.decide(track(0, 0, 1000, 0, 0, 0), track(-300, 0, 1000, 31, 0, 0)),
            TurnAdvisory::kStraight);
}

TEST_F(HorizontalTest, NullTableRejected) {
  EXPECT_THROW(HorizontalLogic(nullptr), ContractViolation);
}

TEST_F(HorizontalTest, AdvisoryNamesAndRates) {
  EXPECT_STREQ(turn_advisory_name(TurnAdvisory::kStraight), "STRAIGHT");
  EXPECT_GT(turn_rate_of(TurnAdvisory::kTurnLeft, 0.1), 0.0);
  EXPECT_LT(turn_rate_of(TurnAdvisory::kTurnRight, 0.1), 0.0);
  EXPECT_EQ(turn_rate_of(TurnAdvisory::kStraight, 0.1), 0.0);
}

class CombinedClosedLoopTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ThreadPool pool;
    vertical_ = new std::shared_ptr<const LogicTable>(std::make_shared<const LogicTable>(
        solve_logic_table(AcasXuConfig::coarse(), &pool)));
    horizontal_ = new std::shared_ptr<const HorizontalTable>(
        std::make_shared<const HorizontalTable>(
            solve_horizontal_table(HorizontalConfig::coarse(), &pool)));
  }
  static void TearDownTestSuite() {
    delete vertical_;
    delete horizontal_;
    vertical_ = nullptr;
    horizontal_ = nullptr;
  }
  static std::shared_ptr<const LogicTable>* vertical_;
  static std::shared_ptr<const HorizontalTable>* horizontal_;
};

std::shared_ptr<const LogicTable>* CombinedClosedLoopTest::vertical_ = nullptr;
std::shared_ptr<const HorizontalTable>* CombinedClosedLoopTest::horizontal_ = nullptr;

TEST_F(CombinedClosedLoopTest, RevisionClosesTheTailBlindSpot) {
  core::FitnessConfig config;
  config.runs_per_encounter = 60;
  const auto vertical_only = sim::AcasXuCas::factory(*vertical_);
  const auto combined = sim::CombinedCas::factory(*vertical_, *horizontal_);

  const core::EncounterEvaluator before(config, vertical_only, vertical_only);
  const core::EncounterEvaluator after(config, combined, combined);

  const auto tail_approach = MultiEncounterParams::from_pairwise(encounter::tail_approach());
  const auto tail_before = before.evaluate(tail_approach, 1);
  const auto tail_after = after.evaluate(tail_approach, 1);
  EXPECT_GT(tail_before.nmac_count, 50U) << "the blind spot must exist pre-revision";
  EXPECT_LT(tail_after.nmac_count, tail_before.nmac_count / 4)
      << "the revision must cut tail NMACs by at least 4x";
}

TEST_F(CombinedClosedLoopTest, RevisionPreservesHeadOnResolution) {
  core::FitnessConfig config;
  config.runs_per_encounter = 60;
  const auto combined = sim::CombinedCas::factory(*vertical_, *horizontal_);
  const core::EncounterEvaluator evaluator(config, combined, combined);
  const auto head =
      evaluator.evaluate(MultiEncounterParams::from_pairwise(encounter::head_on()), 2);
  EXPECT_LE(head.nmac_count, 3U);
}

TEST_F(CombinedClosedLoopTest, CombinedDecisionChannelsIndependent) {
  sim::CombinedCas cas(*vertical_, *horizontal_);
  // Slow overtake: expect a turn without necessarily a vertical advisory.
  const auto d = cas.decide(track(0, 0, 1000, 25, 0, 0), track(-200, 0, 1000, 31, 0, 0),
                            Sense::kNone);
  EXPECT_TRUE(d.turn);
  EXPECT_NE(d.turn_rate_rad_s, 0.0);
  // Label reflects the horizontal channel.
  EXPECT_TRUE(d.label.find("+L") != std::string::npos ||
              d.label.find("+R") != std::string::npos);
}

TEST_F(CombinedClosedLoopTest, ResetClearsBothChannels) {
  sim::CombinedCas cas(*vertical_, *horizontal_);
  cas.decide(track(0, 0, 1000, 25, 0, 0), track(-300, 0, 1000, 31, 0, 0), Sense::kNone);
  cas.reset();
  EXPECT_EQ(cas.vertical().current_advisory(), Advisory::kCoc);
  EXPECT_EQ(cas.horizontal().current_advisory(), TurnAdvisory::kStraight);
}

}  // namespace
}  // namespace cav::acasx
