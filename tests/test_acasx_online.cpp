// Online-logic tests: tau estimation geometry, advisory selection against
// the solved table, coordination masking, hysteresis, and the vertical
// mirror symmetry of costs and selection (point estimate and belief).
#include "acasx/online_logic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "acasx/offline_solver.h"
#include "util/expect.h"
#include "util/units.h"

namespace cav::acasx {
namespace {

AircraftTrack track(double x, double y, double z, double vx, double vy, double vz) {
  return {{x, y, z}, {vx, vy, vz}};
}

class OnlineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    table_ = new std::shared_ptr<const LogicTable>(
        std::make_shared<const LogicTable>(solve_logic_table(AcasXuConfig::coarse())));
  }
  static void TearDownTestSuite() {
    delete table_;
    table_ = nullptr;
  }
  static std::shared_ptr<const LogicTable>* table_;
};

std::shared_ptr<const LogicTable>* OnlineTest::table_ = nullptr;

TEST(TauEstimate, HeadOnClosure) {
  // Intruder 2000 m ahead closing at 80 m/s.
  const auto own = track(0, 0, 1000, 40, 0, 0);
  const auto intr = track(2000, 0, 1000, -40, 0, 0);
  const auto est = AcasXuLogic::estimate_tau(own, intr, {});
  EXPECT_TRUE(est.converging);
  EXPECT_NEAR(est.range_ft, units::m_to_ft(2000.0), 1e-6);
  EXPECT_NEAR(est.closure_fps, units::m_to_ft(80.0), 1e-6);
  // tau = (range - dmod) / closure.
  const double expected = (units::m_to_ft(2000.0) - 500.0) / units::m_to_ft(80.0);
  EXPECT_NEAR(est.tau_s, expected, 1e-6);
}

TEST(TauEstimate, DivergingIsNotConverging) {
  const auto own = track(0, 0, 1000, 40, 0, 0);
  const auto intr = track(2000, 0, 1000, 40, 0, 0);  // same velocity: no closure
  EXPECT_FALSE(AcasXuLogic::estimate_tau(own, intr, {}).converging);
  const auto receding = track(2000, 0, 1000, 80, 0, 0);
  EXPECT_FALSE(AcasXuLogic::estimate_tau(own, receding, {}).converging);
}

TEST(TauEstimate, InsideDmodIsZero) {
  const auto own = track(0, 0, 1000, 40, 0, 0);
  const auto intr = track(100.0, 0, 1000, 39, 0, 0);  // 328 ft < dmod
  const auto est = AcasXuLogic::estimate_tau(own, intr, {});
  EXPECT_TRUE(est.converging);
  EXPECT_DOUBLE_EQ(est.tau_s, 0.0);
}

TEST(TauEstimate, SlowClosureBlindSpot) {
  // The structural weakness: 260 m apart, closing at only 0.2 m/s.
  const auto own = track(0, 0, 1000, 25, 0, -2);
  const auto intr = track(-260, 0, 990, 25.2, 0, 2);
  const auto est = AcasXuLogic::estimate_tau(own, intr, {});
  EXPECT_FALSE(est.converging) << "closure below min_closure must not predict conflict";
}

TEST(TauEstimate, CoincidentHorizontalPositions) {
  const auto own = track(0, 0, 1000, 40, 0, 0);
  const auto intr = track(0, 0, 1200, 40, 0, -5);
  const auto est = AcasXuLogic::estimate_tau(own, intr, {});
  EXPECT_TRUE(est.converging);
  EXPECT_DOUBLE_EQ(est.tau_s, 0.0);
}

TEST(TauEstimate, CrossingGeometry) {
  // Perpendicular crossing, both 1000 m from the crossing point at 40 m/s:
  // range 1414 m, closure = |d/dt range| = 40 * sqrt(2).
  const auto own = track(-1000, 0, 1000, 40, 0, 0);
  const auto intr = track(0, -1000, 1000, 0, 40, 0);
  const auto est = AcasXuLogic::estimate_tau(own, intr, {});
  EXPECT_TRUE(est.converging);
  EXPECT_NEAR(est.closure_fps, units::m_to_ft(40.0 * std::sqrt(2.0)), 1e-6);
}

TEST_F(OnlineTest, FarTrafficGetsCoc) {
  AcasXuLogic logic(*table_);
  const auto own = track(0, 0, 1000, 40, 0, 0);
  const auto intr = track(20000, 0, 1000, -40, 0, 0);  // tau ~ 240 s
  EXPECT_EQ(logic.decide(own, intr), Advisory::kCoc);
  EXPECT_FALSE(logic.last_tau().converging && logic.last_tau().tau_s < 40.0);
}

TEST_F(OnlineTest, ImminentCoAltitudeThreatAlerts) {
  AcasXuLogic logic(*table_);
  const auto own = track(0, 0, 1000, 40, 0, 0);
  const auto intr = track(1200, 0, 1000, -40, 0, 0);  // tau ~ 13 s, co-altitude
  const Advisory a = logic.decide(own, intr);
  EXPECT_NE(a, Advisory::kCoc);
}

TEST_F(OnlineTest, AdvisorySenseAwayFromIntruder) {
  AcasXuLogic logic(*table_);
  const auto own = track(0, 0, 1000, 40, 0, 0);
  // Intruder converging and 60 m ABOVE, descending toward us.
  const auto intr = track(1200, 0, 1060, -40, 0, -3);
  const Advisory a = logic.decide(own, intr);
  EXPECT_EQ(sense_of(a), Sense::kDescend) << "chose " << advisory_name(a);

  logic.reset();
  // Mirrored: intruder below, climbing toward us.
  const auto intr2 = track(1200, 0, 940, -40, 0, 3);
  const Advisory a2 = logic.decide(own, intr2);
  EXPECT_EQ(sense_of(a2), Sense::kClimb) << "chose " << advisory_name(a2);
}

TEST_F(OnlineTest, CoordinationMaskForbidsSense) {
  const auto own = track(0, 0, 1000, 40, 0, 0);
  const auto intr = track(1200, 0, 1000, -40, 0, 0);

  AcasXuLogic unconstrained(*table_);
  const Advisory free_choice = unconstrained.decide(own, intr);
  ASSERT_NE(free_choice, Advisory::kCoc);

  AcasXuLogic constrained(*table_);
  const Advisory forced = constrained.decide(own, intr, sense_of(free_choice));
  EXPECT_NE(sense_of(forced), sense_of(free_choice))
      << "coordination must forbid the intruder's announced sense";
}

TEST_F(OnlineTest, HysteresisKeepsAdvisoryThroughEncounter) {
  AcasXuLogic logic(*table_);
  // Fly the encounter forward: a reasonable logic alerts once and holds the
  // sense (no chattering).
  int sense_changes = 0;
  Sense last = Sense::kNone;
  for (double t = 0.0; t < 25.0; t += 1.0) {
    const double x_int = 1400.0 - 80.0 * t;
    if (x_int < 30.0) break;
    const auto own = track(0, 0, 1000, 40, 0, 0);
    const auto intr = track(x_int, 0, 1002, -40, 0, 0);
    const Advisory a = logic.decide(own, intr);
    const Sense s = sense_of(a);
    if (s != Sense::kNone && last != Sense::kNone && s != last) ++sense_changes;
    if (s != Sense::kNone) last = s;
  }
  EXPECT_EQ(sense_changes, 0) << "sense reversed mid-encounter without cause";
  EXPECT_NE(last, Sense::kNone) << "never alerted at all";
}

TEST_F(OnlineTest, ResetClearsAdvisoryMemory) {
  AcasXuLogic logic(*table_);
  const auto own = track(0, 0, 1000, 40, 0, 0);
  const auto intr = track(1200, 0, 1000, -40, 0, 0);
  ASSERT_NE(logic.decide(own, intr), Advisory::kCoc);
  logic.reset();
  EXPECT_EQ(logic.current_advisory(), Advisory::kCoc);
}

TEST_F(OnlineTest, CocAfterThreatPasses) {
  AcasXuLogic logic(*table_);
  const auto own = track(0, 0, 1000, 40, 0, 0);
  const auto intr = track(1200, 0, 1000, -40, 0, 0);
  ASSERT_NE(logic.decide(own, intr), Advisory::kCoc);
  // Intruder now behind and receding.
  const auto past = track(-2000, 0, 1000, -40, 0, 0);
  EXPECT_EQ(logic.decide(own, past), Advisory::kCoc);
}

TEST_F(OnlineTest, NullTableRejected) {
  EXPECT_THROW(AcasXuLogic(nullptr), ContractViolation);
}

TEST_F(OnlineTest, LastCostsExposed) {
  AcasXuLogic logic(*table_);
  const auto own = track(0, 0, 1000, 40, 0, 0);
  const auto intr = track(1200, 0, 1000, -40, 0, 0);
  logic.decide(own, intr);
  const auto& costs = logic.last_costs();
  // Costs must differ across actions in a threat state.
  bool all_equal = true;
  for (std::size_t a = 1; a < kNumAdvisories; ++a) {
    if (costs[a] != costs[0]) all_equal = false;
  }
  EXPECT_FALSE(all_equal);
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

/// Negate the relative altitude and both vertical rates.
AircraftTrack mirror_intruder(const AircraftTrack& own, const AircraftTrack& intruder) {
  AircraftTrack m = intruder;
  m.position_m.z = own.position_m.z - (intruder.position_m.z - own.position_m.z);
  m.velocity_mps.z = -intruder.velocity_mps.z;
  return m;
}

/// Largest |cost(mirror state, mirror memory, mirror action) - cost(state,
/// memory, action)| over a sweep of geometries and every advisory memory,
/// and the number of non-tied selections checked.  Asserts that the
/// selected advisory maps to its mirror wherever the best cost leads the
/// runner-up by more than `tie_margin`.
struct MirrorSweep {
  double max_cost_deviation = 0.0;
  std::size_t checked_selections = 0;
  std::size_t checked_maneuvers = 0;  ///< checked selections other than COC
};

MirrorSweep sweep_mirror(const std::shared_ptr<const LogicTable>& table, OnlineConfig config,
                         double tie_margin) {
  MirrorSweep sweep;
  for (double x = 1800.0; x > 150.0; x -= 110.0) {
    for (const double dz : {-90.0, -35.0, -8.0, 0.0, 12.0, 50.0}) {
      for (const double own_vz : {-4.0, 0.0, 2.5}) {
        for (const double int_vz : {-3.0, 0.0, 1.5, 5.0}) {
          const auto own = track(0, 0, 1000, 40, 3, own_vz);
          const auto intr = track(x, 40, 1000 + dz, -38, 0, int_vz);
          auto own_m = own;
          own_m.velocity_mps.z = -own_vz;
          const auto intr_m = mirror_intruder(own, intr);
          for (const Advisory memory : kAllAdvisories) {
            AcasXuLogic logic(table, config);
            AcasXuLogic logic_m(table, config);
            logic.set_advisory(memory);
            logic_m.set_advisory(mirrored(memory));
            const Advisory chosen = logic.decide(own, intr);
            const Advisory chosen_m = logic_m.decide(own_m, intr_m);
            const auto& c = logic.last_costs();
            const auto& c_m = logic_m.last_costs();
            for (const Advisory a : kAllAdvisories) {
              sweep.max_cost_deviation =
                  std::max(sweep.max_cost_deviation,
                           std::abs(c_m[static_cast<std::size_t>(mirrored(a))] -
                                    c[static_cast<std::size_t>(a)]));
            }
            if (!logic.last_tau().converging) continue;
            std::array<double, kNumAdvisories> sorted = c;
            std::sort(sorted.begin(), sorted.end());
            if (sorted[1] - sorted[0] <= tie_margin) continue;
            ++sweep.checked_selections;
            if (chosen != Advisory::kCoc) ++sweep.checked_maneuvers;
            EXPECT_EQ(chosen_m, mirrored(chosen))
                << "x=" << x << " dz=" << dz << " own_vz=" << own_vz << " int_vz=" << int_vz
                << " memory=" << advisory_name(memory);
          }
        }
      }
    }
  }
  return sweep;
}

TEST_F(OnlineTest, MirrorSymmetryOfCostsAndSelection) {
  // The table is mirror-symmetric in the vertical axis (TableSolver.
  // MirrorSymmetryHoldsAtEveryTauLayer), and the online state extraction
  // and belief quadrature are too.  So mirroring the geometry and the
  // advisory memory must map the costs climb <-> descend and the selected
  // advisory to its mirror, outside near-ties (whose tie-break order
  // prefers climb) — for the point estimate and for a belief.
  //
  // Measured on the coarse table (x86-64, g++ 12, -O3): the largest cost
  // deviation is 7.3e-12 for the point estimate and 6.4e-12 under the
  // 25 ft / 1.6 fps belief, on costs up to ~1e4 — interpolation rounding.
  // The tolerance leaves two orders of magnitude; a selection is checked
  // when the best cost leads the runner-up by more than the select_advisory
  // tie epsilon (1e-9) plus twice the tolerance.
  constexpr double kTol = 1e-9;
  constexpr double kTieMargin = 1e-9 + 2 * kTol;
  OnlineConfig belief;
  belief.belief.h_sigma_ft = 25.0;
  belief.belief.dh_int_sigma_fps = 1.6;
  for (const OnlineConfig& config : {OnlineConfig{}, belief}) {
    SCOPED_TRACE(config.belief.point_estimate() ? "point estimate" : "belief");
    const MirrorSweep sweep = sweep_mirror(*table_, config, kTieMargin);
    EXPECT_LE(sweep.max_cost_deviation, kTol);
    EXPECT_GT(sweep.checked_selections, 1000U);
    EXPECT_GT(sweep.checked_maneuvers, 100U);
  }
}

}  // namespace
}  // namespace cav::acasx
