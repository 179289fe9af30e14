#include "acasx/online_logic.h"

#include <algorithm>
#include <cmath>

#include "util/expect.h"
#include "util/units.h"

namespace cav::acasx {
namespace {

/// 3-point Gauss-Hermite-style quadrature matching mean and variance:
/// points {mu - sqrt(3) s, mu, mu + sqrt(3) s}, weights {1/6, 2/3, 1/6}.
/// A zero sigma leaves the mean alone with weight 1 (the zero-weight
/// points are skipped).
struct QuadPoint {
  double value;
  double weight;
};

std::array<QuadPoint, 3> quadrature(double mean, double sigma) {
  if (sigma <= 0.0) return {{{mean, 1.0}, {mean, 0.0}, {mean, 0.0}}};
  const double spread = std::sqrt(3.0) * sigma;
  return {{{mean - spread, 1.0 / 6.0}, {mean, 2.0 / 3.0}, {mean + spread, 1.0 / 6.0}}};
}

}  // namespace

AcasXuLogic::AcasXuLogic(std::shared_ptr<const LogicTable> table, OnlineConfig config)
    : table_(std::move(table)), config_(config) {
  expect(table_ != nullptr, "logic table provided");
  expect(config_.belief.h_sigma_ft >= 0.0, "h_sigma_ft >= 0");
  expect(config_.belief.dh_int_sigma_fps >= 0.0, "dh_int_sigma_fps >= 0");
  last_costs_.fill(0.0);
}

TauEstimate AcasXuLogic::estimate_tau(const AircraftTrack& own, const AircraftTrack& intruder,
                                      const OnlineConfig& config) {
  TauEstimate est;
  const double dx = units::m_to_ft(intruder.position_m.x - own.position_m.x);
  const double dy = units::m_to_ft(intruder.position_m.y - own.position_m.y);
  const double dvx = units::m_to_ft(intruder.velocity_mps.x - own.velocity_mps.x);
  const double dvy = units::m_to_ft(intruder.velocity_mps.y - own.velocity_mps.y);

  est.range_ft = std::hypot(dx, dy);
  if (est.range_ft <= 1e-9) {
    // Degenerate coincident horizontal position: separation already lost.
    est.closure_fps = 0.0;
    est.tau_s = 0.0;
    est.converging = true;
    return est;
  }
  // Range rate: d(range)/dt = (d . dv) / |d|; closure is its negative.
  est.closure_fps = -(dx * dvx + dy * dvy) / est.range_ft;

  if (est.range_ft <= config.dmod_ft) {
    est.tau_s = 0.0;
    est.converging = true;
    return est;
  }
  if (est.closure_fps < config.min_closure_fps) {
    // Diverging or drifting: no horizontal conflict is predicted.  This is
    // deliberate fidelity to the tau-based alerting structure — see the
    // file comment about the tail-approach blind spot.
    est.converging = false;
    return est;
  }
  est.tau_s = (est.range_ft - config.dmod_ft) / est.closure_fps;
  est.converging = true;
  return est;
}

Advisory select_advisory(std::array<double, kNumAdvisories> costs, Sense forbidden_sense,
                         Advisory current) {
  // Coordination: the intruder's announced sense is off-limits.
  if (forbidden_sense != Sense::kNone) {
    for (std::size_t a = 0; a < kNumAdvisories; ++a) {
      if (sense_of(static_cast<Advisory>(a)) == forbidden_sense) {
        costs[a] = std::numeric_limits<double>::infinity();
      }
    }
  }

  const double best = *std::min_element(costs.begin(), costs.end());
  const std::array<Advisory, kNumAdvisories + 1> preference{
      current,
      Advisory::kCoc,
      Advisory::kClimb1500,
      Advisory::kDescend1500,
      Advisory::kClimb2500,
      Advisory::kDescend2500,
  };
  constexpr double kTieEps = 1e-9;
  for (const Advisory a : preference) {
    if (costs[static_cast<std::size_t>(a)] <= best + kTieEps) return a;
  }
  return Advisory::kCoc;  // unreachable: preference covers all advisories
}

TauEstimate AcasXuLogic::peek_costs(const AircraftTrack& own, const AircraftTrack& intruder,
                                    bool* active, std::span<double, kNumAdvisories> out) const {
  std::fill(out.begin(), out.end(), 0.0);
  const TauEstimate tau = estimate_tau(own, intruder, config_);
  *active = tau.converging && tau.tau_s <= config_.tau_alert_max_s;
  if (!*active) return tau;

  const double h_ft = units::m_to_ft(intruder.position_m.z - own.position_m.z);
  const double dh_own_fps = units::m_to_ft(own.velocity_mps.z);  // own state is known well
  const double dh_int_fps = units::m_to_ft(intruder.velocity_mps.z);

  // Belief average, h outer and dh_int inner.  The point estimate is the
  // one-point case: out = 0.0 + 1.0 * c, which is c exactly.
  const auto h_points = quadrature(h_ft, config_.belief.h_sigma_ft);
  const auto dhi_points = quadrature(dh_int_fps, config_.belief.dh_int_sigma_fps);
  std::array<double, kNumAdvisories> costs{};
  for (const QuadPoint& hp : h_points) {
    if (hp.weight == 0.0) continue;
    for (const QuadPoint& vp : dhi_points) {
      if (vp.weight == 0.0) continue;
      table_->action_costs(tau.tau_s, hp.value, dh_own_fps, vp.value, ra_, costs);
      const double w = hp.weight * vp.weight;
      for (std::size_t a = 0; a < kNumAdvisories; ++a) out[a] += w * costs[a];
    }
  }
  return tau;
}

Advisory AcasXuLogic::decide(const AircraftTrack& own, const AircraftTrack& intruder,
                             Sense forbidden_sense) {
  bool active = false;
  last_tau_ = peek_costs(own, intruder, &active, last_costs_);
  ra_ = active ? select_advisory(last_costs_, forbidden_sense, ra_) : Advisory::kCoc;
  return ra_;
}

}  // namespace cav::acasx
