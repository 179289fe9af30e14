#include "core/monte_carlo.h"

#include <limits>

namespace cav::core {

double risk_ratio(const SystemRates& system, const SystemRates& unequipped) {
  const double base = unequipped.nmac_rate();
  if (base <= 0.0) return kRiskRatioUndefined;
  return system.nmac_rate() / base;
}

RiskRatioEstimate risk_ratio_wilson(const SystemRates& system, const SystemRates& unequipped) {
  RiskRatioEstimate est;
  est.defined = unequipped.nmac_rate() > 0.0;
  est.ratio = est.defined ? system.nmac_rate() / unequipped.nmac_rate() : kRiskRatioUndefined;

  const Interval sys_ci = system.nmac_ci();
  const Interval base_ci = unequipped.nmac_ci();
  // Conservative interval ratio: the smallest plausible numerator over the
  // largest plausible denominator, and vice versa.  A baseline whose Wilson
  // lower bound is 0 (always true at 0 observed NMACs) gives an unbounded
  // upper limit — the honest answer when the baseline saw nothing.
  est.lo = base_ci.hi > 0.0 ? sys_ci.lo / base_ci.hi : 0.0;
  est.hi = base_ci.lo > 0.0 ? sys_ci.hi / base_ci.lo
                            : std::numeric_limits<double>::infinity();
  return est;
}

}  // namespace cav::core
