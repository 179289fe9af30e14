// Multi-threat advisory arbitration — the layer between per-threat CAS
// evaluation and the advisory actually flown.
//
// PR 3's multi-intruder engine exposed the gap this closes: a pairwise CAS
// fed only its nearest threat resolves staggered traffic but takes NMACs on
// the simultaneous converging ring, because the advisory that clears threat
// A can fly straight into threat B (the multi-UAV coordination problem of
// Wang et al., arXiv:2005.14455; the traffic-density axis of Sunberg et
// al., arXiv:1602.04762).
//
// Under ThreatPolicy::kCostFused each equipped UAV evaluates its pairwise
// CAS against *every* tracked threat inside a tau/range gate and fuses the
// per-threat results:
//
//   * Cost-capable systems (the table-backed ACAS Xu CAS) expose per-threat
//     Q-costs over the shared advisory set; the resolver sums them per
//     candidate advisory — each threat "votes" with its expected cost — and
//     commits the cost-minimizing advisory, with per-link coordination
//     senses made infinitely expensive and the existing deterministic
//     tie-break (keep current, then COC, then weaker before stronger).
//     The blocking-set check runs as a safety net over the vote: a sense
//     that steers into a gated threat's protected volume is flipped when
//     the opposite sense is clear (each per-threat table only knows its
//     own geometry, so dominant cost mass can out-vote the one threat the
//     chosen sense endangers).
//   * Decision-only systems (TCAS-like, SVO) fall back to severity-ordered
//     pairwise advisories: the most severe threat's decision is flown
//     unless the blocking-set check finds it steers into another gated
//     threat's protected volume, in which case the vertical sense is
//     vetoed and flipped (or kept, when both senses are blocked — the most
//     severe threat then wins).
//
// ThreatPolicy::kJointTable goes one level deeper on the failure mode cost
// fusion cannot express (the symmetric co-altitude squeeze — threats above
// and below at the same CPA, where every pairwise vote ignores the other
// threat's future): the two most severe gated threats are priced by ONE
// table solved over their joint state (acasx/joint_table.h), any remaining
// gated threats keep voting with their pairwise costs on top, and
// everything downstream (coordination pricing, tie-break, blocking-set
// veto, commit) is shared with kCostFused.  When no second threat is
// inside the joint alerting envelope — or the system carries no joint
// table — the cycle resolves exactly as kCostFused, so single-threat
// traffic is policy-invariant.
//
// ThreatPolicy::kNearest preserves the PR 3 engine bit-identically.
#pragma once

#include <vector>

#include "sim/cas.h"
#include "sim/monitors.h"

namespace cav::sim {

/// How an equipped UAV turns the set of tracks it holds into one advisory.
enum class ThreatPolicy {
  kNearest,     ///< pairwise CAS against the nearest track (PR 3 engine)
  kCostFused,   ///< arbitrate every gated threat via MultiThreatResolver
  kJointTable,  ///< kCostFused, with the two most severe threats priced by
                ///< the joint-threat table (falls back per cycle when no
                ///< second threat is jointly active)
};

/// Which tracks count as threats, and the blocking-set geometry.
///
/// Known limitations (deliberate, documented tradeoffs):
///   * The gate and the blocking-set check estimate tau with the *stock*
///     OnlineConfig thresholds (dmod/min-closure), independent of how the
///     CAS under test is configured.  A CAS tuned with a longer alerting
///     horizon needs a correspondingly wider tau_gate_s/range_gate_m or
///     genuine threats may be gated away before the CAS ever sees them.
///   * A threat that flaps across the gate boundary reaches its per-threat
///     smoother only on gated cycles; the fixed-cadence alpha-beta filter
///     then sees a measurement gap and takes a few cycles to re-settle.
struct ThreatGateConfig {
  double range_gate_m = 10000.0;  ///< tracks beyond this never vote
  double tau_gate_s = 60.0;       ///< converging tracks inside this always vote
  std::size_t max_threats = 8;    ///< keep the most severe N gated threats
  /// Blocking-set check: a commanded sense is blocked by a threat when the
  /// predicted vertical separation at that threat's CPA falls inside this
  /// band *and* shrinks relative to not maneuvering.
  double blocking_vertical_m = 50.0;
  /// Own vertical rate the blocking-set check assumes for a commanded
  /// sense (the initial-advisory rate, 1500 ft/min).
  double assumed_rate_mps = 7.62;
};

class MultiThreatResolver {
 public:
  explicit MultiThreatResolver(const ThreatGateConfig& gate = {}) : gate_(gate) {}

  const ThreatGateConfig& gate() const { return gate_; }

  /// Apply the tau/range gate to `threats` in place (keep a track when its
  /// range is inside range_gate_m OR it is horizontally converging within
  /// tau_gate_s), order the survivors by severity (ascending converging
  /// tau, then range, then aircraft id), and drop entries beyond
  /// max_threats.  Deterministic: the same threat set in any input order
  /// yields the same ordered list, which keeps the fused cost sums
  /// bit-identical under permutation.
  void gate_and_sort(const acasx::AircraftTrack& own,
                     std::vector<ThreatObservation>* threats) const;

  /// Arbitrate one decision cycle.  `threats` must be non-empty and come
  /// from gate_and_sort; `stats` is updated in place.  `policy` selects
  /// between pure pairwise cost fusion (kCostFused, the default) and the
  /// joint-table pricing of the two most severe threats (kJointTable);
  /// kNearest never reaches the resolver.
  CasDecision resolve(CollisionAvoidanceSystem& cas, const acasx::AircraftTrack& own,
                      const std::vector<ThreatObservation>& threats, ResolverStats* stats,
                      ThreatPolicy policy = ThreatPolicy::kCostFused) const;

  /// True when flying `sense` at the assumed rate steers the own-ship into
  /// `threat`'s protected volume at its predicted CPA (see
  /// ThreatGateConfig::blocking_vertical_m).  Exposed for tests.
  bool steers_into(const acasx::AircraftTrack& own, acasx::Sense sense,
                   const ThreatObservation& threat) const;

 private:
  /// Shared cost-level selection for kCostFused and kJointTable: sum the
  /// votes (with `joint`, when non-null, replacing the two most severe
  /// threats' pairwise votes), price coordination senses at infinity,
  /// select, veto, commit.
  CasDecision resolve_costed(CollisionAvoidanceSystem& cas, const acasx::AircraftTrack& own,
                             const std::vector<ThreatObservation>& threats,
                             const std::vector<ThreatCosts>& costs, const ThreatCosts* joint,
                             ResolverStats* stats) const;
  CasDecision resolve_fallback(CollisionAvoidanceSystem& cas, const acasx::AircraftTrack& own,
                               const std::vector<ThreatObservation>& threats,
                               ResolverStats* stats) const;

  /// Blocking-set evaluation shared by both paths: when `sense` steers
  /// into any of threats[blocked_from..] and the opposite sense is clear
  /// of *every* gated threat and not forbidden on any link, returns the
  /// opposite sense to flip to; otherwise kNone (no veto).
  acasx::Sense veto_flip(const acasx::AircraftTrack& own, acasx::Sense sense,
                         const std::vector<ThreatObservation>& threats,
                         std::size_t blocked_from) const;

  ThreatGateConfig gate_;
};

}  // namespace cav::sim
