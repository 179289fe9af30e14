// Adapter exposing the ACAS XU online logic as a simulator plug-in — the
// one table-backed CAS.  Its variants are configuration:
//   - the belief model (OnlineConfig::belief; zero sigmas are the point
//     estimate), the paper's §IV "should a POMDP be used?" question;
//   - an optional horizontal table (acasx/horizontal.h), the post-revision
//     turn channel that covers the slow-closure blind spot the GA search
//     exposed (§VII).  The vertical and horizontal channels command
//     independently (vertical-rate capture and turn rate);
//   - an optional joint-threat table (acasx/joint_table.h) that answers the
//     two-threat joint query (evaluate_joint_costs) at the point estimate,
//     from the tracks this cycle's evaluate_costs calls already smoothed.
//
// Multi-threat: the table's per-threat Q-costs are exposed through the
// cost interface (evaluate_costs / commit_fused), with one track smoother
// per threat aircraft so multiple targets never share filter state.  The
// pairwise decide() path keeps its own single smoother, so the
// nearest-threat policy never depends on the per-threat ones.
#pragma once

#include <memory>
#include <optional>

#include "acasx/horizontal.h"
#include "acasx/joint_table.h"
#include "acasx/online_logic.h"
#include "sim/cas.h"
#include "sim/tracker.h"
#include "sim/uav.h"

namespace cav::sim {

class AcasXuCas final : public CollisionAvoidanceSystem {
 public:
  /// `joint` may be null: the system then declines the joint query and
  /// ThreatPolicy::kJointTable degrades to kCostFused behaviour.
  /// `horizontal` may be null: the system is then vertical only.
  AcasXuCas(std::shared_ptr<const acasx::LogicTable> table, acasx::OnlineConfig online = {},
            UavPerformance perf = {}, TrackerConfig tracker = {},
            std::shared_ptr<const acasx::JointLogicTable> joint = nullptr,
            std::shared_ptr<const acasx::HorizontalTable> horizontal = nullptr);

  CasDecision decide(const acasx::AircraftTrack& own, const acasx::AircraftTrack& intruder,
                     acasx::Sense forbidden_sense) override;
  void reset() override;
  /// "ACAS-XU", with "-belief" under a belief and "+H" with the
  /// horizontal channel.
  std::string name() const override;

  /// Multi-threat fusion covers the vertical channel (the costed advisory
  /// set, joint or pairwise); the horizontal channel steers against the
  /// most severe gated threat at commit time.
  bool evaluate_costs(const acasx::AircraftTrack& own, const ThreatObservation& threat,
                      ThreatCosts* out) override;
  bool evaluate_joint_costs(const acasx::AircraftTrack& own, const ThreatObservation& primary,
                            const ThreatObservation& secondary, ThreatCosts* out) override;
  CasDecision commit_fused(const acasx::AircraftTrack& own, const ThreatObservation& primary,
                           acasx::Advisory fused) override;
  acasx::Advisory current_advisory() const override { return logic_.current_advisory(); }

  const acasx::AcasXuLogic& logic() const { return logic_; }
  /// The horizontal channel, or null for a vertical-only system.
  const acasx::HorizontalLogic* horizontal() const {
    return horizontal_ ? &*horizontal_ : nullptr;
  }

  /// Factory capturing the shared table(s); leave `joint` null for a
  /// pairwise-only system (joint query off) and `horizontal` null for a
  /// vertical-only one.
  static CasFactory factory(std::shared_ptr<const acasx::LogicTable> table,
                            acasx::OnlineConfig online = {}, UavPerformance perf = {},
                            TrackerConfig tracker = {},
                            std::shared_ptr<const acasx::JointLogicTable> joint = nullptr,
                            std::shared_ptr<const acasx::HorizontalTable> horizontal = nullptr);

 private:
  CasDecision to_decision(acasx::Advisory advisory, acasx::TurnAdvisory turn) const;

  acasx::AcasXuLogic logic_;
  std::optional<acasx::HorizontalLogic> horizontal_;
  std::shared_ptr<const acasx::JointLogicTable> joint_;
  UavPerformance perf_;
  TrackSmoother smoother_;  ///< the STM analog: smooths the intruder track
  ThreatSmootherBank threat_smoothers_;  ///< per-threat STM (fused mode)
};

}  // namespace cav::sim
