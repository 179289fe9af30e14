#include <utility>

#include "workloads.h"

namespace perfbench {

namespace {

using cav::acasx::Advisory;
using cav::acasx::AircraftTrack;
using cav::acasx::Sense;
using cav::sim::CasDecision;
using cav::sim::CollisionAvoidanceSystem;
using cav::sim::ThreatCosts;
using cav::sim::ThreatObservation;

class TimedCas final : public CollisionAvoidanceSystem {
 private:
  template <typename F>
  auto timed(F&& call) {
    const auto t0 = Clock::now();
    auto result = call();
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count();
    tally_->calls.fetch_add(1, std::memory_order_relaxed);
    tally_->ns.fetch_add(ns, std::memory_order_relaxed);
    return result;
  }

 public:
  TimedCas(std::unique_ptr<CollisionAvoidanceSystem> inner, CasTally* tally)
      : inner_(std::move(inner)), tally_(tally) {}

  CasDecision decide(const AircraftTrack& own, const AircraftTrack& intruder,
                     Sense forbidden_sense) override {
    return timed([&] { return inner_->decide(own, intruder, forbidden_sense); });
  }
  void reset() override { inner_->reset(); }
  std::string name() const override { return inner_->name(); }
  bool evaluate_costs(const AircraftTrack& own, const ThreatObservation& threat,
                      ThreatCosts* out) override {
    return timed([&] { return inner_->evaluate_costs(own, threat, out); });
  }
  bool evaluate_joint_costs(const AircraftTrack& own, const ThreatObservation& primary,
                            const ThreatObservation& secondary, ThreatCosts* out) override {
    return timed([&] { return inner_->evaluate_joint_costs(own, primary, secondary, out); });
  }
  CasDecision commit_fused(const AircraftTrack& own, const ThreatObservation& primary,
                           Advisory fused) override {
    return timed([&] { return inner_->commit_fused(own, primary, fused); });
  }
  Advisory current_advisory() const override { return inner_->current_advisory(); }

 private:
  std::unique_ptr<CollisionAvoidanceSystem> inner_;
  CasTally* tally_;
};

}  // namespace

cav::sim::CasFactory timed_cas_factory(cav::sim::CasFactory inner, CasTally* tally) {
  return [inner = std::move(inner), tally]() -> std::unique_ptr<CollisionAvoidanceSystem> {
    return std::make_unique<TimedCas>(inner(), tally);
  };
}

}  // namespace perfbench
