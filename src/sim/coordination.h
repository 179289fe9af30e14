// Maneuver coordination between UAVs (§VI.C): "if the own-ship chooses a
// 'climb' maneuver, it will send a coordination command to the intruder to
// require it not to choose maneuvers in the same direction."
//
// Generalized to N aircraft with per-pair (per-link) bookkeeping: a post is
// a broadcast, but delivery is tracked per receiver link, so message loss
// affects each receiver independently and a reader asks for the constraint
// imposed on it by a *specific* threat aircraft.  For the two-aircraft case
// this reduces exactly to the original channel (one link per post, the
// constraint is whatever the other aircraft last delivered).
//
// Loss model: each link is a two-state Gilbert–Elliott channel.  In the
// GOOD state a delivery is lost with `message_loss_prob` (the original
// uniform model); in the BAD state with `burst_loss_prob` (1.0 = total
// outage).  State transitions are drawn per delivery attempt.  With
// `burst_enter_prob == 0` no link ever leaves GOOD, no transition draw is
// made, and the channel is bit-identical to the pre-burst uniform channel —
// uniform loss is the degenerate case, not a second code path the caller
// selects.
//
// Staleness: `forbidden_for` returns the last *delivered* sense.  With the
// default `staleness_ttl_cycles == 0` (infinite TTL) a silent or
// blacked-out sender constrains its receivers forever; a positive TTL
// decays a link's constraint to kNone once `tick()` has been called more
// than TTL times since the last delivery on that link.  The clock is one
// cycle counter plus a per-link delivery stamp: a tick costs O(1) whatever
// the fleet size, and a link's age (`cycle - stamp`) is computed only when
// a positive TTL asks for it.  The link arrays are still dense K×K
// (6 bytes per link).
//
// This channel is the engine's serial seam: agent i's decision reads the
// senses agents j < i posted *this* cycle, and every delivery attempt
// draws from one shared coordination stream, so the decide-and-post sweep
// runs strictly in index order even under `AirspaceConfig::parallel` —
// the LP event loops synchronize around it (see simulation.h).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "acasx/advisory.h"
#include "util/expect.h"
#include "util/rng.h"

namespace cav::sim {

struct CoordinationConfig {
  bool enabled = true;
  /// Per-link loss probability in the GOOD channel state (the uniform
  /// model; the only loss knob before fault injection existed).
  double message_loss_prob = 0.0;
  /// Gilbert–Elliott burst loss.  `burst_enter_prob > 0` activates the
  /// two-state model; 0 (default) keeps the uniform channel bit-identical
  /// to the pre-burst engine (no transition draws).
  double burst_enter_prob = 0.0;  ///< GOOD -> BAD per delivery attempt
  double burst_exit_prob = 0.2;   ///< BAD -> GOOD per delivery attempt
  double burst_loss_prob = 1.0;   ///< loss probability while BAD
  /// Decision-cycle TTL on delivered senses: 0 means infinite (a silent
  /// sender's constraint never expires — the pre-fault behavior); a
  /// positive value decays a link to kNone once more than this many
  /// tick()s pass without a delivery on it.
  int staleness_ttl_cycles = 0;

  bool burst_model_active() const { return burst_enter_prob > 0.0; }
};

class CoordinationChannel {
 public:
  explicit CoordinationChannel(const CoordinationConfig& config = {}, std::size_t num_agents = 2)
      : config_(config),
        num_agents_(num_agents),
        delivered_(num_agents * num_agents, acasx::Sense::kNone),
        stamp_(num_agents * num_agents, 0),
        link_bad_(num_agents * num_agents, 0) {
    expect(num_agents >= 2, "coordination needs at least two aircraft");
  }

  /// Aircraft `sender` announces the sense of its chosen maneuver to every
  /// other aircraft.  Each link draws its own loss (and, when the burst
  /// model is active, its own state transition); a lost delivery leaves
  /// the previously delivered announcement in place on that link
  /// (receivers work with the last thing they heard).  Receivers are
  /// visited in index order so the draw sequence is deterministic.
  /// `deaf`, when non-null, marks receivers whose comms are blacked out:
  /// their links still draw (the channel state evolves), but nothing is
  /// delivered to them.
  void post(int sender, acasx::Sense sense, RngStream& rng,
            const std::vector<bool>* deaf = nullptr) {
    if (!config_.enabled) return;
    for (std::size_t receiver = 0; receiver < num_agents_; ++receiver) {
      if (receiver == static_cast<std::size_t>(sender)) continue;
      post_to(sender, static_cast<int>(receiver), sense, rng, deaf);
    }
  }

  /// Range-limited broadcast: deliver only to `receivers` (ascending agent
  /// ids, the sender's airspace neighbors).  Links to out-of-range
  /// aircraft make no draws — a datalink has finite reach, so only
  /// in-range links exist this cycle.  With `receivers` equal to every
  /// other aircraft this is draw-for-draw the full broadcast above.
  void post(int sender, acasx::Sense sense, RngStream& rng, const std::vector<bool>* deaf,
            const std::vector<int>& receivers) {
    if (!config_.enabled) return;
    for (const int receiver : receivers) {
      if (receiver == sender) continue;
      post_to(sender, receiver, sense, rng, deaf);
    }
  }

  /// Advance the staleness clock one decision cycle (call once per cycle,
  /// before the cycle's posts).  O(1): links are not visited.  Throws
  /// rather than let the 32-bit counter wrap, which would make a stale
  /// link look freshly delivered.
  void tick() {
    expect(cycle_ < std::numeric_limits<std::uint32_t>::max(),
           "coordination clock below 2^32 - 1 cycles");
    ++cycle_;
  }

  /// The sense forbidden to aircraft `receiver` by aircraft `threat`:
  /// whatever `threat` last delivered on that link (kNone when
  /// coordination is disabled, the link has been silent, or the delivery
  /// is older than the staleness TTL).
  acasx::Sense forbidden_for(int receiver, int threat) const {
    if (!config_.enabled) return acasx::Sense::kNone;
    const std::size_t link = static_cast<std::size_t>(receiver) * num_agents_ +
                             static_cast<std::size_t>(threat);
    if (config_.staleness_ttl_cycles > 0 &&
        cycle_ - stamp_[link] > static_cast<std::uint32_t>(config_.staleness_ttl_cycles)) {
      return acasx::Sense::kNone;
    }
    return delivered_[link];
  }

  /// Two-aircraft convenience: the constraint from the (single) other one.
  acasx::Sense forbidden_for(int receiver) const {
    expect(num_agents_ == 2, "pairwise forbidden_for needs a 2-aircraft channel");
    return forbidden_for(receiver, 1 - receiver);
  }

  /// Whether the link receiver<-sender is currently in the BAD (bursty)
  /// Gilbert–Elliott state.  Exposed for tests.
  bool link_in_burst(int receiver, int sender) const {
    return link_bad_[static_cast<std::size_t>(receiver) * num_agents_ +
                     static_cast<std::size_t>(sender)] != 0;
  }

  std::size_t num_agents() const { return num_agents_; }

  void reset() {
    delivered_.assign(delivered_.size(), acasx::Sense::kNone);
    stamp_.assign(stamp_.size(), 0);
    link_bad_.assign(link_bad_.size(), 0);
    cycle_ = 0;
  }

 private:
  void post_to(int sender, int receiver, acasx::Sense sense, RngStream& rng,
               const std::vector<bool>* deaf) {
    const std::size_t link =
        static_cast<std::size_t>(receiver) * num_agents_ + static_cast<std::size_t>(sender);
    double loss = config_.message_loss_prob;
    if (config_.burst_model_active()) {
      if (link_bad_[link]) {
        if (rng.chance(config_.burst_exit_prob)) link_bad_[link] = 0;
      } else if (rng.chance(config_.burst_enter_prob)) {
        link_bad_[link] = 1;
      }
      if (link_bad_[link]) loss = config_.burst_loss_prob;
    }
    if (loss > 0.0 && rng.chance(loss)) return;
    if (deaf != nullptr && (*deaf)[static_cast<std::size_t>(receiver)]) return;
    delivered_[link] = sense;
    stamp_[link] = cycle_;
  }

  CoordinationConfig config_;
  std::size_t num_agents_;
  std::vector<acasx::Sense> delivered_;  ///< [receiver * N + sender]
  /// cycle_ at the last delivery per link.  4 bytes on purpose: at
  /// K = 4096 every extra byte per link is 16.7 MB.
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint8_t> link_bad_;   ///< Gilbert–Elliott BAD flag per link
  std::uint32_t cycle_ = 0;              ///< tick()s since construction or reset()
};

}  // namespace cav::sim
