#include "sim/coordination.h"

#include <gtest/gtest.h>

namespace cav::sim {
namespace {

TEST(Coordination, ForbidsOtherAircraftsSense) {
  CoordinationChannel channel;
  RngStream rng(1);
  channel.post(0, acasx::Sense::kClimb, rng);
  EXPECT_EQ(channel.forbidden_for(1), acasx::Sense::kClimb);
  EXPECT_EQ(channel.forbidden_for(0), acasx::Sense::kNone);  // own message doesn't bind self
}

TEST(Coordination, LatestAnnouncementWins) {
  CoordinationChannel channel;
  RngStream rng(2);
  channel.post(0, acasx::Sense::kClimb, rng);
  channel.post(0, acasx::Sense::kDescend, rng);
  EXPECT_EQ(channel.forbidden_for(1), acasx::Sense::kDescend);
}

TEST(Coordination, BothDirectionsIndependent) {
  CoordinationChannel channel;
  RngStream rng(3);
  channel.post(0, acasx::Sense::kClimb, rng);
  channel.post(1, acasx::Sense::kDescend, rng);
  EXPECT_EQ(channel.forbidden_for(0), acasx::Sense::kDescend);
  EXPECT_EQ(channel.forbidden_for(1), acasx::Sense::kClimb);
}

TEST(Coordination, DisabledChannelIsSilent) {
  CoordinationConfig config;
  config.enabled = false;
  CoordinationChannel channel(config);
  RngStream rng(4);
  channel.post(0, acasx::Sense::kClimb, rng);
  EXPECT_EQ(channel.forbidden_for(1), acasx::Sense::kNone);
}

TEST(Coordination, ResetClearsAnnouncements) {
  CoordinationChannel channel;
  RngStream rng(5);
  channel.post(0, acasx::Sense::kClimb, rng);
  channel.post(1, acasx::Sense::kDescend, rng);
  channel.reset();
  EXPECT_EQ(channel.forbidden_for(0), acasx::Sense::kNone);
  EXPECT_EQ(channel.forbidden_for(1), acasx::Sense::kNone);
}

TEST(Coordination, TotalLossNeverDelivers) {
  CoordinationConfig config;
  config.message_loss_prob = 1.0;
  CoordinationChannel channel(config);
  RngStream rng(6);
  for (int i = 0; i < 32; ++i) channel.post(0, acasx::Sense::kClimb, rng);
  EXPECT_EQ(channel.forbidden_for(1), acasx::Sense::kNone);
}

TEST(Coordination, PartialLossEventuallyDelivers) {
  CoordinationConfig config;
  config.message_loss_prob = 0.5;
  CoordinationChannel channel(config);
  RngStream rng(7);
  bool delivered = false;
  for (int i = 0; i < 64 && !delivered; ++i) {
    channel.post(0, acasx::Sense::kDescend, rng);
    delivered = channel.forbidden_for(1) == acasx::Sense::kDescend;
  }
  EXPECT_TRUE(delivered);
}

TEST(Coordination, UniformLossIsBitIdenticalToPreBurstChannel) {
  // The Gilbert–Elliott channel with burst_enter_prob == 0 must consume
  // exactly the draws the pre-burst uniform channel consumed and deliver
  // exactly the same messages.  Reference: the original loop, reimplemented
  // here, fed a stream with the identical seed.
  CoordinationConfig config;
  config.message_loss_prob = 0.37;
  CoordinationChannel channel(config, /*num_agents=*/4);
  RngStream rng(42);

  constexpr std::size_t kAgents = 4;
  std::vector<acasx::Sense> reference(kAgents * kAgents, acasx::Sense::kNone);
  RngStream ref_rng(42);

  const acasx::Sense senses[] = {acasx::Sense::kClimb, acasx::Sense::kDescend,
                                 acasx::Sense::kNone};
  for (int round = 0; round < 200; ++round) {
    const int sender = round % kAgents;
    const acasx::Sense sense = senses[round % 3];
    channel.post(sender, sense, rng);
    for (std::size_t receiver = 0; receiver < kAgents; ++receiver) {
      if (receiver == static_cast<std::size_t>(sender)) continue;
      if (config.message_loss_prob > 0.0 && ref_rng.chance(config.message_loss_prob)) continue;
      reference[receiver * kAgents + static_cast<std::size_t>(sender)] = sense;
    }
  }
  for (std::size_t receiver = 0; receiver < kAgents; ++receiver) {
    for (std::size_t sender = 0; sender < kAgents; ++sender) {
      if (receiver == sender) continue;
      EXPECT_EQ(channel.forbidden_for(static_cast<int>(receiver), static_cast<int>(sender)),
                reference[receiver * kAgents + sender])
          << "link " << receiver << "<-" << sender;
    }
  }
  // And the streams must be in lockstep: same next draw.
  EXPECT_EQ(rng.next_u64(), ref_rng.next_u64());
}

TEST(Coordination, BurstStateBlocksDeliveryUntilExit) {
  // Force the link into the BAD state (burst_enter_prob = 1) with total
  // burst loss and no exit: nothing is ever delivered.
  CoordinationConfig config;
  config.burst_enter_prob = 1.0;
  config.burst_exit_prob = 0.0;
  config.burst_loss_prob = 1.0;
  CoordinationChannel channel(config);
  RngStream rng(9);
  for (int i = 0; i < 32; ++i) channel.post(0, acasx::Sense::kClimb, rng);
  EXPECT_TRUE(channel.link_in_burst(1, 0));
  EXPECT_EQ(channel.forbidden_for(1), acasx::Sense::kNone);
}

TEST(Coordination, BurstExitsAndRecovers) {
  // Certain entry but certain exit on the next attempt: the link oscillates
  // and deliveries get through on the GOOD visits (message_loss 0).
  CoordinationConfig config;
  config.burst_enter_prob = 1.0;
  config.burst_exit_prob = 1.0;
  config.burst_loss_prob = 1.0;
  CoordinationChannel channel(config);
  RngStream rng(10);
  channel.post(0, acasx::Sense::kClimb, rng);   // GOOD -> BAD, lost
  EXPECT_EQ(channel.forbidden_for(1), acasx::Sense::kNone);
  channel.post(0, acasx::Sense::kDescend, rng); // BAD -> GOOD, delivered
  EXPECT_EQ(channel.forbidden_for(1), acasx::Sense::kDescend);
  EXPECT_FALSE(channel.link_in_burst(1, 0));
}

TEST(Coordination, BurstLossBelowOneLeaksDeliveries) {
  // A BAD state with burst_loss_prob < 1 is lossy, not silent.
  CoordinationConfig config;
  config.burst_enter_prob = 1.0;
  config.burst_exit_prob = 0.0;
  config.burst_loss_prob = 0.5;
  CoordinationChannel channel(config);
  RngStream rng(11);
  bool delivered = false;
  for (int i = 0; i < 64 && !delivered; ++i) {
    channel.post(0, acasx::Sense::kClimb, rng);
    delivered = channel.forbidden_for(1) == acasx::Sense::kClimb;
  }
  EXPECT_TRUE(delivered);
}

TEST(Coordination, StalenessTtlDecaysConstraintToNone) {
  CoordinationConfig config;
  config.staleness_ttl_cycles = 3;
  CoordinationChannel channel(config);
  RngStream rng(12);
  channel.post(0, acasx::Sense::kClimb, rng);
  for (int cycle = 0; cycle < 3; ++cycle) {
    channel.tick();
    EXPECT_EQ(channel.forbidden_for(1), acasx::Sense::kClimb) << "cycle " << cycle;
  }
  channel.tick();  // age 4 > ttl 3: decayed
  EXPECT_EQ(channel.forbidden_for(1), acasx::Sense::kNone);
}

TEST(Coordination, DeliveryResetsStalenessClock) {
  CoordinationConfig config;
  config.staleness_ttl_cycles = 2;
  CoordinationChannel channel(config);
  RngStream rng(13);
  channel.post(0, acasx::Sense::kDescend, rng);
  channel.tick();
  channel.tick();
  channel.post(0, acasx::Sense::kDescend, rng);  // refreshes the link
  channel.tick();
  channel.tick();
  EXPECT_EQ(channel.forbidden_for(1), acasx::Sense::kDescend);
  channel.tick();
  EXPECT_EQ(channel.forbidden_for(1), acasx::Sense::kNone);
}

TEST(Coordination, InfiniteTtlNeverDecays) {
  // ttl == 0 is the pre-fault behavior: a delivered sense persists through
  // arbitrarily many silent cycles.
  CoordinationChannel channel;
  RngStream rng(14);
  channel.post(0, acasx::Sense::kClimb, rng);
  for (int cycle = 0; cycle < 1000; ++cycle) channel.tick();
  EXPECT_EQ(channel.forbidden_for(1), acasx::Sense::kClimb);
}

TEST(Coordination, LinksIntoOneReceiverDecayOnTheirOwnSchedules) {
  // Two links into receiver 0 deliver on different cycles; each link's
  // TTL counts from its own delivery, not from the receiver's last one.
  CoordinationConfig config;
  config.staleness_ttl_cycles = 2;
  CoordinationChannel channel(config, /*num_agents=*/3);
  RngStream rng(16);
  const std::vector<int> to_zero = {0};
  channel.post(1, acasx::Sense::kClimb, rng, nullptr, to_zero);  // cycle 0
  channel.tick();
  channel.post(2, acasx::Sense::kDescend, rng, nullptr, to_zero);  // cycle 1
  channel.tick();
  channel.tick();  // cycle 3: link 0<-1 is 3 old, link 0<-2 is 2 old
  EXPECT_EQ(channel.forbidden_for(0, 1), acasx::Sense::kNone);
  EXPECT_EQ(channel.forbidden_for(0, 2), acasx::Sense::kDescend);
  channel.tick();  // cycle 4: both past the TTL
  EXPECT_EQ(channel.forbidden_for(0, 1), acasx::Sense::kNone);
  EXPECT_EQ(channel.forbidden_for(0, 2), acasx::Sense::kNone);
  // Nothing was posted towards receivers 1 and 2.
  EXPECT_EQ(channel.forbidden_for(1, 2), acasx::Sense::kNone);
  EXPECT_EQ(channel.forbidden_for(2, 1), acasx::Sense::kNone);
}

TEST(Coordination, ResetRestartsTheStalenessClock) {
  CoordinationConfig config;
  config.staleness_ttl_cycles = 2;
  CoordinationChannel channel(config);
  RngStream rng(17);
  for (int cycle = 0; cycle < 5; ++cycle) channel.tick();
  channel.post(0, acasx::Sense::kClimb, rng);  // delivered at cycle 5
  channel.reset();
  EXPECT_EQ(channel.forbidden_for(1), acasx::Sense::kNone);  // gone with the reset
  // After the reset the clock is back at 0: a delivery now stays fresh
  // for exactly TTL ticks, as on a new channel.
  channel.post(0, acasx::Sense::kDescend, rng);
  channel.tick();
  channel.tick();
  EXPECT_EQ(channel.forbidden_for(1), acasx::Sense::kDescend);
  channel.tick();
  EXPECT_EQ(channel.forbidden_for(1), acasx::Sense::kNone);
}

TEST(Coordination, TickWithinTtlLeavesEveryReadUnchanged) {
  // A tick is only the clock: with no posts, every link reads the same
  // after it as before it while the deliveries are within the TTL.
  CoordinationConfig config;
  config.staleness_ttl_cycles = 2;
  constexpr int kAgents = 4;
  CoordinationChannel channel(config, kAgents);
  RngStream rng(18);
  channel.post(0, acasx::Sense::kClimb, rng);
  channel.tick();
  channel.post(2, acasx::Sense::kDescend, rng, nullptr, std::vector<int>{1, 3});
  std::vector<acasx::Sense> before;
  for (int r = 0; r < kAgents; ++r) {
    for (int t = 0; t < kAgents; ++t) before.push_back(channel.forbidden_for(r, t));
  }
  channel.tick();  // link r<-0 is now 2 old: at the TTL, not past it
  std::size_t link = 0;
  for (int r = 0; r < kAgents; ++r) {
    for (int t = 0; t < kAgents; ++t, ++link) {
      EXPECT_EQ(channel.forbidden_for(r, t), before[link]) << "link " << r << "<-" << t;
    }
  }
  EXPECT_EQ(channel.forbidden_for(1, 0), acasx::Sense::kClimb);
  EXPECT_EQ(channel.forbidden_for(3, 2), acasx::Sense::kDescend);
  EXPECT_EQ(channel.forbidden_for(0, 2), acasx::Sense::kNone);  // 0 was not a receiver
}

TEST(Coordination, DeafReceiverGetsNothingButLinkStateEvolves) {
  CoordinationConfig config;
  CoordinationChannel channel(config, /*num_agents=*/3);
  RngStream rng(15);
  std::vector<bool> deaf = {false, true, false};
  channel.post(0, acasx::Sense::kClimb, rng, &deaf);
  EXPECT_EQ(channel.forbidden_for(1, 0), acasx::Sense::kNone);  // blacked out
  EXPECT_EQ(channel.forbidden_for(2, 0), acasx::Sense::kClimb);
}

TEST(Coordination, LostUpdateKeepsPreviousAnnouncement) {
  // Deliver a climb reliably, then lose every subsequent update: receivers
  // keep acting on the last thing they heard (stale-coordination hazard).
  CoordinationConfig lossless;
  CoordinationChannel channel(lossless);
  RngStream rng(8);
  channel.post(0, acasx::Sense::kClimb, rng);
  ASSERT_EQ(channel.forbidden_for(1), acasx::Sense::kClimb);
  // The channel has no config swap; emulate staleness by simply not
  // posting again — the announcement persists.
  EXPECT_EQ(channel.forbidden_for(1), acasx::Sense::kClimb);
}

}  // namespace
}  // namespace cav::sim
