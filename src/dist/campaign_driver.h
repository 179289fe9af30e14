// Sharded validation campaigns: N cav_worker processes pulling
// EncounterStripe work units off one driver (ROADMAP item 2).
//
// The driver materializes the same core::ValidationCampaign the workers
// do, partitions it with make_stripes(), hands stripes out over the
// dist/wire.h pipe protocol, and merges the StripeResult partials through
// ValidationCampaign::merge — so the merged SystemRates are BIT-IDENTICAL
// to the single-process run for any worker count, stripe count, or
// completion order (the canonical-cell contract; asserted in
// tests/test_dist_campaign.cpp).
//
// Degraded-mode contract: a campaign NEVER hangs and never silently drops
// encounters.  A worker that dies (EOF on its pipe), blows the stripe
// deadline, or returns a result that does not tile its in-flight stripe
// is killed and reaped, that stripe is requeued, and a replacement is
// spawned while the respawn budget lasts.  When no workers remain, the
// driver finishes the queue in-process.  Every such event
// increments CampaignResult::requeues, sets `degraded`, and appends a
// human-readable note — the rates themselves stay bit-identical, because
// requeued stripes are re-RUN, not approximated.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <sys/types.h>

#include "core/validation_campaign.h"
#include "dist/spec_codec.h"

namespace cav::dist {

struct CampaignDriverOptions {
  /// Worker processes to spawn.  0 or 1 falls back to running the whole
  /// campaign in-process (still through the stripe surface).
  std::size_t num_workers = 2;
  /// Target work units per worker: the campaign is cut into
  /// num_workers * stripes_per_worker stripes (capped by the campaign's
  /// cell count), so a slow worker strands at most 1/stripes_per_worker
  /// of its share when it dies.
  std::size_t stripes_per_worker = 4;
  /// Per-stripe deadline. <= 0 disables (trust workers not to wedge).
  double stripe_deadline_s = 0.0;
  /// Replacement workers the campaign may spawn before giving up on a
  /// process-level run and draining the queue in-process.
  std::size_t max_respawns = 2;
  /// Path to the cav_worker binary; empty resolves next to
  /// /proc/self/exe (dist/process.h).
  std::string worker_path;

  // Test hooks (not used in production): observe spawns — e.g. to SIGKILL
  /// a worker mid-campaign — and stripe completions.
  std::function<void(pid_t)> on_spawn;
  std::function<void(std::size_t completed, std::size_t total)> on_result;
};

/// Run `spec` sharded across a worker fleet.  Blocks until the campaign
/// completes; returns the merged result (see degraded-mode contract
/// above).  Throws only on setup-time failures (unreadable table images,
/// malformed spec) — worker-runtime failures degrade instead.
core::CampaignResult run_sharded_campaign(const CampaignSpec& spec,
                                          const CampaignDriverOptions& options = {});

}  // namespace cav::dist
