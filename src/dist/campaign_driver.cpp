#include "dist/campaign_driver.h"

#include <poll.h>
#include <signal.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "dist/process.h"
#include "dist/wire.h"
#include "util/expect.h"

namespace cav::dist {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One worker slot: the process plus the stripe it is chewing on.
struct Slot {
  WorkerProcess proc;
  std::optional<std::size_t> stripe;  ///< index into the stripe list
  Clock::time_point issued_at{};
};

/// Driver-side campaign state shared by the handlers below.
struct Run {
  const core::ValidationCampaign* campaign = nullptr;
  const CampaignDriverOptions* options = nullptr;
  std::vector<core::EncounterStripe> stripes;
  std::vector<std::byte> setup_payload;

  std::deque<std::size_t> queue;  ///< unissued stripe indices
  std::vector<core::StripeResult> results;
  std::vector<Slot> slots;

  std::size_t respawns_left = 0;
  core::CampaignResult report;

  std::size_t completed() const { return results.size(); }

  void note(std::string text) {
    report.degraded = true;
    report.notes.push_back(std::move(text));
  }

  /// Hand the slot its next stripe, if any.  Returns false when the send
  /// failed (dead pipe) — caller handles the death.
  bool assign(Slot& slot) {
    if (queue.empty() || !slot.proc.alive()) return true;
    const std::size_t idx = queue.front();
    ByteWriter out;
    encode_stripe(out, stripes[idx]);
    try {
      write_frame(slot.proc.in_fd(), MsgType::kRunStripe, out.bytes());
    } catch (const ProtocolError&) {
      return false;
    }
    queue.pop_front();
    slot.stripe = idx;
    slot.issued_at = Clock::now();
    return true;
  }

  /// Spawn + setup a fresh worker into `slot`.  Returns false when the
  /// spawn or setup write failed.
  bool spawn_into(Slot& slot) {
    try {
      slot.proc = WorkerProcess::spawn(find_worker_binary(options->worker_path));
      write_frame(slot.proc.in_fd(), MsgType::kCampaignSetup, setup_payload);
    } catch (const ProtocolError&) {
      slot.proc.kill();
      return false;
    }
    slot.stripe.reset();
    if (options->on_spawn) options->on_spawn(slot.proc.pid());
    return true;
  }

  /// A worker died or was condemned: reclaim its stripe, kill it, and
  /// respawn while the budget lasts.
  void handle_death(Slot& slot, const std::string& why) {
    if (slot.stripe.has_value()) {
      queue.push_front(*slot.stripe);
      ++report.requeues;
      slot.stripe.reset();
    }
    note("worker lost (" + why + "); stripe requeued");
    slot.proc.kill();
    while (respawns_left > 0) {
      --respawns_left;
      if (spawn_into(slot)) {
        if (!assign(slot)) {
          handle_death(slot, "respawned worker unwritable");
        }
        return;
      }
      note("respawn failed");
    }
  }

  /// True when `result` answers the stripe `slot` has in flight: its
  /// cells tile exactly that stripe's encounter range.  Anything else —
  /// an unsolicited result, or one for other cells — would corrupt the
  /// merge, so the caller treats the worker as lost.
  bool answers_stripe(const Slot& slot, const core::StripeResult& result) const {
    if (!slot.stripe.has_value()) return false;
    const core::EncounterStripe& stripe = stripes[*slot.stripe];
    const std::size_t cells = campaign->num_cells();
    if (result.first_cell > cells || result.cells.size() > cells - result.first_cell) {
      return false;
    }
    return campaign->cell_begin(result.first_cell) == stripe.begin &&
           campaign->cell_begin(result.first_cell + result.cells.size()) == stripe.end;
  }

  std::size_t live_workers() const {
    std::size_t n = 0;
    for (const Slot& s : slots) n += s.proc.alive() ? 1 : 0;
    return n;
  }
};

/// Read exactly one frame from a readable worker and fold it in.
void drain_one_frame(Run& run, Slot& slot) {
  std::optional<Frame> frame;
  try {
    frame = read_frame(slot.proc.out_fd());
  } catch (const ProtocolError& e) {
    run.handle_death(slot, e.what());
    return;
  }
  if (!frame.has_value()) {
    run.handle_death(slot, "pipe closed");
    return;
  }

  try {
    ByteReader in(frame->payload);
    switch (frame->type) {
      case MsgType::kHello: {
        const std::uint32_t version = in.u32();
        if (version != kProtocolVersion) {
          run.handle_death(slot, "protocol version mismatch");
        }
        return;
      }
      case MsgType::kStripeResult: {
        core::StripeResult result = decode_stripe_result(in);
        in.expect_end();
        if (!run.answers_stripe(slot, result)) {
          run.handle_death(slot, "stripe result does not match the stripe in flight");
          return;
        }
        slot.stripe.reset();
        run.results.push_back(std::move(result));
        if (run.options->on_result) {
          run.options->on_result(run.completed(), run.stripes.size());
        }
        if (!run.assign(slot)) run.handle_death(slot, "pipe closed");
        return;
      }
      case MsgType::kWorkerError:
        run.handle_death(slot, "worker error: " + in.str());
        return;
      default:
        run.handle_death(slot, "unexpected frame from worker");
        return;
    }
  } catch (const ProtocolError& e) {
    run.handle_death(slot, e.what());
  }
}

}  // namespace

core::CampaignResult run_sharded_campaign(const CampaignSpec& spec,
                                          const CampaignDriverOptions& options) {
  // A dead worker must surface as EPIPE on write, not kill the driver.
  ::signal(SIGPIPE, SIG_IGN);
  const auto t0 = Clock::now();

  Run run;
  run.options = &options;
  const core::ValidationCampaign campaign = materialize_campaign(spec);
  run.campaign = &campaign;

  const std::size_t want_stripes =
      std::max<std::size_t>(1, options.num_workers * std::max<std::size_t>(1, options.stripes_per_worker));
  run.stripes = campaign.make_stripes(want_stripes);
  run.report.work_units = run.stripes.size();
  run.respawns_left = options.max_respawns;

  // Degenerate shapes run in-process, still through the stripe surface.
  const bool in_process_only = options.num_workers <= 1 || run.stripes.size() <= 1;
  if (!in_process_only) {
    ByteWriter setup;
    encode_campaign_spec(setup, spec);
    run.setup_payload.assign(setup.bytes().begin(), setup.bytes().end());

    for (std::size_t i = 0; i < run.stripes.size(); ++i) run.queue.push_back(i);

    run.slots.resize(std::min(options.num_workers, run.stripes.size()));
    for (Slot& slot : run.slots) {
      if (!run.spawn_into(slot)) {
        run.note("initial spawn failed");
        continue;
      }
      if (!run.assign(slot)) run.handle_death(slot, "pipe closed at setup");
    }

    const bool deadline_enabled = options.stripe_deadline_s > 0.0;
    while (run.completed() < run.stripes.size() && run.live_workers() > 0) {
      // Requeues can leave live workers idle while the queue is
      // non-empty; re-dispatch before blocking, or the poll below would
      // wait on workers that owe nothing.
      for (Slot& slot : run.slots) {
        if (slot.proc.alive() && !slot.stripe.has_value() && !run.queue.empty()) {
          if (!run.assign(slot)) run.handle_death(slot, "pipe closed");
        }
      }
      // poll every live worker with an outstanding or upcoming frame.
      std::vector<struct pollfd> fds;
      std::vector<std::size_t> fd_slot;
      for (std::size_t i = 0; i < run.slots.size(); ++i) {
        if (!run.slots[i].proc.alive()) continue;
        fds.push_back({run.slots[i].proc.out_fd(), POLLIN, 0});
        fd_slot.push_back(i);
      }
      if (fds.empty()) break;

      int timeout_ms = -1;
      if (deadline_enabled) {
        double soonest = options.stripe_deadline_s;
        for (const Slot& s : run.slots) {
          if (s.proc.alive() && s.stripe.has_value()) {
            soonest = std::min(soonest,
                               options.stripe_deadline_s - seconds_since(s.issued_at));
          }
        }
        timeout_ms = std::max(1, static_cast<int>(soonest * 1e3) + 1);
      }

      int ready = ::poll(fds.data(), fds.size(), timeout_ms);
      if (ready < 0) {
        if (errno == EINTR) continue;
        run.note("poll failed; finishing in-process");
        break;
      }
      for (std::size_t k = 0; k < fds.size(); ++k) {
        if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
          drain_one_frame(run, run.slots[fd_slot[k]]);
        }
      }
      if (deadline_enabled) {
        for (Slot& slot : run.slots) {
          if (slot.proc.alive() && slot.stripe.has_value() &&
              seconds_since(slot.issued_at) > options.stripe_deadline_s) {
            run.handle_death(slot, "stripe deadline exceeded");
          }
        }
      }
    }
    // Reclaim any stripe still in flight (the loop can exit with live
    // workers after a poll failure) before shutting the fleet down.
    for (Slot& slot : run.slots) {
      if (slot.stripe.has_value()) {
        run.queue.push_front(*slot.stripe);
        ++run.report.requeues;
        slot.stripe.reset();
      }
      slot.proc.shutdown();
    }
  }

  // Whatever is left — everything (in-process mode), stragglers after the
  // fleet died, or requeued stripes with no worker to take them — runs
  // here.  Same kernel, same per-cell accumulation: merged rates stay
  // bit-identical.
  if (in_process_only) {
    for (std::size_t i = 0; i < run.stripes.size(); ++i) run.queue.push_back(i);
  } else if (!run.queue.empty() || run.completed() < run.stripes.size()) {
    run.note("worker fleet exhausted; finishing " +
             std::to_string(run.stripes.size() - run.completed()) + " stripes in-process");
  }
  // Requeued indices may coexist with never-issued ones; the queue holds
  // exactly the stripes with no result yet.
  while (!run.queue.empty()) {
    const std::size_t idx = run.queue.front();
    run.queue.pop_front();
    run.results.push_back(campaign.run_stripe(run.stripes[idx]));
    if (options.on_result && !in_process_only) {
      options.on_result(run.completed(), run.stripes.size());
    }
  }

  expect(run.completed() == run.stripes.size(), "every stripe produced a result");
  run.report.rates = campaign.merge(run.results);
  run.report.wall_s = seconds_since(t0);
  return run.report;
}

}  // namespace cav::dist
