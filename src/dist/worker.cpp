#include "dist/worker.h"

#include <signal.h>
#include <unistd.h>

#include <cstdlib>
#include <exception>
#include <optional>
#include <string>

#include "core/validation_campaign.h"
#include "dist/spec_codec.h"
#include "dist/wire.h"

namespace cav::dist {
namespace {

std::size_t env_count(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr ? static_cast<std::size_t>(std::strtoull(v, nullptr, 10)) : 0;
}

/// Per-process request state: the installed campaign.
struct WorkerState {
  std::optional<core::ValidationCampaign> campaign;

  // Test knobs (see worker.h).
  std::size_t exit_after_stripes = env_count("CAV_WORKER_EXIT_AFTER_STRIPES");
  std::size_t hang_after_stripes = env_count("CAV_WORKER_HANG_AFTER_STRIPES");
  std::size_t stripes_served = 0;
};

void reply(int out_fd, MsgType type, const ByteWriter& payload) {
  write_frame(out_fd, type, payload.bytes());
}

void handle_run_stripe(WorkerState& state, ByteReader& in, int out_fd) {
  if (!state.campaign.has_value()) throw ProtocolError("stripe before campaign setup");
  const core::EncounterStripe stripe = decode_stripe(in);
  in.expect_end();

  if (state.exit_after_stripes != 0 && state.stripes_served >= state.exit_after_stripes) {
    _exit(9);  // test knob: die as abruptly as SIGKILL would
  }
  if (state.hang_after_stripes != 0 && state.stripes_served >= state.hang_after_stripes) {
    for (;;) pause();  // test knob: stop answering, let the deadline fire
  }

  const core::StripeResult result = state.campaign->run_stripe(stripe);
  ++state.stripes_served;
  ByteWriter out;
  encode_stripe_result(out, result);
  reply(out_fd, MsgType::kStripeResult, out);
}

}  // namespace

int worker_main(int in_fd, int out_fd) {
  ::signal(SIGPIPE, SIG_IGN);
  WorkerState state;

  try {
    ByteWriter hello;
    hello.u32(kProtocolVersion);
    hello.u64(static_cast<std::uint64_t>(::getpid()));
    reply(out_fd, MsgType::kHello, hello);

    for (;;) {
      std::optional<Frame> frame = read_frame(in_fd);
      if (!frame.has_value()) return 0;  // driver closed the pipe: orderly exit
      ByteReader in(frame->payload);
      switch (frame->type) {
        case MsgType::kShutdown:
          return 0;
        case MsgType::kCampaignSetup:
          state.campaign.emplace(materialize_campaign(decode_campaign_spec(in)));
          in.expect_end();
          break;
        case MsgType::kRunStripe:
          handle_run_stripe(state, in, out_fd);
          break;
        default:
          throw ProtocolError("unexpected frame type in worker");
      }
    }
  } catch (const std::exception& e) {
    // Best effort: tell the driver why before dying (the pipe may already
    // be gone — SIGPIPE is ignored, so this at worst throws again).
    try {
      ByteWriter out;
      out.str(e.what());
      reply(out_fd, MsgType::kWorkerError, out);
    } catch (...) {
    }
    return 1;
  }
}

}  // namespace cav::dist
