// The cav_worker process body: a single-threaded request/response loop
// over two pipe fds (requests in, results out).
//
// A worker is STATEFUL between frames — kCampaignSetup installs the
// campaign once, then any number of kRunStripe requests run against it —
// but carries NO accumulation state: every response is a pure function of
// (setup, request), which is what lets the driver requeue a lost stripe
// on any other worker and still merge bit-identically.
//
// Workers are deliberately single-threaded (no ThreadPool): process-level
// sharding is the parallelism, and keeping the worker serial makes its
// per-cell accumulation order trivially canonical.
//
// Test knobs (read from the environment at startup, never set in
// production):
//   CAV_WORKER_EXIT_AFTER_STRIPES=N  _exit(9) abruptly after answering N
//                                    stripes — a deterministic stand-in
//                                    for SIGKILL mid-campaign
//   CAV_WORKER_HANG_AFTER_STRIPES=N  stop answering after N stripes (the
//                                    deadline/requeue path)
#pragma once

namespace cav::dist {

/// Serve frames from `in_fd` until EOF or kShutdown.  Returns the
/// process exit code: 0 on orderly shutdown, 1 after a protocol error or
/// an unhandleable exception (reported on `out_fd` as kWorkerError when
/// the pipe still works).  Installs SIG_IGN for SIGPIPE.
int worker_main(int in_fd, int out_fd);

}  // namespace cav::dist
