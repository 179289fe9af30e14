// The benchmark's workloads and the pieces they share.
//
// Every workload follows one shape: set up from scratch once (ending with
// an untimed warm-up pass where the workload has one), report setup_s as
// the time from process start to the end of set-up, then repeat its timed
// operation until --seconds have elapsed, checking every output.  With
// --setup-only the workload returns right after set-up; main() runs more
// set-ups that way, each in a fresh perfbench process, and reports their
// median.  A traced run (--trace 1) additionally alternates plain and
// traced repetitions — the difference is the tracing overhead — and runs
// the per-layer probes of its layers.
//
// Set-up and every timed operation run on the calling thread; only the
// campaign's worker processes run beside it.  On a shared virtual host a
// pooled operation waits for every pool thread to be woken and scheduled,
// so its time follows the neighbours' load: on a 4-vCPU VM city_airspace
// at 4 LPs read 57k to 109k aircraft-s/s over half an hour, serially 61k
// to 72k, and offline_online's work_per_s ranged 12% over three pooled
// runs against 3% over three serial ones.  The thread pool is for the
// traced run's probes (LP speed-up, pool efficiencies), where one number
// per run is enough.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "metrics.h"
#include "sim/cas.h"
#include "trace.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace perfbench {

/// Seed whose outputs are pinned in the workload sources.  Every other
/// seed is checked against the other execution paths only.
inline constexpr std::uint64_t kPinnedSeed = 1;

struct RunOptions {
  std::uint64_t seed = kPinnedSeed;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;  ///< return right after set-up (setup_s)
  std::string work_dir;  ///< per-run scratch directory (removed at exit)
  cav::ThreadPool* pool = nullptr;  ///< min(4, nproc) threads, for probes only
  std::size_t workers = 1;          ///< worker processes, min(4, nproc)
};

RunOutcome run_city_airspace(const RunOptions& options);
RunOutcome run_risk_ratio_campaign(const RunOptions& options);
RunOutcome run_offline_online(const RunOptions& options);

/// Count and summed time of the calls a TimedCas forwarded.  Atomic so a
/// tally may be shared by CAS instances on several threads; a traced run
/// only charges it to a span when the calls were sequential.
struct CasTally {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::int64_t> ns{0};

  /// Read and zero the tally.
  std::pair<std::uint64_t, std::int64_t> take() { return {calls.exchange(0), ns.exchange(0)}; }
};

/// Factory of forwarding CAS decorators: every call into the
/// sim::CollisionAvoidanceSystem interface is passed to a system made by
/// `inner` and timed into `tally`.  Outputs are unchanged.
cav::sim::CasFactory timed_cas_factory(cav::sim::CasFactory inner, CasTally* tally);

/// Pauses the process-wide tracer for a scope (the plain repetitions of a
/// traced run).
class TracingPaused {
 public:
  TracingPaused() : was_(tracer().enabled()) { tracer().enable(false); }
  ~TracingPaused() { tracer().enable(was_); }
  TracingPaused(const TracingPaused&) = delete;
  TracingPaused& operator=(const TracingPaused&) = delete;

 private:
  bool was_;
};

/// Seconds since the process started: the end point of set-up is the
/// first timed operation, so this is what setup_s reports.
inline double process_seconds() { return static_cast<double>(now_ns()) * 1e-9; }

/// Helpers for filling a MetricMap.
inline void put(MetricMap& m, const std::string& name, double value, const std::string& unit,
                std::size_t samples = 1, std::string note = "") {
  m[name] = Metric{value, unit, samples, std::move(note)};
}

}  // namespace perfbench
