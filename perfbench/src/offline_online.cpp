// Workload `offline_online`: offline solve to online serving, no simulation.
//
// Set-up solves the standard pairwise table and JointConfig::standard(),
// writes both as f32 TableImages and opens a PolicyServer over them.  One
// caller then serves seeded random queries in a closed loop on its own
// thread; each round is two pair batches of 4096 (one K=4096 decision
// cycle), one joint batch of 4096 and one stream of 4096 batch-of-one pair
// queries (the path a simulated CAS takes).  The traced run times the
// pooled paths too.
// work_per_s is the geometric mean of the three paths' advisory rates, so
// the paths weigh equally whatever the round holds: there is no measured
// traffic mix to weight them by.  Solver and serving dominate here, so a
// `sim` or `dist` change should leave this workload unchanged.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <random>

#include "acasx/joint_solver.h"
#include "acasx/offline_solver.h"
#include "serving/policy_server.h"
#include "workloads.h"

namespace perfbench {

namespace {

using cav::serving::AdvisoryCosts;
using cav::serving::BatchOptions;
using cav::serving::CellSort;
using cav::serving::JointTrackQuery;
using cav::serving::PolicyServer;
using cav::serving::TrackQuery;
constexpr std::size_t kAdvisories = cav::acasx::kNumAdvisories;

constexpr std::size_t kBatch = 4096;
constexpr std::size_t kPairInputs = 32;   ///< distinct pair batches, cycled
constexpr std::size_t kJointInputs = 16;  ///< distinct joint batches, cycled
constexpr std::size_t kSingleInputs = 8;  ///< distinct single-query streams, cycled
constexpr std::size_t kPairPerRound = 2;
constexpr std::size_t kJointPerRound = 1;
constexpr std::size_t kCheckStride = 61;  ///< every 61st batched output is re-queried singly
constexpr int kProbeBatches = 8;

/// Digests of the served f32 tables (their values, bit for bit) on a
/// correct build.  Table contents do not depend on the seed.
constexpr std::uint64_t kPinnedPairTable = 0x7bda83d7ce589330;
constexpr std::uint64_t kPinnedJointTable = 0x5239d2da4c776a49;

/// Uniform over an axis widened by 10% each side, so the boundary clamps
/// are exercised too.
double sample_axis(const cav::UniformAxis& axis, std::mt19937_64& rng) {
  const double pad = 0.1 * (axis.hi() - axis.lo());
  return std::uniform_real_distribution<double>(axis.lo() - pad, axis.hi() + pad)(rng);
}

std::vector<TrackQuery> pair_queries(const cav::acasx::AcasXuConfig& c, std::mt19937_64& rng) {
  std::vector<TrackQuery> q(kBatch);
  for (auto& x : q) {
    x.tau_s = std::uniform_real_distribution<double>(0.0, double(c.space.tau_max) + 2.0)(rng);
    x.h_ft = sample_axis(c.space.h_ft, rng);
    x.dh_own_fps = sample_axis(c.space.dh_own_fps, rng);
    x.dh_int_fps = sample_axis(c.space.dh_int_fps, rng);
    x.ra = static_cast<cav::acasx::Advisory>(rng() % kAdvisories);
  }
  return q;
}

std::vector<JointTrackQuery> joint_queries(const cav::acasx::JointConfig& c, std::mt19937_64& rng) {
  std::vector<JointTrackQuery> q(kBatch);
  const double delta_max = c.secondary.delta_step_s * double(c.secondary.num_delta_bins + 1);
  for (auto& x : q) {
    x.tau1_s = std::uniform_real_distribution<double>(0.0, double(c.space.tau_max) + 2.0)(rng);
    x.delta_s = std::uniform_real_distribution<double>(0.0, delta_max)(rng);
    x.h1_ft = sample_axis(c.space.h_ft, rng);
    x.dh_own_fps = sample_axis(c.space.dh_own_fps, rng);
    x.dh_int1_fps = sample_axis(c.space.dh_int_fps, rng);
    x.h2_ft = sample_axis(c.secondary.h2_ft, rng);
    x.sense = static_cast<cav::acasx::SecondarySense>(rng() % cav::acasx::kNumSecondarySenses);
    x.ra = static_cast<cav::acasx::Advisory>(rng() % kAdvisories);
  }
  return q;
}

bool all_finite(const std::vector<AdvisoryCosts>& out) {
  for (const auto& o : out) {
    for (const double c : o.costs) {
      if (!std::isfinite(c)) return false;
    }
  }
  return true;
}

/// A strided sample of batched outputs must equal the batch-of-one path
/// bit for bit, and every cost must be finite.
template <typename Query>
bool batch_ok(const PolicyServer& server, const std::vector<Query>& queries,
              const std::vector<AdvisoryCosts>& out) {
  std::array<double, kAdvisories> single{};
  for (std::size_t i = 0; i < queries.size(); i += kCheckStride) {
    server.action_costs(queries[i], std::span<double, kAdvisories>(single));
    if (std::memcmp(single.data(), out[i].costs.data(), sizeof single) != 0) return false;
  }
  return all_finite(out);
}

template <typename Query>
double time_batch(const PolicyServer& server, const std::vector<Query>& queries,
                  std::vector<AdvisoryCosts>& out, const BatchOptions& options) {
  const auto t0 = Clock::now();
  server.query_batch(std::span<const Query>(queries), std::span<AdvisoryCosts>(out), options);
  return seconds_since(t0);
}

/// Batch-of-one stream; with `per_call` every query is timed on its own
/// and charged to the tracer as one aggregate (the traced path).
template <typename Query>
double time_singles(const PolicyServer& server, const std::vector<Query>& queries,
                    std::vector<AdvisoryCosts>& out, bool per_call) {
  const auto t0 = Clock::now();
  std::int64_t summed_ns = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::int64_t q0 = per_call ? now_ns() : 0;
    server.action_costs(queries[i], std::span<double, kAdvisories>(out[i].costs));
    if (per_call) summed_ns += now_ns() - q0;
  }
  const double wall = seconds_since(t0);
  if (per_call) tracer().aggregate("serving.single_query", queries.size(), summed_ns);
  return wall;
}

std::uint64_t digest_floats(const float* values, std::size_t n) {
  return Digest().add_bytes(values, n * sizeof(float)).value();
}

double file_mb(const std::string& path) {
  return static_cast<double>(std::filesystem::file_size(path)) / (1024.0 * 1024.0);
}

/// Closed-loop samples of one kind of query.
struct Stream {
  std::vector<double> seconds;  ///< one entry per batch / chunk
  std::size_t queries = 0;
  double rate() const {
    double s = 0.0;
    for (const double x : seconds) s += x;
    return static_cast<double>(queries) / s;
  }
};

}  // namespace

RunOutcome run_offline_online(const RunOptions& o) {
  RunOutcome out;
  const auto pair_config = cav::acasx::AcasXuConfig::standard();
  const auto joint_config = cav::acasx::JointConfig::standard();
  const std::string pair_image = o.work_dir + "/pair.cavt";
  const std::string joint_image = o.work_dir + "/joint.cavt";
  const std::size_t threads = o.pool->thread_count();

  std::vector<std::vector<TrackQuery>> pair_in, single_in;
  std::vector<std::vector<JointTrackQuery>> joint_in;
  {
    ScopedSpan root("inputs");
    std::mt19937_64 rng(o.seed);
    for (std::size_t i = 0; i < kPairInputs; ++i) pair_in.push_back(pair_queries(pair_config, rng));
    for (std::size_t i = 0; i < kJointInputs; ++i) {
      joint_in.push_back(joint_queries(joint_config, rng));
    }
    for (std::size_t i = 0; i < kSingleInputs; ++i) {
      single_in.push_back(pair_queries(pair_config, rng));
    }
  }
  std::vector<AdvisoryCosts> results(kBatch);
  const BatchOptions serial{CellSort::kAuto, nullptr};
  const BatchOptions pooled{CellSort::kAuto, o.pool};

  // --- set-up: both solves, both image writes, open, one warm-up pass.
  double pair_compile_s = 0.0, pair_sweep_s = 0.0, joint_compile_s = 0.0, joint_sweep_s = 0.0;
  double dump_s = 0.0, open_s = 0.0;
  cav::acasx::SolveStats pair_stats;
  cav::acasx::JointSolveStats joint_stats;
  std::optional<PolicyServer> server;
  {
    ScopedSpan root("setup");
    {
      std::optional<cav::acasx::CompiledAcasModel> model;
      auto t = Clock::now();
      {
        ScopedSpan s("acasx.pair.compile");
        model.emplace(pair_config, nullptr);
      }
      pair_compile_s = seconds_since(t);
      t = Clock::now();
      std::optional<cav::acasx::LogicTable> table;
      {
        ScopedSpan s("acasx.pair.sweep");
        table.emplace(model->solve(nullptr, &pair_stats));
      }
      pair_sweep_s = seconds_since(t);
      t = Clock::now();
      ScopedSpan s("serving.dump");
      table->save(pair_image);
      dump_s += seconds_since(t);
    }
    {
      std::optional<cav::acasx::JointOfflineSolver> solver;
      auto t = Clock::now();
      {
        ScopedSpan s("acasx.joint.compile");
        solver.emplace(joint_config, nullptr);
      }
      joint_compile_s = seconds_since(t);
      t = Clock::now();
      std::optional<cav::acasx::JointLogicTable> table;
      {
        ScopedSpan s("acasx.joint.sweep");
        table.emplace(solver->solve(nullptr, &joint_stats));
      }
      joint_sweep_s = seconds_since(t);
      t = Clock::now();
      ScopedSpan s("serving.dump");
      table->save(joint_image);
      dump_s += seconds_since(t);
    }
    const auto t = Clock::now();
    {
      ScopedSpan s("serving.open");
      server.emplace(PolicyServer::open(pair_image, joint_image));
    }
    open_s = seconds_since(t);
    ScopedSpan s("serving.warmup");
    for (const auto& q : pair_in) time_batch(*server, q, results, serial);
    for (const auto& q : joint_in) time_batch(*server, q, results, serial);
    for (const auto& q : single_in) time_singles(*server, q, results, false);
  }
  MetricMap& e = out.end_to_end;
  put(e, "setup_s", process_seconds(), "s", 1, "process start to first timed operation");
  if (o.setup_only) return out;
  {
    ScopedSpan root("check");
    out.attempted += 2;
    const auto& pt = *server->pairwise_table();
    const auto& jt = *server->joint_table();
    const std::uint64_t pair_digest = digest_floats(pt.values(), pt.num_entries());
    const std::uint64_t joint_digest = digest_floats(jt.values(), jt.num_entries());
    out.facts.push_back({"table digests", hex64(pair_digest) + " " + hex64(joint_digest)});
    if (pair_digest != kPinnedPairTable) {
      out.fail("offline_online: pair table digest " + hex64(pair_digest) +
               " differs from the pinned " + hex64(kPinnedPairTable));
    }
    if (joint_digest != kPinnedJointTable) {
      out.fail("offline_online: joint table digest " + hex64(joint_digest) +
               " differs from the pinned " + hex64(kPinnedJointTable));
    }
  }

  // --- measured window: closed-loop rounds.  A traced run alternates plain
  // and traced rounds; the plain ones give every rate.
  Stream pair[2], joint[2], single[2];  // [0] plain, [1] traced
  std::size_t pair_cursor = 0, joint_cursor = 0, single_cursor = 0;
  std::int64_t batch_id = 0;
  {
    ScopedSpan root("measure");
    const auto window = Clock::now();
    for (int round = 0; round < (o.trace ? 2 : 1) || seconds_since(window) < o.seconds; ++round) {
      const int traced = o.trace && round % 2 == 1 ? 1 : 0;
      std::optional<TracingPaused> paused;
      if (o.trace && !traced) paused.emplace();
      for (std::size_t i = 0; i < kPairPerRound; ++i, ++batch_id) {
        const auto& q = pair_in[pair_cursor++ % kPairInputs];
        ++out.attempted;
        {
          ScopedSpan span("serving.pair_batch", batch_id);
          pair[traced].seconds.push_back(time_batch(*server, q, results, serial));
        }
        pair[traced].queries += q.size();
        if (!batch_ok(*server, q, results)) {
          out.fail("offline_online: pair batch " + std::to_string(batch_id));
        }
      }
      for (std::size_t i = 0; i < kJointPerRound; ++i, ++batch_id) {
        const auto& q = joint_in[joint_cursor++ % kJointInputs];
        ++out.attempted;
        {
          ScopedSpan span("serving.joint_batch", batch_id);
          joint[traced].seconds.push_back(time_batch(*server, q, results, serial));
        }
        joint[traced].queries += q.size();
        if (!batch_ok(*server, q, results)) {
          out.fail("offline_online: joint batch " + std::to_string(batch_id));
        }
      }
      const auto& q = single_in[single_cursor++ % kSingleInputs];
      ++out.attempted;
      {
        ScopedSpan span("serving.single_stream", batch_id++);
        single[traced].seconds.push_back(time_singles(*server, q, results, traced == 1));
      }
      single[traced].queries += q.size();
      if (!all_finite(results)) {
        out.fail("offline_online: single stream " + std::to_string(batch_id - 1));
      }
    }
  }
  // Each round's geometric mean of the three paths' rates, median over the
  // rounds, so a burst of contention from outside moves it less than a
  // mean over the window would.
  const auto work_rate = [&](int mode) {
    std::vector<double> rounds;
    for (std::size_t r = 0; r < single[mode].seconds.size(); ++r) {
      double pair_s = 0.0, joint_s = 0.0;
      for (std::size_t i = 0; i < kPairPerRound; ++i) {
        pair_s += pair[mode].seconds[r * kPairPerRound + i];
      }
      for (std::size_t i = 0; i < kJointPerRound; ++i) {
        joint_s += joint[mode].seconds[r * kJointPerRound + i];
      }
      const double pair_rate = double(kPairPerRound * kBatch) / pair_s;
      const double joint_rate = double(kJointPerRound * kBatch) / joint_s;
      const double single_rate = double(kBatch) / single[mode].seconds[r];
      rounds.push_back(std::cbrt(pair_rate * joint_rate * single_rate));
    }
    return cav::percentile(rounds, 0.5);
  };
  put(e, "work_per_s", work_rate(0), "1/s", single[0].seconds.size(),
      "advisories, median over rounds of the pair/joint/single geometric mean");
  put(e, "peak_rss_mb", peak_rss_mb(), "MB");
  if (!o.trace) return out;

  // --- per-layer probes: the serving kernel with sorting off and on,
  // single-threaded and pooled; joint single queries; a pooled joint
  // solve for the solver's pool efficiency.
  struct Probe {
    double unsorted_1t_ns, sorted_1t_ns, pool_ns;
  };
  const auto probe = [&](const auto& inputs, const char* kind) {
    Probe p{};
    std::pair<double*, BatchOptions> modes[] = {{&p.unsorted_1t_ns, {CellSort::kOff, nullptr}},
                                                {&p.sorted_1t_ns, {CellSort::kOn, nullptr}},
                                                {&p.pool_ns, pooled}};
    for (auto& [slot, options] : modes) {
      std::vector<double> ns;
      for (int b = 0; b < kProbeBatches; ++b) {
        ScopedSpan span(std::string("serving.probe_") + kind, b);
        const double s = time_batch(*server, inputs[b % inputs.size()], results, options);
        ns.push_back(s * 1e9 / kBatch);
      }
      *slot = cav::percentile(ns, 0.5);
    }
    return p;
  };
  Probe pair_probe{}, joint_probe{};
  std::vector<double> joint_single_ns;
  double joint_sweep_pool_s = 0.0;
  {
    ScopedSpan root("probe");
    pair_probe = probe(pair_in, "pair");
    joint_probe = probe(joint_in, "joint");
    std::vector<AdvisoryCosts> joint_out(kBatch);
    for (std::size_t c = 0; c < 4; ++c) {
      ScopedSpan span("serving.single_joint_stream", static_cast<std::int64_t>(c));
      const double s = time_singles(*server, joint_in[c], joint_out, false);
      joint_single_ns.push_back(s * 1e9 / kBatch);
    }
    cav::acasx::JointSolveStats stats_pool;
    ScopedSpan span("acasx.joint.solve_pool");
    const cav::acasx::JointOfflineSolver solver(joint_config, o.pool);
    const auto t = Clock::now();
    solver.solve(o.pool, &stats_pool);
    joint_sweep_pool_s = seconds_since(t);
  }

  MetricMap& l = out.per_layer;
  const auto tail = tail_percentile(pair[0].seconds);
  put(l, "serving.pair_advisories_per_s", pair[0].rate(), "1/s", pair[0].seconds.size());
  put(l, "serving.pair_batch_p50_ms", cav::percentile(pair[0].seconds, 0.5) * 1e3, "ms", pair[0].seconds.size());
  char tail_note[64] = "too few samples for a tail";
  if (tail) {
    std::snprintf(tail_note, sizeof tail_note, "p%g, %zu samples beyond", tail->percentile,
                  tail->beyond);
  }
  put(l, "serving.pair_batch_tail_ms", tail ? tail->value * 1e3 : 0.0, "ms", pair[0].seconds.size(),
      tail_note);
  put(l, "serving.joint_advisories_per_s", joint[0].rate(), "1/s", joint[0].seconds.size());
  std::vector<double> single_ns;
  for (const double s : single[0].seconds) single_ns.push_back(s * 1e9 / kBatch);
  put(l, "serving.single.pair_ns", cav::percentile(single_ns, 0.5), "ns", single_ns.size(),
      "median over 4096-query streams");
  put(l, "serving.single.joint_ns", cav::percentile(joint_single_ns, 0.5), "ns", joint_single_ns.size());
  const std::pair<const char*, Probe> kinds[] = {{"pair", pair_probe}, {"joint", joint_probe}};
  for (const auto& [kind, p] : kinds) {
    const std::string k = std::string("serving.") + kind;
    // Computed, not measured: two tau layers x 2^dims interpolation
    // vertices x five float costs, plus the query and its result.
    const bool is_pair = std::string(kind) == "pair";
    const double bytes = 2.0 * (is_pair ? 8 : 16) * kAdvisories * sizeof(float) +
                         (is_pair ? sizeof(TrackQuery) : sizeof(JointTrackQuery)) +
                         sizeof(AdvisoryCosts);
    put(l, k + ".unsorted_1t_ns", p.unsorted_1t_ns, "ns", kProbeBatches);
    put(l, k + ".sorted_1t_ns", p.sorted_1t_ns, "ns", kProbeBatches);
    put(l, k + ".pool_ns", p.pool_ns, "ns", kProbeBatches);
    put(l, k + ".pool_efficiency", p.sorted_1t_ns / (double(threads) * p.pool_ns), "ratio");
    put(l, k + ".computed_bytes_per_q", bytes, "B", 1, "computed");
    put(l, k + ".achieved_gbps", bytes / p.pool_ns, "GB/s", kProbeBatches,
        "computed bytes / pool_ns");
  }
  put(l, "serving.dump_s", dump_s, "s", 1, "both images");
  put(l, "serving.open_s", open_s, "s");
  put(l, "serving.image_mb", file_mb(pair_image) + file_mb(joint_image), "MB");
  put(l, "acasx.pair.compile_s", pair_compile_s, "s");
  put(l, "acasx.pair.sweep_s", pair_sweep_s, "s");
  put(l, "acasx.pair.stencil_entries", double(pair_stats.stencil_entries), "count");
  put(l, "acasx.pair.ns_per_state_layer",
      pair_sweep_s * 1e9 / double(pair_stats.states_per_layer * pair_stats.layers), "ns");
  put(l, "acasx.joint.compile_s", joint_compile_s, "s");
  put(l, "acasx.joint.sweep_s", joint_sweep_s, "s");
  put(l, "acasx.joint.stencil_entries", double(joint_stats.stencil_entries), "count");
  put(l, "acasx.joint.ns_per_state_layer",
      joint_sweep_s * 1e9 /
          double(joint_stats.states_per_layer * joint_stats.layers * joint_stats.slabs),
      "ns");
  put(l, "acasx.joint.pool_efficiency", joint_sweep_s / (double(threads) * joint_sweep_pool_s),
      "ratio", 1, "1-thread sweep / (threads x pooled sweep)");
  put(l, "trace.overhead_frac", work_rate(0) / work_rate(1) - 1.0, "ratio",
      single[1].seconds.size(), "plain rounds vs traced rounds");
  return out;
}

}  // namespace perfbench
