// Workload `city_airspace`: one city-scale batch simulation.
//
// scenarios::city_corridors(4096) fully ACAS Xu-equipped (coarse pairwise
// table, solved during set-up), 2000 m interaction radius matching the
// lane spacing, fault-free, no trajectory recording, 30 s of flight per
// run.  Timed runs use the serial engine (1 LP); the traced run adds a
// 4-LP run on the pool, which must decide the same, for the LP speed-up.
// This is the one workload where the airspace engine dominates and K is
// large enough for its K-squared terms (grid, coordination, monitors) to
// show in time and memory.
#include <cmath>
#include <optional>

#include "acasx/offline_solver.h"
#include "scenarios/scenario_library.h"
#include "sim/acasx_cas.h"
#include "sim/simulation.h"
#include "workloads.h"

namespace perfbench {

namespace {

using cav::sim::SimResult;
using cav::sim::UavState;

constexpr std::size_t kFleet = 4096;
constexpr std::size_t kSmallFleet = 1024;  ///< second point of the K exponent
constexpr double kRadiusM = 2000.0;
constexpr double kHorizonS = 30.0;  ///< about 2 s per serial run
constexpr int kLps = 4;            ///< LPs of the traced run's parallel probe

/// digest_of(result) for --seed kPinnedSeed on a correct build.
constexpr std::uint64_t kPinnedDigest = 0xaf85fef5370b65ca;

SimResult simulate(const std::vector<UavState>& states, const cav::sim::CasFactory& cas,
                   int num_lps, cav::ThreadPool* pool, std::uint64_t seed, double* wall_s) {
  std::vector<cav::sim::AgentSetup> agents(states.size());
  for (std::size_t i = 0; i < states.size(); ++i) {
    agents[i].initial_state = states[i];
    agents[i].cas = cas();
  }
  cav::sim::SimConfig config;
  config.airspace.interaction_radius_m = kRadiusM;
  config.airspace.parallel.num_lps = num_lps;
  config.airspace.parallel.pool = pool;
  config.max_time_s = kHorizonS;
  const auto t0 = Clock::now();
  SimResult result = cav::sim::run_multi_encounter(config, std::move(agents), seed);
  *wall_s = seconds_since(t0);
  return result;
}

std::vector<UavState> build_city(std::size_t fleet, std::uint64_t seed) {
  ScopedSpan span("scenarios.city_build");
  return cav::scenarios::city_corridors(fleet, seed).initial_states();
}

}  // namespace

RunOutcome run_city_airspace(const RunOptions& o) {
  RunOutcome out;
  const double agent_seconds = static_cast<double>(kFleet) * kHorizonS;

  // --- set-up: solve the coarse table and build the city.
  std::shared_ptr<const cav::acasx::LogicTable> table;
  std::vector<UavState> states;
  double compile_s = 0.0;
  double build_s = 0.0;
  double city_build_s = 0.0;
  cav::acasx::SolveStats solve_stats;
  {
    ScopedSpan root("setup");
    const auto t0 = Clock::now();
    std::optional<cav::acasx::CompiledAcasModel> model;
    {
      ScopedSpan s("acasx.pair.compile");
      model.emplace(cav::acasx::AcasXuConfig::coarse(), nullptr);
    }
    compile_s = seconds_since(t0);
    {
      ScopedSpan s("acasx.pair.sweep");
      table = std::make_shared<const cav::acasx::LogicTable>(model->solve(nullptr, &solve_stats));
    }
    build_s = seconds_since(t0);
    const auto tc = Clock::now();
    states = build_city(kFleet, o.seed);
    city_build_s = seconds_since(tc);
  }
  MetricMap& e = out.end_to_end;
  put(e, "setup_s", process_seconds(), "s", 1, "process start to first timed operation");
  if (o.setup_only) return out;
  const double sweep_s = build_s - compile_s;
  const cav::sim::CasFactory equipped = cav::sim::AcasXuCas::factory(table);
  CasTally tally;
  const cav::sim::CasFactory timed = timed_cas_factory(equipped, &tally);

  // --- measured window: repeat the serial run; a traced run alternates
  // plain and CAS-timed repetitions.
  std::vector<double> plain_wall, traced_wall, cas_self_s, cas_calls;
  std::optional<SimResult> first;
  std::uint64_t first_digest = 0;
  {
    ScopedSpan root("measure");
    const auto window = Clock::now();
    for (int rep = 0; rep < (o.trace ? 2 : 1) || seconds_since(window) < o.seconds; ++rep) {
      const bool traced = o.trace && rep % 2 == 1;
      std::optional<TracingPaused> paused;
      if (o.trace && !traced) paused.emplace();
      ++out.attempted;
      double wall = 0.0;
      SimResult result;
      {
        ScopedSpan span("sim.run", rep);
        result = simulate(states, traced ? timed : equipped, 1, nullptr, o.seed, &wall);
        if (traced) {
          const auto [calls, ns] = tally.take();
          tracer().aggregate("sim.cas", calls, ns);
          cas_calls.push_back(static_cast<double>(calls));
          cas_self_s.push_back(static_cast<double>(ns) * 1e-9);
        }
      }
      (traced ? traced_wall : plain_wall).push_back(wall);
      const std::uint64_t digest = digest_of(result);
      if (!first) {
        first = std::move(result);
        first_digest = digest;
      } else if (digest != first_digest) {
        out.fail("city_airspace: repetition " + std::to_string(rep) + " digest " + hex64(digest) +
                 " differs from repetition 0 (" + hex64(first_digest) + ")");
      }
    }
  }
  ++out.attempted;
  if (o.seed == kPinnedSeed && first_digest != kPinnedDigest) {
    out.fail("city_airspace: digest " + hex64(first_digest) + " differs from the pinned " +
             hex64(kPinnedDigest));
  }
  const cav::sim::SimStats& stats = first->stats;
  out.facts.push_back({"result digest", hex64(first_digest)});
  out.facts.push_back({"NMAC", first->nmac ? "yes" : "no"});
  out.facts.push_back({"peak active pairs", std::to_string(stats.peak_active_pairs)});

  std::vector<double> rates;
  for (const double w : plain_wall) rates.push_back(agent_seconds / w);
  put(e, "work_per_s", cav::percentile(rates, 0.5), "1/s", rates.size(), "aircraft-seconds simulated");
  put(e, "peak_rss_mb", peak_rss_mb(), "MB");
  if (!o.trace) return out;

  // --- per-layer probes: the 4-LP engine on the same inputs (also the
  // LP bit-identity check) and at a quarter of the fleet.
  double lp4_wall = 0.0;
  double small_wall = 0.0;
  {
    ScopedSpan root("probe");
    ++out.attempted;
    {
      ScopedSpan span("sim.run_lp4");
      const std::uint64_t parallel =
          digest_of(simulate(states, equipped, kLps, o.pool, o.seed, &lp4_wall));
      if (parallel != first_digest) {
        out.fail("city_airspace: 4-LP digest " + hex64(parallel) + " differs from serial " +
                 hex64(first_digest));
      }
    }
    const std::vector<UavState> small = build_city(kSmallFleet, o.seed);
    ScopedSpan span("sim.run_k1024");
    simulate(small, equipped, kLps, o.pool, o.seed, &small_wall);
  }
  const double lp1_wall = cav::percentile(plain_wall, 0.5);
  const double traced_run = cav::percentile(traced_wall, 0.5);
  const double cas_s = cav::percentile(cas_self_s, 0.5);
  MetricMap& l = out.per_layer;
  put(l, "scenarios.city_build_s", city_build_s, "s");
  put(l, "sim.run_s.lp1", lp1_wall, "s", plain_wall.size());
  put(l, "sim.run_s.lp4", lp4_wall, "s");
  put(l, "sim.lp4_speedup", lp1_wall / lp4_wall, "ratio");
  put(l, "sim.k_exponent", std::log(lp4_wall / small_wall) / std::log(double(kFleet) / kSmallFleet),
      "ratio", 2, "K=1024 and K=4096 at 4 LPs");
  put(l, "sim.cas_self_s", cas_s, "s", cas_self_s.size());
  put(l, "sim.cas_calls", cav::percentile(cas_calls, 0.5), "count", cas_calls.size());
  put(l, "sim.engine_self_s", traced_run - cas_s, "s", traced_wall.size());
  put(l, "sim.engine_ns_per_fine_step",
      (traced_run - cas_s) * 1e9 / static_cast<double>(stats.fine_agent_steps), "ns");
  put(l, "sim.fine_agent_steps", static_cast<double>(stats.fine_agent_steps), "count");
  put(l, "sim.coarse_agent_steps", static_cast<double>(stats.coarse_agent_steps), "count");
  put(l, "sim.pair_updates", static_cast<double>(stats.pair_updates), "count");
  put(l, "sim.monitored_pairs", static_cast<double>(stats.monitored_pairs), "count");
  put(l, "sim.peak_active_pairs", static_cast<double>(stats.peak_active_pairs), "count");
  put(l, "sim.decision_cycles", static_cast<double>(stats.decision_cycles), "count");
  put(l, "acasx.pair.compile_s", compile_s, "s");
  put(l, "acasx.pair.sweep_s", sweep_s, "s");
  put(l, "acasx.pair.stencil_entries", static_cast<double>(solve_stats.stencil_entries), "count");
  put(l, "acasx.pair.ns_per_state_layer",
      sweep_s * 1e9 / static_cast<double>(solve_stats.states_per_layer * solve_stats.layers), "ns");
  put(l, "trace.overhead_frac", traced_run / lp1_wall - 1.0, "ratio", traced_wall.size(),
      "CAS-timed run vs plain run");
  return out;
}

}  // namespace perfbench
