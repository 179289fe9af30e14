// E16 — Airspace scaling: wall-clock of one city-corridor simulation as
// the fleet size K grows, event-driven adaptive engine (spatial index +
// adaptive timers, the defaults with a city-sized interaction radius) vs
// the dense legacy configuration (infinite interaction radius: every pair
// near, every agent at the physics dt; AirspaceConfig::legacy()).  The dense engine is O(K^2) per decision
// cycle; the spatial index should hold the adaptive curve near O(near
// pairs), i.e. sub-quadratic in K on corridor traffic whose interactions
// are local.  The printed scaling exponent is the headline number
// (docs/REPRODUCING.md E16).
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "scenarios/scenario_library.h"
#include "sim/acasx_cas.h"
#include "util/csv.h"

int main(int argc, char** argv) {
  cav::bench::init(argc, argv);
  using namespace cav;

  bench::banner("E16: airspace scaling on city-corridor traffic");
  const auto table = bench::standard_table();
  const sim::CasFactory equipped = sim::AcasXuCas::factory(table);

  // The dense engine is quadratic; cap its sweep so the bit-rot smoke run
  // stays in budget while the adaptive sweep still reaches K >= 256.
  const std::vector<std::size_t> adaptive_ks =
      bench::smoke() ? std::vector<std::size_t>{64, 256}
                     : std::vector<std::size_t>{64, 256, 1024};
  const std::vector<std::size_t> dense_ks =
      bench::smoke() ? std::vector<std::size_t>{64} : std::vector<std::size_t>{64, 256};

  constexpr std::uint64_t kSeed = 2016;
  constexpr double kCityRadiusM = 2000.0;  // == city_corridors lane spacing

  auto run_city = [&](std::size_t aircraft, bool adaptive) {
    const scenarios::Scenario city = scenarios::city_corridors(aircraft, kSeed);
    sim::SimConfig config;
    if (adaptive) {
      config.airspace.interaction_radius_m = kCityRadiusM;
    } else {
      config.airspace = sim::AirspaceConfig::legacy();
    }
    return scenarios::run_scenario(city, config, equipped, equipped, kSeed);
  };

  std::printf("workload: city_corridors(K), every aircraft ACAS XU-equipped,\n"
              "120 s horizon, interaction radius %.0f m (adaptive) vs legacy dense\n\n",
              kCityRadiusM);
  std::printf("%-6s %-12s %-12s %-12s %-12s %-12s %-12s\n", "K", "adaptive[s]", "dense[s]",
              "peak pairs", "K(K-1)/2", "fine steps", "coarse");

  const std::string csv_path = bench::output_dir() + "/airspace_scale.csv";
  CsvWriter csv(csv_path);
  csv.header({"aircraft", "adaptive_s", "dense_s", "peak_active_pairs", "dense_pairs",
              "fine_agent_steps", "coarse_agent_steps", "monitored_pairs"});

  std::vector<double> adaptive_wall;
  for (const std::size_t k : adaptive_ks) {
    const sim::SimResult adaptive = run_city(k, /*adaptive=*/true);
    adaptive_wall.push_back(adaptive.wall_time_s);

    double dense_s = 0.0;
    bool have_dense = false;
    for (const std::size_t dk : dense_ks) have_dense = have_dense || dk == k;
    if (have_dense) {
      const sim::SimResult dense = run_city(k, /*adaptive=*/false);
      dense_s = dense.wall_time_s;
      bench::record_metric("e16.k" + std::to_string(k) + ".dense_s", dense_s);
    }

    const std::size_t dense_pairs = k * (k - 1) / 2;
    std::printf("%-6zu %-12.3f %-12s %-12zu %-12zu %-12zu %-12zu\n", k,
                adaptive.wall_time_s, have_dense ? std::to_string(dense_s).c_str() : "-",
                adaptive.stats.peak_active_pairs, dense_pairs, adaptive.stats.fine_agent_steps,
                adaptive.stats.coarse_agent_steps);
    bench::print_phase_split("adaptive", adaptive.stats.phase);
    csv.cell(k).cell(adaptive.wall_time_s).cell(dense_s).cell(adaptive.stats.peak_active_pairs)
        .cell(dense_pairs).cell(adaptive.stats.fine_agent_steps)
        .cell(adaptive.stats.coarse_agent_steps).cell(adaptive.stats.monitored_pairs);
    csv.end_row();

    bench::record_metric("e16.k" + std::to_string(k) + ".adaptive_s", adaptive.wall_time_s);
    bench::record_metric("e16.k" + std::to_string(k) + ".peak_active_pairs",
                         static_cast<double>(adaptive.stats.peak_active_pairs));
  }

  // Empirical scaling exponent over the adaptive sweep's endpoints:
  // wall ~ K^alpha.  The dense engine sits at alpha ~= 2; the spatial
  // index should hold the corridor workload well below that.
  const double alpha =
      std::log(adaptive_wall.back() / adaptive_wall.front()) /
      std::log(static_cast<double>(adaptive_ks.back()) / static_cast<double>(adaptive_ks.front()));
  std::printf("\nadaptive scaling exponent (K^alpha fit over endpoints): alpha = %.2f %s\n",
              alpha, alpha < 2.0 ? "(sub-quadratic)" : "(NOT sub-quadratic)");
  bench::record_metric("e16.scaling_exponent", alpha);
  std::printf("CSV: %s\n", csv_path.c_str());
  return alpha < 2.0 ? 0 : 1;
}
