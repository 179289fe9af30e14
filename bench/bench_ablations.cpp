// E9 — ablations of the design choices DESIGN.md calls out.  Each section
// isolates one knob the paper's development process worries about (§IV:
// discretization/interpolation accuracy, model parameters, preferences)
// or a mechanism of the simulation (§VI: coordination, sensor noise,
// disturbance) and reports its effect on the two canonical geometries.
#include <cstdio>
#include <memory>

#include "acasx/belief_logic.h"
#include "bench_common.h"
#include "core/fitness.h"
#include "core/logbook.h"
#include "core/scenario_search.h"
#include "encounter/encounter.h"
#include "sim/acasx_cas.h"
#include "sim/belief_cas.h"
#include "util/csv.h"

namespace {

using namespace cav;

core::EncounterEvaluation evaluate_with(const core::FitnessConfig& config,
                                        std::shared_ptr<const acasx::LogicTable> table,
                                        const encounter::EncounterParams& params) {
  const auto factory = sim::AcasXuCas::factory(std::move(table));
  const core::EncounterEvaluator evaluator(config, factory, factory);
  return evaluator.evaluate(encounter::MultiEncounterParams::from_pairwise(params), 1);
}

core::FitnessConfig base_config() {
  core::FitnessConfig config;
  config.runs_per_encounter = bench::smoke() ? 5 : 100;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  cav::bench::init(argc, argv);
  bench::banner("E9: ablations (discretization, costs, coordination, noise)");
  const auto standard = bench::standard_table();
  const std::string csv_path = bench::output_dir() + "/ablations.csv";
  CsvWriter csv(csv_path);
  csv.header({"section", "setting", "headon_nmac", "headon_alerted", "tail_nmac", "tail_alerted"});

  const auto row = [&](const char* section, const char* setting,
                       const core::EncounterEvaluation& head,
                       const core::EncounterEvaluation& tail) {
    std::printf("%-26s head-on: %3zu/100 NMAC %3.0f%% alerted | tail: %3zu/100 NMAC %3.0f%% alerted\n",
                setting, head.nmac_count, 100.0 * head.alert_fraction_own, tail.nmac_count,
                100.0 * tail.alert_fraction_own);
    csv.cell(section).cell(setting).cell(head.nmac_rate()).cell(head.alert_fraction_own)
        .cell(tail.nmac_rate()).cell(tail.alert_fraction_own);
    csv.end_row();
  };

  // ---------------------------------------------------------------- (a)
  bench::banner("(a) state-space discretization (SIV: interpolation inaccuracy)");
  {
    std::vector<std::pair<const char*, acasx::StateSpaceConfig>> spaces{
        {"coarse grid", acasx::StateSpaceConfig::coarse()}};
    if (!bench::smoke()) {
      spaces.emplace_back("standard grid", acasx::StateSpaceConfig::standard());
      spaces.emplace_back("fine grid", acasx::StateSpaceConfig::fine());
    }
    for (const auto& [name, space] : spaces) {
      acasx::AcasXuConfig config;
      config.space = space;
      const auto table = std::make_shared<const acasx::LogicTable>(
          acasx::solve_logic_table(config, &bench::pool()));
      row("discretization", name, evaluate_with(base_config(), table, encounter::head_on()),
          evaluate_with(base_config(), table, encounter::tail_approach()));
    }
  }

  // ---------------------------------------------------------------- (b)
  bench::banner("(b) preference model: maneuver cost (paper SIII: 100 per step)");
  {
    for (const double maneuver_cost : {10.0, 100.0, 400.0}) {
      acasx::AcasXuConfig config;
      config.costs.maneuver_cost = maneuver_cost;
      config.costs.strengthened_maneuver_cost = 1.5 * maneuver_cost;
      const auto table = std::make_shared<const acasx::LogicTable>(
          acasx::solve_logic_table(config, &bench::pool()));
      char label[64];
      std::snprintf(label, sizeof label, "maneuver cost %.0f", maneuver_cost);
      row("maneuver_cost", label, evaluate_with(base_config(), table, encounter::head_on()),
          evaluate_with(base_config(), table, encounter::tail_approach()));
    }
    std::printf("(cheap maneuvers -> alert early and often; expensive -> late, minimal\n"
                " alerting with thinner margins — the preference-tuning dial of Fig. 1)\n");
  }

  // ---------------------------------------------------------------- (c)
  bench::banner("(c) coordination x vertical surveillance quality (SVI.C)");
  {
    // With nominal ADS-B accuracy the two aircraft's views of the relative
    // geometry are anti-symmetric by alert time (gust drift exceeds sensor
    // noise), so they pick complementary senses even WITHOUT coordination.
    // Coordination starts to matter when vertical position noise swamps
    // the true offset and same-sense picks become possible.
    for (const double pos_sigma : {7.5, 30.0, 60.0}) {
      for (const bool coordination : {true, false}) {
        core::FitnessConfig config = base_config();
        config.sim.adsb.vertical_pos_sigma_m = pos_sigma;
        config.sim.coordination.enabled = coordination;
        char label[64];
        std::snprintf(label, sizeof label, "vpos sigma %4.1fm coord %s", pos_sigma,
                      coordination ? "on" : "off");
        row("coordination", label, evaluate_with(config, standard, encounter::head_on()),
            evaluate_with(config, standard, encounter::tail_approach()));
      }
    }
  }

  // ---------------------------------------------------------------- (d)
  bench::banner("(d) ADS-B velocity noise (SVI.C sensor model)");
  {
    for (const double sigma : {0.0, 1.0, 3.0}) {
      core::FitnessConfig config = base_config();
      config.sim.adsb.horizontal_vel_sigma_mps = sigma;
      config.sim.adsb.vertical_vel_sigma_mps = sigma / 2.0;
      char label[64];
      std::snprintf(label, sizeof label, "vel sigma %.1f m/s", sigma);
      row("adsb_noise", label, evaluate_with(config, standard, encounter::head_on()),
          evaluate_with(config, standard, encounter::tail_approach()));
    }
  }

  // ---------------------------------------------------------------- (e)
  bench::banner("(e) environment disturbance intensity (SVI.C)");
  {
    for (const double sigma : {0.1, 0.5, 1.0}) {
      core::FitnessConfig config = base_config();
      config.sim.disturbance.vertical_sigma = sigma;
      char label[64];
      std::snprintf(label, sizeof label, "gust sigma %.1f", sigma);
      row("disturbance", label, evaluate_with(config, standard, encounter::head_on()),
          evaluate_with(config, standard, encounter::tail_approach()));
    }
    std::printf("(more gusting lets a few tail encounters escape by luck and stresses\n"
                " head-on resolution margins — the stochastic factor of the MDP model)\n");
  }

  // ---------------------------------------------------------------- (f)
  bench::banner("(f) coordination message loss under degraded surveillance");
  {
    // Failure injection at the operating point where coordination matters
    // (see section (c)): large vertical position noise.
    for (const double loss : {0.0, 0.5, 1.0}) {
      core::FitnessConfig config = base_config();
      config.sim.adsb.vertical_pos_sigma_m = 60.0;
      config.sim.coordination.message_loss_prob = loss;
      char label[64];
      std::snprintf(label, sizeof label, "msg loss %.0f%% (vpos 60m)", 100.0 * loss);
      row("coord_loss", label, evaluate_with(config, standard, encounter::head_on()),
          evaluate_with(config, standard, encounter::tail_approach()));
    }
  }

  // ---------------------------------------------------------------- (g)
  bench::banner("(g) point-estimate vs belief-aware online logic (SIV: 'should a POMDP be used?')");
  {
    // QMDP-style belief averaging over the measurement uncertainty,
    // swept against the actual vertical-position noise level.
    for (const double vpos_sigma : {7.5, 30.0, 50.0}) {
      core::FitnessConfig config = base_config();
      config.sim.adsb.vertical_pos_sigma_m = vpos_sigma;
      {
        char label[64];
        std::snprintf(label, sizeof label, "point est. (vpos %.0fm)", vpos_sigma);
        row("belief", label, evaluate_with(config, standard, encounter::head_on()),
            evaluate_with(config, standard, encounter::tail_approach()));
      }
      for (const double h_sigma : {80.0, 164.0}) {
        acasx::BeliefConfig belief;
        belief.h_sigma_ft = h_sigma;
        const auto factory = sim::BeliefAcasXuCas::factory(standard, belief);
        const core::EncounterEvaluator evaluator(config, factory, factory);
        char label[64];
        std::snprintf(label, sizeof label, "belief %3.0fft (vpos %.0fm)", h_sigma, vpos_sigma);
        using encounter::MultiEncounterParams;
        const auto head =
            evaluator.evaluate(MultiEncounterParams::from_pairwise(encounter::head_on()), 1);
        const auto tail =
            evaluator.evaluate(MultiEncounterParams::from_pairwise(encounter::tail_approach()), 1);
        row("belief", label, head, tail);
      }
    }
    std::printf("(a belief sigma in the order of the sensor noise buys margin at equal\n"
                " safety; oversizing it washes out the alert gradient — naive QMDP\n"
                " averaging is NOT a free upgrade, which is itself a validation finding)\n");
  }

  // ---------------------------------------------------------------- (h)
  bench::banner("(h) GA niching: point-finding vs area-coverage (SVIII)");
  {
    // Fitness sharing spreads the population across distinct challenging
    // regions instead of collapsing onto the single worst encounter.
    core::ScenarioSearchConfig search;
    search.ga.population_size = bench::smoke() ? 12 : 60;
    search.ga.generations = bench::smoke() ? 2 : 5;
    search.ga.seed = 77;
    search.fitness.runs_per_encounter = bench::smoke() ? 4 : 20;
    search.keep_top = 10;
    const auto acas_factory = sim::AcasXuCas::factory(standard);

    std::printf("%-14s %-12s %-18s %-18s\n", "variant", "best", "top >= 5000", "regions found");
    for (const bool niched : {false, true}) {
      search.ga.niching.enabled = niched;
      search.ga.niching.share_radius = 0.15;
      const auto result = core::search_challenging_scenarios(search, acas_factory, acas_factory,
                                                             &bench::pool());
      std::size_t hot = 0;
      for (const auto& f : result.top) {
        if (f.fitness >= 5000.0) ++hot;
      }
      const auto regions = core::find_regions(result.logbook, 5000.0, 3, search.ranges);
      std::printf("%-14s %-12.1f %-18zu %-18zu\n", niched ? "niched" : "plain",
                  result.best_fitness(), hot, regions.size());
    }
    std::printf("(niching trades a little peak pressure for coverage of distinct\n"
                " challenging areas — the SVIII 'areas, not points' direction)\n");
  }

  std::printf("\nCSV: %s\n", csv_path.c_str());
  return 0;
}
