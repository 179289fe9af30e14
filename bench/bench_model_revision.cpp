// E10 — closing the paper's Fig. 1 loop: Simulation Evaluation -> manual
// model revision.  The GA search (E3/E4) exposed the tau blind spot; this
// bench evaluates the *structural* model revision (the relative-velocity
// horizontal MDP, acasx/horizontal.h) that the finding calls for:
//
//   1. the discovered challenging family (slow-closure tail approaches)
//      before vs after the revision;
//   2. the canonical geometries, to show the revision does not regress
//      the previously-working cases;
//   3. a fresh GA search against the revised system — does the validation
//      framework still find challenging situations, and of what kind?
//      (The paper's §VIII: the search is a development tool, re-run after
//      every revision.)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "acasx/horizontal.h"
#include "bench_common.h"
#include "core/analysis.h"
#include "core/model_revision.h"
#include "core/scenario_search.h"
#include "encounter/encounter.h"
#include "mdp/compiled_mdp.h"
#include "mdp/value_iteration.h"
#include "sim/acasx_cas.h"
#include "sim/combined_cas.h"
#include "toy2d/toy2d_mdp.h"
#include "util/csv.h"
#include "util/expect.h"

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// The *parameter* half of the Fig. 1 revision loop: re-tune the SIII
/// punishment weights and re-solve.  Costs change, transitions don't — so
/// the refresh_costs path compiles the transition structure ONCE and each
/// revision pays only for Bellman sweeps, while the naive path re-flattens
/// the model every time.
void bench_cost_revision_loop() {
  using namespace cav;

  bench::banner("E10a: cost-only revision loop — refresh_costs vs re-flatten");
  toy2d::Config base;
  base.x_max = bench::smoke() ? 19 : 60;
  base.y_max = bench::smoke() ? 5 : 15;
  const std::size_t revisions = bench::smoke() ? 4 : 16;
  const auto revised_config = [&](std::size_t i) {
    toy2d::Config c = base;
    c.maneuver_cost = 25.0 * static_cast<double>(i + 1);
    c.level_reward = 50.0 - 2.0 * static_cast<double>(i);
    return c;
  };

  // Naive loop: flatten + solve per revision.
  std::size_t flatten_count = 0;
  mdp::Values last_naive;
  const auto t_naive = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < revisions; ++i) {
    const toy2d::Toy2dMdp model(revised_config(i));
    const mdp::CompiledMdp compiled(model);
    ++flatten_count;
    last_naive = mdp::solve_value_iteration(compiled).values;
  }
  const double naive_s = seconds_since(t_naive);

  // Revision loop: flatten once, refresh costs per revision.
  const auto t_compile = std::chrono::steady_clock::now();
  mdp::CompiledMdp compiled{toy2d::Toy2dMdp(base)};
  const double compile_s = seconds_since(t_compile);
  mdp::Values last_refreshed;
  const auto t_refresh = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < revisions; ++i) {
    compiled.refresh_costs(toy2d::Toy2dMdp(revised_config(i)));
    last_refreshed = mdp::solve_value_iteration(compiled).values;
  }
  const double refresh_s = seconds_since(t_refresh);

  ensure(last_naive == last_refreshed, "refreshed revisions bit-identical to re-flattened");
  std::printf("SIII model scaled to %zu states, %zu cost revisions\n",
              compiled.num_states(), revisions);
  std::printf("%-34s %8.2f ms total  (%5.2f ms/revision, %zu flattens)\n",
              "re-flatten every revision:", 1e3 * naive_s,
              1e3 * naive_s / static_cast<double>(revisions), flatten_count);
  std::printf("%-34s %8.2f ms total  (%5.2f ms/revision, 1 flatten: %.2f ms)\n",
              "compile once + refresh_costs:", 1e3 * refresh_s,
              1e3 * refresh_s / static_cast<double>(revisions), 1e3 * compile_s);
  std::printf("revision-loop speedup: %.2fx (results bit-identical)\n",
              naive_s / (refresh_s > 0.0 ? refresh_s : 1e-12));

  // The same loop driven through core::Toy2dRevisionLoop, closing Fig. 1:
  // revise weights -> re-solve (one compiled structure) -> simulate.
  bench::banner("E10b: weight sweep through the revision loop (solve + rollouts)");
  core::Toy2dRevisionLoop loop(toy2d::Config{}, bench::smoke() ? 20 : 200);
  std::printf("%-18s %-10s %-12s %-16s %-12s\n", "maneuver cost", "sweeps", "collisions",
              "mean maneuvers", "base cost");
  for (const double maneuver_cost : {0.0, 50.0, 100.0, 400.0, 1600.0}) {
    core::Toy2dCostRevision revision;
    revision.maneuver_cost = maneuver_cost;
    const auto report = loop.evaluate(revision, &bench::pool());
    std::printf("%-18.0f %-10zu %zu/%-10zu %-16.2f %-12.1f\n", maneuver_cost,
                report.solver_iterations, report.collisions, report.episodes,
                report.mean_maneuver_steps, report.mean_base_cost);
  }
  std::printf("(%zu revisions evaluated on one compiled transition structure)\n",
              loop.revisions_evaluated());
}

/// Same idea at ACAS scale: the successor stencils are the transition
/// structure; CompiledAcasModel builds them once and re-solves the tau
/// recursion per cost revision.
void bench_acas_cost_revision() {
  using namespace cav;

  bench::banner("E10c: ACAS X cost revisions on precompiled stencils");
  const acasx::AcasXuConfig config = bench::standard_or_smoke_config();
  const std::size_t revisions = bench::smoke() ? 2 : 4;
  const auto revised_costs = [&](std::size_t i) {
    acasx::CostModel costs = config.costs;
    costs.maneuver_cost = 100.0 + 50.0 * static_cast<double>(i);
    costs.reversal_cost = 300.0 + 100.0 * static_cast<double>(i);
    return costs;
  };

  double fresh_s = 0.0;
  double fresh_build_s = 0.0;
  std::vector<float> last_fresh;
  for (std::size_t i = 0; i < revisions; ++i) {
    acasx::AcasXuConfig revised = config;
    revised.costs = revised_costs(i);
    acasx::SolveStats stats;
    const auto t0 = std::chrono::steady_clock::now();
    last_fresh = acasx::solve_logic_table(revised, &bench::pool(), &stats).raw();
    fresh_s += seconds_since(t0);
    fresh_build_s += stats.stencil_build_seconds;
  }

  const auto t_build = std::chrono::steady_clock::now();
  const acasx::CompiledAcasModel model(config, &bench::pool());
  const double build_s = seconds_since(t_build);
  double reused_s = 0.0;
  std::vector<float> last_reused;
  for (std::size_t i = 0; i < revisions; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    last_reused = model.solve(revised_costs(i), &bench::pool()).raw();
    reused_s += seconds_since(t0);
  }

  ensure(last_fresh == last_reused, "stencil-reuse revisions bit-identical to fresh solves");
  std::printf("%zu cost revisions on the %s grid\n", revisions,
              bench::smoke() ? "coarse (smoke)" : "standard");
  std::printf("%-34s %8.0f ms  (%.0f ms spent rebuilding stencils)\n",
              "fresh solve per revision:", 1e3 * fresh_s, 1e3 * fresh_build_s);
  std::printf("%-34s %8.0f ms  (stencils built once: %.0f ms)\n",
              "CompiledAcasModel::solve:", 1e3 * reused_s, 1e3 * build_s);
  std::printf("revision-loop speedup: %.2fx (tables bit-identical)\n",
              fresh_s / (reused_s > 0.0 ? reused_s : 1e-12));
}

}  // namespace

int main(int argc, char** argv) {
  cav::bench::init(argc, argv);
  using namespace cav;

  double scale = bench::smoke() ? 0.1 : 1.0;
  if (const char* env = std::getenv("CAV_E10_SCALE")) scale = std::atof(env);

  bench_cost_revision_loop();
  bench_acas_cost_revision();

  bench::banner("E10: model revision after the GA findings (Fig. 1 loop)");
  const auto vertical = bench::standard_table();

  acasx::HorizontalSolveStats hstats;
  const auto horizontal = std::make_shared<const acasx::HorizontalTable>(
      acasx::solve_horizontal_table(acasx::HorizontalConfig{}, &bench::pool(), &hstats));
  std::printf("horizontal MDP: %zu states over (dx, dy, rvx, rvy), solved in %.2f s "
              "(%zu iterations)\n",
              hstats.states, hstats.wall_seconds, hstats.iterations);

  const auto vertical_only = sim::AcasXuCas::factory(vertical);
  const auto combined = sim::CombinedCas::factory(vertical, horizontal);

  core::FitnessConfig config;
  config.runs_per_encounter = bench::smoke() ? 5 : 100;
  const core::EncounterEvaluator before(config, vertical_only, vertical_only);
  const core::EncounterEvaluator after(config, combined, combined);

  bench::banner("before/after on the discovered challenging family (100 runs each)");
  std::printf("%-26s %-22s %-22s\n", "encounter", "vertical-only NMAC", "with revision NMAC");
  const std::string csv_path = bench::output_dir() + "/model_revision.csv";
  CsvWriter csv(csv_path);
  csv.header({"encounter", "nmac_before", "nmac_after", "alert_before", "alert_after"});

  const auto row = [&](const char* name, const encounter::EncounterParams& params,
                       std::uint64_t stream) {
    const auto multi = encounter::MultiEncounterParams::from_pairwise(params);
    const auto b = before.evaluate(multi, stream);
    const auto a = after.evaluate(multi, stream);
    std::printf("%-26s %3zu/100 (%3.0f%% alert)   %3zu/100 (%3.0f%% alert)\n", name, b.nmac_count,
                100.0 * b.alert_fraction_own, a.nmac_count, 100.0 * a.alert_fraction_own);
    csv.cell(name).cell(b.nmac_rate()).cell(a.nmac_rate()).cell(b.alert_fraction_own)
        .cell(a.alert_fraction_own);
    csv.end_row();
  };

  row("tail approach (Figs.7-8)", encounter::tail_approach(), 1);
  for (const double closure : {2.0, 6.0, 10.0, 20.0}) {
    encounter::EncounterParams params = encounter::tail_approach();
    params.gs_int_mps = params.gs_own_mps + closure;
    char name[48];
    std::snprintf(name, sizeof name, "tail family, %.0f m/s", closure);
    row(name, params, 10 + static_cast<std::uint64_t>(closure));
  }
  row("head-on (Fig.5)", encounter::head_on(), 2);
  row("crossing", encounter::crossing(), 3);
  row("descending intruder", encounter::descending_intruder(), 4);
  std::printf("CSV: %s\n", csv_path.c_str());

  bench::banner("re-running the GA search against the revised system");
  core::ScenarioSearchConfig search;
  search.ga.population_size = std::max<std::size_t>(10, static_cast<std::size_t>(100 * scale));
  search.ga.generations = 5;
  search.ga.seed = 2016;
  search.fitness.runs_per_encounter =
      std::max<std::size_t>(10, static_cast<std::size_t>(50 * scale));

  const auto before_search =
      core::search_challenging_scenarios(search, vertical_only, vertical_only, &bench::pool());
  const auto after_search =
      core::search_challenging_scenarios(search, combined, combined, &bench::pool());

  std::printf("%-22s %-16s %-16s\n", "", "vertical-only", "with revision");
  std::printf("%-22s %-16.1f %-16.1f\n", "best fitness found", before_search.best_fitness(),
              after_search.best_fitness());
  std::printf("%-22s %-16.1f %-16.1f\n", "last-gen mean fitness",
              before_search.ga.generations.back().mean_fitness,
              after_search.ga.generations.back().mean_fitness);

  std::printf("\nhardest encounters the search still finds against the revised system:\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(3, after_search.top.size()); ++i) {
    const auto& f = after_search.top[i];
    std::printf("  fitness %7.1f  NMAC %zu/%zu  %s\n", f.fitness, f.detail.nmac_count,
                f.detail.runs, core::describe(f.params).c_str());
  }

  std::printf("\nreading: the revision removes the discovered blind-spot family without\n"
              "regressing the canonical cases; the re-run search quantifies how much\n"
              "harder the adversary's job has become — and what to look at next,\n"
              "which is exactly the iterative development the paper advocates.\n");
  return 0;
}
