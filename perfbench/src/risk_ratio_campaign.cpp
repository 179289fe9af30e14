// Workload `risk_ratio_campaign`: the paper's Monte-Carlo step (§IV).
//
// Encounters from the statistical encounter model with one intruder.  An
// equipped campaign (both aircraft run ACAS Xu over the standard pairwise
// f32 TableImage, which the workers mmap) and an unequipped campaign on
// the same seed both go through dist::run_sharded_campaign over cav_worker
// processes; their NMAC rates give the risk ratio.  Many short K=2
// simulations make per-encounter costs dominate — engine set-up, single
// CAS queries, the wire protocol, stripe scheduling — the opposite use of
// `sim` from city_airspace, and the only workload that exercises `dist`.
#include <sys/resource.h>

#include <algorithm>
#include <optional>

#include "acasx/offline_solver.h"
#include "core/validation_campaign.h"
#include "dist/campaign_driver.h"
#include "workloads.h"

namespace perfbench {

namespace {

using cav::core::CampaignResult;
using cav::core::SystemRates;

constexpr std::size_t kEncounters = 4000;  ///< per campaign: about 1.5 s per repetition
constexpr std::size_t kStripesPerWorker = 4;

/// digest_of(rates) of the equipped and unequipped campaigns for --seed
/// kPinnedSeed on a correct build.
constexpr std::uint64_t kPinnedEquipped = 0x3ee7f9175b3331eb;
constexpr std::uint64_t kPinnedUnequipped = 0x665c94b0d28435ea;

bool same_rates(const SystemRates& a, const SystemRates& b) { return digest_of(a) == digest_of(b); }

struct Campaigns {
  cav::dist::CampaignSpec equipped;
  cav::dist::CampaignSpec unequipped;
};

Campaigns make_specs(const std::string& pair_image, std::uint64_t seed) {
  Campaigns c;
  c.equipped.config.encounters = kEncounters;
  c.equipped.config.seed = seed;
  c.unequipped = c.equipped;
  c.equipped.system_name = "ACAS-XU";
  c.equipped.own_cas = cav::dist::CasSpec::acas_xu(pair_image);
  c.equipped.intruder_cas = cav::dist::CasSpec::acas_xu(pair_image);
  c.unequipped.system_name = "unequipped";
  return c;
}

}  // namespace

RunOutcome run_risk_ratio_campaign(const RunOptions& o) {
  RunOutcome out;
  const std::string pair_image = o.work_dir + "/pair.cavt";

  // --- set-up: solve the standard pairwise table and write its f32 image.
  double compile_s = 0.0;
  double sweep_s = 0.0;
  double dump_s = 0.0;
  cav::acasx::SolveStats solve_stats;
  {
    ScopedSpan root("setup");
    const auto t0 = Clock::now();
    std::optional<cav::acasx::CompiledAcasModel> model;
    {
      ScopedSpan s("acasx.pair.compile");
      model.emplace(cav::acasx::AcasXuConfig::standard(), nullptr);
    }
    compile_s = seconds_since(t0);
    std::optional<cav::acasx::LogicTable> table;
    {
      ScopedSpan s("acasx.pair.sweep");
      table.emplace(model->solve(nullptr, &solve_stats));
    }
    sweep_s = seconds_since(t0) - compile_s;
    const auto td = Clock::now();
    {
      ScopedSpan s("serving.dump");
      table->save(pair_image);
    }
    dump_s = seconds_since(td);
  }
  MetricMap& e = out.end_to_end;
  put(e, "setup_s", process_seconds(), "s", 1, "process start to first timed operation");
  if (o.setup_only) return out;
  const Campaigns specs = make_specs(pair_image, o.seed);
  cav::dist::CampaignDriverOptions fleet;
  fleet.num_workers = o.workers;
  fleet.stripes_per_worker = kStripesPerWorker;

  // --- measured window: one repetition is the equipped campaign followed by
  // the unequipped one, each sharded over a fresh worker fleet.
  std::vector<double> plain_wall, traced_wall;
  std::optional<CampaignResult> first_eq, first_uneq;
  double sim_wall_s = 0.0;
  double campaign_wall_s = 0.0;
  std::size_t requeues = 0;
  {
    ScopedSpan root("measure");
    const auto window = Clock::now();
    for (int rep = 0; rep < (o.trace ? 2 : 1) || seconds_since(window) < o.seconds; ++rep) {
      const bool traced = o.trace && rep % 2 == 1;
      std::optional<TracingPaused> paused;
      if (o.trace && !traced) paused.emplace();
      const auto t0 = Clock::now();
      CampaignResult results[2];
      for (int which = 0; which < 2; ++which) {
        ScopedSpan span(which == 0 ? "dist.campaign_equipped" : "dist.campaign_unequipped", rep);
        ++out.attempted;
        results[which] =
            cav::dist::run_sharded_campaign(which == 0 ? specs.equipped : specs.unequipped, fleet);
      }
      (traced ? traced_wall : plain_wall).push_back(seconds_since(t0));
      for (int which = 0; which < 2; ++which) {
        const CampaignResult& r = results[which];
        const char* name = which == 0 ? "equipped" : "unequipped";
        sim_wall_s += r.rates.sim_wall_s;
        campaign_wall_s += r.wall_s;
        requeues += r.requeues;
        if (r.degraded || r.requeues != 0) {
          out.fail(std::string("risk_ratio_campaign: ") + name + " campaign degraded (" +
                   std::to_string(r.requeues) + " requeues)");
        }
        std::optional<CampaignResult>& first = which == 0 ? first_eq : first_uneq;
        if (!first) {
          first = r;
        } else if (!same_rates(r.rates, first->rates)) {
          out.fail(std::string("risk_ratio_campaign: ") + name + " rates of repetition " +
                   std::to_string(rep) + " differ from repetition 0");
        }
      }
    }
  }
  const SystemRates& eq = first_eq->rates;
  const SystemRates& uneq = first_uneq->rates;
  out.attempted += 2;
  if (o.seed == kPinnedSeed && digest_of(eq) != kPinnedEquipped) {
    out.fail("risk_ratio_campaign: equipped digest " + hex64(digest_of(eq)) +
             " differs from the pinned " + hex64(kPinnedEquipped));
  }
  if (o.seed == kPinnedSeed && digest_of(uneq) != kPinnedUnequipped) {
    out.fail("risk_ratio_campaign: unequipped digest " + hex64(digest_of(uneq)) +
             " differs from the pinned " + hex64(kPinnedUnequipped));
  }
  const cav::core::RiskRatioEstimate rr = cav::core::risk_ratio_wilson(eq, uneq);
  char buf[160];
  std::snprintf(buf, sizeof buf, "%.4f [%.4f, %.4f] (95%% Wilson)%s", rr.ratio, rr.lo, rr.hi,
                rr.defined ? "" : " undefined: no unequipped NMAC");
  out.facts.push_back({"risk ratio", buf});
  std::snprintf(buf, sizeof buf, "%zu / %zu NMACs, %zu / %zu alerts", eq.nmacs, uneq.nmacs,
                eq.alerts, uneq.alerts);
  out.facts.push_back({"equipped / unequipped", buf});
  out.facts.push_back({"rates digests", hex64(digest_of(eq)) + " " + hex64(digest_of(uneq))});

  std::vector<double> rates;
  for (const double w : plain_wall) rates.push_back(static_cast<double>(2 * kEncounters) / w);
  put(e, "work_per_s", cav::percentile(rates, 0.5), "1/s", rates.size(), "encounters, both campaigns");
  put(e, "peak_rss_mb", peak_rss_mb(), "MB");
  if (!o.trace) return out;

  // --- per-layer probes: the same campaigns in-process on the pool (also the
  // sharded == in-process check), and the stripes run_sharded_campaign hands
  // out, one by one through run_stripe with CAS-timed systems.
  const double sharded_wall = cav::percentile(plain_wall, 0.5);
  double inprocess_wall = 0.0;
  std::vector<double> stripe_s;
  std::size_t work_units = 0;
  double cas_self_s = 0.0;
  double stripe_sim_s = 0.0;
  {
    ScopedSpan root("probe");
    for (int which = 0; which < 2; ++which) {
      const cav::dist::CampaignSpec& spec = which == 0 ? specs.equipped : specs.unequipped;
      const cav::core::ValidationCampaign campaign = cav::dist::materialize_campaign(spec);
      ++out.attempted;
      const auto t0 = Clock::now();
      CampaignResult r;
      {
        ScopedSpan span("core.campaign_run", which);
        r = campaign.run(o.pool);
      }
      inprocess_wall += seconds_since(t0);
      if (!same_rates(r.rates, (which == 0 ? eq : uneq))) {
        out.fail("risk_ratio_campaign: in-process rates differ from the sharded rates");
      }
    }
    CasTally tally;
    const cav::sim::CasFactory acas =
        timed_cas_factory(cav::dist::materialize_cas(specs.equipped.own_cas), &tally);
    const cav::core::ValidationCampaign campaign(cav::encounter::StatisticalEncounterModel(
                                                     specs.equipped.model),
                                                 specs.equipped.config, "ACAS-XU", acas, acas);
    const auto stripes = campaign.make_stripes(o.workers * kStripesPerWorker);
    work_units = stripes.size();
    std::vector<cav::core::StripeResult> parts;
    for (std::size_t i = 0; i < stripes.size(); ++i) {
      ScopedSpan span("core.stripe", static_cast<std::int64_t>(i));
      const auto t0 = Clock::now();
      parts.push_back(campaign.run_stripe(stripes[i]));
      stripe_s.push_back(seconds_since(t0));
      const auto [calls, ns] = tally.take();
      tracer().aggregate("sim.cas", calls, ns);
      cas_self_s += static_cast<double>(ns) * 1e-9;
      for (const auto& cell : parts.back().cells) stripe_sim_s += cell.wall_s;
    }
    ++out.attempted;
    if (!same_rates(campaign.merge(parts), eq)) {
      out.fail("risk_ratio_campaign: stripe-by-stripe rates differ from the sharded rates");
    }
  }
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  const double stripe_mean = cav::mean_of(stripe_s);
  const double stripe_max = *std::max_element(stripe_s.begin(), stripe_s.end());
  const double campaigns = static_cast<double>(2 * (plain_wall.size() + traced_wall.size()));

  MetricMap& l = out.per_layer;
  put(l, "core.inprocess_enc_per_s", static_cast<double>(2 * kEncounters) / inprocess_wall, "1/s");
  put(l, "core.stripe_s.p50", cav::percentile(stripe_s, 0.5), "s", stripe_s.size());
  put(l, "core.stripe_s.max", stripe_max, "s", stripe_s.size());
  put(l, "core.stripe_imbalance", stripe_max / stripe_mean, "ratio", stripe_s.size(), "max / mean");
  put(l, "dist.overhead_frac", 1.0 - inprocess_wall / sharded_wall, "ratio", plain_wall.size(),
      "1 - in-process wall / sharded wall");
  put(l, "dist.worker_busy_frac",
      sim_wall_s / (static_cast<double>(o.workers) * campaign_wall_s), "ratio",
      static_cast<std::size_t>(campaigns), "sum of sim_wall_s / (workers x wall)");
  put(l, "dist.work_units", static_cast<double>(work_units), "count");
  put(l, "dist.requeues", static_cast<double>(requeues), "count",
      static_cast<std::size_t>(campaigns));
  put(l, "dist.worker_peak_rss_mb", static_cast<double>(children.ru_maxrss) / 1024.0, "MB");
  put(l, "sim.encounter_ms", 1e3 * sim_wall_s / (campaigns * kEncounters), "ms",
      static_cast<std::size_t>(campaigns) * kEncounters);
  put(l, "sim.cas_self_frac", cas_self_s / stripe_sim_s, "ratio", stripe_s.size(),
      "equipped campaign, stripe by stripe");
  put(l, "acasx.pair.compile_s", compile_s, "s");
  put(l, "acasx.pair.sweep_s", sweep_s, "s");
  put(l, "acasx.pair.stencil_entries", static_cast<double>(solve_stats.stencil_entries), "count");
  put(l, "acasx.pair.ns_per_state_layer",
      sweep_s * 1e9 / static_cast<double>(solve_stats.states_per_layer * solve_stats.layers), "ns");
  put(l, "serving.dump_s", dump_s, "s");
  put(l, "trace.overhead_frac", cav::percentile(traced_wall, 0.5) / sharded_wall - 1.0, "ratio",
      traced_wall.size(), "spans on vs off");
  return out;
}

}  // namespace perfbench
