// Sharded-campaign driver tests against REAL cav_worker processes: the
// merged rates must be bit-identical to the in-process run, including
// through worker death (abrupt exit and wedged-worker deadlines), and the
// campaign must never hang.
//
// The worker binary is resolved next to this test binary (both land in
// the build root); the death tests drive the worker's env knobs
// (CAV_WORKER_EXIT_AFTER_STRIPES / CAV_WORKER_HANG_AFTER_STRIPES), which
// fork+exec'd children inherit from us.
#include "dist/campaign_driver.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <stdlib.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "core/monte_carlo.h"
#include "core/validation_campaign.h"
#include "dist/spec_codec.h"

namespace cav::dist {
namespace {

/// Scoped env var: set on construction, unset on destruction (the knobs
/// must not leak into later tests' worker fleets).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

CampaignSpec small_spec(std::size_t encounters = 48) {
  CampaignSpec spec;
  spec.config.encounters = encounters;
  spec.config.seed = 23;
  spec.system_name = "tcas-sharded";
  spec.own_cas = CasSpec::tcas_like();
  spec.intruder_cas = CasSpec::tcas_like();
  return spec;
}

core::SystemRates in_process_rates(const CampaignSpec& spec) {
  return materialize_campaign(spec).run().rates;
}

void expect_rates_identical(const core::SystemRates& a, const core::SystemRates& b) {
  EXPECT_EQ(a.encounters, b.encounters);
  EXPECT_EQ(a.nmacs, b.nmacs);
  EXPECT_EQ(a.alerts, b.alerts);
  EXPECT_EQ(a.mean_min_separation_m, b.mean_min_separation_m) << "must match bit for bit";
}

TEST(DistCampaignTest, TwoWorkersMatchSingleProcessBitIdentically) {
  const CampaignSpec spec = small_spec();
  const core::SystemRates expected = in_process_rates(spec);

  CampaignDriverOptions options;
  options.num_workers = 2;
  options.stripes_per_worker = 3;
  std::size_t results_seen = 0;
  options.on_result = [&results_seen](std::size_t done, std::size_t) { results_seen = done; };

  const core::CampaignResult sharded = run_sharded_campaign(spec, options);
  expect_rates_identical(sharded.rates, expected);
  EXPECT_FALSE(sharded.degraded) << "healthy fleet must not degrade";
  EXPECT_EQ(sharded.requeues, 0u);
  EXPECT_EQ(sharded.work_units, results_seen);
  EXPECT_GT(sharded.work_units, 1u);
}

TEST(DistCampaignTest, SingleWorkerOptionRunsInProcess) {
  const CampaignSpec spec = small_spec(24);
  CampaignDriverOptions options;
  options.num_workers = 1;
  const core::CampaignResult result = run_sharded_campaign(spec, options);
  expect_rates_identical(result.rates, in_process_rates(spec));
  EXPECT_FALSE(result.degraded);
}

TEST(DistCampaignTest, AbruptWorkerDeathRequeuesAndStaysBitIdentical) {
  // Every worker dies (as abruptly as SIGKILL: _exit without flushing)
  // after serving one stripe.  Respawns burn down, then the driver drains
  // in-process — the rates must come out identical anyway.
  const ScopedEnv knob("CAV_WORKER_EXIT_AFTER_STRIPES", "1");
  const CampaignSpec spec = small_spec();
  const core::SystemRates expected = in_process_rates(spec);

  CampaignDriverOptions options;
  options.num_workers = 2;
  options.stripes_per_worker = 4;
  options.max_respawns = 2;

  const core::CampaignResult sharded = run_sharded_campaign(spec, options);
  expect_rates_identical(sharded.rates, expected);
  EXPECT_TRUE(sharded.degraded);
  EXPECT_GT(sharded.requeues, 0u);
  EXPECT_FALSE(sharded.notes.empty());
}

TEST(DistCampaignTest, ExternallyKilledWorkerIsRecovered) {
  // SIGKILL the first worker the moment it spawns: its setup/stripe is
  // lost mid-flight and must be requeued without perturbing the rates.
  const CampaignSpec spec = small_spec();
  const core::SystemRates expected = in_process_rates(spec);

  CampaignDriverOptions options;
  options.num_workers = 2;
  options.stripes_per_worker = 3;
  bool killed_one = false;
  options.on_spawn = [&killed_one](pid_t pid) {
    if (!killed_one) {
      killed_one = true;
      ::kill(pid, SIGKILL);
    }
  };

  const core::CampaignResult sharded = run_sharded_campaign(spec, options);
  expect_rates_identical(sharded.rates, expected);
  EXPECT_TRUE(sharded.degraded);
}

TEST(DistCampaignTest, WedgedWorkerHitsDeadlineAndCampaignCompletes) {
  // Workers serve one stripe then stop answering.  Without the deadline
  // the campaign would hang forever; with it, wedged workers are killed,
  // their stripes requeued, and the campaign completes bit-identically.
  const ScopedEnv knob("CAV_WORKER_HANG_AFTER_STRIPES", "1");
  const CampaignSpec spec = small_spec(32);
  const core::SystemRates expected = in_process_rates(spec);

  CampaignDriverOptions options;
  options.num_workers = 2;
  options.stripes_per_worker = 3;
  options.stripe_deadline_s = 0.5;
  options.max_respawns = 1;

  const core::CampaignResult sharded = run_sharded_campaign(spec, options);
  expect_rates_identical(sharded.rates, expected);
  EXPECT_TRUE(sharded.degraded);
  EXPECT_GT(sharded.requeues, 0u);
}

TEST(DistCampaignTest, UnspawnableWorkerBinaryFallsBackInProcess) {
  // A bad worker path must degrade to the in-process path, not throw and
  // not hang.
  const CampaignSpec spec = small_spec(16);
  CampaignDriverOptions options;
  options.num_workers = 2;
  options.worker_path = "/nonexistent/cav_worker";
  const core::CampaignResult result = run_sharded_campaign(spec, options);
  expect_rates_identical(result.rates, in_process_rates(spec));
  EXPECT_TRUE(result.degraded);
}

TEST(DistCampaignTest, MismatchedStripeResultIsRequeuedNotMerged) {
  // A foreign worker binary (a bare cav_worker found on PATH, say) that
  // speaks the protocol but answers every stripe with the wrong cells.
  // Merging such a result would abort the campaign; the driver must
  // instead treat the worker as lost and re-run the stripe.
  const std::string path = ::testing::TempDir() + "foreign_cav_worker.py";
  {
    std::ofstream script(path);
    script << R"(#!/usr/bin/env python3
import os, struct, sys
rfd, wfd = int(sys.argv[1]), int(sys.argv[2])
MAGIC, RUN_STRIPE, HELLO, STRIPE_RESULT = 0x57564143, 2, 10, 11

def send(msg_type, payload):
    os.write(wfd, struct.pack('<IIQ', MAGIC, msg_type, len(payload)) + payload)

def read_exact(n):
    data = b''
    while len(data) < n:
        chunk = os.read(rfd, n - len(data))
        if not chunk:
            sys.exit(0)
        data += chunk
    return data

send(HELLO, struct.pack('<IQ', 1, os.getpid()))
while True:
    _, msg_type, length = struct.unpack('<IIQ', read_exact(16))
    read_exact(length)
    if msg_type == RUN_STRIPE:
        # One cell at index 1: no stripe of this campaign is exactly that.
        send(STRIPE_RESULT, struct.pack('<QQQQdd', 1, 1, 0, 0, 0.0, 0.0))
)";
  }
  std::filesystem::permissions(path, std::filesystem::perms::owner_all);

  const CampaignSpec spec = small_spec();
  CampaignDriverOptions options;
  options.num_workers = 2;
  options.stripes_per_worker = 4;
  options.worker_path = path;
  const core::CampaignResult result = run_sharded_campaign(spec, options);
  expect_rates_identical(result.rates, in_process_rates(spec));
  EXPECT_TRUE(result.degraded);
  EXPECT_GE(result.requeues, 1u);
  std::filesystem::remove(path);
}

TEST(DistCampaignTest, MixedCasSpecsAcrossTheWire) {
  // SVO own-ship vs unequipped intruders: exercises a second CasSpec kind
  // end-to-end through worker materialization.
  CampaignSpec spec = small_spec(32);
  spec.system_name = "svo-vs-unequipped";
  spec.own_cas = CasSpec::svo();
  spec.intruder_cas = CasSpec::unequipped();

  CampaignDriverOptions options;
  options.num_workers = 2;
  const core::CampaignResult sharded = run_sharded_campaign(spec, options);
  expect_rates_identical(sharded.rates, in_process_rates(spec));
}

}  // namespace
}  // namespace cav::dist
