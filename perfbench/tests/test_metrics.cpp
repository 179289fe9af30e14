#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "metrics.h"

namespace perfbench {
namespace {

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(TailPercentile, PicksHighestPercentileWithTenSamplesBeyond) {
  // 1000 samples: p99 is rank 990 with exactly 10 beyond; p99.9 has 1.
  auto t = tail_percentile(iota(1000));
  ASSERT_TRUE(t);
  EXPECT_EQ(t->percentile, 99.0);
  EXPECT_EQ(t->value, 990.0);
  EXPECT_EQ(t->samples, 1000u);
  EXPECT_EQ(t->beyond, 10u);

  // One sample short of that, p99 keeps only 9 beyond: fall back to p95.
  t = tail_percentile(iota(999));
  ASSERT_TRUE(t);
  EXPECT_EQ(t->percentile, 95.0);
  EXPECT_EQ(t->value, 950.0);  // rank ceil(949.05)
  EXPECT_EQ(t->beyond, 49u);

  t = tail_percentile(iota(10000));
  ASSERT_TRUE(t);
  EXPECT_EQ(t->percentile, 99.9);
  EXPECT_EQ(t->beyond, 10u);
}

TEST(TailPercentile, TooFewSamplesGivesNoTail) {
  EXPECT_FALSE(tail_percentile(iota(19)));
  const auto t = tail_percentile(iota(20));
  ASSERT_TRUE(t);
  EXPECT_EQ(t->percentile, 50.0);
  EXPECT_EQ(t->beyond, 10u);
  EXPECT_FALSE(tail_percentile({}));
}

TEST(TailPercentile, IgnoresInputOrder) {
  std::vector<double> v = iota(200);
  std::vector<double> reversed(v.rbegin(), v.rend());
  EXPECT_EQ(tail_percentile(v)->value, tail_percentile(reversed)->value);
  EXPECT_EQ(tail_percentile(v)->percentile, 95.0);
}

TEST(VmHwm, ParsesTheStatusLine) {
  const char* status =
      "Name:\tperfbench\nVmPeak:\t  912340 kB\nVmHWM:\t  151552 kB\nVmRSS:\t  100 kB\n";
  EXPECT_EQ(parse_vmhwm_kb(status), 151552u);
}

TEST(VmHwm, RejectsMissingOrMalformedLines) {
  EXPECT_FALSE(parse_vmhwm_kb("VmRSS:\t 100 kB\n"));
  EXPECT_FALSE(parse_vmhwm_kb("VmHWM:\t lots\n"));
  EXPECT_FALSE(parse_vmhwm_kb("VmHWM:\t 100 MB\n"));
  EXPECT_FALSE(parse_vmhwm_kb("XVmHWM:\t 100 kB\n"));
  EXPECT_FALSE(parse_vmhwm_kb(""));
  EXPECT_EQ(parse_vmhwm_kb("VmHWM: 7 kB"), 7u);  // last line without a newline
}

TEST(VmHwm, ThisProcessHasAPeak) { EXPECT_GT(peak_rss_mb(), 0.0); }

TEST(Digest, IsFnv1a64) {
  EXPECT_EQ(Digest().value(), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Digest().add_bytes("a", 1).value(), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Digest().add_bytes("foobar", 6).value(), 0x85944171f73967e8ULL);
}

TEST(Digest, SeesEveryBitAndTheOrder) {
  const double x = 1.0;
  const double next = std::nextafter(x, 2.0);
  EXPECT_NE(Digest().add(x).value(), Digest().add(next).value());
  EXPECT_NE(Digest().add(0.0).value(), Digest().add(-0.0).value());
  EXPECT_NE(Digest().add(1.0).add(2.0).value(), Digest().add(2.0).add(1.0).value());
  EXPECT_EQ(Digest().add(true).value(), Digest().add(std::uint64_t{1}).value());
  EXPECT_EQ(hex64(0xaf63dc4c8601ec8cULL), "0xaf63dc4c8601ec8c");
}

cav::sim::SimResult sample_result() {
  cav::sim::SimResult r;
  r.proximity.min_distance_m = 120.5;
  r.nmac = true;
  r.nmac_time_s = 41.0;
  r.stats.fine_agent_steps = 1000;
  r.stats.decision_cycles = 120;
  cav::sim::PairReport p;
  p.a = 0;
  p.b = 3;
  p.proximity.min_distance_m = 120.5;
  r.pairs.push_back(p);
  return r;
}

TEST(Digest, SimResultCoversMinimaVerdictsAndCountsButNotTimings) {
  const cav::sim::SimResult base = sample_result();
  const std::uint64_t d = digest_of(base);

  cav::sim::SimResult timed = base;
  timed.wall_time_s = 12.0;
  EXPECT_EQ(digest_of(timed), d);

  cav::sim::SimResult changed = base;
  changed.pairs[0].proximity.min_distance_m = std::nextafter(120.5, 0.0);
  EXPECT_NE(digest_of(changed), d);
  changed = base;
  changed.nmac = false;
  EXPECT_NE(digest_of(changed), d);
  changed = base;
  changed.stats.fine_agent_steps += 1;
  EXPECT_NE(digest_of(changed), d);
  changed = base;
  changed.pairs[0].b = 4;
  EXPECT_NE(digest_of(changed), d);
}

TEST(Digest, RatesIgnoreHostTimingAndName) {
  cav::core::SystemRates a;
  a.encounters = 100;
  a.nmacs = 3;
  a.mean_min_separation_m = 250.0;
  cav::core::SystemRates b = a;
  b.sim_wall_s = 9.0;
  b.system = "other";
  EXPECT_EQ(digest_of(a), digest_of(b));
  b.nmacs = 4;
  EXPECT_NE(digest_of(a), digest_of(b));
}

}  // namespace
}  // namespace perfbench
