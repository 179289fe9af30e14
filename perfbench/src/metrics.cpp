#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

std::optional<Tail> tail_percentile(std::vector<double> samples, std::size_t min_beyond) {
  const std::size_t n = samples.size();
  if (n == 0) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Nearest rank, 1-based; the small epsilon keeps e.g. 0.99 * 1000
    // from rounding up to rank 991 through binary representation error.
    auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, n);
    const std::size_t beyond = n - rank;
    if (beyond >= min_beyond) return Tail{p, samples[rank - 1], n, beyond};
  }
  return std::nullopt;
}

std::optional<std::uint64_t> parse_vmhwm_kb(std::string_view status_text) {
  constexpr std::string_view kKey = "VmHWM:";
  std::size_t pos = 0;
  while (pos < status_text.size()) {
    const std::size_t eol = std::min(status_text.find('\n', pos), status_text.size());
    const std::string_view line = status_text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.substr(0, kKey.size()) != kKey) continue;
    std::istringstream fields{std::string(line.substr(kKey.size()))};
    std::uint64_t kb = 0;
    std::string unit;
    if (!(fields >> kb >> unit) || unit != "kB") return std::nullopt;
    return kb;
  }
  return std::nullopt;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  if (!in) return 0.0;
  std::stringstream text;
  text << in.rdbuf();
  const auto kb = parse_vmhwm_kb(text.str());
  return kb ? static_cast<double>(*kb) / 1024.0 : 0.0;
}

Digest& Digest::add_bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    hash_ ^= p[i];
    hash_ *= 0x100000001b3ULL;
  }
  return *this;
}

namespace {

void add_proximity(Digest& d, const cav::sim::ProximityReport& p) {
  d.add(p.min_distance_m).add(p.min_horizontal_m).add(p.min_vertical_m);
  d.add(p.time_of_min_distance_s);
}

}  // namespace

std::uint64_t digest_of(const cav::sim::SimResult& result) {
  Digest d;
  add_proximity(d, result.proximity);
  d.add(result.nmac).add(result.nmac_time_s).add(result.hard_collision);
  const cav::sim::SimStats& s = result.stats;
  for (const std::uint64_t count :
       {s.decision_cycles, s.fine_agent_steps, s.coarse_agent_steps, s.fault_events,
        s.pair_updates, static_cast<std::uint64_t>(s.monitored_pairs),
        static_cast<std::uint64_t>(s.peak_active_pairs)}) {
    d.add(count);
  }
  d.add(static_cast<std::uint64_t>(result.pairs.size()));
  for (const cav::sim::PairReport& p : result.pairs) {
    d.add(static_cast<std::uint64_t>(p.a)).add(static_cast<std::uint64_t>(p.b));
    add_proximity(d, p.proximity);
    d.add(p.nmac).add(p.nmac_time_s).add(p.hard_collision);
  }
  return d.value();
}

std::uint64_t digest_of(const cav::core::SystemRates& rates) {
  Digest d;
  d.add(static_cast<std::uint64_t>(rates.encounters)).add(static_cast<std::uint64_t>(rates.nmacs));
  d.add(static_cast<std::uint64_t>(rates.alerts)).add(rates.mean_min_separation_m);
  return d.value();
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perfbench
