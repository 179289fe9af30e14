// Measurement helpers shared by every perfbench workload: order
// statistics under the benchmark's percentile rule, the process's peak
// resident set (VmHWM), a bit-exact result digest, and the metric table a
// run prints.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/monte_carlo.h"
#include "sim/simulation.h"

namespace perfbench {

/// A tail order statistic and the evidence behind it.
struct Tail {
  double percentile = 0.0;  ///< e.g. 99.0
  double value = 0.0;
  std::size_t samples = 0;  ///< sample count the percentile was taken over
  std::size_t beyond = 0;   ///< samples strictly ranked above `value`
};

/// The benchmark's percentile rule: the highest percentile of the ladder
/// {99.9, 99, 95, 90, 75, 50} that still has at least `min_beyond`
/// samples ranked beyond it (nearest-rank definition: the p-th percentile
/// of n sorted samples is the ceil(p/100 * n)-th).  A tail with fewer
/// samples behind it is one outlier, not a percentile.  nullopt when even
/// the median lacks that many samples beyond it.
std::optional<Tail> tail_percentile(std::vector<double> samples, std::size_t min_beyond = 10);

/// Peak resident set in kB from the text of /proc/<pid>/status (the VmHWM
/// line).  nullopt when the line is missing or malformed.
std::optional<std::uint64_t> parse_vmhwm_kb(std::string_view status_text);

/// This process's VmHWM in MB; 0 when /proc is unavailable.
double peak_rss_mb();

/// FNV-1a 64 over the exact bytes of what is added: doubles by bit
/// pattern (so -0.0 and 0.0 differ, and any last-ulp drift shows), integers
/// as 64-bit words in host byte order.  Used to compare a run's outputs
/// against another execution path and against digests pinned in the
/// source.
class Digest {
 public:
  Digest& add_bytes(const void* data, std::size_t n);
  Digest& add(double v) { return add_pod(v); }
  Digest& add(float v) { return add_pod(v); }
  Digest& add(std::uint64_t v) { return add_pod(v); }
  Digest& add(bool v) { return add(static_cast<std::uint64_t>(v ? 1 : 0)); }
  std::uint64_t value() const { return hash_; }

 private:
  template <typename T>
  Digest& add_pod(T v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    return add_bytes(bytes, sizeof(T));
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Digest of what a simulation decided: the pair minima, the NMAC
/// verdicts and the SimStats work counts.  Host timings are left out, so
/// two executions that did the same work digest the same.
std::uint64_t digest_of(const cav::sim::SimResult& result);

/// Digest of a campaign's rates (host timings left out).
std::uint64_t digest_of(const cav::core::SystemRates& rates);

/// "0x" + 16 lowercase hex digits.
std::string hex64(std::uint64_t v);

/// One reported metric: its value, unit and how many samples it summarizes
/// (1 for a single measurement or an exact count).
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
  std::string note;  ///< printed beside the value (e.g. which percentile)
};

using MetricMap = std::map<std::string, Metric>;

/// What one workload run hands back to main().
struct RunOutcome {
  MetricMap end_to_end;
  MetricMap per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed operation
  std::vector<std::pair<std::string, std::string>> facts;  ///< printed, not gated

  void fail(std::string why) {
    ++failed;
    failures.push_back(std::move(why));
  }
};

}  // namespace perfbench
