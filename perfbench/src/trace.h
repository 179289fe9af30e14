// In-memory span tracing for the traced perfbench run.
//
// Spans are recorded from the benchmark's own code, around its calls into
// each layer's public entry points (the library itself is not
// instrumented).  A span has a name ("<layer>.<what>"), start and end
// times, its parent span, and a request id (the run, stripe or batch
// index).  Hot per-call boundaries — CAS decisions, single queries — are
// not one span each: their count and summed time are folded into an
// Aggregate under the enclosing span.  Everything stays in memory and is
// written out once, when the run ends.
//
// Spans nest strictly on the calling thread.  Aggregates must come from
// calls made one after another (never summed across threads), so that
// their total never exceeds the parent interval they are charged to.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the tracer's epoch (set when the process starts main).
std::int64_t now_ns();

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;            ///< index into the span list; -1 for a root
  std::int64_t request = -1;  ///< run / stripe / batch index; -1 if none
};

struct Aggregate {
  std::string name;
  int parent = -1;  ///< span the calls happened inside
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its child spans (overlapping children are counted once) and
/// minus the summed time of the aggregates charged to it.  Indexed like
/// `spans`, in nanoseconds.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans,
                                        const std::vector<Aggregate>& aggregates);

/// Self time summed per layer — the span/aggregate name up to its first
/// '.' — in seconds.  Names without a '.' (the phase roots: setup,
/// measure, probe, ...) belong to no layer and are left out.
std::map<std::string, double> layer_self_seconds(const std::vector<Span>& spans,
                                                 const std::vector<Aggregate>& aggregates);

class Tracer {
 public:
  /// A disabled tracer records nothing; begin() returns -1.
  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  int begin(std::string name, std::int64_t request = -1);
  void end(int span);
  /// Charge `count` calls totalling `ns` to the innermost open span.
  void aggregate(const std::string& name, std::uint64_t count, std::int64_t ns);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<Aggregate>& aggregates() const { return aggregates_; }

  /// Sum of root-span durations over `wall_ns`: how much of the run the
  /// trace accounts for.
  double root_coverage(std::int64_t wall_ns) const;

  /// Write every span and aggregate as JSON lines.  Returns false when the
  /// file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<Aggregate> aggregates_;
  std::vector<int> open_;
};

/// The process-wide tracer.
Tracer& tracer();

/// RAII span on the process-wide tracer.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name, std::int64_t request = -1)
      : id_(tracer().begin(std::move(name), request)) {}
  ~ScopedSpan() { tracer().end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

/// Seconds elapsed since `t0`.
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace perfbench
