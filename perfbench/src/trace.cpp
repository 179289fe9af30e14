#include "trace.h"

#include <algorithm>
#include <fstream>
#include <utility>

namespace perfbench {

namespace {

const Clock::time_point kEpoch = Clock::now();

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - kEpoch).count();
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans,
                                        const std::vector<Aggregate>& aggregates) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the child intervals, clipped to the parent.
    std::int64_t covered = 0;
    std::int64_t reach = spans[i].start_ns;
    for (const auto& [b, e] : kids) {
      const std::int64_t lo = std::max(b, reach);
      const std::int64_t hi = std::min(e, spans[i].end_ns);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, hi);
    }
    self[i] = spans[i].end_ns - spans[i].start_ns - covered;
  }
  for (const Aggregate& a : aggregates) {
    if (a.parent >= 0) self[static_cast<std::size_t>(a.parent)] -= a.total_ns;
  }
  return self;
}

std::map<std::string, double> layer_self_seconds(const std::vector<Span>& spans,
                                                 const std::vector<Aggregate>& aggregates) {
  std::map<std::string, double> out;
  const auto charge = [&out](const std::string& name, std::int64_t ns) {
    const std::size_t dot = name.find('.');
    if (dot != std::string::npos) out[name.substr(0, dot)] += static_cast<double>(ns) * 1e-9;
  };
  const auto self = self_times_ns(spans, aggregates);
  for (std::size_t i = 0; i < spans.size(); ++i) charge(spans[i].name, self[i]);
  for (const Aggregate& a : aggregates) charge(a.name, a.total_ns);
  return out;
}

int Tracer::begin(std::string name, std::int64_t request) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{std::move(name), now_ns(), 0, open_.empty() ? -1 : open_.back(), request});
  open_.push_back(id);
  return id;
}

void Tracer::end(int span) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
  // Spans close in LIFO order on the one tracing thread.
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

void Tracer::aggregate(const std::string& name, std::uint64_t count, std::int64_t ns) {
  if (!enabled_ || count == 0) return;
  aggregates_.push_back(Aggregate{name, open_.empty() ? -1 : open_.back(), count, ns});
}

double Tracer::root_coverage(std::int64_t wall_ns) const {
  if (wall_ns <= 0) return 0.0;
  std::int64_t roots = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0) roots += s.end_ns - s.start_ns;
  }
  return static_cast<double>(roots) / static_cast<double>(wall_ns);
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const auto self = self_times_ns(spans_, aggregates_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"span\":" << i << ",\"name\":\"" << json_escape(s.name) << "\",\"parent\":"
        << s.parent << ",\"request\":" << s.request << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"self_ns\":" << self[i] << "}\n";
  }
  for (const Aggregate& a : aggregates_) {
    out << "{\"aggregate\":\"" << json_escape(a.name) << "\",\"parent\":" << a.parent
        << ",\"count\":" << a.count << ",\"total_ns\":" << a.total_ns << "}\n";
  }
  return static_cast<bool>(out);
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

}  // namespace perfbench
