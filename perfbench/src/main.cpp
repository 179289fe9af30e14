// perfbench: one run of one benchmark workload.
//
//   perfbench --workload <city_airspace|risk_ratio_campaign|offline_online>
//             --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> [--trace-out <file.jsonl>] [--setup-only 1]
//
// Prints progress and facts, then as its last line `PERFBENCH-RESULT `
// followed by one JSON object: correct/attempted/failed, the end-to-end
// and per-layer metrics with units and sample counts, the failures, and
// the build/host half of the run manifest.  perfbench/run.py builds this
// binary, adds the source half of the manifest and prints the final
// result line.  Exit code 0 unless the arguments or the set-up are bad;
// failed operations are counted, not fatal.
//
// A plain run times more set-ups after its measurement, each in a fresh
// perfbench process started with --setup-only 1, which prints
// `PERFBENCH-SETUP <setup_s>` and exits.  setup_s is the median over
// those.  A fresh process per set-up pays the page faults and cold caches
// every real run pays, and no state carries from one set-up to the next.
#include <fcntl.h>
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

using namespace perfbench;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const MetricMap& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ",";
    out += json_string(name) + ":{\"value\":" + json_number(m.value) + ",\"unit\":" +
           json_string(m.unit) + ",\"samples\":" + std::to_string(m.samples) +
           ",\"note\":" + json_string(m.note) + "}";
  }
  return out + "}";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

/// Owns the per-run scratch directory: created under `parent`, removed
/// with everything in it when the run ends.
class ScratchDir {
 public:
  explicit ScratchDir(const std::filesystem::path& parent) {
    std::filesystem::create_directories(parent);
    std::string templ = (parent / "run-XXXXXX").string();
    if (mkdtemp(templ.data()) == nullptr) throw std::runtime_error("cannot create " + templ);
    path_ = templ;
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Set-ups a plain run times for setup_s, each in a fresh perfbench
/// process.
constexpr int kSetupChildren = 3;

/// Pause before each set-up child.  A virtualized host takes freed guest
/// memory back about two seconds after it is freed, so a process started
/// sooner after the previous one exits reuses warm pages and sets up
/// faster.  After the pause every set-up starts equally cold.
constexpr std::chrono::milliseconds kSettle{2000};

/// Runs `args` (this binary's --setup-only invocation) as a child process
/// and returns its setup_s; nullopt when it fails.
std::optional<double> setup_in_child(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  int out[2];
  if (pipe2(out, O_CLOEXEC) != 0) return std::nullopt;
  const pid_t pid = fork();
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec: the parent has
    // a live thread pool.
    dup2(out[1], STDOUT_FILENO);
    close(out[0]);
    close(out[1]);
    execv("/proc/self/exe", argv.data());
    _exit(127);
  }
  close(out[1]);
  std::string text;
  char buf[4096];
  ssize_t n = 0;
  while (pid > 0 && ((n = read(out[0], buf, sizeof buf)) > 0 || (n < 0 && errno == EINTR))) {
    if (n > 0) text.append(buf, static_cast<std::size_t>(n));
  }
  close(out[0]);
  int status = 0;
  if (pid < 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return std::nullopt;
  }
  const auto at = text.rfind("PERFBENCH-SETUP ");
  double setup_s = 0.0;
  if (at == std::string::npos ||
      std::sscanf(text.c_str() + at, "PERFBENCH-SETUP %lf", &setup_s) != 1) {
    return std::nullopt;
  }
  return setup_s;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir> [--trace-out <file>] [--setup-only 1]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, work_dir, trace_out;
  RunOptions options;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--work-dir") {
        work_dir = value;
      } else if (flag == "--trace-out") {
        trace_out = value;
      } else if (flag == "--setup-only") {
        options.setup_only = value == "1";
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (workload.empty() || work_dir.empty() || !have_seed || !(options.seconds > 0.0)) {
    return usage("missing or bad arguments");
  }
  RunOutcome (*run)(const RunOptions&) = nullptr;
  if (workload == "city_airspace") run = run_city_airspace;
  if (workload == "risk_ratio_campaign") run = run_risk_ratio_campaign;
  if (workload == "offline_online") run = run_offline_online;
  if (run == nullptr) return usage(("unknown workload " + workload).c_str());
  if (options.setup_only && options.trace) return usage("--setup-only needs --trace 0");

  const std::size_t nproc = affinity_cpus();
  const std::size_t threads = std::min<std::size_t>(4, nproc);
  cav::ThreadPool pool(threads);
  options.pool = &pool;
  options.workers = threads;
  tracer().enable(options.trace);

  RunOutcome outcome;
  try {
    ScratchDir scratch(work_dir);
    options.work_dir = scratch.path();
    if (!options.setup_only) {
      std::printf("perfbench %s seed=%llu seconds=%g trace=%d probe_pool=%zu workers=%zu\n",
                  workload.c_str(), static_cast<unsigned long long>(options.seed),
                  options.seconds, options.trace ? 1 : 0, pool.thread_count(), options.workers);
      std::fflush(stdout);
    }
    outcome = run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(), e.what());
    return 1;
  }
  if (options.setup_only) {
    std::printf("PERFBENCH-SETUP %.17g\n", outcome.end_to_end.at("setup_s").value);
    return 0;
  }
  if (!options.trace) {
    // The run's own set-up is left out: it started right after whatever
    // ran before it, so it need not be as cold as the children's.
    std::vector<double> setup_s;
    const std::vector<std::string> args = {
        argv[0], "--workload", workload, "--seed", std::to_string(options.seed), "--seconds",
        "1", "--trace", "0", "--work-dir", work_dir, "--setup-only", "1"};
    for (int i = 0; i < kSetupChildren; ++i) {
      ++outcome.attempted;
      std::this_thread::sleep_for(kSettle);
      const auto child = setup_in_child(args);
      if (!child) {
        outcome.fail(workload + ": set-up in a child process failed");
        continue;
      }
      setup_s.push_back(*child);
    }
    if (!setup_s.empty()) {
      outcome.end_to_end["setup_s"] = Metric{cav::percentile(setup_s, 0.5), "s", setup_s.size(),
                                             "median, one fresh process per set-up"};
    }
  }

  if (options.trace) {
    const std::int64_t wall_ns = now_ns();
    Tracer& t = tracer();
    MetricMap& l = outcome.per_layer;
    for (const auto& [layer, seconds] : layer_self_seconds(t.spans(), t.aggregates())) {
      put(l, layer + ".self_s", seconds, "s");
    }
    put(l, "trace.root_coverage", t.root_coverage(wall_ns), "ratio", 1,
        "root spans over process wall time");
    put(l, "trace.spans", static_cast<double>(t.spans().size()), "count");
    if (!trace_out.empty() && !t.write_jsonl(trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
      return 1;
    }
  }

  for (const auto& [what, value] : outcome.facts) {
    std::printf("  %-28s %s\n", what.c_str(), value.c_str());
  }
  for (const auto& why : outcome.failures) std::printf("  FAILED: %s\n", why.c_str());

  std::string failures = "[";
  for (const auto& why : outcome.failures) {
    if (failures.size() > 1) failures += ",";
    failures += json_string(why);
  }
  failures += "]";
  std::ostringstream manifest;
  manifest << "{\"compiler\":" << json_string(PERFBENCH_COMPILER)
           << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
           << ",\"cxx_flags\":" << json_string(PERFBENCH_CXX_FLAGS)
           << ",\"cav_native_arch\":" << (PERFBENCH_NATIVE_ARCH ? "true" : "false")
           << ",\"nproc\":" << nproc
           << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
           << ",\"cpu_model\":" << json_string(cpu_model())
           << ",\"timed_threads\":1"
           << ",\"probe_pool_threads\":" << pool.thread_count()
           << ",\"worker_processes\":" << options.workers << "}";
  std::printf("PERFBENCH-RESULT {\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"end_to_end\":%s,\"per_layer\":%s,\"failures\":%s,\"manifest\":%s}\n",
              outcome.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              json_metrics(outcome.end_to_end).c_str(), json_metrics(outcome.per_layer).c_str(),
              failures.c_str(), manifest.str().c_str());
  return 0;
}
