// Benchmark entry point: one process runs one named workload for a given seed
// and duration, checks its outputs, and prints every metric by name with
// its unit.  The last stdout line is the result:
//
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}
//
// --trace 0 prints the end-to-end metrics, --trace 1 (the span run) the
// per-layer ones.  Two lines before it carry the host block and details
// (sample counts, quartiles, counters) as JSON.  README.md has the map
// from each per-layer metric to the end-to-end metric it should move.
//
// Usage: perfbench --workload <kv-armed|hits-local|hits-broker>
//                  --seed N --seconds S --trace 0|1
//                  [--smoke] [--out-dir DIR] [--rev REV]
// Exit status: 0 when every check passed, 1 when a check failed, 2 on
// bad arguments.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "obs/json.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (smoke.py checks it).
constexpr MetricDef kEndToEnd[] = {
    {"ops_per_s", "ops/s"}, {"p50_us", "us"},        {"p99_us", "us"},
    {"setup_s", "s"},       {"peak_rss_mb", "MB"},
};

// Per-layer metrics that a workload does not load read 0.
constexpr MetricDef kPerLayer[] = {
    {"workload.zipf_ns", "ns"},
    {"workload.busy_ns", "ns"},
    {"kvstore.get_ns.off", "ns"},
    {"kvstore.get_ns.dormant", "ns"},
    {"kvstore.get_ns.armed", "ns"},
    {"kvstore.get_ns.obs", "ns"},
    {"kvstore.get_ns.armed.p99", "ns"},
    {"kvstore.put_ns.off", "ns"},
    {"kvstore.put_ns.dormant", "ns"},
    {"kvstore.put_ns.armed", "ns"},
    {"kvstore.put_ns.obs", "ns"},
    {"kvstore.put_ns.armed.p99", "ns"},
    {"core.dormant_ns", "ns"},
    {"core.reject_ns", "ns"},
    {"core.reject_ns.w1", "ns"},
    {"core.put_probe_ns", "ns"},
    {"obs.record_ns", "ns"},
    {"obs.events", "1/op"},
    {"obs.dropped", "frac"},
    {"kv.armed_vs_off", "ratio"},
    {"kv.dormant_vs_off", "ratio"},
    {"kv.obs_vs_off", "ratio"},
    {"kv.armed_vs_off.w1", "ratio"},
    {"kv.phase_sum_ratio", "ratio"},
    {"kv.phase_sum_ratio.sampled", "ratio"},
    {"core.calls", "1/op"},
    {"core.local_rejects", "1/op"},
    {"core.arrivals", "1/op"},
    {"core.bounded", "1/op"},
    {"core.postponed", "1/op"},
    {"core.hits", "1/op"},
    {"pair.hit_us.rank0.p50", "us"},
    {"pair.hit_us.rank0.p99", "us"},
    {"pair.hit_us.rank1.p50", "us"},
    {"pair.hit_us.rank1.p99", "us"},
    {"pair.order_excess_us", "us"},
    {"pair.hits_per_s", "groups/s"},
    {"pattern.hit_us.p50", "us"},
    {"pattern.hit_us.p99", "us"},
    {"pattern.put_ns", "ns"},
    {"pattern.advance_frac", "frac"},
    {"pattern.hits_per_s", "groups/s"},
    {"core.wait_us.p50", "us"},
    {"core.wait_us.p99", "us"},
    {"core.order_us.p50", "us"},
    {"core.order_us.p99", "us"},
    {"core.hist_vs_span", "ratio"},
    {"broker.hit_us.rank0.p50", "us"},
    {"broker.hit_us.rank0.p99", "us"},
    {"broker.hit_us.rank1.p50", "us"},
    {"broker.hit_us.rank1.p99", "us"},
    {"broker.arrivals", "count"},
    {"broker.matches", "count"},
    {"broker.timeouts", "count"},
    {"broker.forced_advances", "count"},
    {"broker.protocol_errors", "count"},
    {"core.peer_lost", "count"},
    {"span.overhead", "frac"},
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  out += cbp::obs::json::escape(s);
  out += '"';
  return out;
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Steal and total jiffies of all CPUs (/proc/stat): the share of time
/// the host ran something else on this machine's virtual CPUs.
std::pair<double, double> cpu_steal() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double total = 0.0, steal = 0.0, v = 0.0;
  in >> cpu;
  for (int field = 0; field < 8 && in >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

void write_spans(const std::string& path, const std::vector<Span>& spans,
                 const std::string& host) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  out << "{\"host\": " << host << "}\n";
  for (const Span& s : spans) {
    out << "{\"op\":" << s.op << ",\"id\":" << s.id << ",\"parent\":"
        << s.parent << ",\"name\":\"" << s.name << "\",\"start_ns\":"
        << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
  }
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<kv-armed|hits-local|hits-broker> --seed N --seconds S "
               "--trace 0|1 [--smoke] [--out-dir DIR] [--rev REV]\n",
               why);
  return 2;
}

}  // namespace

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_spread(const Spread& s) {
  return "{\"median\": " + json_number(s.median) +
         ", \"q1\": " + json_number(s.q1) + ", \"q3\": " + json_number(s.q3) +
         ", \"n\": " + std::to_string(s.n) + "}";
}

Spread spread(std::vector<double> values) {
  Spread s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  s.median = n % 2 == 1 ? values[n / 2]
                        : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  if (n == 1) {
    s.q1 = s.q3 = values[0];
    return s;
  }
  // statistics.quantiles(values, n=4), method "exclusive".
  const auto m = static_cast<long>(n + 1);
  const auto at = [&](long i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, static_cast<long>(n) - 1);
    const long delta = i * m - j * 4;
    return (values[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  s.q1 = at(1);
  s.q3 = at(3);
  return s;
}

std::int64_t clock_cost_ns() {
  std::vector<double> gaps;
  gaps.reserve(4096);
  for (int i = 0; i < 4096; ++i) {
    const std::int64_t a = now_ns();
    const std::int64_t b = now_ns();
    gaps.push_back(static_cast<double>(b - a));
  }
  return static_cast<std::int64_t>(spread(gaps).median);
}

TickScale calibrate_ticks() {
  TickScale scale;
  const std::int64_t n0 = now_ns();
  const std::int64_t t0 = ticks();
  while (now_ns() - n0 < 20'000'000) {
  }
  const std::int64_t n1 = now_ns();
  const std::int64_t t1 = ticks();
  scale.ns_per_tick = static_cast<double>(n1 - n0) / static_cast<double>(t1 - t0);
  std::vector<double> gaps;
  gaps.reserve(4096);
  for (int i = 0; i < 4096; ++i) {
    const std::int64_t a = ticks();
    const std::int64_t b = ticks();
    gaps.push_back(static_cast<double>(b - a));
  }
  scale.cost = static_cast<std::int64_t>(spread(gaps).median);
  return scale;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string rev = "unknown";
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 == argc) return usage(("missing value for " + arg).c_str());
    const char* v = argv[++i];
    if (arg == "--workload") {
      options.workload = v;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(v);
    } else if (arg == "--out-dir") {
      options.out_dir = v;
    } else if (arg == "--rev") {
      rev = v;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (trace != 0 && trace != 1) return usage("--trace must be 0 or 1");
  if (!(options.seconds > 0.0 && options.seconds <= 600.0)) {
    return usage("--seconds must be in (0, 600]");
  }
  options.spans = trace == 1;
  options.nproc = usable_cpus();

  Outcome (*run)(const Options&) = nullptr;
  if (options.workload == "kv-armed") run = run_kv_armed;
  if (options.workload == "hits-local") run = run_hits_local;
  if (options.workload == "hits-broker") run = run_hits_broker;
  if (run == nullptr) return usage("unknown workload");

  std::ostringstream host;
  host << "{\"nproc\": " << options.nproc
       << ", \"cpu\": " << json_string(cpu_model())
       << ", \"compiler\": " << json_string(compiler())
       << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
       << ", \"rev\": " << json_string(rev)
       << ", \"workload\": " << json_string(options.workload)
       << ", \"seed\": " << options.seed
       << ", \"seconds\": " << json_number(options.seconds)
       << ", \"trace\": " << trace << ", \"smoke\": "
       << (options.smoke ? "true" : "false") << "}";
  std::printf("{\"host\": %s}\n", host.str().c_str());
  std::fflush(stdout);

  const auto [steal0, total0] = cpu_steal();
  Outcome out = run(options);
  if (!options.spans) out.metric("peak_rss_mb", peak_rss_mb());
  const auto [steal1, total1] = cpu_steal();
  out.note("host_steal_frac",
           json_number(total1 > total0 ? (steal1 - steal0) / (total1 - total0) : 0.0));

  std::map<std::string, double> values(out.metrics.begin(), out.metrics.end());
  std::ostringstream metrics;
  bool first = true;
  const auto emit = [&](const MetricDef& def, double value) {
    metrics << (first ? "" : ", ") << json_string(def.name)
            << ": {\"value\": " << json_number(value)
            << ", \"unit\": " << json_string(def.unit) << "}";
    first = false;
  };
  const std::span<const MetricDef> defs =
      options.spans ? std::span<const MetricDef>(kPerLayer)
                    : std::span<const MetricDef>(kEndToEnd);
  for (const MetricDef& def : defs) {
    const auto it = values.find(def.name);
    const double value = it == values.end() ? 0.0 : it->second;
    if (!options.spans && !(value > 0.0)) {
      out.fail(std::string("end-to-end metric ") + def.name + " not measured", 1);
    }
    emit(def, value);
  }
  for (const auto& [name, value] : values) {
    if (!std::isfinite(value)) out.fail("metric " + name + " is not finite", 1);
    if (std::none_of(defs.begin(), defs.end(),
                     [&](const MetricDef& def) { return name == def.name; })) {
      out.fail("metric " + name + " is not declared", 1);
    }
  }
  if (out.attempted == 0) out.fail("no operation attempted", 1);

  std::ostringstream detail;
  detail << "{\"problems\": [";
  for (std::size_t i = 0; i < out.problems.size(); ++i) {
    detail << (i ? ", " : "") << json_string(out.problems[i]);
  }
  detail << "]";
  for (const auto& [key, json] : out.detail) {
    detail << ", " << json_string(key) << ": " << json;
  }
  detail << "}";
  std::printf("{\"detail\": %s}\n", detail.str().c_str());
  for (const std::string& p : out.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  }

  if (options.spans) {
    write_spans(options.out_dir + "/spans-" + options.workload + "-" +
                    std::to_string(options.seed) + ".jsonl",
                out.spans, host.str());
  }

  const bool correct = out.problems.empty() && out.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), metrics.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
