// Shared setup and the one row writer for the benches: scales the
// paper's nominal pause times down so the full evaluation runs in
// seconds, and parses the optional CLI overrides
//   <runs> <time_scale> [--json <path>] [--trial-jobs=N] [--clock=MODE]
//
// --trial-jobs=N routes every repeated-trial measurement through the
// parallel scheduler (harness::run_repeated_parallel): N workers, each
// with a private engine, deterministic base+i seeds.  Default 1 keeps
// the historical serial behaviour.  The trial workloads are dominated by
// nominal pauses (scaled sleeps), so trials overlap profitably even
// beyond the core count.
//
// --clock=real|scaled|virtual picks the trial timing policy (DESIGN.md
// §5g).  `scaled` is the historical default (kernel waits multiplied by
// <time_scale>); `virtual` runs every trial under a per-trial
// discrete-event clock where nominal waits are free — the bench then
// *ignores* <time_scale> and runs at the paper's nominal values (scale
// 1.0), because scaling exists only to make kernel waits affordable;
// `real` pins the scale at 1.0 with kernel waits (the paper's actual
// cost, for calibration runs).
//
// A bench records each value it measures once, as a JsonReport row.
// The printed table and the `--json <path>` document are both rendered
// from those rows; the document also carries the host it ran on.
#pragma once

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cbp.h"
#include "harness/experiment.h"
#include "obs/json.h"
#include "runtime/clock.h"

#ifndef CBP_BUILD_TYPE
#define CBP_BUILD_TYPE "unknown"
#endif
#ifndef CBP_GIT_REV
#define CBP_GIT_REV "unknown"
#endif

namespace cbp::bench {

/// Short name of a clock policy ("real", "scaled", "virtual").
inline const char* clock_name(rt::ClockMode clock) {
  switch (clock) {
    case rt::ClockMode::kReal: return "real";
    case rt::ClockMode::kVirtual: return "virtual";
    case rt::ClockMode::kScaled: break;
  }
  return "scaled";
}

struct BenchConfig {
  int runs = 30;            ///< per-configuration repetitions
  double time_scale = 0.02; ///< nominal 100 ms pause -> 2 ms
  std::string json_path;    ///< empty = no JSON output
  int jobs = 1;             ///< parallel trial workers (1 = serial)
  rt::ClockMode clock = rt::ClockMode::kScaled;  ///< trial timing policy
};

/// One measured value: one object under the JSON document's `results`.
struct Row {
  std::string name;
  int threads = 1;
  double value = 0.0;
  std::string unit;  ///< "probability", "s", "%", "x", "count", "bool", ...
  int n = 0;         ///< trials behind the value (0 = not sampled)
  std::optional<harness::ProbabilityInterval> interval;  ///< Wilson, rates
  std::uint64_t seed = 1;  ///< seed base of the trials
  rt::ClockMode clock = rt::ClockMode::kScaled;
};

/// The host block of every JSON document: the fields perfbench's host
/// line carries.  `rev` is the git revision at configure time.
inline std::string host_json() {
  cpu_set_t set;
  CPU_ZERO(&set);
  int nproc = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set)
                                                           : 0;
  if (nproc <= 0) nproc = static_cast<int>(std::thread::hardware_concurrency());
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const auto colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      cpu = line.substr(colon + 1);
      cpu.erase(0, cpu.find_first_not_of(' '));
      break;
    }
  }
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#else
  const std::string compiler = std::string("gcc ") + __VERSION__;
#endif
  using obs::json::escape;
  return "{\"nproc\": " + std::to_string(nproc) + ", \"cpu\": \"" +
         escape(cpu) + "\", \"compiler\": \"" + escape(compiler) +
         "\", \"build_type\": \"" + escape(CBP_BUILD_TYPE) +
         "\", \"rev\": \"" + escape(CBP_GIT_REV) + "\"}";
}

/// Accumulates rows and renders them twice: as a JSON document (flush)
/// and as the printed table (print).  Rows are grouped into sections,
/// one printed table each; a section's rows are the keys added under
/// it, its columns the `column`s in order of first use.
class JsonReport {
 public:
  JsonReport(std::string bench_name, double time_scale)
      : bench_name_(std::move(bench_name)), time_scale_(time_scale) {}
  JsonReport(std::string bench_name, const BenchConfig& config)
      : bench_name_(std::move(bench_name)),
        time_scale_(config.time_scale),
        threads_(config.jobs),
        clock_(config.clock) {}

  /// A JSON-only row (name, threads, value, unit).
  void add(const std::string& name, int threads, double value,
           const std::string& unit) {
    push(name, value, unit, 0).threads = threads;
  }

  /// A value named "key/metric" ("key" when `metric` is empty), shown in
  /// cell (key, column) of the printed table.  The returned row may be
  /// adjusted (threads, seed, clock) before the next add.
  Row& add(const std::string& key, const std::string& column,
           const std::string& metric, double value, std::string unit,
           int n = 0) {
    Row& row = push(metric.empty() ? key : key + "/" + metric, value,
                    std::move(unit), n);
    place(key, column, format(row));
    return row;
  }

  /// `successes` out of `n` trials: the rate with its Wilson interval.
  Row& add_rate(const std::string& key, const std::string& column,
                const std::string& metric, int successes, int n) {
    Row& row = add(key, column, metric,
                   n == 0 ? 0.0 : static_cast<double>(successes) / n,
                   "probability", n);
    row.interval = harness::wilson_interval(successes, n);
    return row;
  }

  /// A cell that is not a measurement: the paper's figure, a comment.
  void note(const std::string& key, const std::string& column,
            std::string text) {
    place(key, column, std::move(text));
  }

  /// Starts a new printed table; its first column is headed `heading`.
  void section(std::string title, std::string heading) {
    sections_.push_back({std::move(title), std::move(heading), {}, {}});
  }

  /// Writes the JSON document; returns false (and prints a warning) on
  /// I/O error.  An empty path writes nothing.
  bool flush(const std::string& path) const {
    if (path.empty()) return true;
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "warning: cannot write JSON report to %s\n",
                   path.c_str());
      return false;
    }
    using obs::json::escape;
    out << "{\n  \"bench\": \"" << escape(bench_name_) << "\",\n"
        << "  \"time_scale\": " << time_scale_ << ",\n"
        << "  \"host\": " << host_json() << ",\n"
        << "  \"results\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& row = rows_[i];
      out << "    {\"name\": \"" << escape(row.name) << "\", \"threads\": "
          << row.threads << ", \"value\": " << number(row.value)
          << ", \"unit\": \"" << escape(row.unit) << "\", \"n\": " << row.n;
      if (row.interval) {
        out << ", \"interval\": [" << number(row.interval->low) << ", "
            << number(row.interval->high) << "]";
      }
      out << ", \"seed\": " << row.seed << ", \"clock\": \""
          << clock_name(row.clock) << "\"}"
          << (i + 1 < rows_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    return static_cast<bool>(out);
  }

  /// Prints every section as a table.
  void print(std::ostream& os) const {
    for (const Section& section : sections_) {
      if (&section != &sections_.front()) os << "\n";
      if (!section.title.empty()) os << section.title << "\n";
      std::vector<std::string> header{section.heading};
      header.insert(header.end(), section.columns.begin(),
                    section.columns.end());
      harness::TextTable table(std::move(header));
      for (const std::string& key : section.keys) {
        std::vector<std::string> cells{key};
        for (const std::string& column : section.columns) {
          const auto it = cells_.find({key, column});
          cells.push_back(it == cells_.end() ? "-" : it->second);
        }
        table.add_row(std::move(cells));
      }
      table.print(os);
    }
  }

 private:
  struct Section {
    std::string title;
    std::string heading;
    std::vector<std::string> keys;
    std::vector<std::string> columns;
  };

  Row& push(std::string name, double value, std::string unit, int n) {
    rows_.push_back({std::move(name), threads_, value, std::move(unit), n,
                     std::nullopt, 1, clock_});
    return rows_.back();
  }

  void place(const std::string& key, const std::string& column,
             std::string text) {
    if (column.empty()) return;
    if (sections_.empty()) section("", "Row");
    append_once(sections_.back().keys, key);
    append_once(sections_.back().columns, column);
    cells_[{key, column}] = std::move(text);
  }

  static void append_once(std::vector<std::string>& names,
                          const std::string& name) {
    if (std::find(names.begin(), names.end(), name) == names.end()) {
      names.push_back(name);
    }
  }

  /// A table cell: the value in the unit's usual format.
  static std::string format(const Row& row) {
    if (row.unit == "probability" || row.unit == "fraction") {
      return harness::fmt_prob(row.value);
    }
    if (row.unit == "s") return harness::fmt_seconds(row.value);
    if (row.unit == "%") return harness::fmt_percent(row.value);
    if (row.unit == "x") return harness::fmt_percent(row.value) + "x";
    if (row.unit == "bool") return row.value != 0.0 ? "yes" : "NO";
    return number(row.value);
  }

  /// JSON has no NaN or infinity.
  static std::string number(double value) {
    if (!std::isfinite(value)) return "null";
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%g", value);
    return buffer;
  }

  std::string bench_name_;
  double time_scale_ = 1.0;
  int threads_ = 1;
  rt::ClockMode clock_ = rt::ClockMode::kScaled;
  std::vector<Row> rows_;
  std::vector<Section> sections_;
  std::map<std::pair<std::string, std::string>, std::string> cells_;
};

/// Prints the shared usage line and exits with status 2 (the same hard
/// failure a bad --clock mode has always been: a mistyped invocation
/// must never silently run a different experiment).
[[noreturn]] inline void usage_error(const char* program,
                                     const std::string& message) {
  std::fprintf(stderr,
               "error: %s\nusage: %s [<runs> <time_scale>] [--json <path>] "
               "[--trial-jobs=N] [--clock=real|scaled|virtual]\n",
               message.c_str(), program);
  std::exit(2);
}

/// Extracts `--name=VALUE` or `--name VALUE` from argv, compacting it
/// away so positional parsing still works; nullopt when absent.  A
/// trailing `--name` with no value is a usage error, not a silently
/// ignored flag.
inline std::optional<std::string> take_flag(int& argc, char** argv,
                                            const char* name) {
  const std::size_t length = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, length) != 0) continue;
    std::string value;
    int consumed = 1;
    if (argv[i][length] == '=') {
      value = argv[i] + length + 1;
    } else if (argv[i][length] == '\0') {
      if (i + 1 >= argc) {
        usage_error(argv[0], std::string(name) + " requires a value");
      }
      value = argv[i + 1];
      consumed = 2;
    } else {
      continue;
    }
    for (int j = i; j + consumed < argc; ++j) argv[j] = argv[j + consumed];
    argc -= consumed;
    return value;
  }
  return std::nullopt;
}

/// Parses the flags and positionals; exits 2 on a usage error.
inline BenchConfig parse_args(int argc, char** argv, int default_runs,
                              double default_scale) {
  BenchConfig config;
  config.runs = default_runs;
  config.time_scale = default_scale;
  config.json_path = take_flag(argc, argv, "--json").value_or("");
  if (const auto jobs = take_flag(argc, argv, "--trial-jobs")) {
    config.jobs = std::max(1, std::atoi(jobs->c_str()));
  }
  if (const auto clock = take_flag(argc, argv, "--clock")) {
    if (*clock == "real") {
      config.clock = rt::ClockMode::kReal;
    } else if (*clock == "virtual") {
      config.clock = rt::ClockMode::kVirtual;
    } else if (*clock != "scaled") {
      usage_error(argv[0],
                  "--clock=" + *clock + " (expected real|scaled|virtual)");
    }
  }
  // Positional overrides are validated like the flags: a non-numeric or
  // non-positive value is a usage error (raw atoi/atof used to turn a
  // typo like `-runs` into runs=0, i.e. an empty run that "passed").
  if (argc > 1) {
    char* end = nullptr;
    const long runs = std::strtol(argv[1], &end, 10);
    if (end == argv[1] || *end != '\0' || runs <= 0) {
      usage_error(argv[0], "<runs> must be a positive integer");
    }
    config.runs = static_cast<int>(runs);
  }
  if (argc > 2) {
    char* end = nullptr;
    const double scale = std::strtod(argv[2], &end);
    if (end == argv[2] || *end != '\0' || !(scale > 0.0)) {
      usage_error(argv[0], "<time_scale> must be a positive number");
    }
    config.time_scale = scale;
  }
  if (argc > 3) usage_error(argv[0], "unexpected extra arguments");
  if (config.clock != rt::ClockMode::kScaled) {
    // real: kernel waits at the paper's nominal values by definition.
    // virtual: waits are free, so there is nothing for scaling to
    // amortize — run the actual nominal values and measure those.
    config.time_scale = 1.0;
  }
  return config;
}

/// Sets the process-global state the config names and prints it.
inline void apply(const BenchConfig& config) {
  rt::TimeScale::set(config.time_scale);
  Config::set_enabled(true);
  Config::set_order_delay(std::chrono::microseconds(200));
  Config::set_guard_wait_cap(std::chrono::milliseconds(2000));
  std::printf("(runs=%d per configuration, clock=%s, time_scale=%.3f: the "
              "paper's nominal waits run %.0fx faster; trial-jobs=%d%s)\n\n",
              config.runs, clock_name(config.clock), config.time_scale,
              1.0 / config.time_scale, config.jobs,
              config.jobs > 1 ? " — parallel trials" : "");
}

/// parse_args(), then apply().  A bench refuses (exit 2) a flag it
/// cannot honour rather than ignore it: a non-null `serial` is why it
/// refuses --trial-jobs > 1, a non-null `real_time` why it refuses
/// --clock=virtual.
inline BenchConfig setup(int argc, char** argv, int default_runs,
                         double default_scale, const char* serial,
                         const char* real_time) {
  const BenchConfig config =
      parse_args(argc, argv, default_runs, default_scale);
  if (config.jobs > 1 && serial != nullptr) {
    usage_error(argv[0], std::string("cannot honour --trial-jobs: ") + serial);
  }
  if (config.clock == rt::ClockMode::kVirtual && real_time != nullptr) {
    usage_error(argv[0],
                std::string("cannot honour --clock=virtual: ") + real_time);
  }
  apply(config);
  return config;
}

}  // namespace cbp::bench
