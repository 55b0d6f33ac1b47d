// Experiment driver: repeated runs, empirical bug probability, runtime
// overhead, and mean-time-to-error — the measurements behind the
// paper's Tables 1 and 2 — plus a plain-text table renderer.
//
// Two execution paths produce the same statistics:
//
//   * serial   — run_repeated / measure_mtte: one trial at a time on the
//     calling thread's engine (Engine::current()), reset between trials;
//   * parallel — run_repeated_parallel / measure_mtte_parallel: a worker
//     pool where every worker owns a *private* cbp::Engine (isolated
//     intern table, slots, stats, specs, observers) and binds it to its
//     thread tree via ScopedEngine + rt::Thread inheritance.
//
// Trial i always runs with seed base + i (base = the seed passed in via
// RunOptions), independent of which worker claims it, so the parallel
// schedule is reproducible and a trial's workload is identical to what
// the serial path would have run for the same index.  Per-trial verdicts
// are recorded in RepeatedResult::trials for seed-by-seed comparison;
// for the timing-sensitive replicas (where hardware contention can
// legitimately flip a marginal race) use the Wilson intervals
// (hit_probability_ci / bug_probability_ci) to compare serial and
// parallel runs statistically instead of exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "apps/replica.h"

namespace cbp::harness {

using Runner = std::function<apps::RunOutcome(const apps::RunOptions&)>;

/// Verdict of one trial (one fresh-engine run of the workload).
struct TrialOutcome {
  std::uint64_t seed = 0;
  bool buggy = false;  ///< artifact != kNone
  bool hit = false;    ///< >= 1 breakpoint hit on the trial's engine
  double runtime_seconds = 0.0;
};

/// Wilson score interval for a binomial proportion.
struct ProbabilityInterval {
  double low = 0.0;
  double high = 1.0;

  /// True when the two intervals intersect — the statistical
  /// "serial and parallel agree" check used by tests and CI.
  [[nodiscard]] bool overlaps(const ProbabilityInterval& other) const {
    return low <= other.high && other.low <= high;
  }
};

/// Wilson score interval for `successes` out of `trials` at normal
/// quantile `z` (1.96 = 95%).  {0, 1} when trials == 0.
ProbabilityInterval wilson_interval(int successes, int trials,
                                    double z = 1.96);

/// Aggregate of N independent runs of one experiment configuration.
struct RepeatedResult {
  int runs = 0;
  int buggy_runs = 0;      ///< runs whose artifact matched (or any bug)
  int hit_runs = 0;        ///< runs with >= 1 breakpoint hit
  int hit_buggy_runs = 0;  ///< runs that hit AND exhibited the bug
  double mean_runtime_s = 0.0;
  double wall_clock_s = 0.0;  ///< elapsed time for the whole batch
  std::vector<TrialOutcome> trials;  ///< indexed by trial (seed base + i)

  [[nodiscard]] double bug_probability() const {
    return runs == 0 ? 0.0 : static_cast<double>(buggy_runs) / runs;
  }
  [[nodiscard]] double hit_probability() const {
    return runs == 0 ? 0.0 : static_cast<double>(hit_runs) / runs;
  }
  /// 95% Wilson intervals (see wilson_interval): the statistical form of
  /// the two probabilities, for serial-vs-parallel equivalence checks.
  [[nodiscard]] ProbabilityInterval bug_probability_ci(double z = 1.96) const {
    return wilson_interval(buggy_runs, runs, z);
  }
  [[nodiscard]] ProbabilityInterval hit_probability_ci(double z = 1.96) const {
    return wilson_interval(hit_runs, runs, z);
  }
};

/// Runs `runner` `runs` times serially; each run gets a fresh engine
/// (paper runs are fresh processes) and seed base+i, where base is
/// `options.seed` as passed in.  Counts a run as buggy when its artifact
/// is not kNone.  Uses Engine::current(), so it may itself be run under
/// a ScopedEngine binding.
RepeatedResult run_repeated(const Runner& runner, apps::RunOptions options,
                            int runs);

/// Parallel form: `jobs` workers, each with a private engine, pull trial
/// indices from a shared counter.  Identical seed assignment (base+i by
/// trial index, not by worker), identical per-trial accounting; trials
/// merge into one RepeatedResult at the join barrier.  jobs <= 1 falls
/// back to the serial path.
RepeatedResult run_repeated_parallel(const Runner& runner,
                                     apps::RunOptions options, int runs,
                                     int jobs);

/// An unarmed and an armed batch of the same trials (same seeds): the
/// paper's runtime columns 3-5, the armed batch's probabilities, and
/// the unarmed batch's bug rate as the unaided control.
struct OverheadResult {
  RepeatedResult normal;  ///< breakpoints off
  RepeatedResult armed;   ///< breakpoints on
  [[nodiscard]] double overhead_percent() const {
    const double normal_s = normal.mean_runtime_s;
    return normal_s <= 0.0
               ? 0.0
               : 100.0 * (armed.mean_runtime_s - normal_s) / normal_s;
  }
};

/// `jobs` > 1 runs each batch's trials through the parallel scheduler.
/// Per-run runtimes are measured inside the runner, so the ratio stays
/// meaningful under parallelism as long as workers don't oversubscribe
/// the machine.
OverheadResult measure_overhead(const Runner& runner,
                                apps::RunOptions options, int runs,
                                int jobs = 1);

/// Mean time to error for the continuously-running server replicas
/// (Table 2): re-executes the workload until `errors` bugs have been
/// observed and averages the elapsed time per error.
struct MtteResult {
  double mtte_s = 0.0;
  int errors = 0;
  int iterations = 0;
};

/// Serial MTTE; iteration i runs with seed base+i (base = options.seed).
MtteResult measure_mtte(const Runner& runner, apps::RunOptions options,
                        int errors_wanted, int max_iterations = 1000);

/// Parallel MTTE: workers with private engines claim iteration indices
/// (seed base+i) until the error budget or the iteration cap is hit.
/// In-flight iterations finish after the budget is reached, so
/// `iterations` may exceed the serial stopping point by up to jobs-1;
/// mtte_s is wall-clock elapsed over errors found, which is exactly what
/// parallelism improves.  jobs <= 1 falls back to the serial path.
MtteResult measure_mtte_parallel(const Runner& runner,
                                 apps::RunOptions options, int errors_wanted,
                                 int max_iterations, int jobs);

/// Minimal fixed-width text table.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);
  void add_row(std::vector<std::string> cells);
  void print(std::ostream& os) const;

 private:
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a probability like the paper ("1.00", "0.87").
std::string fmt_prob(double p);
/// Formats seconds with ms resolution.
std::string fmt_seconds(double s);
/// Formats a percentage ("5.5", "-6.8").
std::string fmt_percent(double p);

}  // namespace cbp::harness
