#include "harness/experiment.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <thread>

#include "core/cbp.h"
#include "model/probability.h"
#include "runtime/clock.h"
#include "runtime/thread_registry.h"
#include "runtime/vclock.h"

namespace cbp::harness {

ProbabilityInterval wilson_interval(int successes, int trials, double z) {
  // One implementation, owned by the model layer (placement shares it).
  const model::Interval w = model::wilson_interval(successes, trials, z);
  return {w.low, w.high};
}

namespace {

/// Shared accounting: folds the per-trial verdicts into the aggregate
/// counters (same arithmetic for the serial and parallel paths).
void finalize(RepeatedResult& result) {
  double total_runtime = 0.0;
  for (const TrialOutcome& trial : result.trials) {
    if (trial.buggy) ++result.buggy_runs;
    if (trial.hit) ++result.hit_runs;
    if (trial.hit && trial.buggy) ++result.hit_buggy_runs;
    total_runtime += trial.runtime_seconds;
  }
  result.mean_runtime_s =
      result.runs == 0 ? 0.0 : total_runtime / result.runs;
}

/// Runs the replica under the trial's clock policy (options.clock).
/// kVirtual gets a *fresh* discrete-event clock per trial — trials stay
/// independent and deterministic regardless of which worker runs them —
/// bound to this thread and inherited by the replica's rt::Thread tree.
apps::RunOutcome run_with_clock(const Runner& runner,
                                apps::RunOptions& options) {
  switch (options.clock) {
    case rt::ClockMode::kVirtual: {
      rt::VirtualClock vclock;
      rt::ScopedClock bind(&vclock);
      return runner(options);
    }
    case rt::ClockMode::kReal: {
      rt::ScopedClock bind(&rt::real_clock());
      return runner(options);
    }
    case rt::ClockMode::kScaled:
      break;  // historical behaviour: global TimeScale, no binding
  }
  return runner(options);
}

/// One trial against `engine`: fresh reset, deterministic seed, verdict.
TrialOutcome run_one_trial(Engine& engine, const Runner& runner,
                           apps::RunOptions& options, std::uint64_t seed) {
  engine.reset();  // each trial models a fresh process
  options.seed = seed;
  const apps::RunOutcome outcome = run_with_clock(runner, options);
  TrialOutcome trial;
  trial.seed = seed;
  trial.buggy = outcome.buggy();
  trial.hit = engine.total_stats().hits > 0;
  trial.runtime_seconds = outcome.runtime_seconds;
  return trial;
}

}  // namespace

RepeatedResult run_repeated(const Runner& runner, apps::RunOptions options,
                            int runs) {
  RepeatedResult result;
  result.runs = runs;
  result.trials.resize(static_cast<std::size_t>(std::max(0, runs)));
  Engine& engine = Engine::current();
  const std::uint64_t base = options.seed;
  rt::Stopwatch wall;
  for (int i = 0; i < runs; ++i) {
    result.trials[static_cast<std::size_t>(i)] =
        run_one_trial(engine, runner, options,
                      base + static_cast<std::uint64_t>(i));
  }
  engine.reset();
  result.wall_clock_s = wall.elapsed_seconds();
  finalize(result);
  return result;
}

RepeatedResult run_repeated_parallel(const Runner& runner,
                                     apps::RunOptions options, int runs,
                                     int jobs) {
  jobs = std::min(jobs, runs);
  if (jobs <= 1) return run_repeated(runner, options, runs);

  RepeatedResult result;
  result.runs = runs;
  result.trials.resize(static_cast<std::size_t>(runs));
  const std::uint64_t base = options.seed;
  std::atomic<int> next_trial{0};
  rt::ParallelRegion region;  // pin the thread-id epoch for the duration
  rt::Stopwatch wall;

  // Workers are plain std::threads (no context inheritance wanted here:
  // each binds its own private engine).  Trial index -> seed is fixed
  // before any worker starts, so which worker claims a trial changes
  // nothing about the trial itself.  trials[] slots are written by
  // exactly one worker and read only after the join barrier.
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(jobs));
  for (int w = 0; w < jobs; ++w) {
    workers.emplace_back([&, options]() mutable {
      Engine engine;
      ScopedEngine bind(engine);
      for (int i = next_trial.fetch_add(1, std::memory_order_relaxed);
           i < runs; i = next_trial.fetch_add(1, std::memory_order_relaxed)) {
        result.trials[static_cast<std::size_t>(i)] =
            run_one_trial(engine, runner, options,
                          base + static_cast<std::uint64_t>(i));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  result.wall_clock_s = wall.elapsed_seconds();
  finalize(result);
  return result;
}

OverheadResult measure_overhead(const Runner& runner,
                                apps::RunOptions options, int runs,
                                int jobs) {
  OverheadResult result;
  options.breakpoints = false;
  result.normal = run_repeated_parallel(runner, options, runs, jobs);
  options.breakpoints = true;
  result.armed = run_repeated_parallel(runner, options, runs, jobs);
  return result;
}

MtteResult measure_mtte(const Runner& runner, apps::RunOptions options,
                        int errors_wanted, int max_iterations) {
  MtteResult result;
  Engine& engine = Engine::current();
  const std::uint64_t base = options.seed;
  rt::Stopwatch clock;
  for (int i = 0; i < max_iterations && result.errors < errors_wanted; ++i) {
    engine.reset();
    options.seed = base + static_cast<std::uint64_t>(i);
    const apps::RunOutcome outcome = run_with_clock(runner, options);
    ++result.iterations;
    if (outcome.buggy()) ++result.errors;
  }
  engine.reset();
  result.mtte_s =
      result.errors == 0 ? 0.0 : clock.elapsed_seconds() / result.errors;
  return result;
}

MtteResult measure_mtte_parallel(const Runner& runner,
                                 apps::RunOptions options, int errors_wanted,
                                 int max_iterations, int jobs) {
  jobs = std::min(jobs, max_iterations);
  if (jobs <= 1) {
    return measure_mtte(runner, options, errors_wanted, max_iterations);
  }

  MtteResult result;
  const std::uint64_t base = options.seed;
  std::atomic<int> next_iteration{0};
  std::atomic<int> errors{0};
  std::atomic<int> iterations{0};
  rt::ParallelRegion region;
  rt::Stopwatch clock;

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(jobs));
  for (int w = 0; w < jobs; ++w) {
    workers.emplace_back([&, options]() mutable {
      Engine engine;
      ScopedEngine bind(engine);
      while (errors.load(std::memory_order_relaxed) < errors_wanted) {
        const int i = next_iteration.fetch_add(1, std::memory_order_relaxed);
        if (i >= max_iterations) break;
        engine.reset();
        options.seed = base + static_cast<std::uint64_t>(i);
        const apps::RunOutcome outcome = run_with_clock(runner, options);
        iterations.fetch_add(1, std::memory_order_relaxed);
        if (outcome.buggy()) errors.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  result.errors = std::min(errors.load(), errors_wanted);
  result.iterations = iterations.load();
  result.mtte_s =
      result.errors == 0 ? 0.0 : clock.elapsed_seconds() / result.errors;
  return result;
}

TextTable::TextTable(std::vector<std::string> header) {
  rows_.push_back(std::move(header));
}

void TextTable::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> widths;
  for (const auto& row : rows_) {
    if (row.size() > widths.size()) widths.resize(row.size(), 0);
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    const auto& row = rows_[r];
    os << "  ";
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << row[c];
      if (c + 1 < row.size()) {
        os << std::string(widths[c] - row[c].size() + 2, ' ');
      }
    }
    os << '\n';
    if (r == 0) {
      std::size_t total = 2;
      for (std::size_t c = 0; c < widths.size(); ++c) {
        total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
      }
      os << "  " << std::string(total, '-') << '\n';
    }
  }
}

std::string fmt_prob(double p) {
  char buffer[16];
  std::snprintf(buffer, sizeof(buffer), "%.2f", p);
  return buffer;
}

std::string fmt_seconds(double s) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", s);
  return buffer;
}

std::string fmt_percent(double p) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1f", p);
  return buffer;
}

}  // namespace cbp::harness
