// Cross-process reproduction probabilities (Table 2's methodology taken
// across address spaces): the pre-fork httpdlike replica forks N worker
// processes over a shared-mmap scoreboard and routes its breakpoints
// through the per-machine trigger broker (src/broker).
//
// Three configurations, each `runs` trials:
//
//   with breakpoints    — the scope=process-group breakpoints park a
//                         worker inside the scoreboard's TOCTOU window;
//                         the trial reproduces the race iff a double-
//                         claim is observed.  The paper-style check: the
//                         observed race probability's 95% Wilson
//                         interval must overlap the predicted one (the
//                         breakpoint *hit* probability — every hit
//                         aligns the two claims, so hits predict races).
//   without breakpoints — the bare workload; the race window is a few
//                         instructions wide, so this stays near zero.
//   kill worker on hit  — worker 0 dies holding its OrderingGuard; the
//                         trial passes iff a survivor was released as
//                         peer-lost and nothing wedged.
//
// Exit 1 when the observed race interval misses the predicted one, or
// when any kill-mode trial fails.
//
// fork discipline: trials run serially from this single-threaded
// process (each trial forks its workers before starting its broker), so
// --trial-jobs > 1 is refused (exit 2).  A virtual clock cannot schedule
// foreign processes, so --clock=virtual is refused too.

#include <cstdio>
#include <iostream>

#include "apps/httpdlike/prefork.h"
#include "bench_util.h"
#include "harness/experiment.h"

int main(int argc, char** argv) {
  using namespace cbp;
  std::printf("=== Cross-process reproduction: pre-fork scoreboard race "
              "via the trigger broker ===\n");
  const auto config = bench::setup(
      argc, argv, /*default_runs=*/10, /*default_scale=*/1.0,
      "trials fork worker processes and run serially",
      "process-group breakpoints need kernel waits");

  apps::httpdlike::PreforkOptions base;
  base.workers = 4;
  base.requests_per_worker = 25000;
  base.pause = std::chrono::milliseconds(100);

  int with_races = 0, with_hits = 0, without_races = 0;
  int corrupt_trials = 0;
  std::uint64_t total_matches = 0, total_timeouts = 0;
  double with_seconds = 0.0, without_seconds = 0.0;

  for (int i = 0; i < config.runs; ++i) {
    auto options = base;
    options.breakpoints = true;
    options.seed = 1 + static_cast<std::uint64_t>(i);
    const auto outcome = apps::httpdlike::run_prefork_scoreboard(options);
    with_races += outcome.scoreboard_races > 0 ? 1 : 0;
    with_hits += outcome.broker_matches > 0 ? 1 : 0;
    corrupt_trials += outcome.corrupt_log_lines > 0 ? 1 : 0;
    total_matches += outcome.broker_matches;
    total_timeouts += outcome.broker_timeouts;
    with_seconds += outcome.runtime_seconds;
  }

  for (int i = 0; i < config.runs; ++i) {
    auto options = base;
    options.breakpoints = false;
    options.seed = 1 + static_cast<std::uint64_t>(i);
    const auto outcome = apps::httpdlike::run_prefork_scoreboard(options);
    without_races += outcome.scoreboard_races > 0 ? 1 : 0;
    without_seconds += outcome.runtime_seconds;
  }

  const int kill_runs = std::min(config.runs, 5);
  int kill_ok = 0;
  for (int i = 0; i < kill_runs; ++i) {
    auto options = base;
    options.breakpoints = true;
    options.kill_worker_on_hit = true;
    options.seed = 101 + static_cast<std::uint64_t>(i);
    const auto outcome = apps::httpdlike::run_prefork_scoreboard(options);
    if (outcome.worker_killed && !outcome.wedged &&
        (outcome.worker_peer_lost > 0 || outcome.broker_peer_lost > 0)) {
      ++kill_ok;
    }
  }

  const auto observed = harness::wilson_interval(with_races, config.runs);
  const auto predicted = harness::wilson_interval(with_hits, config.runs);
  const auto control = harness::wilson_interval(without_races, config.runs);
  const bool in_interval = observed.overlaps(predicted);

  harness::TextTable table({"Configuration", "Races/Runs", "Prob.",
                            "95% CI", "Avg s/run"});
  auto ci = [](const harness::ProbabilityInterval& w) {
    return "[" + harness::fmt_prob(w.low) + ", " + harness::fmt_prob(w.high) +
           "]";
  };
  table.add_row({"with breakpoints",
                 std::to_string(with_races) + "/" +
                     std::to_string(config.runs),
                 harness::fmt_prob(static_cast<double>(with_races) /
                                   config.runs),
                 ci(observed),
                 harness::fmt_seconds(with_seconds / config.runs)});
  table.add_row({"predicted (hit prob.)",
                 std::to_string(with_hits) + "/" + std::to_string(config.runs),
                 harness::fmt_prob(static_cast<double>(with_hits) /
                                   config.runs),
                 ci(predicted), "-"});
  table.add_row({"without breakpoints",
                 std::to_string(without_races) + "/" +
                     std::to_string(config.runs),
                 harness::fmt_prob(static_cast<double>(without_races) /
                                   config.runs),
                 ci(control),
                 harness::fmt_seconds(without_seconds / config.runs)});
  table.add_row({"kill worker on hit",
                 std::to_string(kill_ok) + "/" + std::to_string(kill_runs),
                 harness::fmt_prob(kill_runs == 0
                                       ? 0.0
                                       : static_cast<double>(kill_ok) /
                                             kill_runs),
                 "-", "-"});
  table.print(std::cout);

  std::printf("\nbroker: %llu matches, %llu timeouts across the armed runs; "
              "log corruption reproduced in %d/%d trials\n",
              static_cast<unsigned long long>(total_matches),
              static_cast<unsigned long long>(total_timeouts), corrupt_trials,
              config.runs);
  std::printf("observed race CI %s predicted hit CI -> %s\n",
              in_interval ? "overlaps" : "MISSES",
              in_interval ? "OK" : "FAIL");
  const bool kills_released = kill_ok == kill_runs;
  std::printf("%d/%d kill trials released their peer as peer-lost -> %s\n",
              kill_ok, kill_runs, kills_released ? "OK" : "FAIL");

  bench::JsonReport report("prefork", config.time_scale);
  report.add("prefork/race-prob-with-bp", base.workers,
             static_cast<double>(with_races) / config.runs, "probability");
  report.add("prefork/hit-prob", base.workers,
             static_cast<double>(with_hits) / config.runs, "probability");
  report.add("prefork/race-prob-without-bp", base.workers,
             static_cast<double>(without_races) / config.runs, "probability");
  report.add("prefork/kill-peer-lost", base.workers,
             kill_runs == 0 ? 0.0 : static_cast<double>(kill_ok) / kill_runs,
             "probability");
  report.flush(config.json_path);

  return in_interval && kills_released ? 0 : 1;
}
