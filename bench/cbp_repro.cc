// cbp-repro: the paper's experiments, one per invocation.
//
//   cbp-repro <experiment> [<runs> [<time_scale>]] [--json <path>]
//             [--trial-jobs=N] [--clock=real|scaled|virtual]
//
// Each experiment records every value it measures once, as a
// bench::JsonReport row; the printed table and the --json document are
// both rendered from those rows (bench_util.h).  An experiment that
// cannot honour a --trial-jobs or --clock value exits 2 with the usage
// line instead of silently running something else.  See DESIGN.md's
// experiment index for which experiment reproduces which table.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "apps/cache/cache.h"
#include "apps/compress/pbzip2.h"
#include "apps/crawler/crawler.h"
#include "apps/kernels/kernels.h"
#include "apps/logging/async_appender.h"
#include "apps/strbuf/string_buffer.h"
#include "apps/swinglike/swing.h"
#include "bench_util.h"
#include "fuzz/explore.h"
#include "fuzz/noise.h"
#include "fuzz/pct.h"
#include "harness/experiment.h"
#include "harness/registry.h"
#include "instrument/hub.h"
#include "instrument/shared_var.h"
#include "model/probability.h"
#include "model/schedule_sim.h"
#include "replay/recorder.h"
#include "replay/replayer.h"
#include "runtime/context.h"
#include "runtime/latch.h"
#include "runtime/rng.h"
#include "runtime/vclock.h"

namespace {

using namespace cbp;
using bench::BenchConfig;
using bench::JsonReport;
using bench::Row;
using std::chrono::milliseconds;

/// An experiment fills the report and returns its gate failures, one
/// "FAIL: ..." line each ("" when it has no gate or passes).
using Run = std::string (*)(const BenchConfig&, JsonReport&);

apps::RunOutcome swing_deadlock1(const apps::RunOptions& options,
                                 bool refined) {
  apps::swinglike::SwingOptions swing;
  swing.base = options;
  swing.refined = refined;
  return apps::swinglike::run_deadlock1(swing);
}

// --- Table 1 ----------------------------------------------------------------

/// Table 1's row names: "benchmark/bug", plus the comment for the bugs
/// the paper lists at two waits ("hedc/race1/wait=100ms").
std::vector<std::string> table1_keys(
    const std::vector<harness::Table1Case>& cases) {
  std::vector<std::string> names;
  for (const auto& row : cases) names.push_back(row.benchmark + "/" + row.bug);
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const bool repeated =
        std::count(names.begin(), names.end(), names[i]) > 1;
    keys.push_back(repeated ? names[i] + "/" + cases[i].comment : names[i]);
  }
  return keys;
}

std::string table1(const BenchConfig& config, JsonReport& report) {
  report.section("", "Benchmark/bug");
  const int n = config.runs;
  const auto cases = harness::table1_cases();
  const auto keys = table1_keys(cases);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const harness::Table1Case& row = cases[i];
    const std::string& key = keys[i];
    const apps::RunOptions options{.pause = row.pause,
                                   .work_scale = row.work_scale,
                                   .stall_after = milliseconds(4000),
                                   .clock = config.clock};
    // One unarmed and one armed batch with the same seeds: the armed
    // batch gives the probabilities, the unarmed one the control rate.
    const auto batches =
        harness::measure_overhead(row.runner, options, n, config.jobs);
    const harness::RepeatedResult& armed = batches.armed;
    report.note(key, "LoC", row.paper_loc);
    report.add(key, "Normal(s)", "normal_runtime",
               batches.normal.mean_runtime_s, "s", n);
    // The paper omits runtime and overhead for stall bugs: the armed
    // runtime is the time to detect the stall, not work.
    if (row.error != "stall") {
      report.add(key, "w/ctr(s)", "armed_runtime", armed.mean_runtime_s, "s",
                 n);
      report.add(key, "Ovh(%)", "overhead", batches.overhead_percent(), "%",
                 n);
    }
    report.note(key, "Error", row.error);
    report.add_rate(key, "Prob", "", armed.hit_buggy_runs, n);
    report.add_rate(key, "P(bug)", "bug_probability", armed.buggy_runs, n);
    report.add_rate(key, "P(hit)", "hit_probability", armed.hit_runs, n);
    report.add_rate(key, "Control", "control_probability",
                    batches.normal.buggy_runs, n);
    report.note(key, "Paper", harness::fmt_prob(row.paper_prob));
    report.add(key, "Wall(s)", "wall_clock", armed.wall_clock_s, "s", n);
    report.note(key, "Comments", row.comment);
  }
  return {};
}

// --- Table 2 ----------------------------------------------------------------

std::string table2(const BenchConfig& config, JsonReport& report) {
  report.section("", "Benchmark");
  for (const harness::Table2Case& row : harness::table2_cases()) {
    const apps::RunOptions options{.stall_after = milliseconds(4000),
                                   .clock = config.clock};
    const auto mtte = harness::measure_mtte_parallel(
        row.runner, options, /*errors_wanted=*/config.runs,
        /*max_iterations=*/config.runs * 50, config.jobs);
    const std::string& key = row.benchmark;
    report.note(key, "LoC", row.paper_loc);
    report.note(key, "Error", row.error);
    report.add(key, "MTTE(s)", "mtte", mtte.mtte_s, "s", mtte.iterations);
    report.note(key, "Paper MTTE(s)", harness::fmt_seconds(row.paper_mtte_s));
    report.note(key, "#CBR", std::to_string(row.breakpoints));
    report.add(key, "Errors", "errors", mtte.errors, "count", mtte.iterations);
    report.add(key, "Runs", "iterations", mtte.iterations, "count");
    report.note(key, "Comments", row.comment);
  }
  return {};
}

// --- §5 Methodology II --------------------------------------------------------

/// The log4j AsyncAppender with the `first -> second` resolution armed,
/// as a trial whose artifact is the stall.
harness::Runner resolve(
    apps::logging::Site first, apps::logging::Site second,
    std::chrono::microseconds jitter =
        apps::logging::MethodologyIIOptions{}.jitter) {
  return [=](const apps::RunOptions& options) {
    apps::logging::MethodologyIIOptions m2;
    m2.breakpoints = options.breakpoints;
    m2.first = first;
    m2.second = second;
    m2.pause = options.pause;
    m2.stall_after = options.stall_after;
    m2.seed = options.seed;
    m2.jitter = jitter;
    const auto result = apps::logging::run_methodology2(m2);
    apps::RunOutcome outcome;
    outcome.runtime_seconds = result.runtime_seconds;
    if (result.stalled) outcome.artifact = rt::Artifact::kStall;
    return outcome;
  };
}

std::string method2(const BenchConfig& config, JsonReport& report) {
  using apps::logging::Site;
  struct Resolution {
    Site first;
    Site second;
    const char* key;
    const char* paper_stall;  // the paper's §5 step 3 table
    const char* paper_hit;
  };
  const Resolution resolutions[] = {
      {Site::kAppend, Site::kDispatch, "100->309", "0.00", "1.00"},
      {Site::kDispatch, Site::kAppend, "309->100", "0.00", "1.00"},
      {Site::kSetBufferSize, Site::kDispatch, "236->309", "1.00", "1.00"},
      {Site::kDispatch, Site::kSetBufferSize, "309->236", "0.00", "1.00"},
      {Site::kAppend, Site::kSetBufferSize, "100->236", "0.00", "1.00"},
      {Site::kSetBufferSize, Site::kAppend, "236->100", "0.00", "1.00"},
      {Site::kDispatch, Site::kClose, "309->277", "0.97", "0.03"},
      {Site::kClose, Site::kDispatch, "277->309", "0.99", "0.01"},
  };
  report.section("", "Resolve order");
  apps::RunOptions options{.pause = milliseconds(200),
                           .stall_after = milliseconds(2000),
                           .clock = config.clock};
  for (const Resolution& r : resolutions) {
    const auto result = harness::run_repeated_parallel(
        resolve(r.first, r.second), options, config.runs, config.jobs);
    report.add_rate(r.key, "Stall", "stall", result.buggy_runs, config.runs);
    report.add_rate(r.key, "BP hit", "hit", result.hit_runs, config.runs);
    report.note(r.key, "Paper stall", r.paper_stall);
    report.note(r.key, "Paper hit", r.paper_hit);
  }
  // The control: the stock program, no breakpoint, with scheduling
  // jitter calibrated to the paper's "in 5 out of 100 test executions,
  // the program would stall".
  options.pause = milliseconds(0);
  options.breakpoints = false;
  const int natural_runs = config.runs * 3;
  const auto natural = harness::run_repeated_parallel(
      resolve(Site::kSetBufferSize, Site::kDispatch,
              std::chrono::microseconds(180'000)),
      options, natural_runs, config.jobs);
  report.add_rate("no_breakpoint", "Stall", "stall", natural.buggy_runs,
                  natural_runs);
  report.note("no_breakpoint", "Paper stall", "~0.05");
  return {};
}

// --- §6.2 pause time ------------------------------------------------------------

std::string pause_time(const BenchConfig& config, JsonReport& report) {
  struct Subject {
    const char* key;
    harness::Runner runner;
    const char* paper_100ms;
    const char* paper_1s;
  };
  const Subject subjects[] = {
      {"hedc_race1", apps::crawler::run_race1, "0.87", "1.00"},
      {"swing_deadlock1",
       [](const apps::RunOptions& o) { return swing_deadlock1(o, true); },
       "0.63", "0.99"},
  };
  report.section("", "Subject/T");
  for (const Subject& subject : subjects) {
    for (const int t : {50, 100, 200, 500, 1000, 2000}) {
      const apps::RunOptions options{.pause = milliseconds(t),
                                     .stall_after = milliseconds(8000),
                                     .clock = config.clock};
      const auto result = harness::run_repeated_parallel(
          subject.runner, options, config.runs, config.jobs);
      const std::string key =
          std::string(subject.key) + "/T=" + std::to_string(t) + "ms";
      report.add_rate(key, "P(bug)", "", result.buggy_runs, config.runs);
      report.add(key, "Mean run(s)", "runtime", result.mean_runtime_s, "s",
                 config.runs);
      report.note(key, "Paper",
                  t == 100 ? subject.paper_100ms
                           : (t == 1000 ? subject.paper_1s : "-"));
    }
  }
  return {};
}

// --- §6.3 precision -------------------------------------------------------------

std::string precision(const BenchConfig& config, JsonReport& report) {
  struct Refinement {
    const char* subject;
    const char* key;
    std::string label;
    harness::Runner unrefined;
    harness::Runner refined;
    int pause_ms;
  };
  const Refinement refinements[] = {
      {"cache4j_atomicity1", "ignore_first",
       "ignoreFirst=" + std::to_string(apps::cache::kWarmupConstructions),
       [](const apps::RunOptions& o) {
         return apps::cache::run_atomicity1(o, 0);
       },
       [](const apps::RunOptions& o) {
         return apps::cache::run_atomicity1(
             o, apps::cache::kWarmupConstructions);
       },
       100},
      {"moldyn_race1", "bound", "bound=4",
       [](const apps::RunOptions& o) {
         return apps::kernels::run_moldyn_race1(o, UINT64_MAX);
       },
       [](const apps::RunOptions& o) {
         return apps::kernels::run_moldyn_race1(
             o, apps::kernels::kMoldynRace1Bound);
       },
       100},
      {"swing_deadlock1", "lock_type_held", "isLockTypeHeld(BasicCaret)",
       [](const apps::RunOptions& o) { return swing_deadlock1(o, false); },
       [](const apps::RunOptions& o) { return swing_deadlock1(o, true); },
       500},
  };
  report.section("", "Subject/refinement");
  for (const Refinement& r : refinements) {
    const apps::RunOptions options{.pause = milliseconds(r.pause_ms),
                                   .stall_after = milliseconds(8000),
                                   .clock = config.clock};
    const auto base = harness::run_repeated_parallel(r.unrefined, options,
                                                     config.runs, config.jobs);
    const auto fast = harness::run_repeated_parallel(r.refined, options,
                                                     config.runs, config.jobs);
    auto record = [&](const std::string& key, const std::string& label,
                      const harness::RepeatedResult& result) {
      report.note(key, "Refinement", label);
      report.add(key, "Runtime(s)", "runtime", result.mean_runtime_s, "s",
                 config.runs);
      report.add_rate(key, "P(bug)", "", result.buggy_runs, config.runs);
    };
    const std::string subject = r.subject;
    record(subject + "/none", "none", base);
    record(subject + "/" + r.key, r.label, fast);
    report.add(subject + "/" + r.key, "Speedup", "speedup",
               base.mean_runtime_s / std::max(1e-9, fast.mean_runtime_s),
               "x", config.runs);
  }
  return {};
}

// --- §3 probability model -------------------------------------------------------

/// Live validation: two real threads, N steps of `step_us` microseconds,
/// m breakpoint visits at random steps, pause T = pause_steps * step_us.
/// Returns the number of trials that hit.
int live_hits(int n_steps, int m_visits, int pause_steps, int trials,
              int step_us) {
  int hits = 0;
  rt::Rng rng(7);
  for (int trial = 0; trial < trials; ++trial) {
    Engine::instance().reset();
    const auto pause = std::chrono::microseconds(pause_steps * step_us);
    int dummy = 0;
    rt::StartGate gate;
    auto body = [&](rt::Rng thread_rng) {
      // Pick m distinct visit steps.
      std::vector<int> visits;
      while (static_cast<int>(visits.size()) < m_visits) {
        const int step = static_cast<int>(
            thread_rng.next_below(static_cast<std::uint64_t>(n_steps)));
        if (std::find(visits.begin(), visits.end(), step) == visits.end()) {
          visits.push_back(step);
        }
      }
      gate.wait();
      for (int step = 0; step < n_steps; ++step) {
        if (std::find(visits.begin(), visits.end(), step) != visits.end()) {
          ConflictTrigger trigger("live-model", &dummy);
          Engine::current().trigger(trigger, 0, 2, pause, /*scoped=*/false);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(step_us));
      }
    };
    std::thread a(body, rng.split());
    std::thread b(body, rng.split());
    gate.open();
    a.join();
    b.join();
    if (Engine::instance().stats("live-model").hits > 0) ++hits;
  }
  Engine::instance().reset();
  return hits;
}

std::string probability_model(const BenchConfig& config,
                              JsonReport& report) {
  constexpr int kSimTrials = 30'000;
  auto simulate = [&](const std::string& key, std::uint64_t n,
                      std::uint64_t m, std::uint64_t t) {
    model::SimParams params;
    params.n_steps = n;
    params.m_visits = m;
    params.big_m_visits = m;
    params.pause_steps = t;
    params.trials = kSimTrials;
    report
        .add_rate(key, "P simulated", "simulated",
                  static_cast<int>(model::simulate(params).hits), kSimTrials)
        .seed = params.seed;
  };

  report.section("--- unaided: P = 1 - C(N-m,m)/C(N,m), bound "
                 "1-(1-m/(N-m+1))^m ---",
                 "N,m");
  for (const std::uint64_t n : {1000ULL, 10'000ULL}) {
    for (const std::uint64_t m : {2ULL, 5ULL, 10ULL}) {
      const std::string key =
          "unaided/N=" + std::to_string(n) + ",m=" + std::to_string(m);
      report.add(key, "P exact", "exact", model::p_hit_unaided(n, m),
                 "probability");
      simulate(key, n, m, 1);
      report.add(key, "bound", "bound", model::p_hit_unaided_bound(n, m),
                 "probability");
    }
  }

  report.section("--- BTRIGGER: P >= 1-(1-mT/(N+MT-M))^m, gain "
                 ">= T(N-m+1)/(N+MT-M) ---",
                 "N,m,T");
  const std::uint64_t n = 10'000;
  const std::uint64_t m = 5;
  for (const std::uint64_t t : {1ULL, 10ULL, 50ULL, 200ULL, 1000ULL}) {
    const std::string key = "btrigger/N=10000,m=5,T=" + std::to_string(t);
    report.add(key, "P formula", "formula", model::p_hit_btrigger(n, m, m, t),
               "probability");
    simulate(key, n, m, t);
    report.add(key, "gain factor", "gain", model::gain_factor(n, m, m, t),
               "x");
  }

  report.section("--- precision: smaller M (more precise local predicate) "
                 "raises P at fixed m, T=100 ---",
                 "M");
  for (const std::uint64_t big_m : {5ULL, 25ULL, 100ULL, 500ULL}) {
    report.add("precision/M=" + std::to_string(big_m), "P formula", "formula",
               model::p_hit_btrigger(n, m, big_m, 100), "probability");
  }

  report.section("--- live validation: 2 real threads, N=300 steps x 100us, "
                 "m=3 ---",
                 "T (steps)");
  for (const int t : {1, 10, 60}) {
    const std::string key = "live/T=" + std::to_string(t);
    report
        .add_rate(key, "P live", "measured",
                  live_hits(/*n_steps=*/300, /*m_visits=*/3,
                            /*pause_steps=*/t, config.runs, /*step_us=*/100),
                  config.runs)
        .seed = 7;
    report.add(key, "P formula (lower bound)", "formula",
               model::p_hit_btrigger(300, 3, 3, static_cast<std::uint64_t>(t)),
               "probability");
  }
  return {};
}

// --- Baselines ------------------------------------------------------------------

std::string baselines(const BenchConfig& config, JsonReport& report) {
  struct Subject {
    const char* key;
    harness::Runner runner;
  };
  const Subject subjects[] = {
      {"stringbuffer_atomicity1", apps::strbuf::run_atomicity1},
      {"pbzip2_crash", apps::compress::run_crash},
  };
  report.section("", "Subject/technique");
  for (const Subject& subject : subjects) {
    apps::RunOptions armed{.stall_after = milliseconds(4000),
                           .clock = config.clock};
    apps::RunOptions plain = armed;
    plain.breakpoints = false;

    auto record = [&](const char* technique, instr::Listener* listener,
                      const apps::RunOptions& options) {
      std::optional<instr::ScopedListener> registration;
      if (listener != nullptr) registration.emplace(*listener);
      const auto result =
          harness::run_repeated(subject.runner, options, config.runs);
      const std::string key = std::string(subject.key) + "/" + technique;
      report.add_rate(key, "P(bug)", "", result.buggy_runs, config.runs);
      report.add(key, "Mean run(s)", "runtime", result.mean_runtime_s, "s",
                 config.runs);
    };
    // stress: no breakpoint, no perturbation — the unaided control rate.
    record("stress", nullptr, plain);
    fuzz::NoiseOptions noise_options;  // ConTest-like random sleeps
    noise_options.probability = 0.25;
    noise_options.min_sleep = std::chrono::microseconds(50);
    noise_options.max_sleep = std::chrono::microseconds(2000);
    fuzz::NoiseInjector injector(noise_options);
    record("noise", &injector, plain);
    fuzz::PctOptions pct_options;
    pct_options.depth = 3;
    pct_options.delay_unit = std::chrono::microseconds(300);
    fuzz::PctLiteScheduler scheduler(pct_options);
    record("pct_lite", &scheduler, plain);
    record("btrigger", nullptr, armed);
  }
  return {};
}

// --- §7 record/replay contrast -------------------------------------------------

constexpr int kOpsPerThread = 40;

/// Two threads do kOpsPerThread increments each; one chosen increment
/// per thread goes through the racy (breakpoint-widened) window.  True
/// iff an update was lost.
bool lost_update(bool armed, instr::Listener* listener) {
  instr::SharedVar<int> counter{0};
  std::optional<instr::ScopedListener> registration;
  if (listener != nullptr) registration.emplace(*listener);
  rt::StartGate gate;
  auto worker = [&](int role) {
    if (auto* replayer = dynamic_cast<replay::Replayer*>(listener)) {
      replayer->bind_this_thread(role);
    }
    if (auto* recorder = dynamic_cast<replay::Recorder*>(listener)) {
      recorder->bind_this_thread(role);
    }
    gate.wait();
    for (int i = 0; i < kOpsPerThread; ++i) {
      const int value = counter.read();
      if (armed && i == kOpsPerThread / 2) {
        ConflictTrigger trigger("ablation-race", counter.address());
        trigger.trigger_here(true, milliseconds(200));
      }
      counter.write(value + 1);
    }
  };
  std::thread a(worker, 0);
  std::thread b(worker, 1);
  gate.open();
  a.join();
  b.join();
  return counter.peek() < 2 * kOpsPerThread;
}

std::string replay_contrast(const BenchConfig& config, JsonReport& report) {
  report.section("", "Technique");
  const int runs = config.runs;
  auto record = [&](const char* key, int buggy, int n, double seconds,
                    std::size_t events, const char* notes) {
    report.add_rate(key, "P(bug)", "", buggy, n);
    report.add(key, "Mean run(s)", "runtime", seconds / n, "s", n);
    report.add(key, "Intercepted events", "events",
               static_cast<double>(events), "count");
    report.note(key, "Notes", notes);
  };
  // stress: the unaided control rate.
  Config::set_enabled(false);
  int buggy = 0;
  rt::Stopwatch clock;
  for (int i = 0; i < runs; ++i) buggy += lost_update(false, nullptr) ? 1 : 0;
  record("stress", buggy, runs, clock.elapsed_seconds(), 0,
         "bug essentially never recurs");

  Config::set_enabled(true);
  buggy = 0;
  clock.restart();
  for (int i = 0; i < runs; ++i) {
    Engine::instance().reset();
    buggy += lost_update(true, nullptr) ? 1 : 0;
  }
  record("breakpoint", buggy, runs, clock.elapsed_seconds(), 2,
         "two trigger_here sites");

  // Record once (the breakpoint forces the bug), replay many.
  Engine::instance().reset();
  replay::Recorder recorder;
  clock.restart();
  const bool recorded_bug = lost_update(true, &recorder);
  const replay::Trace trace = recorder.trace();
  record("record", recorded_bug ? 1 : 0, 1, clock.elapsed_seconds(),
         trace.size(), "full access trace captured");

  Config::set_enabled(false);
  buggy = 0;
  int diverged = 0;
  clock.restart();
  for (int i = 0; i < runs; ++i) {
    replay::Replayer replayer(trace);
    buggy += lost_update(false, &replayer) ? 1 : 0;
    diverged += replayer.diverged() ? 1 : 0;
  }
  record("replay", buggy, runs, clock.elapsed_seconds(), trace.size(),
         "no breakpoints");
  report.add("replay", "Divergences", "divergences", diverged, "count", runs);
  Config::set_enabled(true);
  return {};
}

// --- §7 systematic-exploration contrast ------------------------------------------

/// Per-role op sequence: N increments = N (read, write) pairs.
std::vector<replay::TraceOp> role_ops(int role, int increments) {
  std::vector<replay::TraceOp> ops;
  for (int i = 0; i < increments; ++i) {
    ops.push_back({role, replay::TraceOp::Kind::kRead, 0});
    ops.push_back({role, replay::TraceOp::Kind::kWrite, 0});
  }
  return ops;
}

/// Replays the two-thread increment workload under `trace`; true iff an
/// update was lost.  Under --clock=virtual each replay runs inside a
/// private discrete-event clock: the replayer's 300 µs pacing sleeps and
/// divergence timeouts become virtual, so the search pays only CPU.
bool run_under_trace(const replay::Trace& trace, int increments,
                     rt::ClockMode mode) {
  instr::SharedVar<int> counter{0};
  replay::Replayer replayer(trace);
  replayer.set_step_delay(std::chrono::microseconds(300));
  instr::ScopedListener registration(replayer);
  std::optional<rt::VirtualClock> vclock;
  std::optional<rt::ScopedClock> bound;
  if (mode == rt::ClockMode::kVirtual) {
    vclock.emplace();
    bound.emplace(&*vclock);
  }
  rt::StartGate gate;
  auto worker = [&](int role) {
    replayer.bind_this_thread(role);
    gate.wait();
    for (int i = 0; i < increments; ++i) {
      const int value = counter.read();
      counter.write(value + 1);
    }
  };
  rt::Thread a(worker, 0);
  rt::Thread b(worker, 1);
  gate.open();
  a.join();
  b.join();
  return !replayer.diverged() && counter.peek() < 2 * increments;
}

std::string explore_contrast(const BenchConfig& config,
                             JsonReport& report) {
  report.section("", "N (ops/thread)");
  for (const int increments : {1, 2, 3, 4}) {
    const auto r0 = role_ops(0, increments);
    const auto r1 = role_ops(1, increments);
    // The witness: the tightly alternating interleaving, deep in the
    // lexicographic enumeration.
    replay::Trace witness;
    for (std::size_t i = 0; i < r0.size(); ++i) {
      witness.ops.push_back(r0[i]);
      witness.ops.push_back(r1[i]);
    }
    // "Found the failure" = this replayed schedule loses an update AND
    // is the observed witness interleaving.
    auto is_the_failure = [&](const replay::Trace& trace) {
      return trace.ops == witness.ops &&
             run_under_trace(trace, increments, config.clock);
    };
    fuzz::ExploreOptions full;
    full.max_schedules = 200'000;
    const auto unbounded =
        fuzz::explore_schedules(r0, r1, is_the_failure, full);
    fuzz::ExploreOptions bounded = full;
    bounded.context_bound = 4 * increments;  // the witness switches 4N-1 times
    const auto ctx = fuzz::explore_schedules(r0, r1, is_the_failure, bounded);

    const std::string key = "N=" + std::to_string(increments);
    report.add(key, "Interleavings", "interleavings",
               static_cast<double>(
                   fuzz::interleaving_count(r0.size(), r1.size())),
               "count");
    report.add(key, "Schedules to witness (full)", "schedules_full",
               static_cast<double>(unbounded.schedules_run), "count");
    report.add(key, "Schedules (ctx-bounded)", "schedules_ctx_bounded",
               static_cast<double>(ctx.schedules_run + ctx.schedules_skipped),
               "count");
    report.note(key, "Breakpoint runs", "1");
    if (unbounded.buggy_schedules == 0 || ctx.buggy_schedules == 0) {
      report.note(key, "Note", "witness not found");
    }
  }
  return {};
}

// --- Serial vs parallel trials ----------------------------------------------------

/// Scale of the scaled-clock reference leg under --clock=virtual: the
/// suite default, so the reference matches BENCH_trials.json.
constexpr double kScaledReferenceScale = 0.02;

/// Trials whose (seed, buggy, hit) verdicts match exactly.
int matching_trials(const harness::RepeatedResult& a,
                    const harness::RepeatedResult& b) {
  int matching = 0;
  for (std::size_t i = 0; i < a.trials.size() && i < b.trials.size(); ++i) {
    const auto& x = a.trials[i];
    const auto& y = b.trials[i];
    if (x.seed == y.seed && x.buggy == y.buggy && x.hit == y.hit) ++matching;
  }
  return matching;
}

// The same Table 1 batches through the serial and the parallel
// scheduler (trial i carries seed base+i on both).  The parallel leg's
// probabilities must agree with the serial leg's (95% Wilson intervals
// overlap: hardware contention can flip a marginal race).  Under
// --clock=virtual (DESIGN.md §5g) trials run at the paper's nominal T
// and are deterministic, so the serial and parallel legs must agree
// exactly seed by seed, and the virtual probabilities are compared with
// a serial scaled-clock reference instead.
std::string trials(const BenchConfig& config, JsonReport& report) {
  // Without an explicit --trial-jobs, compare against 8 workers.
  const int jobs = config.jobs > 1 ? config.jobs : 8;
  const bool virt = config.clock == rt::ClockMode::kVirtual;
  struct Leg {
    std::string name;
    int threads;
    rt::ClockMode clock;
    harness::RepeatedResult result;
    double total_s = 0.0;
  };
  std::vector<Leg> legs;
  if (virt) legs.push_back({"scaled_serial", 1, rt::ClockMode::kScaled, {}});
  legs.push_back({virt ? "virtual_serial" : "serial", 1, config.clock, {}});
  legs.push_back(
      {virt ? "virtual_parallel" : "parallel", jobs, config.clock, {}});
  Leg& serial = legs[legs.size() - 2];
  Leg& parallel = legs.back();
  // The pair whose probabilities are gated, and their labels.
  Leg& reference = legs.front();
  const Leg& compared = virt ? serial : parallel;
  const char* labels[] = {virt ? "scaled" : "serial",
                          virt ? "virtual" : "parallel"};

  report.section("", "Benchmark/bug");
  auto add_legs = [&](const std::string& key, auto seconds) {
    for (const Leg& leg : legs) {
      Row& row = report.add(key, leg.name + "(s)", leg.name + "_wall_clock",
                            seconds(leg), "s", config.runs);
      row.threads = leg.threads;
      row.clock = leg.clock;
    }
    const double ser = seconds(serial);
    const double par = seconds(parallel);
    report.add(key, "Speedup", "speedup", par <= 0.0 ? 0.0 : ser / par, "x",
               config.runs)
        .threads = jobs;
    if (virt) {
      report.add(key, "vs scaled", "virtual_vs_scaled_speedup",
                 ser <= 0.0 ? 0.0 : seconds(reference) / ser, "x",
                 config.runs)
          .threads = 1;
    }
  };
  bool all_overlap = true;
  bool all_exact = true;
  const auto cases = harness::table1_cases();
  const auto keys = table1_keys(cases);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const harness::Table1Case& row = cases[i];
    const std::string& key = keys[i];
    apps::RunOptions options{.pause = row.pause,
                             .work_scale = row.work_scale,
                             .stall_after = milliseconds(4000)};
    if (virt) {
      rt::ScopedTimeScale scale(kScaledReferenceScale);
      reference.result = harness::run_repeated(row.runner, options, config.runs);
    }
    options.clock = config.clock;
    serial.result = harness::run_repeated(row.runner, options, config.runs);
    parallel.result = harness::run_repeated_parallel(row.runner, options,
                                                     config.runs, jobs);

    for (Leg& leg : legs) leg.total_s += leg.result.wall_clock_s;
    add_legs(key, [](const Leg& leg) { return leg.result.wall_clock_s; });
    const Leg* pair[] = {&reference, &compared};
    for (int p = 0; p < 2; ++p) {
      const harness::RepeatedResult& result = pair[p]->result;
      for (const auto& [name, successes] :
           {std::pair{"bug", result.buggy_runs},
            std::pair{"hit", result.hit_runs}}) {
        Row& rate =
            report.add_rate(key, "P(" + std::string(name) + ") " + labels[p],
                            name + std::string("_probability_") + labels[p],
                            successes, config.runs);
        rate.threads = pair[p]->threads;
        rate.clock = pair[p]->clock;
      }
    }
    const int matching = matching_trials(serial.result, parallel.result);
    report.add(key, "Seeds match", virt ? "virtual_seeds_match" : "seeds_match",
               static_cast<double>(matching) / config.runs, "fraction",
               config.runs)
        .threads = jobs;
    const bool overlap =
        reference.result.bug_probability_ci().overlaps(
            compared.result.bug_probability_ci()) &&
        reference.result.hit_probability_ci().overlaps(
            compared.result.hit_probability_ci());
    report.add(key, "CI overlap", "intervals_overlap", overlap ? 1.0 : 0.0,
               "bool", config.runs);
    all_overlap = all_overlap && overlap;
    all_exact = all_exact && matching == config.runs;
  }
  add_legs("total", [](const Leg& leg) { return leg.total_s; });

  std::string failures;
  if (!all_overlap) {
    failures += std::string("FAIL: a ") + labels[0] + "/" + labels[1] +
                " probability interval pair does not overlap.\n";
  }
  if (virt && !all_exact) {
    failures += "FAIL: serial and parallel virtual legs disagree on a "
                "per-seed verdict (virtual trials must be deterministic).\n";
  }
  return failures;
}

struct Experiment {
  const char* name;
  const char* title;
  int runs;      ///< default <runs>
  double scale;  ///< default <time_scale>
  bool parallel;       ///< honours --trial-jobs > 1
  bool virtual_clock;  ///< honours --clock=virtual
  Run run;
  const char* footer;
};

constexpr Experiment kExperiments[] = {
    {"table1",
     "Table 1: Java benchmark bugs, reproducibility with concurrent "
     "breakpoints",
     30, 0.02, true, true, table1,
     "'Prob' = fraction of runs that hit the breakpoint AND exhibited the "
     "bug; P(bug) counts any artifact, P(hit) any hit; 'Control' = P(bug) "
     "of the unarmed batch, the unaided rate (under --clock=virtual: one "
     "schedule per seed); 'Paper' = the paper's column."},
    {"table2",
     "Table 2: C/C++ program bugs, mean time to error with concurrent "
     "breakpoints",
     10, 0.02, true, true, table2,
     "#CBR = number of concurrent breakpoints required to make the bug "
     "repeatedly reproducible (as inserted in the replica)."},
    {"method2", "§5 Methodology II: log4j AsyncAppender missed-notify stall",
     40, 0.02, true, true, method2,
     "Inference (paper §5 step 4): the 236->309 resolution always stalls "
     "with the breakpoint always hit — that pair IS the bug; the 309->277 / "
     "277->309 rows stall without hitting, so close() is not the cause.  "
     "no_breakpoint is the control: the stock program's stall rate."},
    {"pause-time", "§6.2: probability vs pause time T", 40, 0.02, true, true,
     pause_time,
     "Shape to check: P rises monotonically with T toward 1.0 while the "
     "mean runtime grows (the paper's §6.2 trade-off)."},
    {"precision", "§6.3: local-predicate precision refinements", 15, 0.02,
     true, true, precision,
     "Shape to check: each refinement cuts the runtime sharply while P(bug) "
     "stays at (or rises to) ~1.0 — §6.3's claim."},
    {"model", "§3: probability of hitting a concurrent breakpoint", 20, 1.0,
     false, false, probability_model,
     "Shape to check: simulated ≥ formula (it is a lower bound), both rise "
     "toward 1.0 with T, and the gain factor grows with T — the paper's §3 "
     "argument."},
    {"baselines",
     "Baselines: reproducing a known bug by schedule perturbation", 40, 0.02,
     false, true, baselines,
     "Shape to check: stress (the unaided control) ~0, random perturbation "
     "sporadic, BTRIGGER ~1.0 — reproducibility needs the breakpoint, not "
     "more noise."},
    {"replay", "Ablation: breakpoint vs record/replay for bug reproduction",
     30, 0.02, false, false, replay_contrast,
     "Both mechanisms reproduce the bug ~always; the breakpoint intercepts 2 "
     "events and needs no recording, the replayer gates every shared access "
     "of every run and needs the trace — the paper's light-weight "
     "argument.  stress is the control."},
    {"explore", "Ablation: systematic exploration vs one breakpoint", 1, 0.02,
     false, true, explore_contrast,
     "The explorer re-executes the program once per candidate schedule "
     "(CHESS-style, context bounding helps but still grows); a concurrent "
     "breakpoint encodes the known bug and reproduces it in one run — the "
     "paper's positioning against systematic exploration for "
     "*reproduction*."},
    {"trials", "Serial vs parallel trial scheduler", 16, 0.02, true, true,
     trials,
     "Gates: serial and parallel probabilities agree (Wilson overlap); "
     "under --clock=virtual the serial and parallel legs agree seed by seed "
     "and the virtual probabilities overlap the scaled reference's."},
};

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "";
  const auto* experiment =
      std::find_if(std::begin(kExperiments), std::end(kExperiments),
                   [&](const Experiment& e) { return name == e.name; });
  if (experiment == std::end(kExperiments)) {
    std::string known;
    for (const Experiment& e : kExperiments) known += std::string(" ") + e.name;
    bench::usage_error((std::string(argv[0]) + " <experiment>").c_str(),
                       "unknown experiment '" + name + "'; one of:" + known);
  }

  // The experiment's own argv: its name joins the program name, so
  // usage errors read "cbp-repro <experiment>".
  std::string program = std::string(argv[0]) + " " + experiment->name;
  argv[1] = program.data();
  std::printf("=== %s ===\n", experiment->title);
  const BenchConfig config = bench::setup(
      argc - 1, argv + 1, experiment->runs, experiment->scale,
      experiment->parallel
          ? nullptr
          : "its trials share process-global state, so they run serially",
      experiment->virtual_clock
          ? nullptr
          : "its threads are not bound to a per-trial clock");
  JsonReport report(experiment->name, config);
  const std::string failures = experiment->run(config, report);
  report.print(std::cout);
  std::printf("\n%s\n%s", experiment->footer, failures.c_str());
  report.flush(config.json_path);
  return failures.empty() ? 0 : 1;
}
