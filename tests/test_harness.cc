// Tests for the experiment harness: repeated runs, overhead, MTTE, the
// table renderer, formatting helpers, and the Table 1/2 registries.

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/cbp.h"
#include "harness/experiment.h"
#include "harness/registry.h"
#include "runtime/clock.h"

namespace cbp::harness {
namespace {

using namespace std::chrono_literals;

class HarnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Engine::instance().reset();
    Config::set_enabled(true);
    rt::TimeScale::set(1.0);
  }
  void TearDown() override {
    Engine::instance().reset();
    rt::TimeScale::set(1.0);
  }
};

apps::RunOutcome always_buggy(const apps::RunOptions&) {
  apps::RunOutcome outcome;
  outcome.artifact = rt::Artifact::kException;
  outcome.runtime_seconds = 0.002;
  return outcome;
}

apps::RunOutcome never_buggy(const apps::RunOptions&) {
  apps::RunOutcome outcome;
  outcome.runtime_seconds = 0.001;
  return outcome;
}

TEST_F(HarnessTest, RunRepeatedCountsBuggyRuns) {
  const auto result = run_repeated(always_buggy, {}, 7);
  EXPECT_EQ(result.runs, 7);
  EXPECT_EQ(result.buggy_runs, 7);
  EXPECT_DOUBLE_EQ(result.bug_probability(), 1.0);
  EXPECT_NEAR(result.mean_runtime_s, 0.002, 1e-9);
}

TEST_F(HarnessTest, RunRepeatedCleanRuns) {
  const auto result = run_repeated(never_buggy, {}, 5);
  EXPECT_EQ(result.buggy_runs, 0);
  EXPECT_DOUBLE_EQ(result.bug_probability(), 0.0);
}

TEST_F(HarnessTest, RunRepeatedVariesSeeds) {
  std::vector<std::uint64_t> seeds;
  auto runner = [&](const apps::RunOptions& options) {
    seeds.push_back(options.seed);
    return apps::RunOutcome{};
  };
  (void)run_repeated(runner, {}, 3);
  EXPECT_EQ(seeds, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST_F(HarnessTest, RunRepeatedRespectsSeedBase) {
  // Regression: run_repeated used to clobber the caller's seed with
  // i + 1; trial i must run with seed base + i.
  std::vector<std::uint64_t> seeds;
  auto runner = [&](const apps::RunOptions& options) {
    seeds.push_back(options.seed);
    return apps::RunOutcome{};
  };
  apps::RunOptions options;
  options.seed = 100;
  (void)run_repeated(runner, options, 3);
  EXPECT_EQ(seeds, (std::vector<std::uint64_t>{100, 101, 102}));

  // Two different bases must produce two different trial streams.
  std::vector<std::uint64_t> other;
  auto other_runner = [&](const apps::RunOptions& o) {
    other.push_back(o.seed);
    return apps::RunOutcome{};
  };
  options.seed = 500;
  (void)run_repeated(other_runner, options, 3);
  EXPECT_EQ(other, (std::vector<std::uint64_t>{500, 501, 502}));
  EXPECT_NE(seeds, other);
}

TEST_F(HarnessTest, MeasureMtteRespectsSeedBase) {
  std::vector<std::uint64_t> seeds;
  auto runner = [&](const apps::RunOptions& options) {
    seeds.push_back(options.seed);
    apps::RunOutcome outcome;
    outcome.artifact = rt::Artifact::kCrash;
    return outcome;
  };
  apps::RunOptions options;
  options.seed = 40;
  (void)measure_mtte(runner, options, /*errors_wanted=*/3);
  EXPECT_EQ(seeds, (std::vector<std::uint64_t>{40, 41, 42}));
}

TEST_F(HarnessTest, RunRepeatedParallelCoversAllSeedsOnce) {
  std::mutex mu;
  std::vector<std::uint64_t> seeds;
  auto runner = [&](const apps::RunOptions& options) {
    std::lock_guard<std::mutex> lock(mu);
    seeds.push_back(options.seed);
    return apps::RunOutcome{};
  };
  apps::RunOptions options;
  options.seed = 10;
  const auto result = run_repeated_parallel(runner, options, 8, /*jobs=*/4);
  EXPECT_EQ(result.runs, 8);
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(seeds, (std::vector<std::uint64_t>{10, 11, 12, 13, 14, 15, 16,
                                               17}));
  // trials[] is indexed by trial, not by completion order.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(result.trials[static_cast<std::size_t>(i)].seed,
              10u + static_cast<std::uint64_t>(i));
  }
}

TEST_F(HarnessTest, RunRepeatedParallelMatchesSerialVerdicts) {
  // Verdicts depend only on the seed, so the parallel schedule must
  // reproduce the serial result exactly, trial by trial.
  auto runner = [](const apps::RunOptions& options) {
    apps::RunOutcome outcome;
    if (options.seed % 3 == 0) outcome.artifact = rt::Artifact::kCrash;
    outcome.runtime_seconds = 0.001;
    return outcome;
  };
  apps::RunOptions options;
  options.seed = 1;
  const auto serial = run_repeated(runner, options, 9);
  const auto parallel = run_repeated_parallel(runner, options, 9, /*jobs=*/3);
  EXPECT_EQ(parallel.buggy_runs, serial.buggy_runs);
  EXPECT_EQ(parallel.hit_runs, serial.hit_runs);
  for (int i = 0; i < 9; ++i) {
    const auto& s = serial.trials[static_cast<std::size_t>(i)];
    const auto& p = parallel.trials[static_cast<std::size_t>(i)];
    EXPECT_EQ(p.seed, s.seed);
    EXPECT_EQ(p.buggy, s.buggy);
  }
}

TEST_F(HarnessTest, RunRepeatedParallelFallsBackToSerial) {
  std::vector<std::uint64_t> seeds;  // safe: jobs<=1 runs on this thread
  auto runner = [&](const apps::RunOptions& options) {
    seeds.push_back(options.seed);
    return apps::RunOutcome{};
  };
  (void)run_repeated_parallel(runner, {}, 3, /*jobs=*/1);
  EXPECT_EQ(seeds, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST_F(HarnessTest, RunRepeatedParallelIsolatesEngineHits) {
  // Each parallel trial scores its hit on the worker's private engine;
  // the default engine must stay untouched.
  auto runner = [](const apps::RunOptions&) {
    int obj = 0;
    // rt::Thread children inherit the worker's engine binding; plain
    // std::threads would race on the default engine instead.
    rt::Thread a([&] {
      ConflictTrigger t("parallel-bp", &obj);
      (void)t.trigger_here(true, std::chrono::milliseconds(2000));
    });
    rt::Thread b([&] {
      ConflictTrigger t("parallel-bp", &obj);
      (void)t.trigger_here(false, std::chrono::milliseconds(2000));
    });
    a.join();
    b.join();
    return apps::RunOutcome{};
  };
  const auto result = run_repeated_parallel(runner, {}, 4, /*jobs=*/2);
  EXPECT_EQ(result.hit_runs, 4);
  EXPECT_EQ(Engine::instance().total_stats().hits, 0u);
}

TEST_F(HarnessTest, HitBuggyRunsCountsRunsThatHitAndShowTheBug) {
  // Table 1's "Prob": a bug in a run whose breakpoint did not hit is not
  // the breakpoint's doing.  Seeds 1-4 hit on odd seeds, bug on 1 and 2.
  auto runner = [](const apps::RunOptions& options) {
    if (options.seed % 2 == 1) {
      int obj = 0;
      rt::Thread a([&] {
        ConflictTrigger t("hit-and-bug", &obj);
        (void)t.trigger_here(true, std::chrono::milliseconds(2000));
      });
      rt::Thread b([&] {
        ConflictTrigger t("hit-and-bug", &obj);
        (void)t.trigger_here(false, std::chrono::milliseconds(2000));
      });
      a.join();
      b.join();
    }
    apps::RunOutcome outcome;
    if (options.seed <= 2) outcome.artifact = rt::Artifact::kCrash;
    return outcome;
  };
  const auto result = run_repeated(runner, {}, 4);
  EXPECT_EQ(result.hit_runs, 2);
  EXPECT_EQ(result.buggy_runs, 2);
  EXPECT_EQ(result.hit_buggy_runs, 1);  // seed 1 only
}

TEST_F(HarnessTest, RunRepeatedResetsEngineBetweenRuns) {
  // A breakpoint hit in run i must not leak its statistics into run i+1
  // (each paper run is a fresh process).
  auto runner = [](const apps::RunOptions&) {
    EXPECT_EQ(Engine::instance().total_stats().hits, 0u);
    int obj = 0;
    std::thread a([&] {
      ConflictTrigger t("harness-bp", &obj);
      (void)t.trigger_here(true, std::chrono::milliseconds(2000));
    });
    std::thread b([&] {
      ConflictTrigger t("harness-bp", &obj);
      (void)t.trigger_here(false, std::chrono::milliseconds(2000));
    });
    a.join();
    b.join();
    return apps::RunOutcome{};
  };
  const auto result = run_repeated(runner, {}, 3);
  EXPECT_EQ(result.hit_runs, 3);  // every run hit exactly once, freshly
}

TEST_F(HarnessTest, MeasureOverheadTogglesBreakpoints) {
  std::vector<bool> flags;
  auto runner = [&](const apps::RunOptions& options) {
    flags.push_back(options.breakpoints);
    apps::RunOutcome outcome;
    outcome.runtime_seconds = options.breakpoints ? 0.004 : 0.002;
    return outcome;
  };
  const auto overhead = measure_overhead(runner, {}, 2);
  EXPECT_EQ(flags, (std::vector<bool>{false, false, true, true}));
  EXPECT_NEAR(overhead.normal.mean_runtime_s, 0.002, 1e-9);
  EXPECT_NEAR(overhead.armed.mean_runtime_s, 0.004, 1e-9);
  EXPECT_EQ(overhead.normal.runs, 2);
  EXPECT_EQ(overhead.armed.runs, 2);
  EXPECT_NEAR(overhead.overhead_percent(), 100.0, 1e-6);
}

TEST_F(HarnessTest, MeasureMtteStopsAtErrorBudget) {
  int calls = 0;
  auto runner = [&](const apps::RunOptions&) {
    ++calls;
    apps::RunOutcome outcome;
    if (calls % 2 == 0) outcome.artifact = rt::Artifact::kCrash;
    return outcome;
  };
  const auto mtte = measure_mtte(runner, {}, /*errors_wanted=*/3);
  EXPECT_EQ(mtte.errors, 3);
  EXPECT_EQ(mtte.iterations, 6);
  EXPECT_GT(mtte.mtte_s, 0.0);
}

TEST_F(HarnessTest, MeasureMtteRespectsIterationCap) {
  const auto mtte = measure_mtte(never_buggy, {}, 1, /*max_iterations=*/4);
  EXPECT_EQ(mtte.errors, 0);
  EXPECT_EQ(mtte.iterations, 4);
  EXPECT_DOUBLE_EQ(mtte.mtte_s, 0.0);
}

TEST_F(HarnessTest, MeasureMtteParallelStopsAtErrorBudget) {
  // Every third seed is buggy, deterministically, so 3 workers reach the
  // budget regardless of scheduling.
  auto runner = [](const apps::RunOptions& options) {
    apps::RunOutcome outcome;
    if (options.seed % 3 == 0) outcome.artifact = rt::Artifact::kCrash;
    return outcome;
  };
  apps::RunOptions options;
  options.seed = 1;
  const auto mtte = measure_mtte_parallel(runner, options,
                                          /*errors_wanted=*/4,
                                          /*max_iterations=*/1000,
                                          /*jobs=*/3);
  EXPECT_EQ(mtte.errors, 4);
  EXPECT_GE(mtte.iterations, 4);
  EXPECT_LT(mtte.iterations, 1000);
  EXPECT_GT(mtte.mtte_s, 0.0);
}

TEST_F(HarnessTest, MeasureMtteParallelRespectsIterationCap) {
  const auto mtte = measure_mtte_parallel(never_buggy, {}, /*errors_wanted=*/1,
                                          /*max_iterations=*/8, /*jobs=*/4);
  EXPECT_EQ(mtte.errors, 0);
  EXPECT_EQ(mtte.iterations, 8);
  EXPECT_DOUBLE_EQ(mtte.mtte_s, 0.0);
}

TEST_F(HarnessTest, WilsonIntervalBracketsTheProportion) {
  const auto ci = wilson_interval(5, 10);
  EXPECT_LT(ci.low, 0.5);
  EXPECT_GT(ci.high, 0.5);
  EXPECT_GT(ci.low, 0.0);
  EXPECT_LT(ci.high, 1.0);

  // Degenerate proportions stay inside [0, 1] (the normal approximation
  // would not).
  const auto all = wilson_interval(10, 10);
  EXPECT_GT(all.low, 0.5);
  EXPECT_DOUBLE_EQ(all.high, 1.0);
  const auto none = wilson_interval(0, 10);
  EXPECT_DOUBLE_EQ(none.low, 0.0);
  EXPECT_LT(none.high, 0.5);

  // No data: the interval is vacuous, not a crash.
  const auto empty = wilson_interval(0, 0);
  EXPECT_DOUBLE_EQ(empty.low, 0.0);
  EXPECT_DOUBLE_EQ(empty.high, 1.0);
}

TEST_F(HarnessTest, WilsonIntervalNarrowsWithMoreTrials) {
  const auto small = wilson_interval(5, 10);
  const auto large = wilson_interval(500, 1000);
  EXPECT_LT(large.high - large.low, small.high - small.low);
}

TEST_F(HarnessTest, ProbabilityIntervalOverlaps) {
  const ProbabilityInterval a{0.2, 0.5};
  const ProbabilityInterval b{0.4, 0.8};
  const ProbabilityInterval c{0.6, 0.9};
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_TRUE(b.overlaps(a));
  EXPECT_FALSE(a.overlaps(c));
  EXPECT_TRUE(b.overlaps(c));
}

TEST_F(HarnessTest, RepeatedResultExposesWilsonIntervals) {
  const auto result = run_repeated(always_buggy, {}, 10);
  const auto ci = result.bug_probability_ci();
  EXPECT_GT(ci.low, 0.5);
  EXPECT_DOUBLE_EQ(ci.high, 1.0);
  const auto hit_ci = result.hit_probability_ci();
  EXPECT_DOUBLE_EQ(hit_ci.low, 0.0);  // no breakpoints hit
}

TEST_F(HarnessTest, TextTableAlignsColumns) {
  TextTable table({"A", "Longer"});
  table.add_row({"xx", "y"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("A"), std::string::npos);
  EXPECT_NE(out.find("Longer"), std::string::npos);
  EXPECT_NE(out.find("xx"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST_F(HarnessTest, Formatters) {
  EXPECT_EQ(fmt_prob(1.0), "1.00");
  EXPECT_EQ(fmt_prob(0.87), "0.87");
  EXPECT_EQ(fmt_seconds(1.2345), "1.234");
  EXPECT_EQ(fmt_percent(5.55), "5.5");
  EXPECT_EQ(fmt_percent(-6.8), "-6.8");
}

// ---------------------------------------------------------------------------
// Registries
// ---------------------------------------------------------------------------

TEST_F(HarnessTest, Table1HasAllPaperRows) {
  const auto cases = table1_cases();
  // 4 cache4j + 3 hedc + 5 jigsaw + 3 log4j + 1 logging + 1 lucene +
  // 2 moldyn + 1 montecarlo + 1 pool + 4 raytracer + 1 stringbuffer +
  // 2 swing + 6 collections = 34 configurations.
  EXPECT_EQ(cases.size(), 34u);
  for (const auto& row : cases) {
    EXPECT_FALSE(row.benchmark.empty());
    EXPECT_TRUE(row.runner != nullptr);
    EXPECT_GE(row.paper_prob, 0.0);
    EXPECT_LE(row.paper_prob, 1.0);
  }
}

TEST_F(HarnessTest, Table1CoversFifteenBenchmarks) {
  std::set<std::string> benchmarks;
  for (const auto& row : table1_cases()) benchmarks.insert(row.benchmark);
  EXPECT_EQ(benchmarks.size(), 15u);  // the paper's 15 Java programs
}

TEST_F(HarnessTest, Table2HasAllPaperRows) {
  const auto cases = table2_cases();
  ASSERT_EQ(cases.size(), 6u);
  int total_breakpoints = 0;
  for (const auto& row : cases) {
    EXPECT_TRUE(row.runner != nullptr);
    EXPECT_GT(row.breakpoints, 0);
    total_breakpoints += row.breakpoints;
  }
  EXPECT_EQ(total_breakpoints, 2 + 1 + 3 + 2 + 1 + 3);
}

TEST_F(HarnessTest, EveryTable1RunnerExecutes) {
  // Smoke: every registered runner completes one (breakpoint-free) run.
  rt::ScopedTimeScale fast(0.02);
  for (const auto& row : table1_cases()) {
    Engine::instance().reset();
    apps::RunOptions options;
    options.breakpoints = false;
    options.pause = row.pause;
    options.work_scale = row.work_scale;
    options.stall_after = std::chrono::milliseconds(2000);
    const auto outcome = row.runner(options);
    EXPECT_GE(outcome.runtime_seconds, 0.0) << row.benchmark << " " << row.bug;
  }
}

TEST_F(HarnessTest, EveryTable2RunnerReproducesWithBreakpoints) {
  rt::ScopedTimeScale fast(0.02);
  Config::set_order_delay(std::chrono::milliseconds(1));
  for (const auto& row : table2_cases()) {
    Engine::instance().reset();
    apps::RunOptions options;
    options.breakpoints = true;
    options.pause = std::chrono::milliseconds(200);
    options.stall_after = std::chrono::milliseconds(2000);
    const auto outcome = row.runner(options);
    EXPECT_TRUE(outcome.buggy()) << row.benchmark << ": " << row.error;
  }
}

// ---------------------------------------------------------------------------
// Registry-driven sweep: every Table 1 row reproduces its artifact
// ---------------------------------------------------------------------------

class Table1RowSweep : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    Engine::instance().reset();
    Config::set_enabled(true);
    Config::set_order_delay(std::chrono::milliseconds(2));
    Config::set_guard_wait_cap(std::chrono::milliseconds(2000));
    rt::TimeScale::set(0.1);
  }
  void TearDown() override {
    Engine::instance().reset();
    rt::TimeScale::set(1.0);
  }
};

TEST_P(Table1RowSweep, ArmedRunProducesTheRowArtifact) {
  const auto cases = table1_cases();
  ASSERT_LT(GetParam(), cases.size());
  const Table1Case& row = cases[GetParam()];

  apps::RunOptions options;
  options.breakpoints = true;
  // Generous pause so even the probabilistic rows (hedc/swing at
  // wait=100ms) become near-certain for this single-run check.
  options.pause = std::max(row.pause, std::chrono::milliseconds(2000));
  options.work_scale = row.work_scale;
  options.stall_after = std::chrono::milliseconds(8000);
  options.seed = 7;

  const apps::RunOutcome outcome = row.runner(options);

  rt::Artifact expected;
  if (row.error == "stall") {
    expected = rt::Artifact::kStall;
  } else if (row.error == "exception") {
    expected = rt::Artifact::kException;
  } else if (row.error == "test fail") {
    expected = rt::Artifact::kWrongResult;
  } else {
    expected = rt::Artifact::kRaceObserved;
  }
  EXPECT_EQ(outcome.artifact, expected)
      << row.benchmark << " " << row.bug << ": " << outcome.detail;
}

INSTANTIATE_TEST_SUITE_P(AllRows, Table1RowSweep,
                         ::testing::Range<std::size_t>(
                             0, table1_cases().size()));

}  // namespace
}  // namespace cbp::harness
