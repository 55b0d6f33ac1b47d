// Integration tests for the Java-program replicas (Table 1): each seeded
// Heisenbug must (a) manifest deterministically once its concurrent
// breakpoint is armed, and (b) stay dormant in ordinary runs.

#include <gtest/gtest.h>

#include "apps/cache/cache.h"
#include "apps/collections/sync_collections.h"
#include "apps/crawler/crawler.h"
#include "apps/kernels/kernels.h"
#include "apps/logging/async_appender.h"
#include "apps/logging/loggers.h"
#include "apps/pool/object_pool.h"
#include "apps/strbuf/string_buffer.h"
#include "apps/swinglike/swing.h"
#include "apps/textindex/lucene.h"
#include "apps/webserver/jigsaw.h"
#include "core/cbp.h"
#include "runtime/clock.h"

namespace cbp::apps {
namespace {

using namespace std::chrono_literals;

class JavaReplicaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Engine::instance().reset();
    Config::set_enabled(true);
    Config::set_order_delay(2ms);  // generous: replicas use the plain API
    Config::set_guard_wait_cap(2000ms);
    rt::TimeScale::set(0.2);  // run the paper's nominal times at 1/5 speed
    options_.breakpoints = true;
    options_.pause = 300ms;         // generous so hits are deterministic
    options_.stall_after = 1200ms;  // well above the pause: no false stalls
  }

  void TearDown() override {
    BreakpointSpec::clear_installed();
    Engine::instance().reset();
    Config::set_enabled(true);
    rt::TimeScale::set(1.0);
  }

  /// Asserts the bug manifests with the expected artifact on every one
  /// of `runs` armed runs.
  template <class Runner>
  void expect_always(Runner runner, rt::Artifact artifact, int runs = 4) {
    for (int i = 0; i < runs; ++i) {
      Engine::instance().reset();  // each run models a fresh process
      options_.seed = static_cast<std::uint64_t>(i + 1);
      const RunOutcome outcome = runner(options_);
      EXPECT_EQ(outcome.artifact, artifact)
          << "run " << i << ": " << outcome.detail;
    }
  }

  /// Asserts the bug stays dormant without breakpoints (all runs clean —
  /// these windows are sub-microsecond naturally).
  template <class Runner>
  void expect_dormant(Runner runner, int runs = 4) {
    RunOptions plain = options_;
    plain.breakpoints = false;
    int buggy = 0;
    for (int i = 0; i < runs; ++i) {
      Engine::instance().reset();
      plain.seed = static_cast<std::uint64_t>(i + 1);
      buggy += runner(plain).buggy() ? 1 : 0;
    }
    EXPECT_EQ(buggy, 0);
  }

  RunOptions options_;
};

// ---------------------------------------------------------------------------
// stringbuffer (Fig. 3)
// ---------------------------------------------------------------------------

TEST_F(JavaReplicaTest, StringBufferAtomicityManifestsWithBreakpoint) {
  expect_always(strbuf::run_atomicity1, rt::Artifact::kException);
}

TEST_F(JavaReplicaTest, StringBufferDormantWithoutBreakpoint) {
  expect_dormant(strbuf::run_atomicity1);
}

TEST_F(JavaReplicaTest, StringBufferExceptionMentionsIndexOutOfBounds) {
  const RunOutcome outcome = strbuf::run_atomicity1(options_);
  ASSERT_EQ(outcome.artifact, rt::Artifact::kException);
  EXPECT_NE(outcome.detail.find("StringIndexOutOfBounds"), std::string::npos);
}

// ---------------------------------------------------------------------------
// collections
// ---------------------------------------------------------------------------

TEST_F(JavaReplicaTest, ListAtomicityManifests) {
  expect_always(collections::run_list_atomicity1, rt::Artifact::kException);
}

TEST_F(JavaReplicaTest, ListAtomicityDormant) {
  expect_dormant(collections::run_list_atomicity1);
}

TEST_F(JavaReplicaTest, ListDeadlockManifests) {
  expect_always(collections::run_list_deadlock1, rt::Artifact::kStall);
}

TEST_F(JavaReplicaTest, ListDeadlockDormant) {
  expect_dormant(collections::run_list_deadlock1);
}

TEST_F(JavaReplicaTest, MapAtomicityManifests) {
  expect_always(collections::run_map_atomicity1, rt::Artifact::kRaceObserved);
}

TEST_F(JavaReplicaTest, MapDeadlockManifests) {
  expect_always(collections::run_map_deadlock1, rt::Artifact::kStall);
}

TEST_F(JavaReplicaTest, SetAtomicityManifests) {
  expect_always(collections::run_set_atomicity1, rt::Artifact::kException);
}

TEST_F(JavaReplicaTest, SetDeadlockManifests) {
  expect_always(collections::run_set_deadlock1, rt::Artifact::kStall);
}

TEST_F(JavaReplicaTest, CollectionsDormantWithoutBreakpoints) {
  expect_dormant(collections::run_map_atomicity1);
  expect_dormant(collections::run_set_atomicity1);
  expect_dormant(collections::run_map_deadlock1, 2);
  expect_dormant(collections::run_set_deadlock1, 2);
}

// ---------------------------------------------------------------------------
// cache4j
// ---------------------------------------------------------------------------

TEST_F(JavaReplicaTest, CacheRace1Manifests) {
  expect_always(cache::run_race1, rt::Artifact::kRaceObserved, 3);
}

TEST_F(JavaReplicaTest, CacheRace2Manifests) {
  expect_always(cache::run_race2, rt::Artifact::kRaceObserved, 3);
}

TEST_F(JavaReplicaTest, CacheRace3Manifests) {
  expect_always(cache::run_race3, rt::Artifact::kRaceObserved, 3);
}

TEST_F(JavaReplicaTest, CacheAtomicityManifestsWithIgnoreFirst) {
  for (int i = 0; i < 3; ++i) {
    Engine::instance().reset();
    const RunOutcome outcome =
        cache::run_atomicity1(options_, cache::kWarmupConstructions);
    EXPECT_EQ(outcome.artifact, rt::Artifact::kRaceObserved)
        << outcome.detail;
  }
}

TEST_F(JavaReplicaTest, CacheIgnoreFirstCutsWarmupCost) {
  // §6.3: without ignoreFirst every warm-up construction pauses for T.
  // The exact claim is the mechanism, counted per run: ignore_first
  // suppresses the warm-up arrivals, so none of them postpones.
  options_.pause = 5ms;  // keep the unrefined run affordable
  constexpr auto kWarmup =
      static_cast<std::uint64_t>(cache::kWarmupConstructions);
  Engine::instance().reset();  // ignore_first counts cumulative arrivals
  const RunOutcome refined = cache::run_atomicity1(options_, kWarmup);
  const BreakpointStats with = Engine::instance().stats(cache::kAtomicity1);
  Engine::instance().reset();
  const RunOutcome unrefined = cache::run_atomicity1(options_, 0);
  const BreakpointStats without = Engine::instance().stats(cache::kAtomicity1);

  EXPECT_EQ(refined.artifact, rt::Artifact::kRaceObserved);
  EXPECT_EQ(unrefined.artifact, rt::Artifact::kRaceObserved);
  EXPECT_EQ(with.ignored, kWarmup);
  EXPECT_LE(with.postponed, 2u);  // only the race phase's own arrivals
  EXPECT_EQ(without.ignored, 0u);
  EXPECT_GE(without.timeouts, kWarmup);  // every warm-up pause ran out
}

TEST_F(JavaReplicaTest, CacheDormantWithoutBreakpoints) {
  expect_dormant(cache::run_race1, 2);
  RunOptions plain = options_;
  plain.breakpoints = false;
  EXPECT_FALSE(cache::run_atomicity1(plain, 0).buggy());
}

// ---------------------------------------------------------------------------
// hedc crawler
// ---------------------------------------------------------------------------

TEST_F(JavaReplicaTest, CrawlerRace1ManifestsWithLongPause) {
  options_.pause = 1000ms;  // the paper's wait=1s row: probability 1.0
  expect_always(crawler::run_race1, rt::Artifact::kRaceObserved, 3);
}

TEST_F(JavaReplicaTest, CrawlerRace1PartialWithShortPause) {
  // The §6.2 subject: at T=100ms the hit probability is ~0.87 — over a
  // handful of runs we only require "some hits, misses possible".
  options_.pause = 100ms;
  int hits = 0;
  constexpr int kRuns = 12;
  for (int i = 0; i < kRuns; ++i) {
    Engine::instance().reset();
    options_.seed = static_cast<std::uint64_t>(100 + i);
    hits += crawler::run_race1(options_).buggy() ? 1 : 0;
  }
  EXPECT_GE(hits, kRuns / 3);  // far above the ~0 natural rate
}

TEST_F(JavaReplicaTest, CrawlerRace2ManifestsWithLongPause) {
  options_.pause = 1500ms;
  expect_always(crawler::run_race2, rt::Artifact::kRaceObserved, 3);
}

TEST_F(JavaReplicaTest, CrawlerDormantWithoutBreakpoints) {
  expect_dormant(crawler::run_race1, 3);
}

// ---------------------------------------------------------------------------
// jigsaw webserver
// ---------------------------------------------------------------------------

TEST_F(JavaReplicaTest, JigsawDeadlock1Manifests) {
  expect_always(webserver::run_deadlock1, rt::Artifact::kStall);
}

TEST_F(JavaReplicaTest, JigsawDeadlock2Manifests) {
  expect_always(webserver::run_deadlock2, rt::Artifact::kStall);
}

TEST_F(JavaReplicaTest, JigsawMissedNotifyManifests) {
  expect_always(webserver::run_missed_notify1, rt::Artifact::kStall);
}

TEST_F(JavaReplicaTest, JigsawRace1StallsViaStaleRead) {
  expect_always(webserver::run_race1, rt::Artifact::kStall);
}

TEST_F(JavaReplicaTest, JigsawRace2LosesUpdates) {
  expect_always(webserver::run_race2, rt::Artifact::kRaceObserved, 3);
}

TEST_F(JavaReplicaTest, JigsawServerStressDeadlocksUnderLoad) {
  // The paper's multi-client harness: the same Fig. 2 deadlock, armed
  // and hit while several clients are serving requests.
  for (int i = 0; i < 3; ++i) {
    Engine::instance().reset();
    options_.seed = static_cast<std::uint64_t>(i + 1);
    const RunOutcome outcome =
        webserver::run_server_stress(options_, /*clients=*/4);
    EXPECT_EQ(outcome.artifact, rt::Artifact::kStall) << outcome.detail;
  }
}

TEST_F(JavaReplicaTest, JigsawServerStressCleanWithoutBreakpoints) {
  RunOptions plain = options_;
  plain.breakpoints = false;
  for (int i = 0; i < 2; ++i) {
    Engine::instance().reset();
    EXPECT_FALSE(webserver::run_server_stress(plain, 4).buggy());
  }
}

TEST_F(JavaReplicaTest, JigsawDormantWithoutBreakpoints) {
  expect_dormant(webserver::run_deadlock1, 2);
  expect_dormant(webserver::run_missed_notify1, 2);
  expect_dormant(webserver::run_race1, 2);
}

// ---------------------------------------------------------------------------
// logging: log4j + java.util.logging
// ---------------------------------------------------------------------------

TEST_F(JavaReplicaTest, Log4jDeadlock1Manifests) {
  expect_always(logging::run_log4j_deadlock1, rt::Artifact::kStall);
}

TEST_F(JavaReplicaTest, Log4jRace2LosesUpdates) {
  expect_always(logging::run_log4j_race2, rt::Artifact::kRaceObserved, 3);
}

TEST_F(JavaReplicaTest, JulDeadlock1Manifests) {
  expect_always(logging::run_jul_deadlock1, rt::Artifact::kStall);
}

TEST_F(JavaReplicaTest, LoggingDormantWithoutBreakpoints) {
  expect_dormant(logging::run_log4j_deadlock1, 2);
  expect_dormant(logging::run_jul_deadlock1, 2);
}

// ---------------------------------------------------------------------------
// log4j AsyncAppender — the Methodology II subject (§5)
// ---------------------------------------------------------------------------

TEST_F(JavaReplicaTest, AsyncAppenderStallsWhenGrowBeforeDispatch) {
  // The paper's "236 -> 309" row: stall 100%, BP hit 100%.
  logging::MethodologyIIOptions m2;
  m2.first = logging::Site::kSetBufferSize;
  m2.second = logging::Site::kDispatch;
  m2.pause = 200ms;
  m2.stall_after = 1000ms;
  for (int i = 0; i < 3; ++i) {
    Engine::instance().reset();
    m2.seed = static_cast<std::uint64_t>(i + 1);
    const auto outcome = logging::run_methodology2(m2);
    EXPECT_TRUE(outcome.stalled) << "run " << i;
    EXPECT_TRUE(outcome.breakpoint_hit) << "run " << i;
  }
}

TEST_F(JavaReplicaTest, AsyncAppenderCleanWhenDispatchBeforeGrow) {
  // The "309 -> 236" row: stall 0%, BP hit 100%.
  logging::MethodologyIIOptions m2;
  m2.first = logging::Site::kDispatch;
  m2.second = logging::Site::kSetBufferSize;
  m2.pause = 200ms;
  m2.stall_after = 1000ms;
  for (int i = 0; i < 3; ++i) {
    Engine::instance().reset();
    m2.seed = static_cast<std::uint64_t>(i + 1);
    const auto outcome = logging::run_methodology2(m2);
    EXPECT_FALSE(outcome.stalled) << "run " << i;
    EXPECT_TRUE(outcome.breakpoint_hit) << "run " << i;
  }
}

TEST_F(JavaReplicaTest, AsyncAppenderAppendDispatchPairIsHarmless) {
  // The "100 <-> 309" rows: no stall in either order.
  for (const bool append_first : {true, false}) {
    logging::MethodologyIIOptions m2;
    m2.first =
        append_first ? logging::Site::kAppend : logging::Site::kDispatch;
    m2.second =
        append_first ? logging::Site::kDispatch : logging::Site::kAppend;
    m2.pause = 200ms;
    m2.stall_after = 1000ms;
    m2.jitter = std::chrono::microseconds(0);  // exclude the natural window
    const auto outcome = logging::run_methodology2(m2);
    EXPECT_FALSE(outcome.stalled) << "append_first=" << append_first;
  }
}

TEST_F(JavaReplicaTest, AsyncAppenderDrainsDispatchedEventsWhenClean) {
  logging::MethodologyIIOptions m2;
  m2.breakpoints = false;
  m2.jitter = std::chrono::microseconds(0);
  const auto outcome = logging::run_methodology2(m2);
  EXPECT_FALSE(outcome.stalled);
}

TEST_F(JavaReplicaTest, SpecFlipReversesMethodologyOrderWithoutRecompiling) {
  // The shipped breakpoint resolves 236 -> 309 (stall).  A spec-file
  // `flip` turns it into 309 -> 236 (clean) — Methodology II's "resolve
  // the contention in both ways" as pure configuration.
  logging::MethodologyIIOptions m2;
  m2.first = logging::Site::kSetBufferSize;
  m2.second = logging::Site::kDispatch;
  m2.pause = 200ms;
  m2.stall_after = 1000ms;

  Engine::instance().reset();
  EXPECT_TRUE(logging::run_methodology2(m2).stalled);

  BreakpointSpec::parse(std::string(logging::kContentionBreakpoint) +
                        " flip\n")
      .install();
  Engine::instance().reset();
  EXPECT_FALSE(logging::run_methodology2(m2).stalled);
  BreakpointSpec::clear_installed();
}

TEST_F(JavaReplicaTest, MissedNotify1RunnerMapsOrderFlag) {
  options_.order_forward = true;
  EXPECT_EQ(logging::run_missed_notify1(options_).artifact,
            rt::Artifact::kStall);
  options_.order_forward = false;
  EXPECT_EQ(logging::run_missed_notify1(options_).artifact,
            rt::Artifact::kNone);
}

// ---------------------------------------------------------------------------
// lucene, pool
// ---------------------------------------------------------------------------

TEST_F(JavaReplicaTest, LuceneDeadlockManifests) {
  expect_always(textindex::run_deadlock1, rt::Artifact::kStall);
}

TEST_F(JavaReplicaTest, LuceneDormant) {
  expect_dormant(textindex::run_deadlock1, 2);
}

TEST_F(JavaReplicaTest, PoolMissedNotifyManifests) {
  expect_always(pool::run_missed_notify1, rt::Artifact::kStall);
}

TEST_F(JavaReplicaTest, PoolDormant) { expect_dormant(pool::run_missed_notify1, 2); }

// ---------------------------------------------------------------------------
// JGF kernels
// ---------------------------------------------------------------------------

TEST_F(JavaReplicaTest, MoldynRace1ManifestsWithBound) {
  for (int i = 0; i < 3; ++i) {
    Engine::instance().reset();  // bounds are per-process in the paper
    const RunOutcome outcome =
        kernels::run_moldyn_race1(options_, kernels::kMoldynRace1Bound);
    EXPECT_EQ(outcome.artifact, rt::Artifact::kRaceObserved) << outcome.detail;
  }
}

TEST_F(JavaReplicaTest, MoldynRace2ManifestsWithBound) {
  const RunOutcome outcome =
      kernels::run_moldyn_race2(options_, kernels::kMoldynRace2Bound);
  EXPECT_EQ(outcome.artifact, rt::Artifact::kRaceObserved);
}

TEST_F(JavaReplicaTest, MontecarloRace1Manifests) {
  const RunOutcome outcome =
      kernels::run_montecarlo_race1(options_, kernels::kMontecarloBound);
  EXPECT_EQ(outcome.artifact, rt::Artifact::kRaceObserved);
}

TEST_F(JavaReplicaTest, MoldynBoundCutsRuntime) {
  // §6.3: the accumulation site fires hundreds of times; bounding the
  // breakpoint caps the pausing.  Unbounded, every unmatched arrival can
  // pause for T; keep T tiny so the comparison stays affordable.
  options_.pause = 5ms;
  rt::Stopwatch bounded_clock;
  (void)kernels::run_moldyn_race1(options_, 4);
  const double bounded = bounded_clock.elapsed_seconds();
  Engine::instance().reset();
  rt::Stopwatch unbounded_clock;
  (void)kernels::run_moldyn_race1(options_, UINT64_MAX);
  const double unbounded = unbounded_clock.elapsed_seconds();
  // The unbounded run pauses at (almost) every iteration pair; the
  // bounded one stops after 4 hits.  Require a clear separation.
  EXPECT_LT(bounded * 1.5, unbounded);
}

TEST_F(JavaReplicaTest, RaytracerRacesFailValidation) {
  EXPECT_EQ(kernels::run_raytracer_race1(options_).artifact,
            rt::Artifact::kWrongResult);
  EXPECT_EQ(kernels::run_raytracer_race2(options_).artifact,
            rt::Artifact::kWrongResult);
  EXPECT_EQ(kernels::run_raytracer_race3(options_).artifact,
            rt::Artifact::kRaceObserved);
  EXPECT_EQ(kernels::run_raytracer_race4(options_).artifact,
            rt::Artifact::kRaceObserved);
}

TEST_F(JavaReplicaTest, KernelsDormantWithoutBreakpoints) {
  RunOptions plain = options_;
  plain.breakpoints = false;
  EXPECT_FALSE(kernels::run_moldyn_race1(plain, 4).buggy());
  EXPECT_FALSE(kernels::run_raytracer_race1(plain).buggy());
}

// ---------------------------------------------------------------------------
// swing
// ---------------------------------------------------------------------------

TEST_F(JavaReplicaTest, SwingDeadlockManifestsWithLongPauseRefined) {
  swinglike::SwingOptions swing;
  swing.base = options_;
  swing.base.pause = 1000ms;  // the paper's wait=1s row: ~0.99
  swing.refined = true;
  int stalls = 0;
  for (int i = 0; i < 3; ++i) {
    Engine::instance().reset();
    swing.base.seed = static_cast<std::uint64_t>(i + 1);
    stalls += swinglike::run_deadlock1(swing).artifact ==
                      rt::Artifact::kStall
                  ? 1
                  : 0;
  }
  EXPECT_EQ(stalls, 3);
}

TEST_F(JavaReplicaTest, SwingRefinementSkipsCaretFreeCalls) {
  // Refined: the 24 caret-free addDirtyRegion calls never pause, so the
  // run is far faster than the unrefined one at the same T.
  swinglike::SwingOptions swing;
  swing.base = options_;
  swing.base.pause = 30ms;
  swing.refined = true;
  const double refined = swinglike::run_deadlock1(swing).runtime_seconds;
  Engine::instance().reset();
  swing.refined = false;
  const double unrefined = swinglike::run_deadlock1(swing).runtime_seconds;
  EXPECT_LT(refined * 1.5, unrefined);
}

TEST_F(JavaReplicaTest, SwingDormantWithoutBreakpoints) {
  swinglike::SwingOptions swing;
  swing.base = options_;
  swing.base.breakpoints = false;
  EXPECT_FALSE(swinglike::run_deadlock1(swing).buggy());
}

}  // namespace
}  // namespace cbp::apps
