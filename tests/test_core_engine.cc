// Tests for the BTRIGGER engine: matching, postponement, timeout,
// ordering, refinements, cancellation, statistics, and the k-ary
// generalization.

#include <gtest/gtest.h>

#include <sys/prctl.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/cbp.h"
#include "runtime/clock.h"
#include "runtime/latch.h"

namespace cbp {
namespace {

using namespace std::chrono_literals;

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Engine::instance().reset();
    Engine::instance().set_hit_observer(nullptr);
    Config::set_enabled(true);
    Config::set_default_timeout(100ms);
    Config::set_order_delay(std::chrono::microseconds(200));
    Config::set_guard_wait_cap(5000ms);
    rt::TimeScale::set(1.0);
  }

  void TearDown() override {
    Engine::instance().reset();
    Engine::instance().set_hit_observer(nullptr);
    Config::set_enabled(true);
    rt::TimeScale::set(1.0);
  }
};

// A sequence recorder for ordering assertions.
class Sequence {
 public:
  void push(int v) {
    std::scoped_lock lock(mu_);
    values_.push_back(v);
  }
  std::vector<int> values() {
    std::scoped_lock lock(mu_);
    return values_;
  }

 private:
  std::mutex mu_;
  std::vector<int> values_;
};

// ---------------------------------------------------------------------------
// Basic matching
// ---------------------------------------------------------------------------

TEST_F(EngineTest, HitWhenBothSidesArriveOnSameObject) {
  int obj = 0;
  bool hit_a = false, hit_b = false;
  std::thread a([&] {
    ConflictTrigger t("bp", &obj);
    hit_a = t.trigger_here(true, 2000ms);
  });
  std::thread b([&] {
    ConflictTrigger t("bp", &obj);
    hit_b = t.trigger_here(false, 2000ms);
  });
  a.join();
  b.join();
  EXPECT_TRUE(hit_a);
  EXPECT_TRUE(hit_b);
  const auto stats = Engine::instance().stats("bp");
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.participants, 2u);
}

TEST_F(EngineTest, NoHitOnDifferentObjects) {
  int obj1 = 0, obj2 = 0;
  bool hit_a = false, hit_b = false;
  std::thread a([&] {
    ConflictTrigger t("bp", &obj1);
    hit_a = t.trigger_here(true, 50ms);
  });
  std::thread b([&] {
    ConflictTrigger t("bp", &obj2);
    hit_b = t.trigger_here(false, 50ms);
  });
  a.join();
  b.join();
  EXPECT_FALSE(hit_a);
  EXPECT_FALSE(hit_b);
  EXPECT_EQ(Engine::instance().stats("bp").hits, 0u);
  EXPECT_EQ(Engine::instance().stats("bp").timeouts, 2u);
}

TEST_F(EngineTest, NoHitOnDifferentNames) {
  int obj = 0;
  bool hit_a = false, hit_b = false;
  std::thread a([&] {
    ConflictTrigger t("bp-one", &obj);
    hit_a = t.trigger_here(true, 50ms);
  });
  std::thread b([&] {
    ConflictTrigger t("bp-two", &obj);
    hit_b = t.trigger_here(false, 50ms);
  });
  a.join();
  b.join();
  EXPECT_FALSE(hit_a);
  EXPECT_FALSE(hit_b);
}

TEST_F(EngineTest, SameThreadCannotMatchItself) {
  int obj = 0;
  ConflictTrigger first("bp", &obj);
  // Single thread calling twice sequentially: the first call times out
  // before the second begins, so there is never a concurrent peer.
  EXPECT_FALSE(first.trigger_here(true, 20ms));
  ConflictTrigger second("bp", &obj);
  EXPECT_FALSE(second.trigger_here(false, 20ms));
  EXPECT_EQ(Engine::instance().stats("bp").hits, 0u);
}

TEST_F(EngineTest, TimeoutWhenAlone) {
  int obj = 0;
  ConflictTrigger t("bp", &obj);
  rt::Stopwatch sw;
  EXPECT_FALSE(t.trigger_here(true, 60ms));
  EXPECT_GE(sw.elapsed_us(), 50'000);
  const auto stats = Engine::instance().stats("bp");
  EXPECT_EQ(stats.postponed, 1u);
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_GE(stats.total_wait_us, 50'000);
}

TEST_F(EngineTest, TimeScaleShortensPostponement) {
  rt::ScopedTimeScale scale(0.1);
  int obj = 0;
  ConflictTrigger t("bp", &obj);
  rt::Stopwatch sw;
  EXPECT_FALSE(t.trigger_here(true, 200ms));  // scaled to 20ms
  EXPECT_LT(sw.elapsed_us(), 150'000);
}

TEST_F(EngineTest, DisabledBreakpointsAreNoops) {
  Config::set_enabled(false);
  int obj = 0;
  ConflictTrigger t("bp", &obj);
  rt::Stopwatch sw;
  EXPECT_FALSE(t.trigger_here(true, 1000ms));
  EXPECT_LT(sw.elapsed_us(), 50'000);  // no postponement at all
  EXPECT_EQ(Engine::instance().stats("bp").calls, 0u);
}

TEST_F(EngineTest, LocalPredicateFalseSkipsPostponement) {
  PredicateTrigger t(
      "bp", [] { return false; },
      [](const BTrigger&) { return true; });
  rt::Stopwatch sw;
  EXPECT_FALSE(t.trigger_here(true, 1000ms));
  EXPECT_LT(sw.elapsed_us(), 50'000);
  const auto stats = Engine::instance().stats("bp");
  EXPECT_EQ(stats.local_rejects, 1u);
  EXPECT_EQ(stats.postponed, 0u);
}

// ---------------------------------------------------------------------------
// Ordering semantics
// ---------------------------------------------------------------------------

TEST_F(EngineTest, ScopedOrderingFirstActionExecutesFirst) {
  for (int round = 0; round < 10; ++round) {
    Engine::instance().reset();
    int obj = 0;
    Sequence seq;
    std::thread first([&] {
      ConflictTrigger t("bp", &obj);
      auto result = t.trigger_here_scoped(true, 2000ms);
      ASSERT_TRUE(result.hit);
      seq.push(1);  // the "next instruction" of the first-action thread
      result.guard.release();
      seq.push(11);
    });
    std::thread second([&] {
      ConflictTrigger t("bp", &obj);
      auto result = t.trigger_here_scoped(false, 2000ms);
      ASSERT_TRUE(result.hit);
      seq.push(2);
      result.guard.release();
    });
    first.join();
    second.join();
    const auto values = seq.values();
    ASSERT_GE(values.size(), 2u);
    EXPECT_EQ(values[0], 1) << "round " << round;
  }
}

TEST_F(EngineTest, ScopedOrderingHoldsSecondUntilGuardDestroyed) {
  int obj = 0;
  rt::TimePoint first_released_at{};
  rt::TimePoint second_resumed_at{};
  std::thread first([&] {
    ConflictTrigger t("bp", &obj);
    auto result = t.trigger_here_scoped(true, 2000ms);
    ASSERT_TRUE(result.hit);
    std::this_thread::sleep_for(50ms);  // long "next instruction"
    first_released_at = rt::Clock::now();
    result.guard.release();
  });
  std::thread second([&] {
    ConflictTrigger t("bp", &obj);
    auto result = t.trigger_here_scoped(false, 2000ms);
    ASSERT_TRUE(result.hit);
    second_resumed_at = rt::Clock::now();
  });
  first.join();
  second.join();
  EXPECT_GE(second_resumed_at, first_released_at);
}

TEST_F(EngineTest, PlainOrderingDelaysSecondThread) {
  // The order delay is host time: a time scale shortens the
  // postponement, never the order delay.
  constexpr auto kDelay = std::chrono::microseconds(30'000);
  for (const double scale : {1.0, 0.02}) {
    SCOPED_TRACE(scale);
    Engine::instance().reset();
    rt::TimeScale::set(scale);
    Config::set_order_delay(kDelay);
    // The same 2 s real postponement at either scale.
    const std::chrono::milliseconds timeout(static_cast<int>(2000 / scale));
    int obj = 0;
    std::atomic<bool> first_returned{false};
    std::atomic<bool> second_saw_first{false};
    rt::TimePoint first_at, second_at;
    std::thread first([&] {
      ConflictTrigger t("bp", &obj);
      EXPECT_TRUE(t.trigger_here(true, timeout));
      first_at = rt::Clock::now();
      first_returned = true;
    });
    std::thread second([&] {
      ConflictTrigger t("bp", &obj);
      EXPECT_TRUE(t.trigger_here(false, timeout));
      second_at = rt::Clock::now();
      second_saw_first = first_returned.load();
    });
    first.join();
    second.join();
    EXPECT_TRUE(second_saw_first.load());
    EXPECT_GE(second_at - first_at, kDelay * 8 / 10);
  }
}

TEST_F(EngineTest, PlainHitKeepsCallerTimerSlack) {
  // The order-delay sleep runs without timer slack and then restores
  // the caller's: the application's threads keep their own slack.
  constexpr int kSlackNs = 3'000'000;
  int obj = 0;
  auto leg = [&](bool is_first, bool& hit, int& slack_after) {
    ASSERT_EQ(::prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(kSlackNs)),
              0);
    ConflictTrigger t("bp", &obj);
    hit = t.trigger_here(is_first, 2000ms);
    slack_after = ::prctl(PR_GET_TIMERSLACK);
  };
  bool hit_first = false, hit_second = false;
  int slack_first = 0, slack_second = 0;
  std::thread first(leg, true, std::ref(hit_first), std::ref(slack_first));
  std::thread second(leg, false, std::ref(hit_second), std::ref(slack_second));
  first.join();
  second.join();
  EXPECT_TRUE(hit_first);
  EXPECT_TRUE(hit_second);
  EXPECT_EQ(slack_first, kSlackNs);
  EXPECT_EQ(slack_second, kSlackNs);
}

TEST_F(EngineTest, SameDeclaredRankStillMatches) {
  // Both sites passed is_first=true (a plausible user slip); the engine
  // orders the earlier-postponed thread first instead of dropping the hit.
  int obj = 0;
  bool hit_a = false, hit_b = false;
  rt::Latch a_postponed(1);
  std::thread a([&] {
    ConflictTrigger t("bp", &obj);
    a_postponed.count_down();
    hit_a = t.trigger_here(true, 2000ms);
  });
  a_postponed.wait();
  std::this_thread::sleep_for(20ms);
  std::thread b([&] {
    ConflictTrigger t("bp", &obj);
    hit_b = t.trigger_here(true, 2000ms);
  });
  a.join();
  b.join();
  EXPECT_TRUE(hit_a);
  EXPECT_TRUE(hit_b);
}

TEST_F(EngineTest, LeakedGuardDegradesToCapNotHang) {
  Config::set_guard_wait_cap(100ms);
  int obj = 0;
  OrderingGuard leaked;
  std::thread first([&] {
    ConflictTrigger t("bp", &obj);
    auto result = t.trigger_here_scoped(true, 2000ms);
    ASSERT_TRUE(result.hit);
    leaked = std::move(result.guard);  // never released inside this thread
  });
  rt::Stopwatch sw;
  std::thread second([&] {
    ConflictTrigger t("bp", &obj);
    ASSERT_TRUE(t.trigger_here(false, 2000ms));
  });
  first.join();
  second.join();
  EXPECT_LT(sw.elapsed_us(), 2'000'000);  // capped, not hung
  leaked.release();
}

// ---------------------------------------------------------------------------
// Refinements (paper §6.3)
// ---------------------------------------------------------------------------

TEST_F(EngineTest, BoundStopsParticipationAfterNHits) {
  int obj = 0;
  // First pair hits.
  std::thread a([&] {
    ConflictTrigger t("bp", &obj);
    t.bound(1);
    EXPECT_TRUE(t.trigger_here(true, 2000ms));
  });
  std::thread b([&] {
    ConflictTrigger t("bp", &obj);
    t.bound(1);
    EXPECT_TRUE(t.trigger_here(false, 2000ms));
  });
  a.join();
  b.join();
  // Further calls are suppressed instantly.
  ConflictTrigger t("bp", &obj);
  t.bound(1);
  rt::Stopwatch sw;
  EXPECT_FALSE(t.trigger_here(true, 1000ms));
  EXPECT_LT(sw.elapsed_us(), 100'000);
  const auto stats = Engine::instance().stats("bp");
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.bounded, 1u);
}

TEST_F(EngineTest, IgnoreFirstSkipsEarlyPostponements) {
  int obj = 0;
  rt::Stopwatch sw;
  for (int i = 0; i < 5; ++i) {
    ConflictTrigger t("bp", &obj);
    t.ignore_first(5);
    EXPECT_FALSE(t.trigger_here(true, 1000ms));
  }
  // Five 1 s timeouts would take 5 s; ignored arrivals return immediately.
  EXPECT_LT(sw.elapsed_us(), 500'000);
  const auto stats = Engine::instance().stats("bp");
  EXPECT_EQ(stats.ignored, 5u);
  EXPECT_EQ(stats.postponed, 0u);
}

TEST_F(EngineTest, IgnoredArrivalNeverMatchesNorPostpones) {
  // An arrival inside the ignore_first window is skipped entirely: it
  // must not complete a match against a postponed peer (it used to —
  // the ignore check ran after try_match), and it must not postpone.
  int obj = 0;
  rt::Latch postponed(1);
  std::thread waiter([&] {
    ConflictTrigger t("bp", &obj);  // no refinement: this one postpones
    postponed.count_down();
    EXPECT_FALSE(t.trigger_here(true, 200ms));  // times out: peer ignored
  });
  postponed.wait();
  std::this_thread::sleep_for(20ms);
  ConflictTrigger t("bp", &obj);
  t.ignore_first(1'000'000);  // every arrival falls in the window
  EXPECT_FALSE(t.trigger_here(false, 10ms));
  waiter.join();
  const BreakpointStats stats = Engine::instance().stats("bp");
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.ignored, 1u);
  EXPECT_EQ(stats.postponed, 1u);  // only the unrefined waiter
  EXPECT_EQ(stats.timeouts, 1u);
}

// ---------------------------------------------------------------------------
// Cancellation / reset
// ---------------------------------------------------------------------------

TEST_F(EngineTest, CancelAllWakesPostponedThreadEarly) {
  int obj = 0;
  rt::Latch postponed(1);
  rt::Stopwatch sw;
  std::thread waiter([&] {
    ConflictTrigger t("bp", &obj);
    postponed.count_down();
    EXPECT_FALSE(t.trigger_here(true, 5000ms));
  });
  postponed.wait();
  std::this_thread::sleep_for(20ms);
  Engine::instance().cancel_all();
  waiter.join();
  EXPECT_LT(sw.elapsed_us(), 2'000'000);
  EXPECT_EQ(Engine::instance().stats("bp").cancelled, 1u);
}

TEST_F(EngineTest, ResetClearsStatistics) {
  int obj = 0;
  ConflictTrigger t("bp", &obj);
  EXPECT_FALSE(t.trigger_here(true, 10ms));
  EXPECT_EQ(Engine::instance().stats("bp").calls, 1u);
  Engine::instance().reset();
  EXPECT_EQ(Engine::instance().stats("bp").calls, 0u);
  EXPECT_TRUE(Engine::instance().names().empty());
}

TEST_F(EngineTest, NamesListsAllSlotsSorted) {
  int obj = 0;
  ConflictTrigger b("b-bp", &obj);
  ConflictTrigger a("a-bp", &obj);
  (void)b.trigger_here(true, 1ms);
  (void)a.trigger_here(true, 1ms);
  const auto names = Engine::instance().names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a-bp");
  EXPECT_EQ(names[1], "b-bp");
}

TEST_F(EngineTest, TotalStatsAggregatesAcrossNames) {
  int obj = 0;
  ConflictTrigger a("one", &obj);
  ConflictTrigger b("two", &obj);
  (void)a.trigger_here(true, 1ms);
  (void)b.trigger_here(true, 1ms);
  const auto total = Engine::instance().total_stats();
  EXPECT_EQ(total.calls, 2u);
  EXPECT_EQ(total.timeouts, 2u);
}

// ---------------------------------------------------------------------------
// Hit observer
// ---------------------------------------------------------------------------

TEST_F(EngineTest, HitObserverReceivesHitInfo) {
  std::mutex mu;
  std::vector<HitInfo> hits;
  Engine::instance().set_hit_observer([&](const HitInfo& info) {
    std::scoped_lock lock(mu);
    hits.push_back(info);
  });
  int obj = 0;
  std::thread a([&] {
    ConflictTrigger t("observed-bp", &obj);
    EXPECT_TRUE(t.trigger_here(true, 2000ms));
  });
  std::thread b([&] {
    ConflictTrigger t("observed-bp", &obj);
    EXPECT_TRUE(t.trigger_here(false, 2000ms));
  });
  a.join();
  b.join();
  std::scoped_lock lock(mu);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].name, "observed-bp");
  EXPECT_EQ(hits[0].arity, 2);
  ASSERT_EQ(hits[0].threads.size(), 2u);
  EXPECT_NE(hits[0].threads[0], hits[0].threads[1]);
  EXPECT_NE(hits[0].description.find("Conflict"), std::string::npos);
}

// ---------------------------------------------------------------------------
// k-ary generalization
// ---------------------------------------------------------------------------

TEST_F(EngineTest, ThreeWayRendezvousHits) {
  std::atomic<int> hits{0};
  std::vector<std::thread> threads;
  for (int rank = 0; rank < 3; ++rank) {
    threads.emplace_back([&, rank] {
      OrderTrigger t("three-way");
      if (t.trigger_here_ranked(rank, 3, 2000ms)) hits.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(hits.load(), 3);
  EXPECT_EQ(Engine::instance().stats("three-way").hits, 1u);
}

TEST_F(EngineTest, ThreeWayRendezvousRespectsRankOrder) {
  for (int round = 0; round < 5; ++round) {
    Engine::instance().reset();
    Sequence seq;
    std::vector<std::thread> threads;
    for (int rank = 0; rank < 3; ++rank) {
      threads.emplace_back([&, rank] {
        OrderTrigger t("three-way");
        auto result = t.trigger_here_ranked_scoped(rank, 3, 2000ms);
        ASSERT_TRUE(result.hit);
        seq.push(rank);
        result.guard.release();
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(seq.values(), (std::vector<int>{0, 1, 2})) << "round " << round;
  }
}

TEST_F(EngineTest, ThreeWayDoesNotFireWithOnlyTwoThreads) {
  std::atomic<int> hits{0};
  std::vector<std::thread> threads;
  for (int rank = 0; rank < 2; ++rank) {
    threads.emplace_back([&, rank] {
      OrderTrigger t("three-way");
      if (t.trigger_here_ranked(rank, 3, 100ms)) hits.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(hits.load(), 0);
}

TEST_F(EngineTest, MixedAritiesDoNotCrossMatch) {
  std::atomic<int> hits{0};
  std::thread a([&] {
    OrderTrigger t("mixed");
    if (t.trigger_here_ranked(0, 3, 100ms)) hits.fetch_add(1);
  });
  std::thread b([&] {
    OrderTrigger t("mixed");
    if (t.trigger_here(false, 100ms)) hits.fetch_add(1);
  });
  a.join();
  b.join();
  EXPECT_EQ(hits.load(), 0);
}

// ---------------------------------------------------------------------------
// Repeated hits and multiple pairs
// ---------------------------------------------------------------------------

TEST_F(EngineTest, BreakpointHitsRepeatedlyAcrossIterations) {
  int obj = 0;
  constexpr int kIterations = 20;
  std::atomic<int> hits_a{0}, hits_b{0};
  std::thread a([&] {
    for (int i = 0; i < kIterations; ++i) {
      ConflictTrigger t("loop-bp", &obj);
      if (t.trigger_here(true, 2000ms)) hits_a.fetch_add(1);
    }
  });
  std::thread b([&] {
    for (int i = 0; i < kIterations; ++i) {
      ConflictTrigger t("loop-bp", &obj);
      if (t.trigger_here(false, 2000ms)) hits_b.fetch_add(1);
    }
  });
  a.join();
  b.join();
  EXPECT_EQ(hits_a.load(), kIterations);
  EXPECT_EQ(hits_b.load(), kIterations);
  EXPECT_EQ(Engine::instance().stats("loop-bp").hits,
            static_cast<std::uint64_t>(kIterations));
}

TEST_F(EngineTest, FourThreadsFormTwoDistinctPairs) {
  int obj_x = 0, obj_y = 0;
  std::atomic<int> hits{0};
  auto worker = [&](const void* obj, bool first) {
    ConflictTrigger t("pairs", obj);
    if (t.trigger_here(first, 2000ms)) hits.fetch_add(1);
  };
  std::thread a(worker, &obj_x, true);
  std::thread b(worker, &obj_x, false);
  std::thread c(worker, &obj_y, true);
  std::thread d(worker, &obj_y, false);
  a.join();
  b.join();
  c.join();
  d.join();
  EXPECT_EQ(hits.load(), 4);
  EXPECT_EQ(Engine::instance().stats("pairs").hits, 2u);
}

// ---------------------------------------------------------------------------
// Cold-spec pre-screen invalidation (DESIGN.md 5i)
// ---------------------------------------------------------------------------

// A spec with an exhausted bound publishes a sticky "cold" marker on the
// interned record so later armed calls skip even the hits load.  The
// marker is keyed by spec-entry identity: installing a NEW spec for the
// same name (after trigger objects have long cached the record) must
// drop it — a stale fast-path reject would silently disarm the freshly
// configured breakpoint.
TEST_F(EngineTest, NewSpecGenerationInvalidatesColdBoundPreScreen) {
  int obj = 0;
  {
    std::unordered_map<std::string, SpecOverride> spec;
    spec["bp"].bound = 0;  // hit budget already exhausted
    Engine::instance().set_spec(spec);
  }
  // Reused trigger: the record (and the sticky) cache stays warm.
  ConflictTrigger t("bp", &obj);
  rt::Stopwatch sw;
  EXPECT_FALSE(t.trigger_here(true, 1000ms));
  EXPECT_FALSE(t.trigger_here(true, 1000ms));  // sticky fast path
  EXPECT_LT(sw.elapsed_us(), 100'000);
  EXPECT_EQ(Engine::instance().stats("bp").bounded, 2u);

  // Lift the bound by installing a new generation: the same cached
  // record must rendezvous again immediately.
  {
    std::unordered_map<std::string, SpecOverride> spec;
    spec["bp"].bound = 8;
    Engine::instance().set_spec(spec);
  }
  std::thread a([&] {
    ConflictTrigger x("bp", &obj);
    EXPECT_TRUE(x.trigger_here(true, 2000ms));
  });
  std::thread b([&] {
    ConflictTrigger y("bp", &obj);
    EXPECT_TRUE(y.trigger_here(false, 2000ms));
  });
  a.join();
  b.join();
  const auto stats = Engine::instance().stats("bp");
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.bounded, 2u);  // no new bounded-out rejects
}

TEST_F(EngineTest, ClearingSpecRestoresParticipation) {
  int obj = 0;
  {
    std::unordered_map<std::string, SpecOverride> spec;
    spec["bp"].bound = 0;
    Engine::instance().set_spec(spec);
  }
  ConflictTrigger t("bp", &obj);
  EXPECT_FALSE(t.trigger_here(true, 1000ms));
  EXPECT_EQ(Engine::instance().stats("bp").bounded, 1u);

  // Remove the spec entirely: the programmatic default (no bound) rules
  // again, so a lone arrival postpones for its timeout instead of being
  // bounded out by a leftover sticky.
  Engine::instance().set_spec({});
  rt::Stopwatch sw;
  EXPECT_FALSE(t.trigger_here(true, 60ms));
  EXPECT_GE(sw.elapsed_us(), 50'000);  // actually waited: participated
  const auto stats = Engine::instance().stats("bp");
  EXPECT_EQ(stats.postponed, 1u);
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.bounded, 1u);
}

// `flip` is defined for binary ranks only: spec parsing rejects
// flip+pattern outright, but a k-ary trigger under a flip entry can
// only be caught at trigger time.  It must warn once (not per call),
// leave the rank unflipped, and otherwise behave normally.
TEST_F(EngineTest, FlipOnNonBinaryArityWarnsOnceAndIsIgnored) {
  int obj = 0;
  {
    std::unordered_map<std::string, SpecOverride> spec;
    spec["flip-kary"].flip_order = true;
    Engine::instance().set_spec(spec);
  }
  ConflictTrigger t("flip-kary", &obj);

  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(t.trigger_here_ranked(0, 3, 20ms));  // lone arrival: timeout
  const std::string first = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(first.find("flip"), std::string::npos) << first;
  EXPECT_NE(first.find("flip-kary"), std::string::npos) << first;
  EXPECT_NE(first.find("arity 3"), std::string::npos) << first;

  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(t.trigger_here_ranked(0, 3, 20ms));
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");  // once only

  // The flip was ignored, not half-applied: both calls participated as
  // rank 0 of 3 and timed out like any lone k-ary arrival.
  const auto stats = Engine::instance().stats("flip-kary");
  EXPECT_EQ(stats.postponed, 2u);
  EXPECT_EQ(stats.timeouts, 2u);
  Engine::instance().set_spec({});
}

}  // namespace
}  // namespace cbp
