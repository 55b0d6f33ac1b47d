// Tests for the schedule-fuzzing substrate: ConTest-style noise,
// PCT-lite priorities, and the CalFuzzer-style active tester
// (Methodology I phases 1 and 2).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "detect/fasttrack.h"
#include "fuzz/active.h"
#include "fuzz/noise.h"
#include "fuzz/pct.h"
#include "instrument/shared_var.h"
#include "instrument/tracked_mutex.h"
#include "runtime/clock.h"
#include "runtime/latch.h"
#include "runtime/sim_crash.h"

namespace cbp::fuzz {
namespace {

using namespace std::chrono_literals;
using instr::ScopedListener;
using instr::SharedVar;
using instr::SourceLoc;
using instr::TrackedLock;
using instr::TrackedMutex;

// ---------------------------------------------------------------------------
// NoiseInjector
// ---------------------------------------------------------------------------

TEST(Noise, InjectsOnEveryAccessAtProbabilityOne) {
  NoiseOptions options;
  options.probability = 1.0;
  options.min_sleep = options.max_sleep = std::chrono::microseconds(1);
  NoiseInjector injector(options);
  ScopedListener registration(injector);
  SharedVar<int> x;
  for (int i = 0; i < 10; ++i) x.write(i);
  EXPECT_EQ(injector.injected(), 10u);
}

TEST(Noise, InjectsNothingAtProbabilityZero) {
  NoiseOptions options;
  options.probability = 0.0;
  NoiseInjector injector(options);
  ScopedListener registration(injector);
  SharedVar<int> x;
  for (int i = 0; i < 100; ++i) x.write(i);
  EXPECT_EQ(injector.injected(), 0u);
}

TEST(Noise, RespectsAccessFilter) {
  NoiseOptions options;
  options.probability = 1.0;
  options.at_accesses = false;
  options.min_sleep = options.max_sleep = std::chrono::microseconds(1);
  NoiseInjector injector(options);
  ScopedListener registration(injector);
  SharedVar<int> x;
  x.write(1);
  EXPECT_EQ(injector.injected(), 0u);
  TrackedMutex mu;
  {
    TrackedLock lock(mu);  // lock request still perturbed
  }
  EXPECT_EQ(injector.injected(), 1u);
}

TEST(Noise, RespectsLockRequestFilter) {
  NoiseOptions options;
  options.probability = 1.0;
  options.at_lock_requests = false;
  options.min_sleep = options.max_sleep = std::chrono::microseconds(1);
  NoiseInjector injector(options);
  ScopedListener registration(injector);
  TrackedMutex mu;
  {
    TrackedLock lock(mu);
  }
  EXPECT_EQ(injector.injected(), 0u);
}

TEST(Noise, InjectionRateRoughlyMatchesProbability) {
  NoiseOptions options;
  options.probability = 0.25;
  options.min_sleep = options.max_sleep = std::chrono::microseconds(1);
  NoiseInjector injector(options);
  ScopedListener registration(injector);
  SharedVar<int> x;
  constexpr int kEvents = 4000;
  for (int i = 0; i < kEvents; ++i) x.write(i);
  const double rate = static_cast<double>(injector.injected()) / kEvents;
  EXPECT_NEAR(rate, 0.25, 0.05);
}

// ---------------------------------------------------------------------------
// PctLiteScheduler
// ---------------------------------------------------------------------------

TEST(PctLite, CountsEvents) {
  PctOptions options;
  options.delay_unit = std::chrono::microseconds(0);
  PctLiteScheduler scheduler(options);
  ScopedListener registration(scheduler);
  SharedVar<int> x;
  for (int i = 0; i < 25; ++i) x.write(i);
  EXPECT_EQ(scheduler.events_seen(), 25u);
}

TEST(PctLite, MultiThreadedRunCompletes) {
  PctOptions options;
  options.delay_unit = std::chrono::microseconds(10);
  options.depth = 3;
  options.expected_events = 200;
  PctLiteScheduler scheduler(options);
  ScopedListener registration(scheduler);
  SharedVar<int> x;
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) x.racy_update([](int v) { return v + 1; });
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(scheduler.events_seen(), 300u);  // 3 threads * 50 * (read+write)
}

// ---------------------------------------------------------------------------
// Methodology I phase 1: candidate discovery
// ---------------------------------------------------------------------------

TEST(ActivePhase1, FindsRaceCandidateSites) {
  SharedVar<int> x;
  const auto candidates = find_race_candidates([&] {
    std::thread a([&] { x.write(1); });
    a.join();
    std::thread b([&] { x.write(2); });
    b.join();
  });
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_NE(candidates[0].site_a.file.find("test_fuzz.cc"),
            std::string_view::npos);
}

TEST(ActivePhase1, CleanWorkloadYieldsNoCandidates) {
  SharedVar<int> x;
  TrackedMutex mu;
  const auto candidates = find_race_candidates([&] {
    std::thread a([&] {
      TrackedLock lock(mu);
      x.write(1);
    });
    a.join();
    std::thread b([&] {
      TrackedLock lock(mu);
      x.write(2);
    });
    b.join();
  });
  EXPECT_TRUE(candidates.empty());
}

TEST(ActivePhase1, FindsDeadlockCandidatePair) {
  TrackedMutex lock_a, lock_b;
  const auto candidates = find_deadlock_candidates([&] {
    std::thread a([&] {
      TrackedLock outer(lock_a);
      TrackedLock inner(lock_b);
    });
    a.join();
    std::thread b([&] {
      TrackedLock outer(lock_b);
      TrackedLock inner(lock_a);
    });
    b.join();
  });
  ASSERT_EQ(candidates.size(), 1u);
  const bool pair_matches =
      (candidates[0].lock_a == &lock_a && candidates[0].lock_b == &lock_b) ||
      (candidates[0].lock_a == &lock_b && candidates[0].lock_b == &lock_a);
  EXPECT_TRUE(pair_matches);
}

// ---------------------------------------------------------------------------
// Methodology I phase 2: confirmation
// ---------------------------------------------------------------------------

TEST(RaceConfirmer, ConfirmsOverlappingRace) {
  SharedVar<int> x;
  SourceLoc site_a, site_b;

  // Discover the exact sites by recording one sequential run.
  {
    detect::FastTrackDetector detector;
    ScopedListener registration(detector);
    std::thread a([&] {
      site_a = SourceLoc::current();
      x.write(1, site_a);
    });
    a.join();
    std::thread b([&] {
      site_b = SourceLoc::current();
      x.write(2, site_b);
    });
    b.join();
    ASSERT_EQ(detector.races().size(), 1u);
  }

  // Confirm: two concurrent threads reach the sites at skewed times; the
  // confirmer's pause bridges the skew.
  RaceConfirmer confirmer(RaceCandidate{site_a, site_b},
                          std::chrono::microseconds(500'000));
  ScopedListener registration(confirmer);
  std::thread a([&] { x.write(1, site_a); });
  std::thread b([&] {
    std::this_thread::sleep_for(30ms);  // would miss without the pause
    x.write(2, site_b);
  });
  a.join();
  b.join();
  const auto confirmed = confirmer.confirmed();
  ASSERT_EQ(confirmed.size(), 1u);
  EXPECT_EQ(confirmed[0].kind, ConfirmedBug::Kind::kRace);
  EXPECT_EQ(confirmed[0].object, x.address());
  EXPECT_NE(confirmed[0].tid_a, confirmed[0].tid_b);
}

TEST(RaceConfirmer, DoesNotConfirmDistinctAddresses) {
  SharedVar<int> x, y;
  const SourceLoc site("site.cc", 1);
  RaceConfirmer confirmer(RaceCandidate{site, site},
                          std::chrono::microseconds(50'000));
  ScopedListener registration(confirmer);
  std::thread a([&] { x.write(1, site); });
  std::thread b([&] { y.write(2, site); });
  a.join();
  b.join();
  EXPECT_TRUE(confirmer.confirmed().empty());
}

TEST(RaceConfirmer, IgnoresUnrelatedSites) {
  SharedVar<int> x;
  RaceConfirmer confirmer(
      RaceCandidate{SourceLoc("a.cc", 1), SourceLoc("a.cc", 2)},
      std::chrono::microseconds(50'000));
  ScopedListener registration(confirmer);
  rt::Stopwatch sw;
  x.write(1);  // site does not match: must not pause
  EXPECT_LT(sw.elapsed_us(), 40'000);
  EXPECT_TRUE(confirmer.confirmed().empty());
}

TEST(DeadlockConfirmer, ConfirmsCrossingAndEscapesBothThreads) {
  TrackedMutex lock_a, lock_b;
  DeadlockConfirmer confirmer(DeadlockCandidate{&lock_a, &lock_b},
                              std::chrono::microseconds(2'000'000));
  ScopedListener registration(confirmer);
  std::atomic<int> escaped{0};
  std::thread a([&] {
    try {
      TrackedLock outer(lock_a);
      TrackedLock inner(lock_b);
    } catch (const DeadlockConfirmedError&) {
      escaped.fetch_add(1);
    }
  });
  std::thread b([&] {
    try {
      TrackedLock outer(lock_b);
      TrackedLock inner(lock_a);
    } catch (const DeadlockConfirmedError&) {
      escaped.fetch_add(1);
    }
  });
  a.join();
  b.join();
  EXPECT_EQ(escaped.load(), 2);
  ASSERT_EQ(confirmer.confirmed().size(), 1u);
  EXPECT_TRUE(confirmer.any_confirmed());
  EXPECT_EQ(confirmer.confirmed()[0].kind, ConfirmedBug::Kind::kDeadlock);
}

TEST(DeadlockConfirmer, ConsistentOrderIsNotConfirmed) {
  TrackedMutex lock_a, lock_b;
  DeadlockConfirmer confirmer(DeadlockCandidate{&lock_a, &lock_b},
                              std::chrono::microseconds(50'000));
  ScopedListener registration(confirmer);
  auto body = [&] {
    TrackedLock outer(lock_a);
    TrackedLock inner(lock_b);
  };
  std::thread a(body), b(body);
  a.join();
  b.join();
  EXPECT_TRUE(confirmer.confirmed().empty());
  EXPECT_FALSE(confirmer.any_confirmed());
}

// ---------------------------------------------------------------------------
// AtomicityConfirmer
// ---------------------------------------------------------------------------

TEST(AtomicityConfirmer, ConfirmsInterleavedBlockAndMakesItLive) {
  SharedVar<int> x(0);
  const SourceLoc begin_site("block.cc", 10);
  const SourceLoc end_site("block.cc", 20);
  const SourceLoc interleaver_site("other.cc", 30);

  AtomicityConfirmer confirmer(
      AtomicityCandidate{begin_site, end_site, interleaver_site},
      std::chrono::microseconds(500'000));
  ScopedListener registration(confirmer);

  std::thread owner([&] {
    // The intended-atomic read-modify-write block.
    const int value = x.read(begin_site);
    x.write(value + 1, end_site);
  });
  std::thread interleaver([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    x.write(100, interleaver_site);
  });
  owner.join();
  interleaver.join();

  const auto confirmed = confirmer.confirmed();
  ASSERT_EQ(confirmed.size(), 1u);
  EXPECT_EQ(confirmed[0].kind, fuzz::ConfirmedBug::Kind::kAtomicity);
  EXPECT_EQ(confirmed[0].object, x.address());
  // The violation is live: the block's write clobbered the interleaver's.
  EXPECT_EQ(x.peek(), 1);
}

TEST(AtomicityConfirmer, NoConfirmationWithoutInterleaver) {
  SharedVar<int> x(0);
  const SourceLoc begin_site("block.cc", 10);
  const SourceLoc end_site("block.cc", 20);
  const SourceLoc interleaver_site("other.cc", 30);
  AtomicityConfirmer confirmer(
      AtomicityCandidate{begin_site, end_site, interleaver_site},
      std::chrono::microseconds(20'000));
  ScopedListener registration(confirmer);
  const int value = x.read(begin_site);
  x.write(value + 1, end_site);  // pauses briefly, then proceeds
  EXPECT_TRUE(confirmer.confirmed().empty());
  EXPECT_EQ(x.peek(), 1);
}

TEST(AtomicityConfirmer, DistinctAddressesDoNotMatch) {
  SharedVar<int> x(0), y(0);
  const SourceLoc begin_site("block.cc", 10);
  const SourceLoc end_site("block.cc", 20);
  const SourceLoc interleaver_site("other.cc", 30);
  AtomicityConfirmer confirmer(
      AtomicityCandidate{begin_site, end_site, interleaver_site},
      std::chrono::microseconds(30'000));
  ScopedListener registration(confirmer);
  std::thread owner([&] {
    const int value = x.read(begin_site);
    x.write(value + 1, end_site);
  });
  std::thread interleaver([&] { y.write(100, interleaver_site); });
  owner.join();
  interleaver.join();
  EXPECT_TRUE(confirmer.confirmed().empty());
}

TEST(AtomicityConfirmer, SuggestionUsesAtomicityTrigger) {
  ConfirmedBug bug;
  bug.kind = ConfirmedBug::Kind::kAtomicity;
  bug.site_a = SourceLoc("StringBuffer.java", 239);
  bug.site_b = SourceLoc("StringBuffer.java", 449);
  bug.site_c = SourceLoc("StringBuffer.java", 444);
  EXPECT_NE(bug.report().find("Atomicity violation"), std::string::npos);
  const std::string suggestion = bug.breakpoint_suggestion("trigger3");
  EXPECT_NE(suggestion.find("AtomicityTrigger"), std::string::npos);
  EXPECT_NE(suggestion.find("StringBuffer.java:line 239"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// One-call active testing session
// ---------------------------------------------------------------------------

TEST(ActiveSession, FindsAndConfirmsRaceDeadlockAndAtomicity) {
  // A workload containing one of each bug class, all re-runnable.
  SharedVar<int> racy;
  SharedVar<int> blocky;
  TrackedMutex lock_a, lock_b;
  auto workload = [&] {
    // Race: two unsynchronized writers.
    std::thread w1([&] { racy.write(1); });
    std::thread w2([&] { racy.write(2); });
    w1.join();
    w2.join();
    // Deadlock: crossed acquisition order (threads tolerate the
    // confirmer's escape).  On parallel cores the unpaused schedule can
    // really deadlock, so the inner lock is taken with a stall bound: a
    // stalled thread drops its outer lock, lets the other thread through
    // and retries.  The unequal bounds keep the two from backing off in
    // lockstep.  lock_or_stall still reports the kLockRequest the
    // confirmer throws its escape from, and both threads still reach the
    // crossing at once.
    auto crossed = [](TrackedMutex& first, TrackedMutex& second,
                      std::chrono::milliseconds stall_after) {
      try {
        for (;;) {
          {
            TrackedLock outer(first);
            try {
              second.lock_or_stall(stall_after);
              second.unlock();
              return;
            } catch (const rt::StallError&) {
            }
          }
          std::this_thread::sleep_for(stall_after);
        }
      } catch (const DeadlockConfirmedError&) {
      }
    };
    std::thread d1([&] { crossed(lock_a, lock_b, 5ms); });
    std::thread d2([&] { crossed(lock_b, lock_a, 8ms); });
    d1.join();
    d2.join();
    // Atomicity: a read-modify-write block vs a plain write.
    std::thread a1([&] {
      const int value = blocky.read(SourceLoc("session-blk.cc", 1));
      blocky.write(value + 1, SourceLoc("session-blk.cc", 2));
    });
    std::thread a2([&] { blocky.write(9, SourceLoc("session-oth.cc", 3)); });
    a1.join();
    a2.join();
  };

  SessionOptions options;
  options.pause = std::chrono::microseconds(300'000);
  const SessionResult session = run_active_testing(workload, options);

  EXPECT_GT(session.candidates_tried, 0);
  bool race_found = false, deadlock_found = false, atomicity_found = false;
  for (const ConfirmedBug& bug : session.bugs) {
    race_found |= bug.kind == ConfirmedBug::Kind::kRace;
    deadlock_found |= bug.kind == ConfirmedBug::Kind::kDeadlock;
    atomicity_found |= bug.kind == ConfirmedBug::Kind::kAtomicity;
  }
  EXPECT_TRUE(race_found);
  EXPECT_TRUE(deadlock_found);
  EXPECT_TRUE(atomicity_found);
}

TEST(ActiveSession, CleanWorkloadConfirmsNothing) {
  SharedVar<int> x;
  TrackedMutex mu;
  auto workload = [&] {
    std::thread a([&] {
      TrackedLock lock(mu);
      x.write(1);
    });
    a.join();
    std::thread b([&] {
      TrackedLock lock(mu);
      x.write(2);
    });
    b.join();
  };
  const SessionResult session = run_active_testing(workload);
  EXPECT_TRUE(session.bugs.empty());
}

TEST(ActiveSession, ClassesCanBeDisabled) {
  SharedVar<int> racy;
  auto workload = [&] {
    std::thread w1([&] { racy.write(1); });
    std::thread w2([&] { racy.write(2); });
    w1.join();
    w2.join();
  };
  SessionOptions options;
  options.races = false;
  options.atomicity = false;
  options.deadlocks = false;
  const SessionResult session = run_active_testing(workload, options);
  EXPECT_EQ(session.candidates_tried, 0);
  EXPECT_TRUE(session.bugs.empty());
}

// ---------------------------------------------------------------------------
// Report rendering
// ---------------------------------------------------------------------------

TEST(ConfirmedBug, RaceReportAndSuggestion) {
  ConfirmedBug bug;
  bug.kind = ConfirmedBug::Kind::kRace;
  bug.site_a = SourceLoc("Test1.java", 15);
  bug.site_b = SourceLoc("Test1.java", 20);
  EXPECT_NE(bug.report().find("Data race detected"), std::string::npos);
  const std::string suggestion = bug.breakpoint_suggestion("trigger1");
  EXPECT_NE(suggestion.find("ConflictTrigger(\"trigger1\""),
            std::string::npos);
  EXPECT_NE(suggestion.find("is_first_action=*/true"), std::string::npos);
  EXPECT_NE(suggestion.find("Test1.java:line 15"), std::string::npos);
}

TEST(ConfirmedBug, DeadlockReportAndSuggestion) {
  ConfirmedBug bug;
  bug.kind = ConfirmedBug::Kind::kDeadlock;
  bug.site_a = SourceLoc("SocketClientFactory.java", 623);
  bug.site_b = SourceLoc("SocketClientFactory.java", 872);
  bug.tid_a = 10;
  bug.tid_b = 15;
  EXPECT_NE(bug.report().find("Deadlock found"), std::string::npos);
  EXPECT_NE(bug.breakpoint_suggestion("trigger2").find("DeadlockTrigger"),
            std::string::npos);
}

}  // namespace
}  // namespace cbp::fuzz
