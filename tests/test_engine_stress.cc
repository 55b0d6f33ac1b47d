// Concurrency stress test for the interned-name engine fast paths.
//
// Many threads hammer many distinct breakpoint names with a mix of
// outcomes — spec-disabled, local-reject, bound-suppressed, postponed
// timeout, and matched pairs — all concurrently.  The non-matching
// outcomes count themselves without the slot mutex: local rejects,
// ignores and bounded-outs add to per-thread stripes, arrivals and hits
// to shared atomics, and `calls` is derived from them at snapshot time.
// Every add is atomic, so the quiescent totals must be EXACT, not
// approximate: this pins down that the lock-free interning, spec and
// admission paths lose no events and double-count nothing — also when
// more threads than stripes share stripes, and after reset() has to
// zero every stripe.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/cbp.h"
#include "runtime/clock.h"

namespace cbp {
namespace {

using namespace std::chrono_literals;

constexpr int kThreads = 8;          // paired for the match category
// More threads than counter stripes, so some threads must share one.
constexpr int kManyThreads =
    2 * static_cast<int>(internal::HotCounters::kStripes) + 4;
constexpr int kDistinct = 32;        // names per non-blocking category
constexpr std::uint64_t kIters = 40; // per-thread calls per category
constexpr std::uint64_t kTimeoutIters = 4;
constexpr std::uint64_t kMatchIters = 25;

std::string name_for(const char* category, int index) {
  std::ostringstream os;
  os << "stress-" << category << '-' << index;
  return os.str();
}

class EngineStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Engine::instance().reset();
    BreakpointSpec::clear_installed();
    Config::set_enabled(true);
    Config::set_default_timeout(100ms);
    rt::TimeScale::set(1.0);
  }

  void TearDown() override {
    BreakpointSpec::clear_installed();
    Engine::instance().reset();
    Config::set_enabled(true);
  }
};

/// One round of the mixed workload on `threads` threads (even, and a
/// multiple of 4 so every local-reject name gets the same share), then
/// the exact counter checks.  Expects the spec installed by the test and
/// counters that start from zero.
void run_mixed_round(int threads) {
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([t, threads] {
      // Non-blocking categories: every thread sweeps every name.
      for (std::uint64_t i = 0; i < kIters; ++i) {
        const int index = static_cast<int>((i * threads + t) % kDistinct);

        // Spec-disabled: returns false before any counter is touched.
        OrderTrigger off(name_for("off", index));
        EXPECT_FALSE(off.trigger_here(true, 0ms));

        // Local predicate rejects: calls and local_rejects only.
        PredicateTrigger reject(
            name_for("reject", index), [] { return false; },
            [](const BTrigger&) { return true; });
        EXPECT_FALSE(reject.trigger_here(true, 0ms));

        // bound=0: arrival recorded, then suppressed (hits >= 0 always).
        OrderTrigger bounded(name_for("bound", index));
        EXPECT_FALSE(bounded.trigger_here(true, 0ms));
      }

      // Timeout category: a per-thread private name, so no peer ever
      // arrives and every call postpones then times out.
      for (std::uint64_t i = 0; i < kTimeoutIters; ++i) {
        OrderTrigger alone(name_for("timeout", t));
        EXPECT_FALSE(alone.trigger_here(true, 1ms));
      }

      // Match category: threads t and t^1 share a name and opposite
      // ranks; each rendezvous is its own barrier, so both sides run in
      // lockstep and every single call hits.
      const std::string match_name = name_for("match", t / 2);
      for (std::uint64_t i = 0; i < kMatchIters; ++i) {
        OrderTrigger paired(match_name);
        EXPECT_TRUE(paired.trigger_here((t & 1) == 0, 10000ms));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  // --- spec-disabled names: never counted, never listed -------------
  for (int i = 0; i < kDistinct; ++i) {
    const BreakpointStats off = Engine::instance().stats(name_for("off", i));
    EXPECT_EQ(off.calls, 0u);
    EXPECT_EQ(off.arrivals, 0u);
  }

  // --- local-reject names -------------------------------------------
  // `threads` sweeps of kIters calls spread round-robin over kDistinct
  // names: threads * kIters / kDistinct calls per name, exactly.
  const auto n_threads = static_cast<std::uint64_t>(threads);
  const std::uint64_t per_name = n_threads * kIters / kDistinct;
  for (int i = 0; i < kDistinct; ++i) {
    const BreakpointStats s = Engine::instance().stats(name_for("reject", i));
    EXPECT_EQ(s.calls, per_name) << "reject name " << i;
    EXPECT_EQ(s.local_rejects, per_name);
    EXPECT_EQ(s.arrivals, 0u);
    EXPECT_EQ(s.postponed, 0u);
  }

  // --- bound=0 names ------------------------------------------------
  for (int i = 0; i < kDistinct; ++i) {
    const BreakpointStats s = Engine::instance().stats(name_for("bound", i));
    EXPECT_EQ(s.calls, per_name) << "bound name " << i;
    EXPECT_EQ(s.arrivals, per_name);
    EXPECT_EQ(s.bounded, per_name);
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.postponed, 0u);
  }

  // --- timeout names ------------------------------------------------
  for (int t = 0; t < threads; ++t) {
    const BreakpointStats s = Engine::instance().stats(name_for("timeout", t));
    EXPECT_EQ(s.calls, kTimeoutIters) << "timeout name " << t;
    EXPECT_EQ(s.postponed, kTimeoutIters);
    EXPECT_EQ(s.timeouts, kTimeoutIters);
    EXPECT_EQ(s.hits, 0u);
  }

  // --- matched pairs ------------------------------------------------
  for (int pair = 0; pair < threads / 2; ++pair) {
    const BreakpointStats s = Engine::instance().stats(name_for("match", pair));
    EXPECT_EQ(s.calls, 2 * kMatchIters) << "match name " << pair;
    EXPECT_EQ(s.hits, kMatchIters);
    EXPECT_EQ(s.participants, 2 * kMatchIters);
    EXPECT_EQ(s.timeouts, 0u);
    // Exactly one side of each pair postpones before its peer arrives.
    EXPECT_EQ(s.postponed, kMatchIters);
  }

  // --- global invariants over every touched name --------------------
  BreakpointStats summed;
  for (const std::string& name : Engine::instance().names()) {
    EXPECT_EQ(name.find("stress-off-"), std::string::npos)
        << "spec-disabled name leaked into names(): " << name;
    const BreakpointStats s = Engine::instance().stats(name);
    EXPECT_EQ(s.arrivals, s.calls - s.local_rejects) << name;
    EXPECT_EQ(s.participants, 2 * s.hits) << name;
    EXPECT_EQ(s.postponed, s.timeouts + s.cancelled + s.hits) << name;
    summed += s;
  }

  const BreakpointStats total = Engine::instance().total_stats();
  EXPECT_EQ(total.calls, summed.calls);
  EXPECT_EQ(total.arrivals, summed.arrivals);
  EXPECT_EQ(total.local_rejects, summed.local_rejects);
  EXPECT_EQ(total.bounded, summed.bounded);
  EXPECT_EQ(total.postponed, summed.postponed);
  EXPECT_EQ(total.timeouts, summed.timeouts);
  EXPECT_EQ(total.cancelled, summed.cancelled);
  EXPECT_EQ(total.hits, summed.hits);
  EXPECT_EQ(total.participants, summed.participants);

  // Per thread: kIters reject and kIters bound calls, then the timeout
  // and match calls.
  const std::uint64_t expected_calls =
      n_threads * (2 * kIters + kTimeoutIters + kMatchIters);
  EXPECT_EQ(total.calls, expected_calls);
  EXPECT_EQ(total.hits, n_threads / 2 * kMatchIters);
}

TEST_F(EngineStressTest, MixedOutcomesAcrossThreadsKeepExactCounters) {
  // Spec: one block of names disabled outright, one block bounded to
  // zero hits (every arrival suppressed).  reset() keeps it installed.
  std::ostringstream spec_text;
  for (int i = 0; i < kDistinct; ++i) {
    spec_text << name_for("off", i) << " off\n";
    spec_text << name_for("bound", i) << " bound=0\n";
  }
  BreakpointSpec::parse(spec_text.str()).install();

  // Each thread count runs twice with a reset() in between: thread ids
  // are consecutive, so kManyThreads threads write every stripe, and the
  // second round's exact totals fail if reset() missed one.
  for (const int threads : {kThreads, kManyThreads}) {
    for (int round = 0; round < 2; ++round) {
      SCOPED_TRACE(::testing::Message()
                   << threads << " threads, round " << round);
      Engine::instance().reset();
      run_mixed_round(threads);
    }
  }
}

// Interning the same names from many threads at once must yield one
// record per name (no lost or duplicated stats), including when the
// names spill past the lock-free probe cells into the overflow map.
TEST_F(EngineStressTest, ConcurrentInterningIsRaceFreeAndStable) {
  constexpr int kNames = 256;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kNames; ++i) {
        PredicateTrigger bt(
            name_for("intern", i), [] { return false; },
            [](const BTrigger&) { return true; });
        bt.trigger_here(true, 0ms);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int i = 0; i < kNames; ++i) {
    const BreakpointStats s = Engine::instance().stats(name_for("intern", i));
    EXPECT_EQ(s.calls, static_cast<std::uint64_t>(kThreads)) << i;
    EXPECT_EQ(s.local_rejects, static_cast<std::uint64_t>(kThreads)) << i;
  }
  EXPECT_EQ(Engine::instance().names().size(),
            static_cast<std::size_t>(kNames));
}

}  // namespace
}  // namespace cbp
