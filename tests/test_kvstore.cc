// The sharded-KV high-traffic replica (DESIGN.md §5i): Zipfian workload
// generator properties, store unit behaviour (open addressing,
// tombstones, resize), the session-pool workload's mode wiring, and the
// two seeded races — each must manifest when its breakpoint is armed
// and stay dormant in plain runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "apps/kvstore/kvstore.h"
#include "apps/kvstore/zipfian.h"
#include "core/cbp.h"
#include "runtime/clock.h"

// The dormant-control assertions are probability claims about the
// *uninstrumented* binary; TSan's ~10x slowdown of instrumented atomics
// widens the natural race window by an order of magnitude and the
// unarmed races start firing on their own.  Under TSan those tests
// still run the workload (race-cleanliness coverage) but skip the
// near-zero count check.
#if defined(__SANITIZE_THREAD__)
#define CBP_TSAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CBP_TSAN_ACTIVE 1
#endif
#endif
#ifndef CBP_TSAN_ACTIVE
#define CBP_TSAN_ACTIVE 0
#endif

namespace cbp::apps::kvstore {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Zipfian generator
// ---------------------------------------------------------------------------

TEST(Zipfian, DeterministicUnderFixedSeed) {
  const ZipfianGenerator zipf(100'000, 0.99);
  rt::Rng a(42);
  rt::Rng b(42);
  for (int i = 0; i < 2'000; ++i) {
    ASSERT_EQ(zipf.next(a), zipf.next(b)) << "draw " << i;
  }
  // A different seed gives a different stream.
  rt::Rng c(43);
  int diff = 0;
  for (int i = 0; i < 2'000; ++i) {
    if (zipf.next(a) != zipf.next(c)) ++diff;
  }
  EXPECT_GT(diff, 0);
}

TEST(Zipfian, RanksStayInRange) {
  const ZipfianGenerator zipf(1'000, 0.99);
  rt::Rng rng(7);
  for (int i = 0; i < 100'000; ++i) {
    EXPECT_LT(zipf.next(rng), 1'000u);
  }
}

TEST(Zipfian, TopOnePercentMassMatchesAnalytic) {
  // P(rank < k) = zeta(k)/zeta(n); for theta=0.99 the top 1% of a
  // 100k-rank keyspace should carry the majority of the traffic — the
  // hot-key skew the high-traffic bench depends on.
  constexpr std::uint64_t n = 100'000;
  constexpr double theta = 0.99;
  const ZipfianGenerator zipf(n, theta);
  const double analytic =
      ZipfianGenerator::zeta(n / 100, theta) / zipf.zetan();
  EXPECT_GT(analytic, 0.5);  // sanity: this workload is genuinely skewed

  rt::Rng rng(12345);
  constexpr int draws = 200'000;
  int top = 0;
  for (int i = 0; i < draws; ++i) {
    if (zipf.next(rng) < n / 100) ++top;
  }
  const double empirical = static_cast<double>(top) / draws;
  EXPECT_NEAR(empirical, analytic, 0.02)
      << "empirical top-1% mass drifted from the analytic zeta ratio";
}

TEST(Zipfian, SessionStreamsIndependentOfWorkerPartitioning) {
  // The workload derives one Rng stream per (seed, session), not per
  // worker: however sessions are sharded over threads — or over harness
  // --trial-jobs workers — the aggregate key-frequency histogram is a
  // function of the seed alone.  Emulate two partitionings and compare.
  const ZipfianGenerator zipf(4'096, 0.99);
  constexpr std::uint64_t kSeed = 99;
  constexpr std::size_t kSessions = 64;
  constexpr int kDrawsPerSession = 50;

  const auto histogram = [&](int workers) {
    std::map<std::uint64_t, int> counts;
    for (int w = 0; w < workers; ++w) {
      const auto first = kSessions * static_cast<std::size_t>(w) /
                         static_cast<std::size_t>(workers);
      const auto last = kSessions * static_cast<std::size_t>(w + 1) /
                        static_cast<std::size_t>(workers);
      for (std::size_t s = first; s < last; ++s) {
        rt::Rng rng = session_rng(kSeed, s);
        for (int i = 0; i < kDrawsPerSession; ++i) ++counts[zipf.next(rng)];
      }
    }
    return counts;
  };

  const auto one = histogram(1);
  EXPECT_EQ(one, histogram(4));
  EXPECT_EQ(one, histogram(7));
}

TEST(Zipfian, RankToKeyIsInjectiveOnPrefix) {
  std::vector<std::uint64_t> keys;
  keys.reserve(100'000);
  for (std::uint64_t r = 0; r < 100'000; ++r) keys.push_back(rank_to_key(r));
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
  // Top two bits clear: keys can never collide with slot sentinels.
  for (std::uint64_t r = 0; r < 1'000; ++r) {
    EXPECT_LT(rank_to_key(r), 1ULL << 62);
  }
}

// ---------------------------------------------------------------------------
// KvStore units (single-threaded, unarmed)
// ---------------------------------------------------------------------------

StoreOptions tiny_store() {
  StoreOptions options;
  options.shard_count = 4;
  options.initial_capacity = 64;
  options.max_load = 0.5;
  options.armed = false;
  return options;
}

TEST(KvStoreUnit, PutGetRoundtrip) {
  KvStore store(tiny_store());
  EXPECT_EQ(store.get(rank_to_key(1)), kMiss);
  store.put(rank_to_key(1), 111);
  store.put(rank_to_key(2), 222);
  EXPECT_EQ(store.get(rank_to_key(1)), 111);
  EXPECT_EQ(store.get(rank_to_key(2)), 222);
  store.put(rank_to_key(1), 112);  // update in place
  EXPECT_EQ(store.get(rank_to_key(1)), 112);
  EXPECT_EQ(store.size(), 2u);
}

TEST(KvStoreUnit, EvictionRespectsHotFlagAndReusesTombstones) {
  KvStore store(tiny_store());
  store.put(rank_to_key(5), 5);
  // A just-put entry is hot: the (correctly sampled) check refuses.
  EXPECT_FALSE(store.evict_if_cold(rank_to_key(5)));
  store.age_all();
  EXPECT_TRUE(store.evict_if_cold(rank_to_key(5)));
  EXPECT_EQ(store.get(rank_to_key(5)), kMiss);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.lost_updates(), 0u);  // a legit eviction is not a loss
  // Re-insert lands on the tombstone and reads back.
  store.put(rank_to_key(5), 55);
  EXPECT_EQ(store.get(rank_to_key(5)), 55);
  EXPECT_EQ(store.size(), 1u);
}

TEST(KvStoreUnit, ResizePreservesAllEntries) {
  KvStore store(tiny_store());
  constexpr int kKeys = 600;  // far past 4 shards * 64 slots * 0.5
  for (int i = 0; i < kKeys; ++i) {
    store.put(rank_to_key(static_cast<std::uint64_t>(i)), i);
  }
  EXPECT_GT(store.resizes(), 0u);
  EXPECT_EQ(store.size(), static_cast<std::size_t>(kKeys));
  for (int i = 0; i < kKeys; ++i) {
    EXPECT_EQ(store.get(rank_to_key(static_cast<std::uint64_t>(i))), i);
  }
  // No reader ever touched a retired table here.
  EXPECT_EQ(store.poisoned_reads(), 0u);
}

// ---------------------------------------------------------------------------
// Workload modes
// ---------------------------------------------------------------------------

WorkloadOptions small_workload(Mode mode) {
  WorkloadOptions options;
  options.mode = mode;
  options.threads = 2;
  options.keys = 4'096;
  options.sessions = 256;
  options.ops_per_thread = 20'000;
  options.work_per_op = 4;
  options.pause = 10ms;
  options.seed = 3;
  return options;
}

TEST(Workload, OffModeNeverTouchesTheEngine) {
  Engine::instance().reset();
  const WorkloadResult result = run_workload(small_workload(Mode::kOff));
  EXPECT_EQ(result.ops, 40'000u);
  EXPECT_EQ(result.trigger_calls, 0u);
  EXPECT_EQ(result.hits, 0u);
  EXPECT_EQ(result.poisoned_reads, 0u);
  EXPECT_EQ(result.lost_updates, 0u);
}

TEST(Workload, SpecsDisabledInsertsProbesButCountsNothing) {
  Engine::instance().reset();
  const WorkloadResult result =
      run_workload(small_workload(Mode::kSpecsDisabled));
  // The spec-disabled fast path returns before any accounting: probes
  // are in the binary, the engine records no calls.
  EXPECT_EQ(result.trigger_calls, 0u);
  EXPECT_EQ(result.hits, 0u);
}

TEST(Workload, ArmedUnmatchedCountsCallsButNeverHits) {
  Engine::instance().reset();
  const WorkloadResult result =
      run_workload(small_workload(Mode::kArmedUnmatched));
  // Every get and put carries an armed probe now.
  EXPECT_GT(result.trigger_calls, 0u);
  EXPECT_EQ(result.hits, 0u);
  // Update-in-place traffic on a prefilled store: no organic resizes,
  // so the seeded races cannot manifest.
  EXPECT_EQ(result.resizes, 0u);
  EXPECT_EQ(result.poisoned_reads, 0u);
  EXPECT_EQ(result.lost_updates, 0u);
}

// ---------------------------------------------------------------------------
// Seeded races (scaled-down repro; the bench runs the full-load variant)
// ---------------------------------------------------------------------------

class KvStoreReproTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Engine::instance().reset();
    Config::set_enabled(true);
    Config::set_order_delay(2ms);
    rt::TimeScale::set(0.2);
    options_.breakpoints = true;
    options_.pause = 300ms;
    options_.work_scale = 0.5;  // scaled-down: fewer inserts/puts per run
  }

  void TearDown() override {
    BreakpointSpec::clear_installed();
    Engine::instance().reset();
    Config::set_enabled(true);
    rt::TimeScale::set(1.0);
  }

  RunOptions options_;
};

TEST_F(KvStoreReproTest, ResizeRaceManifestsWhenArmed) {
  for (int i = 0; i < 3; ++i) {
    Engine::instance().reset();
    options_.seed = static_cast<std::uint64_t>(i + 1);
    const RunOutcome outcome = run_resize_race(options_);
    EXPECT_EQ(outcome.artifact, rt::Artifact::kRaceObserved)
        << "run " << i << ": " << outcome.detail;
  }
}

TEST_F(KvStoreReproTest, ResizeRaceDormantWithoutBreakpoints) {
  RunOptions plain = options_;
  plain.breakpoints = false;
  int buggy = 0;
  for (int i = 0; i < 4; ++i) {
    Engine::instance().reset();
    plain.seed = static_cast<std::uint64_t>(i + 1);
    buggy += run_resize_race(plain).buggy() ? 1 : 0;
  }
  // Near zero, not identically zero: the unarmed window is real (that is
  // the bug), and on a loaded machine a preemption between the reader's
  // pointer load and its scan can land inside publish→poison naturally.
  // The paper's own "without breakpoints" columns are small but nonzero.
  if (!CBP_TSAN_ACTIVE) {
    EXPECT_LE(buggy, 1);
  }
}

TEST_F(KvStoreReproTest, EvictToctouManifestsWhenArmed) {
  for (int i = 0; i < 3; ++i) {
    Engine::instance().reset();
    options_.seed = static_cast<std::uint64_t>(i + 1);
    const RunOutcome outcome = run_evict_toctou(options_);
    EXPECT_EQ(outcome.artifact, rt::Artifact::kWrongResult)
        << "run " << i << ": " << outcome.detail;
  }
}

TEST_F(KvStoreReproTest, EvictToctouDormantWithoutBreakpoints) {
  RunOptions plain = options_;
  plain.breakpoints = false;
  int buggy = 0;
  for (int i = 0; i < 4; ++i) {
    Engine::instance().reset();
    plain.seed = static_cast<std::uint64_t>(i + 1);
    buggy += run_evict_toctou(plain).buggy() ? 1 : 0;
  }
  // See ResizeRaceDormantWithoutBreakpoints: near zero, not exactly zero.
  if (!CBP_TSAN_ACTIVE) {
    EXPECT_LE(buggy, 1);
  }
}

}  // namespace
}  // namespace cbp::apps::kvstore
