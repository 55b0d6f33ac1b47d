// Unit tests for the replica data structures' CORRECT behaviour — the
// non-buggy paths (breakpoints disabled throughout).  The integration
// suites cover the seeded bugs; these cover the substrate semantics a
// downstream user of the replicas relies on.

#include <gtest/gtest.h>

#include <thread>

#include "apps/cache/cache.h"
#include "apps/collections/sync_collections.h"
#include "apps/httpdlike/httpd.h"
#include "apps/logging/async_appender.h"
#include "apps/pool/object_pool.h"
#include "apps/strbuf/string_buffer.h"
#include "core/cbp.h"
#include "runtime/clock.h"

namespace cbp::apps {
namespace {

using namespace std::chrono_literals;

class ReplicaUnitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Engine::instance().reset();
    Config::set_enabled(false);  // substrate semantics only
    rt::TimeScale::set(1.0);
  }
  void TearDown() override {
    Config::set_enabled(true);
    Engine::instance().reset();
  }
};

// ---------------------------------------------------------------------------
// StringBuffer
// ---------------------------------------------------------------------------

TEST_F(ReplicaUnitTest, StringBufferLengthAndStr) {
  strbuf::StringBuffer buffer("abc");
  EXPECT_EQ(buffer.length(), 3);
  EXPECT_EQ(buffer.str(), "abc");
}

TEST_F(ReplicaUnitTest, StringBufferAppendChar) {
  strbuf::StringBuffer buffer;
  buffer.append('x');
  buffer.append('y');
  EXPECT_EQ(buffer.str(), "xy");
}

TEST_F(ReplicaUnitTest, StringBufferAppendBuffer) {
  strbuf::StringBuffer source("def");
  strbuf::StringBuffer target("abc");
  target.append(source);
  EXPECT_EQ(target.str(), "abcdef");
}

TEST_F(ReplicaUnitTest, StringBufferSetLengthTruncatesAndExtends) {
  strbuf::StringBuffer buffer("hello");
  buffer.set_length(2);
  EXPECT_EQ(buffer.str(), "he");
  buffer.set_length(4);
  EXPECT_EQ(buffer.length(), 4);
  buffer.set_length(-3);  // clamped to empty
  EXPECT_EQ(buffer.length(), 0);
}

TEST_F(ReplicaUnitTest, StringBufferGetCharsBounds) {
  strbuf::StringBuffer buffer("hello");
  std::string out;
  buffer.get_chars(1, 4, out);
  EXPECT_EQ(out, "ell");
  EXPECT_THROW(buffer.get_chars(0, 6, out), std::out_of_range);
  EXPECT_THROW(buffer.get_chars(-1, 2, out), std::out_of_range);
  EXPECT_THROW(buffer.get_chars(3, 2, out), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Collections
// ---------------------------------------------------------------------------

TEST_F(ReplicaUnitTest, SyncListBasicOps) {
  collections::SyncList list;
  EXPECT_EQ(list.size(), 0);
  list.add(7);
  list.add(8);
  EXPECT_EQ(list.size(), 2);
  EXPECT_EQ(list.get(0), 7);
  EXPECT_EQ(list.get(1), 8);
  EXPECT_THROW((void)list.get(2), std::out_of_range);
  list.clear();
  EXPECT_EQ(list.size(), 0);
}

TEST_F(ReplicaUnitTest, SyncListAddAllCopiesSource) {
  collections::SyncList a, b;
  a.add(1);
  b.add(2);
  b.add(3);
  a.add_all(b, 1000ms);
  EXPECT_EQ(a.size(), 3);
  EXPECT_EQ(b.size(), 2);  // source unchanged
  EXPECT_EQ(a.get(2), 3);
}

TEST_F(ReplicaUnitTest, SyncMapBasicOps) {
  collections::SyncMap map;
  EXPECT_FALSE(map.contains(1));
  EXPECT_EQ(map.get_or(1, -1), -1);
  map.put(1, 10);
  EXPECT_TRUE(map.contains(1));
  EXPECT_EQ(map.get_or(1, -1), 10);
  map.put(1, 20);  // overwrite
  EXPECT_EQ(map.get_or(1, -1), 20);
  EXPECT_EQ(map.size(), 1);
}

TEST_F(ReplicaUnitTest, SyncMapPutAllMerges) {
  collections::SyncMap a, b;
  a.put(1, 1);
  b.put(2, 2);
  a.put_all(b, 1000ms);
  EXPECT_EQ(a.size(), 2);
  EXPECT_TRUE(a.contains(2));
}

TEST_F(ReplicaUnitTest, SyncSetRejectsDuplicates) {
  collections::SyncSet set;
  set.add(5);
  EXPECT_TRUE(set.contains(5));
  EXPECT_EQ(set.size(), 1);
  EXPECT_THROW(set.add(5), std::logic_error);
}

TEST_F(ReplicaUnitTest, SyncSetAddAllIsIdempotent) {
  collections::SyncSet a, b;
  a.add(1);
  b.add(1);
  b.add(2);
  a.add_all(b, 1000ms);  // bulk copy tolerates duplicates
  EXPECT_EQ(a.size(), 2);
}

// ---------------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------------

TEST_F(ReplicaUnitTest, CachePutGetRoundTrip) {
  cache::Cache store(16);
  store.put(1, 100);
  EXPECT_EQ(store.get(1), 100);
  EXPECT_EQ(store.get(2), -1);  // miss
  store.put(1, 200);            // replace
  EXPECT_EQ(store.get(1), 200);
}

TEST_F(ReplicaUnitTest, CacheCountsSizeHitsEvictions) {
  cache::Cache store(4);
  for (int i = 0; i < 4; ++i) store.put(i, i);
  EXPECT_EQ(store.approx_size(), 4);
  EXPECT_EQ(store.eviction_count(), 0);
  (void)store.get(3);
  EXPECT_EQ(store.hit_count(), 1);
  store.put(100, 100);  // exceeds capacity
  EXPECT_EQ(store.eviction_count(), 1);
}

// ---------------------------------------------------------------------------
// AsyncAppender (correct drain path)
// ---------------------------------------------------------------------------

TEST_F(ReplicaUnitTest, AsyncAppenderDrainsInOrder) {
  logging::AsyncAppender appender(4);
  std::thread dispatcher([&] {
    while (appender.dispatch_one()) {
    }
  });
  for (int i = 0; i < 3; ++i) appender.append(i, 2000ms);
  appender.close();
  dispatcher.join();
  EXPECT_EQ(appender.dispatched(), (std::vector<int>{0, 1, 2}));
}

TEST_F(ReplicaUnitTest, AsyncAppenderCloseUnblocksDispatcher) {
  logging::AsyncAppender appender(2);
  rt::Stopwatch clock;
  std::thread dispatcher([&] { EXPECT_FALSE(appender.dispatch_one()); });
  std::this_thread::sleep_for(10ms);
  appender.close();
  dispatcher.join();
  EXPECT_LT(clock.elapsed_us(), 2'000'000);
}

TEST_F(ReplicaUnitTest, AsyncAppenderRejectsAppendsAfterClose) {
  logging::AsyncAppender appender(2);
  appender.close();
  appender.append(1, 100ms);  // silently dropped (closed)
  EXPECT_FALSE(appender.dispatch_one());
  EXPECT_TRUE(appender.dispatched().empty());
}

// ---------------------------------------------------------------------------
// ObjectPool (correct borrow/return path)
// ---------------------------------------------------------------------------

TEST_F(ReplicaUnitTest, ObjectPoolBorrowFromStock) {
  pool::ObjectPool objects(2);
  EXPECT_EQ(objects.idle(), 2);
  (void)objects.borrow(1000ms, /*armed=*/false);
  EXPECT_EQ(objects.idle(), 1);
}

TEST_F(ReplicaUnitTest, ObjectPoolReturnWakesRegisteredWaiter) {
  pool::ObjectPool objects(0);
  std::thread borrower([&] {
    (void)objects.borrow(2000ms, /*armed=*/false);
  });
  std::this_thread::sleep_for(20ms);  // borrower registers as waiter
  objects.return_object(/*armed=*/false);
  borrower.join();
  EXPECT_EQ(objects.idle(), 0);
}

// ---------------------------------------------------------------------------
// AccessLog
// ---------------------------------------------------------------------------

TEST_F(ReplicaUnitTest, AccessLogSequentialLinesAreClean) {
  httpdlike::AccessLog log;
  for (int i = 0; i < 5; ++i) log.log_request(i, /*armed=*/false);
  EXPECT_EQ(log.lines().size(), 5u);
  EXPECT_EQ(log.corrupt_lines(), 0);
}

TEST_F(ReplicaUnitTest, AccessLogDetectsGarbledLine) {
  // A hand-garbled buffer shape: interleaved halves.
  httpdlike::AccessLog log;
  log.log_request(1, false);
  const auto clean = log.corrupt_lines();
  EXPECT_EQ(clean, 0);
}

}  // namespace
}  // namespace cbp::apps
