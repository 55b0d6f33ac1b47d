#include "apps/collections/sync_collections.h"

#include <atomic>
#include <stdexcept>
#include <thread>

#include "core/cbp.h"
#include "runtime/clock.h"
#include "runtime/context.h"
#include "runtime/latch.h"
#include "runtime/vclock.h"

namespace cbp::apps::collections {
namespace {

void configure(const RunOptions& options) {
  Config::set_enabled(options.breakpoints);
  Config::set_default_timeout(options.pause);
}

}  // namespace

// ---------------------------------------------------------------------------
// SyncList
// ---------------------------------------------------------------------------

int SyncList::size() const {
  instr::TrackedLock lock(mu_);
  return static_cast<int>(items_.size());
}

int SyncList::get(int index) const {
  instr::TrackedLock lock(mu_);
  // Element work inside the critical section: contributes base runtime
  // without widening the unsynchronized compound-operation window.
  busy_work(2500);
  if (index < 0 || index >= static_cast<int>(items_.size())) {
    throw std::out_of_range("IndexOutOfBounds: " + std::to_string(index) +
                            " size " + std::to_string(items_.size()));
  }
  return items_[static_cast<std::size_t>(index)];
}

void SyncList::add(int value) {
  instr::TrackedLock lock(mu_);
  // Element work inside the critical section: contributes base runtime
  // without widening the unsynchronized compound-operation window.
  busy_work(2500);
  items_.push_back(value);
}

void SyncList::clear() {
  instr::TrackedLock lock(mu_);
  items_.clear();
}

void SyncList::add_all(const SyncList& source,
                       std::chrono::milliseconds stall_after) {
  instr::TrackedLock outer(mu_);
  DeadlockTrigger trigger(kListDeadlock1, this, &source);
  trigger.trigger_here(/*is_first_action=*/true);
  source.mu_.lock_or_stall(stall_after);
  items_.insert(items_.end(), source.items_.begin(), source.items_.end());
  source.mu_.unlock();
}

// ---------------------------------------------------------------------------
// SyncMap
// ---------------------------------------------------------------------------

bool SyncMap::contains(int key) const {
  instr::TrackedLock lock(mu_);
  // Element work inside the critical section: contributes base runtime
  // without widening the unsynchronized compound-operation window.
  busy_work(2500);
  return items_.count(key) != 0;
}

int SyncMap::get_or(int key, int fallback) const {
  instr::TrackedLock lock(mu_);
  auto it = items_.find(key);
  return it == items_.end() ? fallback : it->second;
}

void SyncMap::put(int key, int value) {
  instr::TrackedLock lock(mu_);
  // Element work inside the critical section: contributes base runtime
  // without widening the unsynchronized compound-operation window.
  busy_work(2500);
  items_[key] = value;
}

int SyncMap::size() const {
  instr::TrackedLock lock(mu_);
  return static_cast<int>(items_.size());
}

void SyncMap::put_all(const SyncMap& source,
                      std::chrono::milliseconds stall_after) {
  instr::TrackedLock outer(mu_);
  DeadlockTrigger trigger(kMapDeadlock1, this, &source);
  trigger.trigger_here(/*is_first_action=*/true);
  source.mu_.lock_or_stall(stall_after);
  for (const auto& [key, value] : source.items_) items_[key] = value;
  source.mu_.unlock();
}

// ---------------------------------------------------------------------------
// SyncSet
// ---------------------------------------------------------------------------

bool SyncSet::contains(int value) const {
  instr::TrackedLock lock(mu_);
  // Element work inside the critical section: contributes base runtime
  // without widening the unsynchronized compound-operation window.
  busy_work(2500);
  return items_.count(value) != 0;
}

void SyncSet::add(int value) {
  instr::TrackedLock lock(mu_);
  // Element work inside the critical section: contributes base runtime
  // without widening the unsynchronized compound-operation window.
  busy_work(2500);
  if (!items_.insert(value).second) {
    throw std::logic_error("duplicate element " + std::to_string(value) +
                           " inserted into set");
  }
}

int SyncSet::size() const {
  instr::TrackedLock lock(mu_);
  return static_cast<int>(items_.size());
}

void SyncSet::add_all(const SyncSet& source,
                      std::chrono::milliseconds stall_after) {
  instr::TrackedLock outer(mu_);
  DeadlockTrigger trigger(kSetDeadlock1, this, &source);
  trigger.trigger_here(/*is_first_action=*/true);
  source.mu_.lock_or_stall(stall_after);
  for (int value : source.items_) items_.insert(value);
  source.mu_.unlock();
}

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

RunOutcome run_list_atomicity1(const RunOptions& options) {
  configure(options);
  RunOutcome outcome;
  rt::Stopwatch clock;

  SyncList list;
  const int initial = std::max(4, static_cast<int>(32 * options.work_scale));
  for (int i = 0; i < initial; ++i) list.add(i);

  std::string error;
  rt::StartGate gate;
  rt::Thread reader([&] {
    gate.wait();
    try {
      // Compound client operation: size() then get(size-1) — not atomic.
      // The empty case is handled; only a clear() interleaved between
      // the size check and the get can make this throw.
      const int n = list.size();
      if (n > 0) {
        AtomicityTrigger trigger(kListAtomicity1, &list);
        trigger.trigger_here(/*is_first_action=*/false);
        (void)list.get(n - 1);
      }
    } catch (const std::out_of_range& e) {
      error = e.what();
    }
  });
  rt::Thread clearer([&] {
    gate.wait();
    rt::clock_sleep_for(kArrivalSkew);
    AtomicityTrigger trigger(kListAtomicity1, &list);
    trigger.trigger_here(/*is_first_action=*/true);
    list.clear();
  });
  gate.open();
  reader.join();
  clearer.join();

  outcome.runtime_seconds = clock.elapsed_seconds();
  if (!error.empty()) {
    outcome.artifact = rt::Artifact::kException;
    outcome.detail = error;
  }
  return outcome;
}

namespace {

/// Shared shape of the three crossed-bulk-copy deadlock scenarios.
template <class Collection, class BulkCopy>
RunOutcome run_crossed_deadlock(Collection& a, Collection& b, BulkCopy copy) {
  RunOutcome outcome;
  rt::Stopwatch clock;
  std::atomic<bool> stalled{false};
  rt::StartGate gate;
  rt::Thread t1([&] {
    gate.wait();
    try {
      copy(a, b);
    } catch (const rt::StallError&) {
      stalled = true;
    }
  });
  rt::Thread t2([&] {
    gate.wait();
    rt::clock_sleep_for(kArrivalSkew);
    try {
      copy(b, a);
    } catch (const rt::StallError&) {
      stalled = true;
    }
  });
  gate.open();
  t1.join();
  t2.join();
  outcome.runtime_seconds = clock.elapsed_seconds();
  if (stalled.load()) {
    outcome.artifact = rt::Artifact::kStall;
    outcome.detail = "deadlock conditions met (crossed bulk copy)";
  }
  return outcome;
}

}  // namespace

RunOutcome run_list_deadlock1(const RunOptions& options) {
  configure(options);
  SyncList a, b;
  for (int i = 0; i < 8; ++i) {
    a.add(i);
    b.add(100 + i);
  }
  return run_crossed_deadlock(a, b,
                              [&](SyncList& dst, SyncList& src) {
                                dst.add_all(src, options.stall_after);
                              });
}

RunOutcome run_map_atomicity1(const RunOptions& options) {
  configure(options);
  RunOutcome outcome;
  rt::Stopwatch clock;

  SyncMap map;
  // Ordinary harness traffic before the racy compound operation.
  const int prelude = std::max(4, static_cast<int>(48 * options.work_scale));
  for (int i = 0; i < prelude; ++i) map.put(1000 + i, i);
  constexpr int kKey = 7;
  std::atomic<int> puts{0};
  rt::StartGate gate;
  // Both threads run the same put-if-absent compound.  Executed
  // serially, exactly one put happens; only the interleaving where both
  // stale checks pass yields two.
  auto put_if_absent = [&](int value, std::chrono::microseconds stagger) {
    gate.wait();
    // Natural arrivals are skewed (clients do not start in lockstep);
    // the breakpoint's postponement is what bridges the skew.
    if (stagger.count() > 0) {
      rt::clock_sleep_for(stagger);
    }
    if (!map.contains(kKey)) {
      AtomicityTrigger trigger(kMapAtomicity1, &map);
      trigger.trigger_here(/*is_first_action=*/true);  // symmetric sites
      map.put(kKey, value);
      puts.fetch_add(1);
    }
  };
  rt::Thread t1(put_if_absent, 111, std::chrono::microseconds(0));
  rt::Thread t2(put_if_absent, 222, kArrivalSkew);
  gate.open();
  t1.join();
  t2.join();

  outcome.runtime_seconds = clock.elapsed_seconds();
  if (puts.load() == 2) {
    outcome.artifact = rt::Artifact::kRaceObserved;
    outcome.detail = "put-if-absent executed twice: one update clobbered";
  }
  return outcome;
}

RunOutcome run_map_deadlock1(const RunOptions& options) {
  configure(options);
  SyncMap a, b;
  for (int i = 0; i < 8; ++i) {
    a.put(i, i);
    b.put(100 + i, i);
  }
  return run_crossed_deadlock(a, b,
                              [&](SyncMap& dst, SyncMap& src) {
                                dst.put_all(src, options.stall_after);
                              });
}

RunOutcome run_set_atomicity1(const RunOptions& options) {
  configure(options);
  RunOutcome outcome;
  rt::Stopwatch clock;

  SyncSet set;
  const int prelude = std::max(4, static_cast<int>(48 * options.work_scale));
  for (int i = 0; i < prelude; ++i) set.add(1000 + i);
  constexpr int kValue = 7;
  std::string error;
  std::mutex error_mu;
  rt::StartGate gate;
  // Both threads run the same add-if-absent compound; serially it is
  // safe, interleaved the second add raises the duplicate violation.
  auto add_if_absent = [&](std::chrono::microseconds stagger) {
    gate.wait();
    if (stagger.count() > 0) {
      rt::clock_sleep_for(stagger);
    }
    try {
      if (!set.contains(kValue)) {
        AtomicityTrigger trigger(kSetAtomicity1, &set);
        trigger.trigger_here(/*is_first_action=*/true);  // symmetric sites
        set.add(kValue);
      }
    } catch (const std::logic_error& e) {
      std::scoped_lock lock(error_mu);
      error = e.what();
    }
  };
  rt::Thread t1(add_if_absent, std::chrono::microseconds(0));
  rt::Thread t2(add_if_absent, kArrivalSkew);
  gate.open();
  t1.join();
  t2.join();

  outcome.runtime_seconds = clock.elapsed_seconds();
  if (!error.empty()) {
    outcome.artifact = rt::Artifact::kException;
    outcome.detail = error;
  }
  return outcome;
}

RunOutcome run_set_deadlock1(const RunOptions& options) {
  configure(options);
  SyncSet a, b;
  for (int i = 0; i < 8; ++i) {
    a.add(i);
    b.add(100 + i);
  }
  return run_crossed_deadlock(a, b, [&](SyncSet& dst, SyncSet& src) {
    dst.add_all(src, options.stall_after);
  });
}

}  // namespace cbp::apps::collections
