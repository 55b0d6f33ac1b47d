#include "apps/pool/object_pool.h"

#include <atomic>
#include <thread>

#include "core/cbp.h"
#include "runtime/clock.h"
#include "runtime/context.h"
#include "runtime/latch.h"

namespace cbp::apps::pool {

int ObjectPool::borrow(std::chrono::milliseconds stall_after, bool armed) {
  bool empty = false;
  {
    instr::TrackedLock lock(mu_);
    if (idle_ > 0) {
      --idle_;
      return idle_ + 1;
    }
    empty = true;
  }
  (void)empty;
  // The decision to wait was made; the registration has not happened yet
  // — a return_object() landing here is dropped.  Ordered SECOND so the
  // breakpoint puts the return into exactly this window.
  if (armed) {
    OrderTrigger trigger(kMissedNotify1);
    trigger.trigger_here(/*is_first_action=*/false);
  }
  instr::TrackedLock lock(mu_);
  waiter_present_ = true;
  cv_.wait_or_stall(mu_, stall_after, [&] { return returned_signal_; });
  returned_signal_ = false;
  waiter_present_ = false;
  --idle_;
  return idle_ + 1;
}

void ObjectPool::return_object(bool armed) {
  if (armed) {
    OrderTrigger trigger(kMissedNotify1);
    trigger.trigger_here(/*is_first_action=*/true);
  }
  instr::TrackedLock lock(mu_);
  ++idle_;
  // SEEDED BUG: signal only reaches an already-registered waiter.
  if (waiter_present_) {
    returned_signal_ = true;
    cv_.notify_all();
  }
}

int ObjectPool::idle() const {
  instr::TrackedLock lock(mu_);
  return idle_;
}

RunOutcome run_missed_notify1(const RunOptions& options) {
  Config::set_enabled(options.breakpoints);
  Config::set_default_timeout(options.pause);

  RunOutcome outcome;
  rt::Stopwatch clock;
  ObjectPool object_pool(0);  // empty: the borrower must wait
  std::atomic<bool> stalled{false};
  rt::StartGate gate;
  rt::Thread borrower([&] {
    gate.wait();
    try {
      (void)object_pool.borrow(options.stall_after, options.breakpoints);
    } catch (const rt::StallError&) {
      stalled = true;
    }
  });
  rt::Thread returner([&] {
    gate.wait();
    rt::clock_sleep_for(kArrivalSkew);
    object_pool.return_object(options.breakpoints);
  });
  gate.open();
  borrower.join();
  returner.join();
  outcome.runtime_seconds = clock.elapsed_seconds();
  if (stalled.load()) {
    outcome.artifact = rt::Artifact::kStall;
    outcome.detail = "return notification dropped before waiter registered";
  }
  return outcome;
}

}  // namespace cbp::apps::pool
