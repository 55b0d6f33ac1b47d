#include "apps/webserver/jigsaw.h"

#include <atomic>
#include <thread>

#include "core/cbp.h"
#include "runtime/clock.h"
#include "runtime/context.h"
#include "runtime/latch.h"

namespace cbp::apps::webserver {
namespace {

void configure(const RunOptions& options) {
  Config::set_enabled(options.breakpoints);
  Config::set_default_timeout(options.pause);
}

}  // namespace

// ---------------------------------------------------------------------------
// DroppableEvent
// ---------------------------------------------------------------------------

void DroppableEvent::wait(std::chrono::milliseconds stall_after, bool armed) {
  if (armed) {
    // The waiter is between "decided to wait" and "registered": the
    // window in which a notify is dropped.  Ordered SECOND so the
    // notifier fires first into the void.
    OrderTrigger trigger(kMissedNotify1);
    trigger.trigger_here(/*is_first_action=*/false);
  }
  instr::TrackedLock lock(mu_);
  waiter_present_ = true;
  cv_.wait_or_stall(mu_, stall_after, [&] { return delivered_; });
}

void DroppableEvent::notify(bool armed) {
  if (armed) {
    OrderTrigger trigger(kMissedNotify1);
    trigger.trigger_here(/*is_first_action=*/true);
  }
  instr::TrackedLock lock(mu_);
  // SEEDED BUG: a one-shot, non-latching event — if nobody registered
  // yet, the notification is silently dropped.
  if (waiter_present_) {
    delivered_ = true;
    cv_.notify_all();
  }
}

// ---------------------------------------------------------------------------
// SocketClientFactory
// ---------------------------------------------------------------------------

void SocketClientFactory::client_connection_finished(
    std::chrono::milliseconds stall_after) {
  // "line 623": synchronized (csList)
  instr::TrackedLock cs_list(cs_list_mu_);
  if (armed_ == "deadlock1") {
    DeadlockTrigger trigger(kDeadlock1, &cs_list_mu_, &factory_mu_);
    // This site runs once per connection teardown; one crossing is all
    // the reproduction needs (§6.3 bound refinement).
    trigger.bound(1);
    trigger.trigger_here(/*is_first_action=*/true);
  }
  // "line 626" -> "line 574": synchronized decrIdleCount on the factory.
  factory_mu_.lock_or_stall(stall_after);
  --idle_count_;
  factory_mu_.unlock();
}

void SocketClientFactory::kill_clients(std::chrono::milliseconds stall_after) {
  // "line 867": synchronized (this)
  instr::TrackedLock factory(factory_mu_);
  if (armed_ == "deadlock1") {
    DeadlockTrigger trigger(kDeadlock1, &factory_mu_, &cs_list_mu_);
    trigger.trigger_here(/*is_first_action=*/false);
  }
  // "line 872": synchronized (csList)
  cs_list_mu_.lock_or_stall(stall_after);
  clients_.clear();
  cs_list_mu_.unlock();
}

void SocketClientFactory::reconfigure(std::chrono::milliseconds stall_after) {
  instr::TrackedLock config(config_mu_);
  if (armed_ == "deadlock2") {
    DeadlockTrigger trigger(kDeadlock2, &config_mu_, &status_mu_);
    trigger.trigger_here(/*is_first_action=*/true);
  }
  status_mu_.lock_or_stall(stall_after);
  ++config_epoch_;
  status_mu_.unlock();
}

void SocketClientFactory::report_status(
    std::chrono::milliseconds stall_after) {
  instr::TrackedLock status(status_mu_);
  if (armed_ == "deadlock2") {
    DeadlockTrigger trigger(kDeadlock2, &status_mu_, &config_mu_);
    trigger.trigger_here(/*is_first_action=*/false);
  }
  config_mu_.lock_or_stall(stall_after);
  (void)config_epoch_;
  config_mu_.unlock();
}

void SocketClientFactory::worker_idle(std::chrono::milliseconds stall_after) {
  // Racy read of the stopping flag: the worker's decision to idle-wait
  // is based on this (possibly stale) value.
  const bool stop_seen = stopping_.read();
  if (armed_ == "race1") {
    ConflictTrigger trigger(kRace1, stopping_.address());
    // The shutdown's write AND its single wake-up are ordered FIRST —
    // they land in the window between the stale read and the wait.
    trigger.trigger_here(/*is_first_action=*/false);
  }
  if (stop_seen) return;  // clean exit
  instr::TrackedLock lock(worker_mu_);
  // SEEDED BUG: the worker waits for the NEXT wake-up epoch.  If the
  // shutdown's (only) wake-up landed in the window above, the epoch it
  // samples here already includes it — it waits for one that never
  // comes.
  const int epoch_seen = wake_epoch_;
  worker_cv_.wait_or_stall(worker_mu_, stall_after,
                           [&] { return wake_epoch_ != epoch_seen; });
}

void SocketClientFactory::begin_shutdown() {
  if (armed_ == "race1") {
    ConflictTrigger trigger(kRace1, stopping_.address());
    trigger.trigger_here(/*is_first_action=*/true);
  }
  stopping_.write(true);
  instr::TrackedLock lock(worker_mu_);
  ++wake_epoch_;             // the one and only wake-up
  worker_cv_.notify_all();
}

void SocketClientFactory::count_request() {
  busy_work(40000);  // request parsing/response work of the original
  const std::int64_t value = request_count_.read();
  if (armed_ == "race2") {
    ConflictTrigger trigger(kRace2, request_count_.address());
    trigger.trigger_here(/*is_first_action=*/true);
  }
  request_count_.write(value + 1);
}

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

namespace {

template <class Leg1, class Leg2>
RunOutcome run_two_legs(Leg1 leg1, Leg2 leg2) {
  RunOutcome outcome;
  rt::Stopwatch clock;
  std::atomic<bool> stalled{false};
  rt::StartGate gate;
  rt::Thread t1([&] {
    gate.wait();
    try {
      leg1();
    } catch (const rt::StallError&) {
      stalled = true;
    }
  });
  rt::Thread t2([&] {
    gate.wait();
    rt::clock_sleep_for(kArrivalSkew);
    try {
      leg2();
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
    outcome.detail = "deadlock/stall conditions met";
  }
  return outcome;
}

}  // namespace

RunOutcome run_deadlock1(const RunOptions& options) {
  configure(options);
  SocketClientFactory factory;
  factory.arm("deadlock1");
  return run_two_legs(
      [&] { factory.client_connection_finished(options.stall_after); },
      [&] { factory.kill_clients(options.stall_after); });
}

RunOutcome run_deadlock2(const RunOptions& options) {
  configure(options);
  SocketClientFactory factory;
  factory.arm("deadlock2");
  return run_two_legs([&] { factory.reconfigure(options.stall_after); },
                      [&] { factory.report_status(options.stall_after); });
}

RunOutcome run_missed_notify1(const RunOptions& options) {
  configure(options);
  RunOutcome outcome;
  rt::Stopwatch clock;
  DroppableEvent shutdown_event;
  std::atomic<bool> stalled{false};
  rt::StartGate gate;
  rt::Thread waiter([&] {
    gate.wait();
    try {
      shutdown_event.wait(options.stall_after, options.breakpoints);
    } catch (const rt::StallError&) {
      stalled = true;
    }
  });
  rt::Thread notifier([&] {
    gate.wait();
    rt::clock_sleep_for(kArrivalSkew);
    shutdown_event.notify(options.breakpoints);
  });
  gate.open();
  waiter.join();
  notifier.join();
  outcome.runtime_seconds = clock.elapsed_seconds();
  if (stalled.load()) {
    outcome.artifact = rt::Artifact::kStall;
    outcome.detail = "shutdown notification dropped before waiter registered";
  }
  return outcome;
}

RunOutcome run_race1(const RunOptions& options) {
  configure(options);
  RunOutcome outcome;
  rt::Stopwatch clock;
  SocketClientFactory factory;
  factory.arm("race1");
  std::atomic<bool> stalled{false};
  rt::StartGate gate;
  rt::Thread worker([&] {
    gate.wait();
    try {
      factory.worker_idle(options.stall_after);
    } catch (const rt::StallError&) {
      stalled = true;
    }
  });
  rt::Thread shutdown([&] {
    gate.wait();
    rt::clock_sleep_for(kArrivalSkew);
    factory.begin_shutdown();
  });
  gate.open();
  worker.join();
  shutdown.join();
  outcome.runtime_seconds = clock.elapsed_seconds();
  if (stalled.load()) {
    outcome.artifact = rt::Artifact::kStall;
    outcome.detail = "worker idled on a stale 'not stopping' read";
  }
  return outcome;
}

RunOutcome run_server_stress(const RunOptions& options, int clients) {
  configure(options);
  RunOutcome outcome;
  rt::Stopwatch clock;
  SocketClientFactory factory;
  factory.arm("deadlock1");
  std::atomic<bool> stalled{false};
  rt::StartGate gate;

  const int requests = std::max(2, static_cast<int>(6 * options.work_scale));
  std::vector<rt::Thread> client_threads;
  client_threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    client_threads.emplace_back([&] {
      gate.wait();
      try {
        for (int i = 0; i < requests; ++i) {
          factory.count_request();  // serve a page
          // Connection teardown takes the csList -> factory path.
          factory.client_connection_finished(options.stall_after);
        }
      } catch (const rt::StallError&) {
        stalled = true;
      }
    });
  }
  rt::Thread admin([&] {
    gate.wait();
    try {
      // The administrative command arrives mid-run, while clients are
      // tearing connections down: the factory -> csList path crosses.
      factory.kill_clients(options.stall_after);
    } catch (const rt::StallError&) {
      stalled = true;
    }
  });
  gate.open();
  for (auto& t : client_threads) t.join();
  admin.join();

  outcome.runtime_seconds = clock.elapsed_seconds();
  if (stalled.load()) {
    outcome.artifact = rt::Artifact::kStall;
    outcome.detail = "deadlock under multi-client load (Fig. 2)";
  }
  return outcome;
}

RunOutcome run_race2(const RunOptions& options) {
  configure(options);
  RunOutcome outcome;
  rt::Stopwatch clock;
  SocketClientFactory factory;
  factory.arm("race2");
  const int ops = std::max(4, static_cast<int>(16 * options.work_scale));
  rt::StartGate gate;
  auto client = [&] {
    gate.wait();
    for (int i = 0; i < ops; ++i) factory.count_request();
  };
  rt::Thread a(client), b(client);
  gate.open();
  a.join();
  b.join();
  outcome.runtime_seconds = clock.elapsed_seconds();
  if (factory.requests_counted() < 2 * ops) {
    outcome.artifact = rt::Artifact::kRaceObserved;
    outcome.detail = "request counter lost " +
                     std::to_string(2 * ops - factory.requests_counted()) +
                     " updates";
  }
  return outcome;
}

}  // namespace cbp::apps::webserver
