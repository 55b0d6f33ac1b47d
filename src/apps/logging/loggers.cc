#include "apps/logging/loggers.h"

#include <atomic>
#include <thread>

#include "core/cbp.h"
#include "runtime/clock.h"
#include "runtime/context.h"
#include "runtime/latch.h"

namespace cbp::apps::logging {
namespace {

void configure(const RunOptions& options) {
  Config::set_enabled(options.breakpoints);
  Config::set_default_timeout(options.pause);
}

/// Two threads running the two crossed paths; kStall when either leg
/// declares the deadlock conditions met.
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
    outcome.detail = "deadlock conditions met";
  }
  return outcome;
}

}  // namespace

// ---------------------------------------------------------------------------
// Log4jHierarchy
// ---------------------------------------------------------------------------

void Log4jHierarchy::log(int event, std::chrono::milliseconds stall_after) {
  instr::TrackedLock category(category_mu_);
  if (deadlock_armed_) {
    DeadlockTrigger trigger(kLog4jDeadlock1, &category_mu_, &appender_mu_);
    trigger.trigger_here(/*is_first_action=*/true);
  }
  appender_mu_.lock_or_stall(stall_after);
  sink_ += event;
  appender_mu_.unlock();
}

void Log4jHierarchy::close_appender(std::chrono::milliseconds stall_after) {
  instr::TrackedLock appender(appender_mu_);
  if (deadlock_armed_) {
    DeadlockTrigger trigger(kLog4jDeadlock1, &appender_mu_, &category_mu_);
    trigger.trigger_here(/*is_first_action=*/false);
  }
  category_mu_.lock_or_stall(stall_after);
  sink_ = 0;
  category_mu_.unlock();
}

void Log4jHierarchy::count_event(bool armed) {
  busy_work(40000);  // message formatting work of the original
  const std::int64_t value = event_count_.read();
  if (armed) {
    ConflictTrigger trigger(kLog4jRace2, event_count_.address());
    trigger.trigger_here(/*is_first_action=*/true);
  }
  event_count_.write(value + 1);
}

// ---------------------------------------------------------------------------
// JulManager
// ---------------------------------------------------------------------------

void JulManager::add_handler(std::chrono::milliseconds stall_after) {
  instr::TrackedLock logger(logger_mu_);
  if (deadlock_armed_) {
    DeadlockTrigger trigger(kJulDeadlock1, &logger_mu_, &manager_mu_);
    trigger.trigger_here(/*is_first_action=*/true);
  }
  manager_mu_.lock_or_stall(stall_after);
  ++handlers_;
  manager_mu_.unlock();
}

void JulManager::read_configuration(std::chrono::milliseconds stall_after) {
  instr::TrackedLock manager(manager_mu_);
  if (deadlock_armed_) {
    DeadlockTrigger trigger(kJulDeadlock1, &manager_mu_, &logger_mu_);
    trigger.trigger_here(/*is_first_action=*/false);
  }
  logger_mu_.lock_or_stall(stall_after);
  handlers_ = 0;
  logger_mu_.unlock();
}

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

RunOutcome run_log4j_deadlock1(const RunOptions& options) {
  configure(options);
  Log4jHierarchy hierarchy;
  hierarchy.arm_deadlock(true);
  return run_two_legs(
      [&] { hierarchy.log(1, options.stall_after); },
      [&] {
        rt::clock_sleep_for(kArrivalSkew);
        hierarchy.close_appender(options.stall_after);
      });
}

RunOutcome run_log4j_race2(const RunOptions& options) {
  configure(options);
  RunOutcome outcome;
  rt::Stopwatch clock;

  Log4jHierarchy hierarchy;
  const int ops = std::max(4, static_cast<int>(16 * options.work_scale));
  rt::StartGate gate;
  auto worker = [&] {
    gate.wait();
    for (int i = 0; i < ops; ++i) hierarchy.count_event(true);
  };
  rt::Thread a(worker), b(worker);
  gate.open();
  a.join();
  b.join();

  outcome.runtime_seconds = clock.elapsed_seconds();
  if (hierarchy.events_counted() < 2 * ops) {
    outcome.artifact = rt::Artifact::kRaceObserved;
    outcome.detail =
        "event counter lost " +
        std::to_string(2 * ops - hierarchy.events_counted()) + " updates";
  }
  return outcome;
}

RunOutcome run_jul_deadlock1(const RunOptions& options) {
  configure(options);
  JulManager manager;
  manager.arm_deadlock(true);
  return run_two_legs(
      [&] { manager.add_handler(options.stall_after); },
      [&] {
        rt::clock_sleep_for(kArrivalSkew);
        manager.read_configuration(options.stall_after);
      });
}

}  // namespace cbp::apps::logging
