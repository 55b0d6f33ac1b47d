#include "apps/textindex/lucene.h"

#include <atomic>
#include <thread>

#include "core/cbp.h"
#include "runtime/clock.h"
#include "runtime/context.h"
#include "runtime/latch.h"

namespace cbp::apps::textindex {

void Index::writer_close(std::chrono::milliseconds stall_after) {
  instr::TrackedLock commit(commit_mu_);
  if (armed_) {
    DeadlockTrigger trigger(kDeadlock1, &commit_mu_, &directory_mu_);
    trigger.trigger_here(/*is_first_action=*/true);
  }
  directory_mu_.lock_or_stall(stall_after);
  segments_ = 0;
  directory_mu_.unlock();
}

void Index::maybe_refresh(std::chrono::milliseconds stall_after) {
  instr::TrackedLock directory(directory_mu_);
  if (armed_) {
    DeadlockTrigger trigger(kDeadlock1, &directory_mu_, &commit_mu_);
    trigger.trigger_here(/*is_first_action=*/false);
  }
  commit_mu_.lock_or_stall(stall_after);
  (void)segments_;
  commit_mu_.unlock();
}

RunOutcome run_deadlock1(const RunOptions& options) {
  Config::set_enabled(options.breakpoints);
  Config::set_default_timeout(options.pause);

  RunOutcome outcome;
  rt::Stopwatch clock;
  Index index;
  index.arm_deadlock(true);
  std::atomic<bool> stalled{false};
  rt::StartGate gate;
  rt::Thread closer([&] {
    gate.wait();
    try {
      index.writer_close(options.stall_after);
    } catch (const rt::StallError&) {
      stalled = true;
    }
  });
  rt::Thread refresher([&] {
    gate.wait();
    rt::clock_sleep_for(kArrivalSkew);
    try {
      index.maybe_refresh(options.stall_after);
    } catch (const rt::StallError&) {
      stalled = true;
    }
  });
  gate.open();
  closer.join();
  refresher.join();
  outcome.runtime_seconds = clock.elapsed_seconds();
  if (stalled.load()) {
    outcome.artifact = rt::Artifact::kStall;
    outcome.detail = "commit/directory lock order crossed";
  }
  return outcome;
}

}  // namespace cbp::apps::textindex
