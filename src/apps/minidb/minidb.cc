#include "apps/minidb/minidb.h"

#include <atomic>
#include <thread>

#include "core/cbp.h"
#include "runtime/clock.h"
#include "runtime/context.h"
#include "runtime/latch.h"
#include "runtime/vclock.h"

namespace cbp::apps::minidb {
namespace {

void configure(const RunOptions& options) {
  Config::set_enabled(options.breakpoints);
  Config::set_default_timeout(options.pause);
}

}  // namespace

// ---------------------------------------------------------------------------
// Binlog
// ---------------------------------------------------------------------------

bool Binlog::write_event(int event, bool armed) {
  // Racy generation check — the "is the log still open" decision.
  const int generation_seen = generation_.read();
  if (armed) {
    // bp1: the rotation must begin right after this stale check...
    ConflictTrigger bp1(kOmissionBp1, this);
    bp1.trigger_here(/*is_first_action=*/false);
    // bp2: ...and complete before the append below.
    ConflictTrigger bp2(kOmissionBp2, this);
    bp2.trigger_here(/*is_first_action=*/false);
  }
  instr::TrackedLock lock(mu_);
  if (generation_.peek() != generation_seen) {
    // The event goes to the closed log file: silently lost (#791).
    return false;
  }
  entries_.push_back(event);
  return true;
}

void Binlog::rotate(bool armed) {
  if (armed) {
    ConflictTrigger bp1(kOmissionBp1, this);
    bp1.trigger_here(/*is_first_action=*/true);
  }
  {
    instr::TrackedLock lock(mu_);
    archived_count_ += static_cast<std::int64_t>(entries_.size());
    entries_.clear();
    generation_.write(generation_.peek() + 1);
  }
  if (armed) {
    // Rotation complete; release the writer into the new generation.
    ConflictTrigger bp2(kOmissionBp2, this);
    bp2.trigger_here(/*is_first_action=*/true);
  }
}

std::int64_t Binlog::logged_total() const {
  instr::TrackedLock lock(mu_);
  return archived_count_ + static_cast<std::int64_t>(entries_.size());
}

std::vector<int> Binlog::current() const {
  instr::TrackedLock lock(mu_);
  return entries_;
}

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

RunOutcome run_log_omission(const RunOptions& options) {
  configure(options);
  RunOutcome outcome;
  rt::Stopwatch clock;

  Binlog binlog;
  const int commits = std::max(2, static_cast<int>(6 * options.work_scale));
  std::atomic<int> committed{0};
  rt::StartGate gate;

  rt::Thread writer([&] {
    gate.wait();
    for (int i = 0; i < commits; ++i) {
      committed.fetch_add(1);  // the transaction itself always commits
      (void)binlog.write_event(i, options.breakpoints);
    }
  });
  rt::Thread rotator([&] {
    gate.wait();
    rt::clock_sleep_for(kArrivalSkew);
    binlog.rotate(options.breakpoints);
  });
  gate.open();
  writer.join();
  rotator.join();

  outcome.runtime_seconds = clock.elapsed_seconds();
  if (binlog.logged_total() < committed.load()) {
    outcome.artifact = rt::Artifact::kLogOmission;
    outcome.detail =
        std::to_string(committed.load() - binlog.logged_total()) +
        " committed transaction(s) missing from the binlog";
  }
  return outcome;
}

RunOutcome run_log_disorder(const RunOptions& options) {
  configure(options);
  RunOutcome outcome;
  rt::Stopwatch clock;

  Binlog binlog;
  std::atomic<int> commit_order{0};
  rt::StartGate gate;

  // Each transaction commits to the storage engine (atomic, exact
  // order), then appends its commit sequence number to the binlog.  The
  // breakpoint reverses the two appends (#169): the thread that commits
  // FIRST has its binlog append ordered SECOND.
  auto transaction = [&](bool binlog_append_goes_first,
                         std::chrono::microseconds stagger) {
    gate.wait();
    if (stagger.count() > 0) {
      rt::clock_sleep_for(stagger);
    }
    const int seq = commit_order.fetch_add(1);  // storage commit
    if (options.breakpoints) {
      ConflictTrigger bp(kDisorderBp, &binlog);
      bp.trigger_here(binlog_append_goes_first);
    }
    (void)binlog.write_event(seq, /*armed=*/false);
  };
  rt::Thread t1([&] {
    transaction(/*binlog_append_goes_first=*/false,
                std::chrono::microseconds(0));
  });
  rt::Thread t2([&] {
    // Staggered so t1 reliably commits to storage first...
    transaction(/*binlog_append_goes_first=*/true,
                std::chrono::microseconds(200));
    // ...yet t2's binlog append is ordered first by the breakpoint.
  });
  gate.open();
  t1.join();
  t2.join();

  outcome.runtime_seconds = clock.elapsed_seconds();
  const std::vector<int> log = binlog.current();
  for (std::size_t i = 1; i < log.size(); ++i) {
    if (log[i] < log[i - 1]) {
      outcome.artifact = rt::Artifact::kLogDisorder;
      outcome.detail = "binlog records commits out of order";
      break;
    }
  }
  return outcome;
}

RunOutcome run_crash(const RunOptions& options) {
  configure(options);
  RunOutcome outcome;
  rt::Stopwatch clock;

  instr::SharedVar<bool> thd_valid{true};
  std::string crash;
  rt::StartGate gate;

  rt::Thread query([&] {
    gate.wait();
    try {
      // bp1: align query start with the connection teardown.
      ConflictTrigger bp1(kCrashBp1, &thd_valid);
      bp1.trigger_here(/*is_first_action=*/false);
      const bool valid = thd_valid.read();  // stale "still alive" check
      if (!valid) return;  // closed before the query began: nothing runs
      // bp2: the teardown's free happens in this window.
      ConflictTrigger bp2(kCrashBp2, &thd_valid);
      bp2.trigger_here(/*is_first_action=*/false);
      // bp3: and is published before the dereference below.
      ConflictTrigger bp3(kCrashBp3, &thd_valid);
      bp3.trigger_here(/*is_first_action=*/false);
      if (!thd_valid.read()) {
        throw rt::SimulatedCrash(
            "null pointer dereference: THD used after connection close");
      }
    } catch (const rt::SimulatedCrash& e) {
      crash = e.what();
    }
  });
  rt::Thread closer([&] {
    gate.wait();
    rt::clock_sleep_for(kArrivalSkew);
    ConflictTrigger bp1(kCrashBp1, &thd_valid);
    bp1.trigger_here(/*is_first_action=*/true);
    ConflictTrigger bp2(kCrashBp2, &thd_valid);
    bp2.trigger_here(/*is_first_action=*/true);
    thd_valid.write(false);  // free the THD
    ConflictTrigger bp3(kCrashBp3, &thd_valid);
    bp3.trigger_here(/*is_first_action=*/true);
  });
  gate.open();
  query.join();
  closer.join();

  outcome.runtime_seconds = clock.elapsed_seconds();
  if (!crash.empty()) {
    outcome.artifact = rt::Artifact::kCrash;
    outcome.detail = crash;
  }
  return outcome;
}

RunOutcome run_group_commit_race(const RunOptions& options) {
  configure(options);
  RunOutcome outcome;
  rt::Stopwatch clock;

  instr::SharedVar<int> pending{0};  // events queued for the next flush
  std::atomic<int> issued{0};
  std::atomic<int> flushed{0};
  rt::StartGate gate;

  // Two committers enroll events via an unsynchronized read-modify-write
  // of the pending counter (ranks 0 and 1 of the 3-ary breakpoint)...
  auto committer = [&](int rank) {
    gate.wait();
    rt::clock_sleep_for(kArrivalSkew * rank);
    issued.fetch_add(1);
    const int seen = pending.read();
    if (options.breakpoints) {
      OrderTrigger trigger(kGroupCommitBp);
      (void)trigger.trigger_here_ranked(rank, 3, options.pause);
    }
    pending.write(seen + 1);
  };
  // ...while the group leader (rank 2, ordered LAST) flushes whatever
  // count it observes and zeroes the counter.
  auto leader = [&] {
    gate.wait();
    rt::clock_sleep_for(kArrivalSkew * 2);  // after both committers
    if (options.breakpoints) {
      OrderTrigger trigger(kGroupCommitBp);
      (void)trigger.trigger_here_ranked(2, 3, options.pause);
    }
    const int batch = pending.read();
    flushed.fetch_add(batch);
    pending.write(0);
  };

  rt::Thread c1(committer, 0);
  rt::Thread c2(committer, 1);
  rt::Thread flush_thread(leader);
  gate.open();
  c1.join();
  c2.join();
  flush_thread.join();

  outcome.runtime_seconds = clock.elapsed_seconds();
  // Accounting invariant: everything issued is either flushed or still
  // pending.  The 3-way overlap loses a committer's enrollment.
  const int accounted = flushed.load() + pending.peek();
  if (accounted < issued.load()) {
    outcome.artifact = rt::Artifact::kLogOmission;
    outcome.detail = std::to_string(issued.load() - accounted) +
                     " group-commit enrollment(s) lost";
  }
  return outcome;
}

}  // namespace cbp::apps::minidb
