// Common interface of the benchmark replicas.
//
// Each replica in src/apps mirrors one program from the paper's Tables
// 1/2: same synchronization idiom, same conflict structure, same failure
// artifact (see DESIGN.md for the substitution table).  Every replica
// exposes one `run_*` entry point per seeded bug; the harness runs it
// repeatedly to estimate the paper's "Prob." column, runtimes, and MTTE.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "runtime/clock.h"
#include "runtime/sim_crash.h"

namespace cbp::apps {

/// Per-run options shared by all replicas.
struct RunOptions {
  /// Insert/arm the concurrent breakpoints for the selected bug.
  bool breakpoints = true;

  /// Nominal postponement time T for this run's breakpoints (the paper's
  /// Global.TIMEOUT; scaled by rt::TimeScale at wait time).
  std::chrono::milliseconds pause{100};

  /// Resolution order of the conflict.  true = the paper's documented
  /// buggy order; false = the opposite order (Methodology II tries both).
  bool order_forward = true;

  /// Seed for workload randomness (page graphs, request mixes, jitter).
  std::uint64_t seed = 1;

  /// Workload size multiplier (1.0 = defaults chosen for ms-scale runs).
  double work_scale = 1.0;

  /// Nominal stall-detection threshold for lock/condition waits.
  std::chrono::milliseconds stall_after{2000};

  /// Timing policy for the trial (DESIGN.md §5g).  kScaled is the
  /// historical behaviour (kernel waits scaled by rt::TimeScale);
  /// kVirtual runs the trial under a per-trial discrete-event clock
  /// where every nominal wait is free and the schedule is
  /// deterministic; kReal pins the scale to 1.0.
  rt::ClockMode clock = rt::ClockMode::kScaled;
};

/// Deterministic CPU work standing in for the real programs' per-
/// operation computation (hashing, parsing, rendering).  Keeps the
/// replicas' base runtimes large enough relative to the breakpoint
/// machinery that overhead percentages are meaningful, as they are in
/// the paper's seconds-long benchmarks.
inline void busy_work(int iterations) {
  volatile int sink = 0;
  for (int i = 0; i < iterations; ++i) sink = sink + i;
}

/// Nominal delay before a scenario's second leg sets off.  Ordinary
/// clients do not start in lockstep; on parallel cores, two legs released
/// together from one StartGate would overlap with no breakpoint armed.
/// The armed postponement is what bridges this skew (DESIGN.md §5).
/// Pass it to rt::clock_sleep_for, which scales it like every nominal wait.
inline constexpr std::chrono::microseconds kArrivalSkew{500};

/// What one run produced.
struct RunOutcome {
  rt::Artifact artifact = rt::Artifact::kNone;
  double runtime_seconds = 0.0;
  std::string detail;  ///< e.g. exception text, corrupt log line

  [[nodiscard]] bool buggy() const {
    return artifact != rt::Artifact::kNone;
  }
};

}  // namespace cbp::apps
