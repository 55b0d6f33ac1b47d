// Pre-fork mode of the httpdlike replica: the cross-process driver for
// the trigger broker (src/broker).
//
// Apache's pre-fork MPM serves requests from N *processes* sharing a
// scoreboard in shared memory; concurrency bugs there span address
// spaces, which is exactly what `scope=process-group` breakpoints are
// for.  This replica forks N workers over a MAP_SHARED|MAP_ANONYMOUS
// region holding:
//
//   * a slot scoreboard.  Normal requests claim a random slot with a
//     correct CAS.  Rare "admin" requests (~1 in admin_period) use the
//     seeded TOCTOU bug on dedicated slot 0: check `state == 0`, *then*
//     claim with fetch_add — two admins passing the check concurrently
//     double-claim the slot (`claims` briefly > 1, counted as a race).
//     The window is a few instructions wide and admins are rare, so the
//     natural probability is near zero; the process-group breakpoint
//     kScoreboardBp parks a worker inside the window until a peer
//     process arrives, making the double-claim nearly deterministic.
//
//   * the access log (Apache #25520 transplanted to shared memory): one
//     request is logged as two separately spin-locked appends; the
//     process-group breakpoint kPreforkLogBp parks between the halves,
//     interleaving two processes' half-lines.
//
// fork discipline: workers are forked while the parent is still
// single-threaded; only then does the parent start the Broker (whose IO
// thread must never cross a fork).  Workers retry-connect to the
// socket, attach a BrokerClient transport (it starts no thread; each
// trigger call reads its own grant), and _exit without running atexit
// handlers.
//
// kill_worker_on_hit drives the peer-loss path end to end: worker 0
// takes its breakpoint scoped and _exits(42) while still holding the
// OrderingGuard — the broker sees EOF mid-protocol and must release the
// surviving peer with a kPeerLost grant instead of letting it hang.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace cbp::apps::httpdlike {

struct PreforkOptions {
  int workers = 4;
  int requests_per_worker = 25000;
  /// Scoreboard size; slot 0 is the admin (racy) slot, the rest are
  /// claimed with the correct CAS.
  int scoreboard_slots = 16;
  /// ~1 admin request per this many requests, per worker.
  int admin_period = 500;

  /// Install the process-group breakpoints (off = bare workload, the
  /// "without breakpoints" control row).
  bool breakpoints = true;
  /// Nominal postponement bound T for both breakpoints.
  std::chrono::milliseconds pause{150};
  std::uint64_t seed = 1;

  /// Worker 0 _exits(42) holding its first hit's OrderingGuard (peer
  /// death mid-protocol); survivors must be released as peer-lost.
  bool kill_worker_on_hit = false;

  /// Unix-socket path for the broker; empty = a /tmp path derived from
  /// the parent pid.
  std::string socket_path;

  /// Parent-side watchdog: workers still alive after this real-time
  /// budget are SIGKILLed and the run reported as wedged.
  std::chrono::seconds watchdog{60};
};

struct PreforkOutcome {
  int scoreboard_races = 0;   ///< double-claims of the admin slot
  int corrupt_log_lines = 0;  ///< interleaved two-half log lines
  std::uint64_t broker_matches = 0;    ///< groups formed (all names)
  std::uint64_t broker_timeouts = 0;   ///< arrivals expired unmatched
  std::uint64_t broker_peer_lost = 0;  ///< members lost to peer death
  std::uint64_t worker_hits = 0;       ///< sum of workers' engine hits
  std::uint64_t worker_peer_lost = 0;  ///< sum of engine peer_lost
  std::uint64_t worker_timeouts = 0;   ///< sum of engine timeouts
  bool worker_killed = false;  ///< a worker exited via the kill path
  bool wedged = false;         ///< watchdog had to SIGKILL workers
  double runtime_seconds = 0.0;
  std::string detail;
};

/// Runs one pre-fork trial (fork, serve, join, aggregate).  Safe to run
/// repeatedly from one process; the caller must be single-threaded at
/// the call (the fork contract above).
PreforkOutcome run_prefork_scoreboard(const PreforkOptions& options);

inline constexpr const char* kScoreboardBp = "httpd-prefork-scoreboard-bp";
inline constexpr const char* kPreforkLogBp = "httpd-prefork-log-bp";

}  // namespace cbp::apps::httpdlike
