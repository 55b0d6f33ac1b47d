// The per-machine trigger broker: §3's matching state machine lifted out
// of the process.
//
// A concurrent breakpoint whose spec entry says `scope=process-group`
// forwards its arrival/postpone/match/release protocol here instead of
// the in-process slot (core/transport.h describes the seam and its
// semantics).  The broker listens on a unix-domain socket; each child
// engine connects at startup (broker::BrokerClient), identifies itself
// with its pid and engine tag, and then each remote postponement is one
// ARRIVE -> {GRANT, then DONE | TIMEOUT | CANCELLED} exchange (src/broker/
// wire.h); the GRANT carries the assigned rank, so a matched member gets
// one frame.  Matching is by (name, rank, arity) identity — the broker
// plays exactly the role the slot mutex plays in-process: it serializes
// arrivals per name, pairs complementary ones, and releases the matched
// group in rank order (GRANT r+1 follows DONE r; a CANCEL from a matched
// member, sent when its client gave up waiting, counts as its DONE).
//
// One thread, the IO thread, owns every fd and all protocol state
// (postponed arrivals, matched groups, deadlines).  It poll()s the listen
// socket, a self-pipe (so stop() can wake it) and every client
// connection.  Each round it handles the frames it read inline, in
// arrival order — a connection's EOF only after its buffered frames —
// then fires expired deadlines, then writes every connection's pending
// output.  poll()'s timeout is the nearest deadline.
//
// Distributed failure modes handled here, not by callers:
//
//   * arrival timeout: the postponement bound T is enforced broker-side,
//     so a pause ends on time even if the arriving process stalls;
//   * peer death: EOF on a connection drops its postponed arrivals and
//     marks its group memberships lost; survivors parked for a grant
//     get GRANT(kPeerLost) instead of a hang, and the broker counts
//     `peer_lost`;
//   * leaked guard: a granted rank that never sends DONE is force-
//     advanced past after `grant_cap` (GRANT(kCap) to the next rank) —
//     the cross-process analogue of the engine's guard_wait_cap.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

namespace cbp::broker {

struct BrokerOptions {
  /// Filesystem path of the listening unix-domain socket.  An existing
  /// socket file at this path is unlinked on start (stale from a
  /// previous run); the file is unlinked again on stop.
  std::string socket_path;

  /// Cap on how long one granted rank may sit on its turn before the
  /// broker force-advances to the next rank (leaked-guard degradation).
  std::chrono::milliseconds grant_cap{2000};
};

/// Monotonic counters, readable while the broker runs.
struct BrokerStats {
  std::uint64_t connections = 0;      ///< accepted connections, lifetime
  std::uint64_t arrivals = 0;         ///< ARRIVE frames admitted
  std::uint64_t matches = 0;          ///< groups formed
  std::uint64_t timeouts = 0;         ///< arrivals expired unmatched
  std::uint64_t cancellations = 0;    ///< postponed arrivals CANCEL withdrew
  std::uint64_t peer_lost = 0;        ///< group members lost to peer death
  std::uint64_t forced_advances = 0;  ///< grant-cap expiries
  std::uint64_t protocol_errors = 0;  ///< malformed frames / oversized
};

class Broker {
 public:
  explicit Broker(BrokerOptions options);
  ~Broker();
  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  /// Binds, listens and starts the IO thread.  False if the socket
  /// could not be created (path too long, bind failure).
  bool start();

  /// Stops the IO thread, closes every connection (clients see EOF) and
  /// unlinks the socket.  Idempotent; also run by the destructor.
  void stop();

  [[nodiscard]] BrokerStats stats() const;
  [[nodiscard]] const std::string& socket_path() const;

 private:
  struct Impl;  // fd bookkeeping + protocol state live in broker.cc
  std::unique_ptr<Impl> impl_;
};

}  // namespace cbp::broker
