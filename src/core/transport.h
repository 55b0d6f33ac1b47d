// TransportPolicy: the engine/transport seam for distributed breakpoints.
//
// The paper's BTRIGGER coordinates exactly two threads in one process;
// DDB-style source-level debugging of real services needs pause points
// that span *processes*.  The seam is deliberately narrow: local
// dispatch keeps the in-process slot/snapshot path untouched (the
// cached spec-disabled trigger stays two dependent atomic loads), and
// only a spec entry marked `scope=process-group` routes its
// arrival/postpone/match/release protocol through a TransportPolicy —
// in practice broker::BrokerClient, which speaks a length-prefixed
// wire protocol to the per-machine trigger broker (src/broker).
//
// Semantics of a remote trigger, mirroring §3 with the broker playing
// the slot mutex's role:
//
//   * the *local* predicate and the ignore_first/bound refinements are
//     evaluated in-process, against this engine's own counters — each
//     process keeps its own warm-up window and hit budget, exactly as
//     if the paper's library were loaded into each process separately;
//   * the *global* predicate cannot be evaluated across address spaces,
//     so remote matching is by (name, rank, arity) identity alone.
//     Cross-process replicas express their joint condition through
//     local predicates over shared state (shared mmap), which is how
//     the pre-fork httpdlike replica phrases its scoreboard race;
//   * postponement timeouts are enforced broker-side (the pause is
//     bounded even if this process stalls), with a client-side real-
//     time failsafe so a dead broker can never hang the caller;
//   * release is rank-ordered by broker grants.  Every hit ends
//     through `complete`, which lets the next rank proceed: a plain hit
//     calls it as its last act, a scoped hit hands it to the
//     OrderingGuard, so it runs when the guard is released;
//   * a participant whose peer process dies mid-protocol is released
//     with kPeerLost — the distributed failure mode the in-process
//     engine never sees — and the engine records it in
//     BreakpointStats::peer_lost.
//
// Remote waits are kernel waits: a process-group breakpoint requires
// the real or scaled clock (a VirtualClock cannot schedule a foreign
// process).  Engine::trigger falls back to local matching when no
// transport is attached or a virtual clock is bound.
#pragma once

#include <chrono>
#include <functional>
#include <string>

namespace cbp {

/// What the engine asks a transport to coordinate (one postponement).
struct RemoteTriggerRequest {
  std::string name;   ///< breakpoint name (the broker's matching key)
  int rank = 0;       ///< declared rank in [0, arity)
  int arity = 2;
  /// Postponement bound T, already engine-scaled (real milliseconds).
  std::chrono::milliseconds timeout{100};
};

/// Terminal outcome of a remote postponement.
enum class RemoteOutcome : unsigned char {
  kTimeout,    ///< parked the full bound without a match
  kHit,        ///< matched and granted in rank order
  kPeerLost,   ///< matched, but a peer process died before completing
  kCancelled,  ///< cancelled (broker shutdown or explicit cancel)
  kError,      ///< transport failure (broker unreachable / protocol)
};

struct RemoteTriggerResult {
  RemoteOutcome outcome = RemoteOutcome::kError;
  int rank = -1;  ///< rank assigned by the matcher (valid on a hit)
  /// Set on every hit: ends it, letting the next rank's process
  /// proceed.  The engine calls it as a plain hit's last act, or wires
  /// it into a scoped hit's OrderingGuard.  Null otherwise.
  std::function<void()> complete;

  [[nodiscard]] bool hit() const {
    return outcome == RemoteOutcome::kHit ||
           outcome == RemoteOutcome::kPeerLost;
  }
};

/// Abstract transport for process-group breakpoints.  Implementations
/// must be thread-safe: many threads of one engine may hold concurrent
/// remote postponements.
class TransportPolicy {
 public:
  virtual ~TransportPolicy() = default;

  /// Blocks the calling thread through one full remote postponement
  /// (arrive → park → match/timeout → grant).  Never blocks forever:
  /// implementations bound the wait by `request.timeout` plus a grant
  /// slack even when the broker misbehaves.
  virtual RemoteTriggerResult trigger_remote(
      const RemoteTriggerRequest& request) = 0;
};

}  // namespace cbp
