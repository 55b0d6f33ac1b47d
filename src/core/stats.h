// Per-breakpoint statistics.
//
// The harness derives the paper's "BP hit (%)" column (§5, Tables 1/2)
// from these counters; the engine also uses `arrivals` and `hits` to
// enforce the ignore_first / bound local-predicate refinements (§6.3).
// The two histograms are the observability layer's latency view
// (DESIGN.md §5d): how long threads actually sat in Postponed, and how
// long a matched participant waited between the match and its rank's
// release — the quantities a user tunes T (§6.2) against.
#pragma once

#include <cstdint>

#include "obs/histogram.h"

namespace cbp {

/// Counters for one breakpoint name.  A snapshot is a plain value.  Live
/// counters inside the engine are either lock-free atomics (the armed
/// fast path's, some striped per thread — internal::HotCounters) or
/// guarded by the owning slot's mutex; `calls` is not stored at all but
/// derived when the snapshot is taken.
struct BreakpointStats {
  /// trigger_here invocations (enabled) = local_rejects + arrivals.
  std::uint64_t calls = 0;
  std::uint64_t local_rejects = 0;  ///< predicate_local() returned false
  std::uint64_t arrivals = 0;       ///< passed the local predicate
  std::uint64_t ignored = 0;        ///< postponement skipped by ignore_first
  std::uint64_t bounded = 0;        ///< call suppressed by bound
  std::uint64_t postponed = 0;      ///< entered the Postponed set
  std::uint64_t timeouts = 0;       ///< left Postponed without a match
  std::uint64_t cancelled = 0;      ///< woken early by Engine::cancel_all
  std::uint64_t hits = 0;           ///< matched groups (one per pair/k-set)
  std::uint64_t participants = 0;   ///< threads that returned hit == true
  /// Process-group matches whose peer process died mid-protocol: the
  /// broker released this side with a peer-lost grant (core/transport.h).
  /// Always 0 for purely local breakpoints.  Note the per-process view:
  /// a remote `hits` counts groups *this* process participated in.
  std::uint64_t peer_lost = 0;
  /// Pattern breakpoints (core/pattern.h) only; 0 for rendezvous.
  std::uint64_t pattern_partials = 0;  ///< automaton advances (events consumed)
  std::uint64_t pattern_rejects = 0;   ///< events no run could use
  std::uint64_t pattern_aborts = 0;    ///< partial matches torn down
  std::int64_t total_wait_us = 0;   ///< wall time spent in Postponed

  /// Postponed wait time per stay (us), all outcomes (match/timeout/
  /// cancel).
  obs::LogHistogram wait_hist;
  /// Match-to-release ordering latency per participant (us): group
  /// creation by the matcher until the participant's rank was released.
  obs::LogHistogram order_hist;

  BreakpointStats& operator+=(const BreakpointStats& o) {
    calls += o.calls;
    local_rejects += o.local_rejects;
    arrivals += o.arrivals;
    ignored += o.ignored;
    bounded += o.bounded;
    postponed += o.postponed;
    timeouts += o.timeouts;
    cancelled += o.cancelled;
    hits += o.hits;
    participants += o.participants;
    peer_lost += o.peer_lost;
    pattern_partials += o.pattern_partials;
    pattern_rejects += o.pattern_rejects;
    pattern_aborts += o.pattern_aborts;
    total_wait_us += o.total_wait_us;
    wait_hist += o.wait_hist;
    order_hist += o.order_hist;
    return *this;
  }
};

}  // namespace cbp
