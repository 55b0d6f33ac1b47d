// Pattern breakpoints: the k-site event-pattern automaton (DESIGN.md §5j).
//
// The paper's `(l1, l2, phi)` breakpoint is a 2-site rendezvous; this
// layer generalizes it to a *pattern* breakpoint — a small regular
// expression over named trigger events across >= 2 threads, grounded in
// "Predictive Monitoring against Pattern Regular Languages" (PAPERS.md):
//
//   acq(A):t1 . acq(B):t2 . rel(B):t2
//
// `.` sequences events, `|` alternates, `*` closes, parentheses group.
// Each event names a *site* (an identifier, optionally with a
// parenthesized subject: `acq(A)`) and optionally binds a thread
// variable (`:t1`).  Distinct variables must be bound by distinct
// threads; a site with no variable accepts any thread.  Per-site local
// predicates are simply the `predicate_local()` of the BTrigger that
// fires the site — patterns never evaluate `predicate_global`.
//
// A PatternSpec compiles the expression to a Thompson NFA (<= 64
// states, state sets as uint64_t bitsets, epsilon closures and
// reachability precomputed).  A PatternMatcher owns the partial-match
// state — *runs*, each a state set plus variable bindings plus the
// parked threads that produced its events.
//
// Matching semantics (all under the owning slot's mutex):
//   * an event that some run can consume advances that run (oldest
//     first; greedy variable binding, preferring already-bound vars);
//   * an event no run can consume yet, but whose site is reachable
//     from a live run's state set, *parks pending* on that run — the
//     k-site generalization of the paper's "postpone the first
//     arrival"; each advance re-tries pending events in arrival order
//     (the cascade), so out-of-order arrivals are forced into pattern
//     order exactly like the 2-site rendezvous forces (l1, l2);
//   * otherwise, if the initial state enables the site, a new run
//     starts; else the event is an immediate pattern-reject (no pause);
//   * after consuming an event, its thread parks iff the pattern may
//     still need it later -- i.e. unless the thread's bound variable
//     appears on a transition reachable from the new state set, in
//     which case the thread is *recorded* and continues (it must stay
//     runnable to produce its later events; its pause happens at its
//     last event);
//   * reaching the accept state is a *hit*: every parked participant
//     plus the completing caller forms a GroupState (arity = number of
//     paused threads) and is released in event order, completer last,
//     through the same await_turn protocol as rendezvous hits — the
//     PR 3 publication-order invariants carry over verbatim because it
//     is literally the same code;
//   * a parked thread that times out (or is cancelled) detaches and
//     aborts its whole run: remaining parked threads are woken
//     cancelled, and the partial match is discarded.
//
// The classic 2-site and k-ary rendezvous are the degenerate
// single-step pattern: their matcher (`match_rendezvous`) lives here
// too, beside the rank-order release protocol (`await_turn`) that every
// hit, rendezvous or pattern, goes through.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/event.h"
#include "runtime/clock.h"
#include "runtime/thread_registry.h"

namespace cbp {

class BTrigger;

namespace internal {

/// Shared state of one breakpoint hit (a matched group of k threads).
/// Release protocol: rank r may proceed once, for every q < r,
///   uses_guard[q] ? acked[q]
///                 : released[q] && now >= release_time[q] + order_delay
/// with everything capped by Config::guard_wait_cap() so a leaked guard
/// degrades to a delay, never a hang.
///
/// `uses_guard`, `name_id` and `match_time` are written exactly once, by
/// the matcher while it still holds the slot mutex — i.e. before any
/// participant can observe the group — and are immutable afterwards, so
/// await_turn can never read a stale scoped-ness flag for a rank that has
/// already released (the bug fixed in this file's history: the flag used
/// to be written lazily by each rank's own await_turn).
struct GroupState {
  explicit GroupState(int arity_in)
      : arity(arity_in),
        released(static_cast<std::size_t>(arity_in), 0),
        acked(static_cast<std::size_t>(arity_in), 0),
        uses_guard(static_cast<std::size_t>(arity_in), 0),
        release_time(static_cast<std::size_t>(arity_in)) {}

  std::mutex mu;
  std::condition_variable cv;
  const int arity;
  std::uint32_t name_id = obs::kNoName;     // fixed before publication
  rt::TimePoint match_time{};               // fixed before publication
  std::vector<char> released;               // guarded by mu
  std::vector<char> acked;                  // guarded by mu
  std::vector<char> uses_guard;             // fixed before publication
  std::vector<rt::TimePoint> release_time;  // guarded by mu
};

/// One postponed thread (stack-allocated by the parking trigger call,
/// which unlinks it before returning).  The pattern fields (`run`,
/// `site`, `resumed`) are used only when the waiter was parked by a
/// PatternMatcher; `arity` is 0 for pattern waiters so the rendezvous
/// matcher can never select one.
struct Waiter {
  BTrigger* trigger = nullptr;
  rt::ThreadId tid = 0;
  int rank = 0;
  int arity = 2;
  bool scoped = false;
  bool matched = false;    // guarded by slot mutex
  bool cancelled = false;  // guarded by slot mutex
  /// Pattern waiters only: wake and continue *without* a hit (the run
  /// consumed this event but still needs this thread later, or the run
  /// completed without ever consuming it).  Guarded by the slot mutex.
  bool resumed = false;
  int matched_rank = -1;
  std::shared_ptr<GroupState> group;
  std::uint64_t run = 0;  ///< pattern run id (detach key), 0 = none
  int site = -1;          ///< pattern site index, -1 for rendezvous
};

}  // namespace internal

/// Information passed to the hit observer (one call per hit, made by the
/// last-arriving participant, outside all engine locks).
struct HitInfo {
  std::string name;
  std::string description;
  int arity = 2;
  std::vector<rt::ThreadId> threads;  ///< indexed by rank
};

/// A compiled event pattern.  Immutable after parse(); safe to share
/// between matchers (spec entries hold one via shared_ptr).
class PatternSpec {
 public:
  /// Compile limits.  64 NFA states fit a uint64_t state set; patterns
  /// are tiny regular expressions, so the limits are generous.
  static constexpr std::size_t kMaxStates = 64;
  static constexpr std::size_t kMaxSites = 32;
  static constexpr std::size_t kMaxVars = 16;

  /// Parses and compiles `text`; throws std::invalid_argument with a
  /// position-carrying message on malformed input, on a pattern that
  /// can accept fewer than 2 events, or on one exceeding the limits.
  static PatternSpec parse(const std::string& text);

  /// Canonical form (the input with whitespace stripped); parse() of
  /// this string yields an identical pattern — the spec-file round-trip.
  [[nodiscard]] const std::string& to_string() const { return canonical_; }

  /// Distinct site labels, in first-appearance order.  A site's index
  /// is its rank for `trigger_here_ranked` calls routed to a pattern.
  [[nodiscard]] const std::vector<std::string>& site_names() const {
    return sites_;
  }
  [[nodiscard]] std::size_t site_count() const { return sites_.size(); }

  /// Index of `label` among site_names(), or -1 if the pattern never
  /// mentions it.
  [[nodiscard]] int site_index(std::string_view label) const;

  /// Distinct thread-variable names, in first-appearance order.
  [[nodiscard]] const std::vector<std::string>& var_names() const {
    return vars_;
  }

  /// Length of the shortest event sequence the pattern accepts.
  [[nodiscard]] std::size_t min_length() const { return min_length_; }

 private:
  friend class PatternMatcher;
  friend struct PatternCompiler;

  PatternSpec() = default;

  struct Transition {
    int sym = -1;  ///< site index
    int var = -1;  ///< thread-variable index, -1 = unbound
    int to = 0;
  };
  struct State {
    std::vector<Transition> out;
    std::vector<int> eps;
    std::uint64_t closure = 0;         ///< eps-closure bitset (incl. self)
    std::uint64_t vars_reachable = 0;  ///< vars on any reachable transition
    std::uint64_t syms_reachable = 0;  ///< sites on any reachable transition
  };

  std::vector<State> states_;
  int start_ = 0;
  int accept_ = 0;
  std::vector<std::string> sites_;
  std::vector<std::string> vars_;
  std::string canonical_;
  std::size_t min_length_ = 0;
};

/// The matcher: owns partial-match state for one breakpoint name (one
/// per Slot, rebuilt when the installed spec entry changes).  All
/// non-static methods must be called with the owning slot's mutex held.
/// Also home of the two stateless protocols shared with the classic
/// rendezvous path: `match_rendezvous` (the degenerate single-step
/// pattern) and `await_turn` (rank-order release).
class PatternMatcher {
 public:
  /// At most this many concurrent runs; a new run evicts the oldest run
  /// holding no parked thread, or is refused (pattern-reject) if every
  /// run holds one.
  static constexpr std::size_t kMaxRuns = 8;
  /// At most this many pending (not-yet-consumable) parked events per
  /// run; later early arrivals are pattern-rejects.
  static constexpr std::size_t kMaxPending = 8;

  PatternMatcher(std::shared_ptr<const PatternSpec> spec,
                 std::uint32_t name_id);

  struct Outcome {
    enum class Kind {
      kNoMatch,   ///< pattern-reject: no run advanced, parked, or started
      kRecorded,  ///< event consumed; thread continues (needed later)
      kPark,      ///< caller must park (consumed-and-waiting, or pending)
      kHit,       ///< accept reached: group assembled, caller has a rank
    };
    Kind kind = Kind::kNoMatch;
    std::uint64_t run = 0;  ///< run the caller parked on (kPark)
    int progress = 0;       ///< events consumed by the run so far

    /// Events consumed during this call (the caller's, plus any pending
    /// events the cascade consumed), in consumption order — one
    /// kPatternAdvance each.
    struct Advance {
      int site = -1;
      rt::ThreadId tid = 0;
      int progress = 0;
    };
    std::vector<Advance> advances;
    /// Progress of runs evicted to make room (one kPatternAbort each).
    std::vector<int> aborted;
    /// Parked waiters to wake *without* a hit (resumed = true already
    /// set); the engine notifies the slot cv.
    std::vector<internal::Waiter*> resumed;

    // kHit only:
    std::shared_ptr<internal::GroupState> group;
    int rank = -1;  ///< caller's rank within the hit
    HitInfo info;
    std::vector<internal::Waiter*> matched;  ///< parked participants
  };

  /// Feeds one trigger event.  If the outcome is kPark, `self` has been
  /// attached to the run (fields filled in) and the caller must push it
  /// onto the slot's postponed list and wait; on any other outcome
  /// `self` is untouched.
  Outcome on_event(int site, rt::ThreadId tid, bool scoped, BTrigger& bt,
                   internal::Waiter* self);

  struct DetachResult {
    bool aborted = false;  ///< the waiter's run existed and was discarded
    int progress = 0;      ///< events the aborted run had consumed
    /// Other parked waiters of the aborted run; the caller marks them
    /// cancelled and notifies the slot cv.
    std::vector<internal::Waiter*> orphans;
  };

  /// Removes a timed-out or cancelled parked waiter, aborting its run.
  /// Safe against stale ids (matcher rebuilt since the park): a run that
  /// does not actually contain `waiter` is left untouched.
  DetachResult detach(std::uint64_t run, internal::Waiter* waiter);

  [[nodiscard]] const PatternSpec& spec() const { return *spec_; }
  [[nodiscard]] std::size_t live_runs() const { return runs_.size(); }

  // ---- the degenerate single-step pattern: classic rendezvous --------

  /// Tries to assemble a full rendezvous group around `bt` from
  /// `postponed`, greedily and earliest-postponed first.  Called with
  /// the slot mutex held.  On success fills `group` (name_id, match_time
  /// and every rank's uses_guard fixed before publication), marks the
  /// selected waiters matched, returns the arriving thread's rank via
  /// `out_rank`, collects hit info for the observer and the selected
  /// waiters in `chosen`, in rank order (for per-rank obs events).
  /// `chosen` must be empty on entry.
  static bool match_rendezvous(const std::vector<internal::Waiter*>& postponed,
                               BTrigger& bt, int rank, int arity, bool scoped,
                               rt::ThreadId my_tid, std::uint32_t name_id,
                               std::shared_ptr<internal::GroupState>& group,
                               int& out_rank, HitInfo& info,
                               std::vector<internal::Waiter*>& chosen);

  /// Rank-order release protocol; returns after rank `rank` is allowed
  /// to proceed.  Called with no locks held.  `order_delay` is host
  /// time, slept without timer slack; `guard_wait_cap` is the
  /// *effective* (already clock-adjusted) cap.
  static void await_turn(internal::GroupState& group, int rank, bool scoped,
                         rt::Duration order_delay, rt::Duration guard_wait_cap);

 private:
  struct Run {
    std::uint64_t id = 0;
    std::uint64_t set = 0;  ///< current NFA state bitset (eps-closed)
    int progress = 0;       ///< events consumed
    std::uint64_t bound_mask = 0;  ///< which vars are bound
    std::vector<rt::ThreadId> bind;  ///< var index -> thread
    /// Parked waiters whose events were consumed, in consumption order
    /// (their hit ranks).
    std::vector<internal::Waiter*> participants;
    /// Parked early arrivals not yet consumable, in arrival order.
    std::vector<internal::Waiter*> pending;
  };

  struct AdvancePlan {
    std::uint64_t new_set = 0;
    int bind_var = -1;    ///< var to bind to the thread, -1 = none
    int thread_var = -1;  ///< thread's var after the advance, -1 = none
  };

  /// Feasible advance of `run` on (site, tid), or false.  Greedy
  /// binding: transitions needing no new binding win; otherwise the
  /// lowest-indexed bindable variable is chosen.
  bool plan_advance(const Run& run, int site, rt::ThreadId tid,
                    AdvancePlan& plan) const;
  void apply_advance(Run& run, rt::ThreadId tid, const AdvancePlan& plan,
                     int site, Outcome& out);
  /// Re-tries pending events after an advance until none is consumable.
  void cascade(Run& run, Outcome& out);
  /// True iff the thread must park after its event: its variable (if
  /// any) no longer appears on any reachable transition.
  [[nodiscard]] bool parks_after(int thread_var, std::uint64_t set) const;
  [[nodiscard]] bool accepted(std::uint64_t set) const {
    return (set >> spec_->accept_) & 1u;
  }
  void build_hit(Run& run, std::size_t caller_pos, rt::ThreadId tid,
                 bool scoped, BTrigger& bt, Outcome& out);

  std::shared_ptr<const PatternSpec> spec_;
  std::uint32_t name_id_ = obs::kNoName;
  std::vector<Run> runs_;
  std::uint64_t next_run_id_ = 1;
};

}  // namespace cbp
