// The BTRIGGER engine (paper §3).
//
// One Slot per breakpoint name holds the Postponed set.  A thread whose
// local predicate holds either (a) finds complementary postponed threads
// whose joint predicate matches — a *hit*: a GroupState is created and
// every participant is released in rank order — or (b) joins the
// Postponed set itself and waits up to T, then times out and continues.
// Postponement is always bounded, so the mechanism cannot deadlock the
// program (paper §3, "we do not postpone the execution of a thread
// indefinitely").
//
// Fast-path architecture (see DESIGN.md "Lock-free hot paths"): every
// breakpoint name is interned once into an immutable NameRecord that
// bundles the name's Slot and the active SpecOverride.  BTrigger caches
// the record pointer, so the steady-state trigger path performs zero
// global-mutex acquisitions and zero string hashes.  A call that may
// rendezvous takes the per-name slot mutex, which guards the Postponed
// set and the slow-path counters; the outcomes that cannot rendezvous
// are counted lock-free (HotCounters).  First-time resolution probes an
// append-only open-addressing table with plain atomic loads (no reader
// lock).
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/btrigger.h"
#include "core/config.h"
#include "core/pattern.h"
#include "core/spec.h"
#include "core/stats.h"
#include "core/transport.h"
#include "obs/event.h"
#include "runtime/clock.h"
#include "runtime/context.h"
#include "runtime/thread_registry.h"
#include "runtime/vclock.h"

namespace cbp {

namespace internal {

// GroupState and Waiter — the shared state of a hit and one postponed
// thread — live in core/pattern.h, beside the matcher that fills them.

/// Armed-fast-path counters (DESIGN.md §5i).  Every counter a trigger
/// call can bump *without* rendezvousing lives here as a relaxed atomic,
/// so the three non-matching outcomes — local reject, bounded-out,
/// ignore-window — return without touching the slot mutex:
///
///   * the outcome counters that need no global order (`local_rejects`,
///     `ignored`, `bounded`) are striped: kStripes cache-line-padded
///     copies indexed by rt::this_thread_id(), so a local reject writes
///     only a line no other thread writes (the src/detect/striping.h
///     idiom).  Threads whose ids collide modulo kStripes share a
///     stripe and stay exact — the adds are atomic.  Only snapshots,
///     reset() and names() sum the stripes;
///   * `arrivals` stays shared: fetch_add hands each passing arrival a
///     unique index, so exactly the first `ignore_first` arrivals are
///     ignored;
///   * `hits` stays shared: it is only ever *incremented* under the
///     slot mutex (match exclusivity needs it), but is *read* lock-free
///     by the bound pre-screen; the matching paths re-check it under
///     the mutex, so `bound` stays exact — the lock-free read can only
///     send a call to the slow path spuriously, never let an
///     over-budget call match;
///   * there is no `calls` counter: every call ends in exactly one of a
///     local reject or an arrival, so snapshots derive
///     calls = local_rejects + arrivals.
///
/// Snapshots (Engine::stats et al.) merge these with the mutex-guarded
/// slow-path counters into a plain BreakpointStats.  A snapshot taken
/// while triggers are in flight may catch an arrival before its verdict
/// (ignored, bounded, postponed); quiescent reads (the documented stats
/// contract) are exact.
struct HotCounters {
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> local_rejects{0};
    std::atomic<std::uint64_t> ignored{0};
    std::atomic<std::uint64_t> bounded{0};
  };
  static constexpr std::size_t kStripes = 16;

  /// The calling thread's stripe.
  Stripe& mine() { return stripes[rt::this_thread_id() % kStripes]; }

  std::array<Stripe, kStripes> stripes;
  std::atomic<std::uint64_t> arrivals{0};
  std::atomic<std::uint64_t> hits{0};  ///< written under mu, read lock-free
};

/// Per-breakpoint-name rendezvous state.  The mutex is per-name: two
/// distinct breakpoints never contend on it.  Counters the fast path
/// bumps live in `hot`; `cold` keeps only the slow-path fields
/// (postponed/timeouts/cancelled/participants/peer_lost/waits/
/// histograms — its fast-path fields stay zero and are overwritten from
/// `hot` when a snapshot is taken).
struct Slot {
  mutable std::mutex mu;
  std::condition_variable cv;
  std::vector<Waiter*> postponed;  // guarded by mu
  HotCounters hot;                 // lock-free (see above)
  BreakpointStats cold;            // guarded by mu; slow-path fields only
  /// Pattern-matching state, built lazily on the first pattern event
  /// and keyed by spec-entry identity (same idiom as cold_bounded): a
  /// new spec generation has new entry addresses, so `matcher_entry !=
  /// entry` detects any pattern change and rebuilds.  Guarded by mu;
  /// reset() clears both before freeing old spec generations.
  std::unique_ptr<PatternMatcher> matcher;
  const SpecOverride* matcher_entry = nullptr;
};

/// An interned breakpoint name.  Created once on first use and never
/// destroyed or moved for the life of the process, so raw pointers to it
/// may be cached freely (BTrigger does): records of a destroyed engine
/// are donated to an immortal graveyard rather than freed.  `spec`
/// points into the currently installed spec map (kept alive by the
/// owning engine) or is null.  `engine_tag` identifies the owning engine
/// (process-unique, never reused); BTrigger's cached pointer is
/// validated against it so a record cached under engine A is never used
/// by a trigger running under engine B.
struct NameRecord {
  std::string name;
  std::size_t hash = 0;       ///< cached std::hash<string_view>(name)
  std::uint32_t id = 0;       ///< process-unique intern id (see next_name_id)
  std::uint64_t engine_tag = 0;  ///< owning engine's tag (immutable)
  std::atomic<const SpecOverride*> spec{nullptr};
  /// Cold-spec pre-screen (DESIGN.md §5i): the spec entry whose `bound`
  /// this name was observed to have exhausted, or null.  A trigger that
  /// reads `spec == cold_bounded` returns bounded-out after its counter
  /// updates without even loading `hot.hits`.  The entry pointer *is*
  /// the epoch: set_spec() installs entries of a fresh generation map
  /// (new addresses — old generations stay alive until reset()), so any
  /// published sticky mismatches the moment an override changes, and
  /// reset() clears it explicitly before freeing old generations —
  /// a stale fast-path reject is impossible by construction.  Mutable:
  /// the hot path publishes it through the const record pointer it
  /// caches.
  mutable std::atomic<const SpecOverride*> cold_bounded{nullptr};
  std::unique_ptr<Slot> slot = std::make_unique<Slot>();
};

}  // namespace internal

/// Breakpoint engine.  All public methods are thread-safe.
///
/// Engines are first-class objects: the process-wide default is
/// `instance()`, and harness workers may own private engines so many
/// trials run concurrently with fully isolated intern tables, slots,
/// stats, specs and observers.  Trigger calls route through `current()`:
/// the engine bound to the calling thread (via ScopedEngine /
/// rt::ScopedContext, inherited by rt::Thread children), falling back to
/// the default instance.  A private engine must outlive every thread
/// that triggers under it (join all trial threads before destroying it
/// — the same contract reset() already has); its interned records then
/// retire to an immortal graveyard so raw pointers cached by BTriggers
/// never dangle.
class Engine {
 public:
  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// The process-wide default engine (never destroyed).
  static Engine& instance();

  /// The engine bound to the calling thread, or instance() if none.
  static Engine& current() {
    if (void* bound = rt::bound_context()) {
      return *static_cast<Engine*>(bound);
    }
    return instance();
  }

  /// Process-unique identity of this engine (never reused).
  [[nodiscard]] std::uint64_t tag() const { return tag_; }

  /// This engine's runtime knobs (core/config.h).  The static Config
  /// facade reads/writes the *bound* engine's copy, so one trial's
  /// enable/disable or pause-time changes never leak into trials
  /// running concurrently on other workers' engines.
  [[nodiscard]] RuntimeSettings& settings() noexcept { return settings_; }
  [[nodiscard]] const RuntimeSettings& settings() const noexcept {
    return settings_;
  }

  /// Core entry point used by BTrigger::trigger_here*.
  /// `timeout` is nominal; rt::TimeScale is applied internally.
  /// When the active spec entry for this name carries a `pattern=`, the
  /// call is routed to the pattern matcher with `rank` as the site
  /// index (so existing 2-site insertions participate in a pattern
  /// without recompiling).
  TriggerResult trigger(BTrigger& bt, int rank, int arity,
                        std::chrono::microseconds timeout, bool scoped);

  /// Pattern entry point used by BTrigger::trigger_here_site: fires the
  /// named site of this breakpoint's `pattern=` spec entry.  A pattern
  /// breakpoint exists *only* via its spec entry — with no entry (or no
  /// pattern in it) this is a dormant no-op that returns without
  /// counting anything, which is what makes an un-spec'd binary the
  /// 0-hit control.
  TriggerResult trigger_site(BTrigger& bt, std::string_view site,
                             std::chrono::microseconds timeout, bool scoped);

  /// Interns `name`, creating its record on first use.  The returned
  /// pointer is stable for the process lifetime (it survives reset()
  /// and even this engine's destruction — see the graveyard note).
  const internal::NameRecord* intern(const std::string& name);

  /// Process-unique ids of every name interned by this engine (in
  /// registration order).  Lets a collector attribute obs trace events
  /// to one engine: ids are allocated from a global counter, so two
  /// engines never share an id even for equal names.
  [[nodiscard]] std::vector<std::uint32_t> interned_ids() const;

  /// Snapshot of the counters for one breakpoint name.
  [[nodiscard]] BreakpointStats stats(const std::string& name) const;

  /// Sum over all breakpoint names.
  [[nodiscard]] BreakpointStats total_stats() const;

  /// Names that have been seen so far (triggered at least once while
  /// enabled and not spec-disabled).
  [[nodiscard]] std::vector<std::string> names() const;

  /// Wakes every postponed thread with a "cancelled" (no-hit) outcome.
  /// Used by harnesses to cut short in-flight postponements.
  void cancel_all();

  /// cancel_all() plus forgetting all statistics and postponements.
  /// Interned records survive (cached BTrigger pointers stay valid);
  /// their counters restart from zero.  Callers must ensure no thread is
  /// concurrently inside trigger(); the harness calls this between
  /// experiment runs after joining all workers.
  void reset();

  /// Observer invoked once per hit (outside engine locks; CP.22).
  /// Pass nullptr to clear.
  void set_hit_observer(std::function<void(const HitInfo&)> observer);

  /// When true, hits are printed to stderr (the paper's library prints
  /// "Conflict"/"Deadlock" from predicateGlobal).  Default off.
  void set_verbose(bool on);

  /// Installs per-name overrides (see core/spec.h) applied at trigger
  /// time: disable, pause override, order flip, refinement values.
  /// Normally called through BreakpointSpec::install().
  void set_spec(std::unordered_map<std::string, SpecOverride> spec);

  /// Attaches (or, with nullptr, detaches) the transport used by
  /// `scope=process-group` spec entries (core/transport.h).  Local
  /// breakpoints never consult it; with no transport attached a
  /// process-group entry falls back to local matching, so the hot path
  /// is untouched until a spec actually asks for distribution.  The
  /// transport is shared_ptr-held: in-flight remote postponements keep
  /// it alive across a detach.
  void set_transport(std::shared_ptr<TransportPolicy> transport);
  [[nodiscard]] std::shared_ptr<TransportPolicy> transport() const;

  /// Per-engine override of the global rt::TimeScale, applied to the
  /// nominal waits this engine performs (postponement timeout, guard
  /// cap).  The order delay is never scaled: it is host time.  <= 0
  /// (the default) means "follow the global scale"; a positive value
  /// pins this engine regardless of concurrent TimeScale::set calls
  /// from other workers' trials.
  void set_time_scale(double scale) {
    time_scale_.store(scale, std::memory_order_relaxed);
  }
  [[nodiscard]] double time_scale() const {
    return time_scale_.load(std::memory_order_relaxed);
  }

 private:
  using SpecMap = std::unordered_map<std::string, SpecOverride>;

  /// Applies the active clock's policy to a nominal duration, with this
  /// engine's pinned scale (if any) as the hint: under a real/scaled
  /// clock this is the historical TimeScale multiply; under a virtual
  /// clock nominal durations pass through verbatim (waits are free).
  [[nodiscard]] rt::Duration scaled(rt::Duration nominal) const {
    return rt::clock_adjust(nominal,
                            time_scale_.load(std::memory_order_relaxed));
  }

  /// Lock-free find in the open-addressing intern table; null on miss.
  const internal::NameRecord* find_interned(std::string_view name,
                                            std::size_t hash) const;

  /// Record for `bt`, resolving and caching it on first call.
  const internal::NameRecord* record_for(BTrigger& bt);

  /// Snapshot of all records (in registration order) taken under
  /// intern_mu_ and released before any slot mutex is locked, so
  /// aggregation never holds a table-wide lock while locking slots.
  std::vector<const internal::NameRecord*> records_snapshot() const;

  /// The observer and verbose report of one hit, made by the
  /// participant that completed it.  Called with no locks held (CP.22).
  void report_hit(const HitInfo& info);

  /// Releases a matched participant in rank order: the rank-order
  /// protocol (PatternMatcher::await_turn) with this engine's order
  /// delay (host time, unscaled) and scaled guard cap, then kRelease,
  /// `order_hist` and the hit's TriggerResult (guarded when `scoped`).
  /// Called with no locks held.
  TriggerResult release(internal::Slot& slot,
                        std::shared_ptr<internal::GroupState> group, int rank,
                        bool scoped);

  /// The admission pipeline every trigger path runs first: local
  /// predicate → outcome counters → arrival index → bound pre-screen →
  /// ignore window, with `entry`'s ignore_first/bound overriding
  /// `bt`'s.  Lock-free.  False when the call is done (its outcome is
  /// already counted); true when it may go on to match.
  bool admit(const internal::NameRecord& record, const BTrigger& bt,
             const SpecOverride* entry);

  /// The pattern slow path: admit(), then a matcher dispatch under the
  /// slot mutex.  `entry` must carry a pattern; `site` is its index in
  /// the compiled spec.
  TriggerResult trigger_pattern(const internal::NameRecord& record,
                                BTrigger& bt, const SpecOverride& entry,
                                int site, std::chrono::microseconds timeout,
                                bool scoped);

  /// Process-group dispatch for an admitted call: the whole
  /// postponement/match/release protocol runs through `transport` (the
  /// broker).  Called with no locks held; does its own stats
  /// accounting on `record`'s slot.
  TriggerResult trigger_remote(const internal::NameRecord& record,
                               BTrigger& bt, int rank, int arity,
                               std::chrono::microseconds timeout, bool scoped,
                               TransportPolicy& transport);

  // ---- interned name table -------------------------------------------
  // Append-only open addressing: readers probe with plain acquire loads
  // (no lock, no RMW); first-time interning publishes under intern_mu_.
  // Past kInternCells/2 names the table stops growing and later names
  // fall back to the mutex-guarded overflow map (a documented, graceful
  // degradation — breakpoint-name sets are small and static in practice).
  static constexpr std::size_t kInternCells = 1u << 14;  // 16384

  std::array<std::atomic<internal::NameRecord*>, kInternCells> cells_{};
  mutable std::mutex intern_mu_;
  std::vector<std::unique_ptr<internal::NameRecord>> records_;  // owner
  std::unordered_map<std::string, internal::NameRecord*>
      overflow_;  // guarded by intern_mu_
  std::size_t probe_count_ = 0;  ///< records published into cells_

  // ---- spec overrides ------------------------------------------------
  // Installed spec maps are kept alive (retired, never freed while
  // triggers may read them) so records can point straight into them and
  // the hot path reads one atomic pointer instead of locking a map.
  mutable std::mutex spec_mu_;
  std::vector<std::shared_ptr<const SpecMap>> spec_generations_;

  mutable std::mutex observer_mu_;
  std::function<void(const HitInfo&)> observer_;
  bool verbose_ = false;  // guarded by observer_mu_

  // ---- process-group transport ----------------------------------------
  // Read once per process-group trigger (cold relative to the local
  // path); local triggers never touch it.
  mutable std::mutex transport_mu_;
  std::shared_ptr<TransportPolicy> transport_;  // guarded by transport_mu_

  const std::uint64_t tag_;          ///< process-unique, assigned at birth
  std::atomic<double> time_scale_{0.0};  ///< <= 0: follow rt::TimeScale
  RuntimeSettings settings_;  ///< engine-scoped knobs (core/config.h)
};

/// RAII binding of an engine to the calling thread: trigger calls made
/// by this thread — and by rt::Thread children spawned while the
/// binding is live — route to `engine` instead of Engine::instance().
class ScopedEngine {
 public:
  explicit ScopedEngine(Engine& engine) : scope_(&engine) {}

 private:
  rt::ScopedContext scope_;
};

}  // namespace cbp
