#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <iostream>
#include <thread>

#include "core/config.h"
#include "obs/trace.h"

namespace cbp {

// ---------------------------------------------------------------------------
// OrderingGuard
// ---------------------------------------------------------------------------

OrderingGuard::OrderingGuard(std::shared_ptr<internal::GroupState> group,
                             int rank)
    : group_(std::move(group)), rank_(rank) {}

OrderingGuard::OrderingGuard(std::function<void()> on_release, int rank)
    : on_release_(std::move(on_release)), rank_(rank) {}

OrderingGuard::~OrderingGuard() { release(); }

OrderingGuard::OrderingGuard(OrderingGuard&& other) noexcept
    : group_(std::move(other.group_)),
      on_release_(std::move(other.on_release_)),
      rank_(other.rank_) {
  other.group_.reset();
  other.on_release_ = nullptr;
  other.rank_ = -1;
}

OrderingGuard& OrderingGuard::operator=(OrderingGuard&& other) noexcept {
  if (this != &other) {
    release();
    group_ = std::move(other.group_);
    on_release_ = std::move(other.on_release_);
    rank_ = other.rank_;
    other.group_.reset();
    other.on_release_ = nullptr;
    other.rank_ = -1;
  }
  return *this;
}

void OrderingGuard::release() {
  if (on_release_) {
    // Transport-backed guard: completion is a message (DONE to the
    // broker), not a GroupState ack.
    std::function<void()> complete = std::move(on_release_);
    on_release_ = nullptr;
    rank_ = -1;
    complete();
    return;
  }
  if (!group_) return;
  {
    std::scoped_lock lock(group_->mu);
    group_->acked[static_cast<std::size_t>(rank_)] = 1;
  }
  rt::clock_notify_all(group_->cv);
  CBP_OBS_EVENT(obs::EventKind::kGuardAck, group_->name_id, rank_);
  group_.reset();
  rank_ = -1;
}

// ---------------------------------------------------------------------------
// BTrigger thin wrappers
// ---------------------------------------------------------------------------

bool BTrigger::trigger_here(bool is_first_action,
                            std::chrono::milliseconds timeout) {
  return Engine::current()
      .trigger(*this, is_first_action ? 0 : 1, 2,
               std::chrono::duration_cast<std::chrono::microseconds>(timeout),
               /*scoped=*/false)
      .hit;
}

bool BTrigger::trigger_here(bool is_first_action) {
  Engine& engine = Engine::current();
  return engine
      .trigger(*this, is_first_action ? 0 : 1, 2,
               engine.settings().default_timeout(),
               /*scoped=*/false)
      .hit;
}

TriggerResult BTrigger::trigger_here_scoped(bool is_first_action,
                                            std::chrono::milliseconds timeout) {
  return Engine::current().trigger(
      *this, is_first_action ? 0 : 1, 2,
      std::chrono::duration_cast<std::chrono::microseconds>(timeout),
      /*scoped=*/true);
}

TriggerResult BTrigger::trigger_here_scoped(bool is_first_action) {
  Engine& engine = Engine::current();
  return engine.trigger(*this, is_first_action ? 0 : 1, 2,
                        engine.settings().default_timeout(),
                        /*scoped=*/true);
}

bool BTrigger::trigger_here_ranked(int rank, int arity,
                                   std::chrono::milliseconds timeout) {
  return Engine::current()
      .trigger(*this, rank, arity,
               std::chrono::duration_cast<std::chrono::microseconds>(timeout),
               /*scoped=*/false)
      .hit;
}

TriggerResult BTrigger::trigger_here_ranked_scoped(
    int rank, int arity, std::chrono::milliseconds timeout) {
  return Engine::current().trigger(
      *this, rank, arity,
      std::chrono::duration_cast<std::chrono::microseconds>(timeout),
      /*scoped=*/true);
}

TriggerResult BTrigger::trigger_here_site(std::string_view site,
                                          std::chrono::milliseconds timeout) {
  return Engine::current().trigger_site(
      *this, site,
      std::chrono::duration_cast<std::chrono::microseconds>(timeout),
      /*scoped=*/false);
}

TriggerResult BTrigger::trigger_here_site(std::string_view site) {
  Engine& engine = Engine::current();
  return engine.trigger_site(*this, site, engine.settings().default_timeout(),
                             /*scoped=*/false);
}

// ---------------------------------------------------------------------------
// Engine: interned name table
// ---------------------------------------------------------------------------

namespace {

/// Set once instance() has constructed the default engine; null before
/// (and during) that construction.  Engine's constructor reads it to
/// inherit settings without recursing into instance().
std::atomic<Engine*> g_default_engine{nullptr};

}  // namespace

Engine& Engine::instance() {
  static Engine* engine = [] {
    auto* e = new Engine();  // immortal: never destroyed
    g_default_engine.store(e, std::memory_order_release);
    return e;
  }();
  return *engine;
}

namespace {

std::size_t name_hash(std::string_view name) {
  return std::hash<std::string_view>{}(name);
}

/// Engine tags: process-unique, never reused, never zero (a zero
/// engine_tag in a NameRecord would match no engine).
std::atomic<std::uint64_t> g_next_engine_tag{1};

/// Name ids: one global counter across all engines, so an id appearing
/// in the obs trace names exactly one (engine, name) pair even when
/// parallel trial workers intern the same breakpoint names.
std::atomic<std::uint32_t> g_next_name_id{0};

/// Graveyard of records whose engine died.  Records must be immortal —
/// BTriggers cache raw pointers and validate them by reading
/// record->engine_tag, which must stay dereferenceable forever.  A
/// dead engine's tag is never reused, so a graveyard record can fail
/// the validation but never pass it.
std::mutex g_graveyard_mu;
std::vector<std::unique_ptr<internal::NameRecord>>& graveyard() {
  static auto* g = new std::vector<std::unique_ptr<internal::NameRecord>>();
  return *g;
}

}  // namespace

Engine::Engine()
    : tag_(g_next_engine_tag.fetch_add(1, std::memory_order_relaxed)) {
  // Inherit the runtime knobs visible to the creating thread: its bound
  // engine if any, else the process default.  Harness workers create
  // their private engines on unbound threads, so bench-level Config
  // writes made before the pool spawned still reach every worker.
  Engine* parent = nullptr;
  if (void* bound = rt::bound_context()) {
    parent = static_cast<Engine*>(bound);
  } else {
    parent = g_default_engine.load(std::memory_order_acquire);
  }
  if (parent != nullptr && parent != this) settings_.inherit(parent->settings_);
}

Engine::~Engine() {
  // Contract: no thread is inside trigger() on this engine (callers join
  // their trial threads first), but BTriggers that outlive the engine
  // may still hold cached record pointers — retire the records instead
  // of freeing them.  Their spec pointers are nulled because the spec
  // generations they point into die with the engine.
  cancel_all();
  std::scoped_lock lock(intern_mu_, g_graveyard_mu);
  for (auto& record : records_) {
    record->spec.store(nullptr, std::memory_order_relaxed);
    record->cold_bounded.store(nullptr, std::memory_order_relaxed);
    graveyard().push_back(std::move(record));
  }
  records_.clear();
}

const internal::NameRecord* Engine::find_interned(std::string_view name,
                                                  std::size_t hash) const {
  std::size_t i = hash & (kInternCells - 1);
  for (std::size_t probes = 0; probes < kInternCells; ++probes) {
    const internal::NameRecord* record =
        cells_[i].load(std::memory_order_acquire);
    if (record == nullptr) return nullptr;
    if (record->hash == hash && record->name == name) return record;
    i = (i + 1) & (kInternCells - 1);
  }
  return nullptr;
}

const internal::NameRecord* Engine::intern(const std::string& name) {
  const std::size_t hash = name_hash(name);
  if (const internal::NameRecord* record = find_interned(name, hash)) {
    return record;
  }

  std::scoped_lock lock(intern_mu_);
  // Re-check under the lock (another thread may have just published it,
  // or it may live in the overflow map).
  if (const internal::NameRecord* record = find_interned(name, hash)) {
    return record;
  }
  if (auto it = overflow_.find(name); it != overflow_.end()) {
    return it->second;
  }

  auto owned = std::make_unique<internal::NameRecord>();
  internal::NameRecord* record = owned.get();
  record->name = name;
  record->hash = hash;
  record->id = g_next_name_id.fetch_add(1, std::memory_order_relaxed);
  record->engine_tag = tag_;
  // No spec fix-up needed here: set_spec() interns every spec'd name
  // eagerly, so a name first interned by a trigger cannot have a
  // pending override.
  records_.push_back(std::move(owned));

  if (probe_count_ < kInternCells / 2) {
    std::size_t i = hash & (kInternCells - 1);
    while (cells_[i].load(std::memory_order_relaxed) != nullptr) {
      i = (i + 1) & (kInternCells - 1);
    }
    cells_[i].store(record, std::memory_order_release);
    ++probe_count_;
  } else {
    overflow_.emplace(name, record);
  }
#ifndef CBP_DISABLE_OBS
  // Register the id -> name mapping so trace exports can resolve events
  // even if the trace is enabled after interning (cold path, once per
  // name per process).
  obs::Trace::set_name(record->id, name);
#endif
  return record;
}

const internal::NameRecord* Engine::record_for(BTrigger& bt) {
  // The cached pointer may belong to another engine (a trigger object
  // reused across trials, or shared between concurrently-running
  // engines): validate it against this engine's tag.  Records are
  // immortal process-wide and tags are never reused, so the check is a
  // safe dereference and a stale record can only ever *fail* it.  On
  // mismatch we intern here and re-cache; a trigger ping-ponged between
  // two live engines just re-resolves each time, still returning the
  // record of the engine actually running the call.
  const internal::NameRecord* record =
      bt.record_.load(std::memory_order_acquire);
  if (record == nullptr || record->engine_tag != tag_) {
    record = intern(bt.name());
    bt.record_.store(record, std::memory_order_release);
  }
  return record;
}

std::vector<std::uint32_t> Engine::interned_ids() const {
  std::vector<std::uint32_t> ids;
  for (const internal::NameRecord* record : records_snapshot()) {
    ids.push_back(record->id);
  }
  return ids;
}

std::vector<const internal::NameRecord*> Engine::records_snapshot() const {
  std::scoped_lock lock(intern_mu_);
  std::vector<const internal::NameRecord*> snapshot;
  snapshot.reserve(records_.size());
  for (const auto& record : records_) snapshot.push_back(record.get());
  return snapshot;
}

// ---------------------------------------------------------------------------
// Engine: the hit path (postpone, match, release in rank order — §3),
// shared by trigger, trigger_pattern and, for its accounting,
// trigger_remote
// ---------------------------------------------------------------------------

namespace {

/// Parks `waiter` on `slot` (mutex held through `lock`): pushes it,
/// counts the postponement, waits up to `bound` until it is matched,
/// cancelled or resumed, records the wait and unlinks it again.  A
/// matched waiter counts its participation here; `matched` wins over a
/// racing cancel.
void park(internal::Slot& slot, std::unique_lock<std::mutex>& lock,
          internal::Waiter& waiter, std::uint32_t name_id,
          rt::Duration bound) {
  slot.postponed.push_back(&waiter);
  slot.cold.postponed += 1;
  CBP_OBS_EVENT(obs::EventKind::kPostpone, name_id, waiter.rank);

  rt::Stopwatch wait_clock;  // follows the active clock
  rt::clock_wait_for(slot.cv, lock, bound, [&] {
    return waiter.matched || waiter.cancelled || waiter.resumed;
  });
  const std::int64_t wait_us = wait_clock.elapsed_us();
  slot.cold.total_wait_us += wait_us;
  slot.cold.wait_hist.record(
      wait_us > 0 ? static_cast<std::uint64_t>(wait_us) : 0);

  auto it = std::find(slot.postponed.begin(), slot.postponed.end(), &waiter);
  if (it != slot.postponed.end()) slot.postponed.erase(it);
  if (waiter.matched) slot.cold.participants += 1;
}

/// Counts a postponement that ended without a hit: cancelled, or timed
/// out.  Called with the slot mutex held.
void count_miss(internal::Slot& slot, std::uint32_t name_id, int rank,
                bool cancelled) {
  if (cancelled) {
    slot.cold.cancelled += 1;
    CBP_OBS_EVENT(obs::EventKind::kCancel, name_id, rank);
  } else {
    slot.cold.timeouts += 1;
    CBP_OBS_EVENT(obs::EventKind::kTimeout, name_id, rank);
  }
}

/// Counts a hit the calling thread completed, as `rank` of `arity`
/// (slot mutex held): `hits`, the caller's participation, one kMatch per
/// rank, then wakes the `matched` waiters.
void count_hit(internal::Slot& slot, std::uint32_t name_id, int rank,
               int arity, const std::vector<internal::Waiter*>& matched) {
  // Incremented under the slot mutex (match exclusivity), loaded
  // lock-free by admit()'s bound pre-screen.
  slot.hot.hits.fetch_add(1, std::memory_order_relaxed);
  slot.cold.participants += 1;
  if (CBP_OBS_ENABLED()) {
    // One kMatch per rank, stamped with each participant's tid (the
    // waiters are asleep; their postponement spans close against these
    // events).  detail carries the arity.  The k events describe one
    // instant, so one clock read stamps the whole run (Trace::stamp;
    // under a virtual clock each event still gets its own unique
    // deterministic stamp).
    const auto detail = static_cast<std::uint16_t>(arity);
    const std::uint64_t stamp = obs::Trace::stamp();
    obs::Trace::record_for_at(stamp, rt::this_thread_id(),
                              obs::EventKind::kMatch, name_id, rank, detail);
    for (const internal::Waiter* w : matched) {
      obs::Trace::record_for_at(stamp, w->tid, obs::EventKind::kMatch,
                                name_id, w->matched_rank, detail);
    }
  }
  rt::clock_notify_all(slot.cv);
}

}  // namespace

void Engine::report_hit(const HitInfo& info) {
  std::function<void(const HitInfo&)> observer;
  bool verbose = false;
  {
    std::scoped_lock lock(observer_mu_);
    observer = observer_;
    verbose = verbose_;
  }
  if (verbose) {
    // One formatted string, one stream insertion: concurrent hits used
    // to interleave their three operands mid-line on stderr.
    std::string line;
    line.reserve(info.description.size() + info.name.size() + 32);
    line += "[cbp] hit: ";
    line += info.description;
    line += " (breakpoint '";
    line += info.name;
    line += "')\n";
    std::cerr << line;
  }
  if (observer) observer(info);
}

TriggerResult Engine::release(internal::Slot& slot,
                              std::shared_ptr<internal::GroupState> group,
                              int rank, bool scoped) {
  // The order delay is never scaled: a real clock sleeps it in host
  // time, and a virtual clock takes it verbatim like every wait.
  PatternMatcher::await_turn(*group, rank, scoped, settings_.order_delay(),
                             scaled(settings_.guard_wait_cap()));
  CBP_OBS_EVENT(obs::EventKind::kRelease, group->name_id, rank);
  {
    // Ordering latency: group creation (match) to this rank's release.
    const auto order_us = std::chrono::duration_cast<std::chrono::microseconds>(
                              rt::clock_now() - group->match_time)
                              .count();
    std::scoped_lock lock(slot.mu);
    slot.cold.order_hist.record(
        order_us > 0 ? static_cast<std::uint64_t>(order_us) : 0);
  }
  TriggerResult result;
  result.hit = true;
  if (scoped) result.guard = OrderingGuard(std::move(group), rank);
  return result;
}

// ---------------------------------------------------------------------------
// Engine: admission and dispatch
// ---------------------------------------------------------------------------

namespace {

/// The bound check: lock-free in admit(), and exact when re-run under
/// the slot mutex (hits only grows while mu is held, so `bound = n`
/// still means at most n matched groups).  True — the call counted as
/// bounded-out — once the name has spent its hit budget.
bool spent(const internal::NameRecord& record, const BTrigger& bt,
           const SpecOverride* entry) {
  internal::HotCounters& hot = record.slot->hot;
  // Cold-spec pre-screen: a previous call in this spec generation saw
  // the spec's budget exhausted and published the sticky, so this call
  // skips even the hits load.  Only spec-derived bounds stick —
  // programmatic bounds may differ between same-name trigger objects.
  const bool spec_bound = entry != nullptr && entry->bound.has_value();
  if (!spec_bound ||
      record.cold_bounded.load(std::memory_order_relaxed) != entry) {
    const std::uint64_t bound = spec_bound ? *entry->bound : bt.bound_count();
    if (hot.hits.load(std::memory_order_relaxed) < bound) return false;
    if (spec_bound) record.cold_bounded.store(entry, std::memory_order_relaxed);
  }
  hot.mine().bounded.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace

bool Engine::admit(const internal::NameRecord& record, const BTrigger& bt,
                   const SpecOverride* entry) {
  // User code: evaluate outside every lock (it may be arbitrarily
  // expensive, though it must not block).
  const bool local_ok = bt.predicate_local();

  // ---- armed fast path: no slot mutex (DESIGN.md §5i) ----------------
  // The three non-matching outcomes account themselves with relaxed
  // atomics and return; only a call that may actually rendezvous pays
  // for the lock.  A local reject writes only its own thread's stripe.
  internal::HotCounters& hot = record.slot->hot;
  if (!local_ok) {
    hot.mine().local_rejects.fetch_add(1, std::memory_order_relaxed);
    CBP_OBS_EVENT(obs::EventKind::kLocalReject, record.id, -1);
    return false;
  }
  const std::uint64_t arrival =
      hot.arrivals.fetch_add(1, std::memory_order_relaxed) + 1;
  // An arrival and its immediate verdict (ignore) describe one instant:
  // one clock read stamps both (Trace::stamp batching).
  std::uint64_t obs_stamp = 0;
  if (CBP_OBS_ENABLED()) {
    obs_stamp = obs::Trace::stamp();
    obs::Trace::record_at(obs_stamp, obs::EventKind::kArrival, record.id, -1);
  }
  if (spent(record, bt, entry)) return false;
  const std::uint64_t ignore_first = entry != nullptr && entry->ignore_first
                                         ? *entry->ignore_first
                                         : bt.ignore_first_count();
  if (arrival <= ignore_first) {
    // ignore_first suppresses the arrival entirely (§6.3): it neither
    // postpones *nor* matches a postponed peer.  This check must come
    // before any matching — an arrival inside the ignore window used to
    // be able to complete a match, which made `ignore_first = n` with
    // an exact arrival counter still hit during the warm-up phase.
    hot.mine().ignored.fetch_add(1, std::memory_order_relaxed);
    if (CBP_OBS_ENABLED()) {
      obs::Trace::record_at(obs_stamp, obs::EventKind::kIgnore, record.id, -1);
    }
    return false;
  }
  return true;
}

TriggerResult Engine::trigger(BTrigger& bt, int rank, int arity,
                              std::chrono::microseconds timeout, bool scoped) {
  assert(arity >= 2 && rank >= 0 && rank < arity);
  // This engine's own knob, not Config::enabled(): the facade would
  // re-resolve Engine::current(), and this is the disabled fast path.
  if (!settings_.is_enabled()) return {};

  const internal::NameRecord* record = record_for(bt);

  // Spec-file overrides (core/spec.h) compose over the programmatic
  // parameters: they let a shipped bug report be tuned or flipped
  // without recompiling.  The override lives in the interned record, so
  // this fast path takes no lock and hashes no strings — a spec-disabled
  // breakpoint costs two dependent atomic loads.
  const SpecOverride* entry = record->spec.load(std::memory_order_acquire);
  if (entry != nullptr) {
    if (entry->disabled) return {};
    if (entry->pause) {
      timeout =
          std::chrono::duration_cast<std::chrono::microseconds>(*entry->pause);
    }
    if (entry->flip_order) {
      if (arity == 2) {
        rank = 1 - rank;
      } else {
        // `flip` is defined for binary ranks only; spec parsing rejects
        // flip+pattern, but an arity-k trigger under a flip entry can
        // only be caught here.  Warn once instead of silently ignoring.
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true, std::memory_order_relaxed)) {
          std::cerr << "[cbp] warning: spec 'flip' on breakpoint '"
                    << record->name << "' ignored: flip is defined for "
                    << "2-ary breakpoints, this trigger has arity " << arity
                    << "\n";
        }
      }
    }
    if (entry->pattern != nullptr) {
      // Pattern breakpoint: the declared rank maps onto the pattern's
      // site index, so existing ranked insertions join the automaton.
      if (rank >= static_cast<int>(entry->pattern->site_count())) return {};
      return trigger_pattern(*record, bt, *entry, rank, timeout, scoped);
    }
  }

  if (!admit(*record, bt, entry)) return {};

  // Process-group dispatch (core/transport.h): only a spec entry can ask
  // for it, so purely local breakpoints never read the transport.  A
  // remote park is a kernel wait — under a bound virtual clock (which
  // cannot schedule a foreign process) the entry degrades to local
  // matching, as it does when no transport is attached.
  if (entry != nullptr && entry->scope == SpecScope::kProcessGroup &&
      rt::bound_virtual_clock() == nullptr) {
    if (std::shared_ptr<TransportPolicy> remote_transport = transport()) {
      return trigger_remote(*record, bt, rank, arity, timeout, scoped,
                            *remote_transport);
    }
  }

  internal::Slot& slot = *record->slot;
  std::unique_lock lock(slot.mu);
  if (spent(*record, bt, entry)) return {};  // the exact re-check

  std::shared_ptr<internal::GroupState> group;
  int my_rank = rank;
  HitInfo info;
  std::vector<internal::Waiter*> chosen;  // one per other rank
  if (PatternMatcher::match_rendezvous(slot.postponed, bt, rank, arity, scoped,
                                       rt::this_thread_id(), record->id, group,
                                       my_rank, info, chosen)) {
    // The last-arriving participant counts and reports the hit.
    count_hit(slot, record->id, my_rank, arity, chosen);
    lock.unlock();
    report_hit(info);
    return release(slot, std::move(group), my_rank, scoped);
  }

  internal::Waiter waiter;
  waiter.trigger = &bt;
  waiter.tid = rt::this_thread_id();
  waiter.rank = rank;
  waiter.arity = arity;
  waiter.scoped = scoped;
  park(slot, lock, waiter, record->id, scaled(timeout));
  if (!waiter.matched) {
    count_miss(slot, record->id, rank, waiter.cancelled);
    return {};
  }
  lock.unlock();
  return release(slot, waiter.group, waiter.matched_rank, scoped);
}

TriggerResult Engine::trigger_site(BTrigger& bt, std::string_view site,
                                   std::chrono::microseconds timeout,
                                   bool scoped) {
  if (!settings_.is_enabled()) return {};
  const internal::NameRecord* record = record_for(bt);
  const SpecOverride* entry = record->spec.load(std::memory_order_acquire);
  // A pattern breakpoint exists only through its spec entry: with no
  // entry (or none carrying a pattern) every site call is a dormant
  // no-op — nothing is counted, which makes the un-spec'd binary the
  // 0-hit control run.
  if (entry == nullptr || entry->pattern == nullptr) return {};
  if (entry->disabled) return {};
  const int index = entry->pattern->site_index(site);
  if (index < 0) return {};
  if (entry->pause) {
    timeout =
        std::chrono::duration_cast<std::chrono::microseconds>(*entry->pause);
  }
  return trigger_pattern(*record, bt, *entry, index, timeout, scoped);
}

TriggerResult Engine::trigger_pattern(const internal::NameRecord& record,
                                      BTrigger& bt, const SpecOverride& entry,
                                      int site,
                                      std::chrono::microseconds timeout,
                                      bool scoped) {
  // The automaton sits strictly behind admission's lock-free early-outs
  // (DESIGN.md §5i).
  if (!admit(record, bt, &entry)) return {};

  internal::Slot& slot = *record.slot;
  std::unique_lock lock(slot.mu);
  if (spent(record, bt, &entry)) return {};  // the exact re-check
  // (Re)build the matcher when the installed entry changed: new spec
  // generations have new entry addresses, so pointer identity is the
  // epoch — the cold_bounded idiom.
  if (slot.matcher_entry != &entry) {
    slot.matcher = std::make_unique<PatternMatcher>(entry.pattern, record.id);
    slot.matcher_entry = &entry;
  }

  internal::Waiter waiter;
  waiter.trigger = &bt;
  waiter.tid = rt::this_thread_id();
  waiter.rank = site;
  waiter.arity = 0;  // pattern waiter: invisible to match_rendezvous
  waiter.scoped = scoped;

  PatternMatcher::Outcome out =
      slot.matcher->on_event(site, waiter.tid, scoped, bt, &waiter);

  for (const PatternMatcher::Outcome::Advance& a : out.advances) {
    slot.cold.pattern_partials += 1;
    if (CBP_OBS_ENABLED()) {
      obs::Trace::record_for(a.tid, obs::EventKind::kPatternAdvance, record.id,
                             a.site, static_cast<std::uint16_t>(a.progress));
    }
  }
  for (int progress : out.aborted) {
    slot.cold.pattern_aborts += 1;
    if (CBP_OBS_ENABLED()) {
      obs::Trace::record(obs::EventKind::kPatternAbort, record.id, site,
                         static_cast<std::uint16_t>(progress));
    }
  }
  if (!out.resumed.empty()) rt::clock_notify_all(slot.cv);

  switch (out.kind) {
    case PatternMatcher::Outcome::Kind::kNoMatch:
      slot.cold.pattern_rejects += 1;
      return {};
    case PatternMatcher::Outcome::Kind::kRecorded:
      // Event consumed, thread runs on: its pause comes at its last
      // pattern event; the advance above is the telemetry record.
      return {};
    case PatternMatcher::Outcome::Kind::kHit:
      count_hit(slot, record.id, out.rank, out.info.arity, out.matched);
      lock.unlock();
      report_hit(out.info);
      return release(slot, std::move(out.group), out.rank, scoped);
    case PatternMatcher::Outcome::Kind::kPark:
      break;
  }

  park(slot, lock, waiter, record.id, scaled(timeout));
  if (waiter.matched) {
    lock.unlock();
    return release(slot, waiter.group, waiter.matched_rank, scoped);
  }
  if (waiter.resumed) {
    // Consumed mid-pattern (the run needs this thread later) or
    // orphaned by a hit that completed without this event — either
    // way: continue, no hit.
    return {};
  }
  // Timed out or cancelled: this thread's park is over, and the partial
  // match it anchored is dead — abort the whole run first, so the trace
  // reads kPatternAbort before the timeout or cancel.
  if (slot.matcher != nullptr) {
    PatternMatcher::DetachResult detached =
        slot.matcher->detach(waiter.run, &waiter);
    if (detached.aborted) {
      slot.cold.pattern_aborts += 1;
      if (CBP_OBS_ENABLED()) {
        obs::Trace::record(obs::EventKind::kPatternAbort, record.id, site,
                           static_cast<std::uint16_t>(detached.progress));
      }
      for (internal::Waiter* orphan : detached.orphans) {
        orphan->cancelled = true;
      }
      if (!detached.orphans.empty()) rt::clock_notify_all(slot.cv);
    }
  }
  count_miss(slot, record.id, site, waiter.cancelled);
  return {};
}

TriggerResult Engine::trigger_remote(const internal::NameRecord& record,
                                     BTrigger& bt, int rank, int arity,
                                     std::chrono::microseconds timeout,
                                     bool scoped, TransportPolicy& transport) {
  internal::Slot& slot = *record.slot;

  // Local refinements stay in-process (core/transport.h): admit() has
  // already applied this process's own warm-up window and hit budget,
  // exactly as if the paper's library were loaded into every process
  // separately.
  {
    std::scoped_lock lock(slot.mu);
    slot.cold.postponed += 1;
    CBP_OBS_EVENT(obs::EventKind::kPostpone, record.id, rank);
  }

  RemoteTriggerRequest request;
  request.name = record.name;
  request.rank = rank;
  request.arity = arity;
  // The park is a real kernel wait; apply this engine's scale and floor
  // at 1 ms so the broker always sees a positive bound.
  request.timeout = std::max(
      std::chrono::milliseconds(1),
      std::chrono::duration_cast<std::chrono::milliseconds>(scaled(timeout)));

  rt::Stopwatch wait_clock;
  RemoteTriggerResult remote = transport.trigger_remote(request);
  const std::int64_t wait_us = wait_clock.elapsed_us();
  // A plain hit's `complete` is the lower rank's last act, so the rank
  // it released may still be on its way out.  If that rank was
  // preempted on this CPU, one yield lets it return first.
  if (!scoped && remote.rank > 0) std::this_thread::yield();

  {
    std::scoped_lock lock(slot.mu);
    slot.cold.total_wait_us += wait_us;
    slot.cold.wait_hist.record(
        wait_us > 0 ? static_cast<std::uint64_t>(wait_us) : 0);
    if (!remote.hit()) {
      count_miss(slot, record.id, rank,
                 /*cancelled=*/remote.outcome != RemoteOutcome::kTimeout);
      return {};
    }
    if (remote.outcome == RemoteOutcome::kPeerLost) slot.cold.peer_lost += 1;
    // Per-process view: `hits` counts groups this process joined — the
    // value `bound` compares against, so the budget is spent by
    // participation, not by cluster-wide totals.  The peers live in
    // other processes: no local waiter to stamp or wake.
    count_hit(slot, record.id, remote.rank, arity, {});
  }

  // Each participating process reports the hit to its own observer; the
  // peer processes' thread ids are unknowable here, so only this rank's
  // slot in `threads` is filled in.
  HitInfo info;
  info.name = bt.name();
  info.description = bt.describe();
  info.arity = arity;
  info.threads.assign(static_cast<std::size_t>(arity), 0);
  if (remote.rank >= 0 && remote.rank < arity) {
    info.threads[static_cast<std::size_t>(remote.rank)] = rt::this_thread_id();
  }
  report_hit(info);

  CBP_OBS_EVENT(obs::EventKind::kRelease, record.id, remote.rank);

  TriggerResult result;
  result.hit = true;
  result.peer_lost = remote.outcome == RemoteOutcome::kPeerLost;
  if (scoped) {
    result.guard = OrderingGuard(std::move(remote.complete), remote.rank);
  } else if (remote.complete) {
    remote.complete();  // last act: the next rank may proceed
  }
  return result;
}

// ---------------------------------------------------------------------------
// Engine: aggregation and administration (cold paths)
// ---------------------------------------------------------------------------

namespace {

using Stripe = internal::HotCounters::Stripe;

/// Sum of one striped counter over every stripe.
std::uint64_t sum(const internal::HotCounters& hot,
                  std::atomic<std::uint64_t> Stripe::*field) {
  std::uint64_t total = 0;
  for (const Stripe& stripe : hot.stripes) {
    total += (stripe.*field).load(std::memory_order_relaxed);
  }
  return total;
}

/// Merges a slot's lock-free hot counters and mutex-guarded slow-path
/// counters into one plain snapshot.
BreakpointStats snapshot_slot(const internal::Slot& slot) {
  BreakpointStats out;
  {
    std::scoped_lock lock(slot.mu);
    out = slot.cold;
  }
  out.local_rejects = sum(slot.hot, &Stripe::local_rejects);
  out.arrivals = slot.hot.arrivals.load(std::memory_order_relaxed);
  out.calls = out.local_rejects + out.arrivals;
  out.ignored = sum(slot.hot, &Stripe::ignored);
  out.bounded = sum(slot.hot, &Stripe::bounded);
  out.hits = slot.hot.hits.load(std::memory_order_relaxed);
  return out;
}

}  // namespace

BreakpointStats Engine::stats(const std::string& name) const {
  const internal::NameRecord* record = find_interned(name, name_hash(name));
  if (record == nullptr) {
    std::scoped_lock lock(intern_mu_);
    auto it = overflow_.find(name);
    if (it == overflow_.end()) return {};
    record = it->second;
  }
  return snapshot_slot(*record->slot);
}

BreakpointStats Engine::total_stats() const {
  // Snapshot the record list first, then aggregate: no table-wide lock
  // is held while slot mutexes are taken.
  BreakpointStats total;
  for (const internal::NameRecord* record : records_snapshot()) {
    total += snapshot_slot(*record->slot);
  }
  return total;
}

std::vector<std::string> Engine::names() const {
  // A record exists as soon as a name is interned (e.g. by a spec file);
  // "seen" means the engine actually counted a call for it.
  std::vector<std::string> out;
  for (const internal::NameRecord* record : records_snapshot()) {
    const internal::HotCounters& hot = record->slot->hot;
    if (hot.arrivals.load(std::memory_order_relaxed) > 0 ||
        sum(hot, &Stripe::local_rejects) > 0) {
      out.push_back(record->name);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Engine::cancel_all() {
  for (const internal::NameRecord* record : records_snapshot()) {
    internal::Slot* slot = record->slot.get();
    {
      std::scoped_lock lock(slot->mu);
      for (internal::Waiter* w : slot->postponed) w->cancelled = true;
    }
    rt::clock_notify_all(slot->cv);
  }
}

void Engine::reset() {
  cancel_all();
  // Records are immortal (BTriggers cache raw pointers to them); a reset
  // zeroes their counters instead of dropping them.  Callers guarantee
  // no thread is concurrently inside trigger().
  for (const internal::NameRecord* record : records_snapshot()) {
    internal::Slot* slot = record->slot.get();
    // The bounded sticky refers to hit budgets that are being zeroed;
    // clear it before old spec generations are freed below so it can
    // never compare equal to (let alone alias) a dead entry.
    record->cold_bounded.store(nullptr, std::memory_order_relaxed);
    std::scoped_lock lock(slot->mu);
    slot->cold = {};
    // Pattern matchers key on spec-entry identity; the generations they
    // point into are about to be freed.
    slot->matcher.reset();
    slot->matcher_entry = nullptr;
    for (Stripe& stripe : slot->hot.stripes) {
      stripe.local_rejects.store(0, std::memory_order_relaxed);
      stripe.ignored.store(0, std::memory_order_relaxed);
      stripe.bounded.store(0, std::memory_order_relaxed);
    }
    slot->hot.arrivals.store(0, std::memory_order_relaxed);
    slot->hot.hits.store(0, std::memory_order_relaxed);
  }
  // Spec generations retired before the current one can only be freed
  // here, when no trigger can be reading them.
  std::scoped_lock lock(spec_mu_);
  if (spec_generations_.size() > 1) {
    spec_generations_.erase(spec_generations_.begin(),
                            spec_generations_.end() - 1);
  }
}

void Engine::set_transport(std::shared_ptr<TransportPolicy> transport) {
  std::scoped_lock lock(transport_mu_);
  transport_ = std::move(transport);
}

std::shared_ptr<TransportPolicy> Engine::transport() const {
  std::scoped_lock lock(transport_mu_);
  return transport_;
}

void Engine::set_hit_observer(std::function<void(const HitInfo&)> observer) {
  std::scoped_lock lock(observer_mu_);
  observer_ = std::move(observer);
}

void Engine::set_verbose(bool on) {
  std::scoped_lock lock(observer_mu_);
  verbose_ = on;
}

void Engine::set_spec(std::unordered_map<std::string, SpecOverride> spec) {
  // Intern every spec'd name first (intern_mu_ nests inside nothing
  // here), so the pointer fix-up below covers all of them.
  for (const auto& [name, entry] : spec) intern(name);

  std::scoped_lock lock(spec_mu_);
  auto generation = std::make_shared<const SpecMap>(std::move(spec));
  {
    std::scoped_lock intern_lock(intern_mu_);
    for (const auto& record : records_) {
      auto it = generation->find(record->name);
      record->spec.store(it == generation->end() ? nullptr : &it->second,
                         std::memory_order_release);
      // The sticky is keyed by spec-entry identity, so installing a new
      // generation (fresh map, fresh addresses) already invalidates it;
      // clearing keeps the protocol explicit and frees a concurrent
      // trigger from ever comparing against a superseded entry.
      record->cold_bounded.store(nullptr, std::memory_order_relaxed);
    }
  }
  // Keep the map (and any predecessors a concurrent trigger might still
  // be reading) alive; reset() garbage-collects old generations.
  spec_generations_.push_back(std::move(generation));
}

}  // namespace cbp
