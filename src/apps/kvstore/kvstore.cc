#include "apps/kvstore/kvstore.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

#include "apps/kvstore/zipfian.h"
#include "core/cbp.h"
#include "runtime/clock.h"
#include "runtime/context.h"
#include "runtime/latch.h"

namespace cbp::apps::kvstore {
namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

// ---------------------------------------------------------------------------
// Breakpoint triggers
// ---------------------------------------------------------------------------

/// Bug 1 pair: a lock-free lookup (reader side) vs. a shard resize
/// (resizer side) on the same shard.  The reader's local predicate is
/// the shard's resize_pending flag sampled at the call site, so on a
/// quiescent shard an armed get() is a pure local-reject — the path
/// whose cost the high-traffic SLO is about.
class ResizeRaceTrigger : public BTrigger {
 public:
  ResizeRaceTrigger() : BTrigger(kResizeRace) {}

  void set(const void* shard, const void* table, bool reader,
           bool resize_pending) {
    shard_ = shard;
    table_ = table;
    reader_ = reader;
    pending_ = resize_pending;
  }

  [[nodiscard]] bool predicate_local() const override {
    return !reader_ || pending_;
  }
  [[nodiscard]] bool predicate_global(const BTrigger& other) const override {
    // The reader side carries the table pointer it sampled, the resizer
    // side the table it just retired: only a *genuinely stale* reader
    // matches (phi over both threads' states, paper 3).  A reader that
    // arrived after publication holds the live table and is left alone —
    // matching it would consume the rendezvous on a harmless schedule.
    const auto* o = dynamic_cast<const ResizeRaceTrigger*>(&other);
    return o != nullptr && o->shard_ == shard_ && o->reader_ != reader_ &&
           o->table_ == table_;
  }
  [[nodiscard]] std::string describe() const override {
    return "Conflict: lock-free lookup vs. shard resize";
  }

 private:
  const void* shard_ = nullptr;
  const void* table_ = nullptr;
  bool reader_ = false;
  bool pending_ = false;
};

/// Bug 2 pair: a put (first action: about to write the fresh value) vs.
/// an eviction whose coldness decision has escaped the shard lock
/// (second action: about to erase on that stale decision).
class EvictToctouTrigger : public BTrigger {
 public:
  EvictToctouTrigger() : BTrigger(kEvictToctou) {}

  void set(std::uint64_t key, bool evictor, bool in_window) {
    key_ = key;
    evictor_ = evictor;
    in_window_ = in_window;
  }

  [[nodiscard]] bool predicate_local() const override {
    // The put side only participates while its key sits inside an open
    // eviction window (KvStore::evict_window_key_): a match needs the
    // evictor anyway, so any other put is a pure local-reject — without
    // this filter every one of the workload's ~10^5 puts would postpone
    // the full T hoping for an eviction that never comes.  Keying the
    // predicate on instrumented program state is the paper's own recipe
    // for arming a breakpoint on a hot site (§3's phi over local state).
    return evictor_ || in_window_;
  }
  [[nodiscard]] bool predicate_global(const BTrigger& other) const override {
    const auto* o = dynamic_cast<const EvictToctouTrigger*>(&other);
    return o != nullptr && o->key_ == key_ && o->evictor_ != evictor_;
  }
  [[nodiscard]] std::string describe() const override {
    return "Atomicity: check-then-erase eviction vs. concurrent put";
  }

 private:
  std::uint64_t key_ = 0;
  bool evictor_ = false;
  bool in_window_ = false;
};

/// Bug 2 as the 3-event pattern (kEvictPatternExpr): check and erase
/// fire from the evictor, put from a writer.  Threads are bound by the
/// pattern's variables, so no predicate_global is needed — but the
/// put side keeps the same window filter as the rendezvous pair (only
/// a put on the key under eviction participates; everything else is a
/// pure local-reject).
class EvictPatternTrigger : public BTrigger {
 public:
  EvictPatternTrigger() : BTrigger(kEvictPattern) {}

  void set(bool evictor, bool in_window) {
    evictor_ = evictor;
    in_window_ = in_window;
  }

  [[nodiscard]] bool predicate_local() const override {
    return evictor_ || in_window_;
  }
  [[nodiscard]] bool predicate_global(const BTrigger&) const override {
    // Unused on the pattern path (thread identity is what the pattern's
    // variables constrain), but BTrigger requires it.
    return true;
  }
  [[nodiscard]] std::string describe() const override {
    return "Pattern: check.put.erase — eviction TOCTOU as 3 ordered events";
  }

 private:
  bool evictor_ = false;
  bool in_window_ = false;
};

// One reusable trigger object per thread: the names exceed the SSO
// buffer, so constructing a trigger per operation would heap-allocate on
// the hot path; a thread_local keeps the interned-record cache warm too.
ResizeRaceTrigger& resize_trigger() {
  thread_local ResizeRaceTrigger t;
  return t;
}
EvictToctouTrigger& evict_trigger() {
  thread_local EvictToctouTrigger t;
  return t;
}
EvictPatternTrigger& pattern_trigger() {
  thread_local EvictPatternTrigger t;
  return t;
}

}  // namespace

// ---------------------------------------------------------------------------
// KvStore
// ---------------------------------------------------------------------------

KvStore::KvStore(const StoreOptions& options)
    : max_load_(options.max_load),
      armed_(options.armed),
      pattern_sites_(options.pattern_sites),
      pause_(options.pause) {
  std::size_t bits = 0;
  while ((1ULL << bits) < options.shard_count) ++bits;
  shard_bits_ = bits;
  shards_.reserve(options.shard_count);
  for (std::size_t i = 0; i < options.shard_count; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->live = std::make_unique<Table>(options.initial_capacity);
    shard->table.store(shard->live.get(), std::memory_order_release);
    shards_.push_back(std::move(shard));
  }
}

KvStore::~KvStore() = default;

KvStore::Shard& KvStore::shard_for(std::uint64_t key) {
  if (shard_bits_ == 0) return *shards_[0];
  return *shards_[(key * kGolden) >> (64 - shard_bits_)];
}

std::size_t KvStore::probe_start(std::uint64_t key, std::size_t mask) {
  // Keys are already SplitMix64-finalized (zipfian.h rank_to_key): the
  // low bits are well mixed, so masking is enough.
  return static_cast<std::size_t>(key) & mask;
}

std::int64_t KvStore::get(std::uint64_t key) {
  Shard& shard = shard_for(key);
  // BUG 1, time of check: the bucket-table pointer is sampled WITHOUT
  // the shard lock (that is the whole point of the lock-free read path).
  // From here to the value load the pointer may be one resize stale.
  const Table* table = shard.table.load(std::memory_order_acquire);
  if (armed_) {
    ResizeRaceTrigger& t = resize_trigger();
    t.set(&shard, table, /*reader=*/true,
          shard.resize_pending.load(std::memory_order_relaxed));
    t.trigger_here(/*is_first_action=*/false, pause_);
  }
  std::size_t i = probe_start(key, table->mask);
  for (std::size_t n = 0; n <= table->mask; ++n, i = (i + 1) & table->mask) {
    const std::uint64_t k =
        table->slots[i].key.load(std::memory_order_acquire);
    if (k == kEmptyKey) return kMiss;
    if (k != key) continue;  // other key or tombstone: keep probing
    const std::int64_t v =
        table->slots[i].value.load(std::memory_order_relaxed);
    if (v == kPoison) {
      // BUG 1, time of use: the retired table was poisoned under our
      // feet — the observable stand-in for reading freed memory.
      poisoned_reads_.fetch_add(1, std::memory_order_relaxed);
    }
    return v;
  }
  return kMiss;
}

void KvStore::put(std::uint64_t key, std::int64_t value) {
  Shard& shard = shard_for(key);
  if (armed_) {
    // First action of the TOCTOU pair: the fresh value is about to land.
    EvictToctouTrigger& t = evict_trigger();
    t.set(key, /*evictor=*/false,
          evict_window_key_.load(std::memory_order_acquire) == key);
    t.trigger_here(/*is_first_action=*/true, pause_);
  }
  if (pattern_sites_) {
    // Pattern event 2 of 3: the interleaved put.  Consuming it advances
    // the automaton past the parked erase (the cascade), so the put
    // lands first and the stale erase destroys it — rank order is event
    // order.
    EvictPatternTrigger& t = pattern_trigger();
    t.set(/*evictor=*/false,
          evict_window_key_.load(std::memory_order_acquire) == key);
    t.trigger_here_site("put", pause_);
  }
  std::scoped_lock lock(shard.mu);
  Table& table = *shard.live;
  std::size_t insert_at = table.mask + 1;  // first tombstone seen, if any
  std::size_t i = probe_start(key, table.mask);
  for (std::size_t n = 0; n <= table.mask; ++n, i = (i + 1) & table.mask) {
    const std::uint64_t k =
        table.slots[i].key.load(std::memory_order_relaxed);
    if (k == key) {
      table.slots[i].value.store(value, std::memory_order_relaxed);
      table.slots[i].hot.store(true, std::memory_order_relaxed);
      return;
    }
    if (k == kTombstoneKey) {
      if (insert_at > table.mask) insert_at = i;
      continue;
    }
    if (k == kEmptyKey) {
      const bool reused = insert_at <= table.mask;
      if (!reused) insert_at = i;
      Slot& slot = table.slots[insert_at];
      // Value and hot flag first, key last with release: a lock-free
      // reader that sees the key sees an initialized slot.
      slot.value.store(value, std::memory_order_relaxed);
      slot.hot.store(true, std::memory_order_relaxed);
      slot.key.store(key, std::memory_order_release);
      if (reused) {
        --shard.tombstones;
      }
      ++shard.entries;
      const double load =
          static_cast<double>(shard.entries + shard.tombstones) /
          static_cast<double>(table.mask + 1);
      if (load > max_load_) resize(shard);
      return;
    }
  }
  // Unreachable while resize() keeps the load factor below 1.
}

void KvStore::resize(Shard& shard) {
  // Raised BEFORE the grown table is built: lock-free readers arriving
  // from here on may be holding the pointer this resize retires, and the
  // flag is what lets their armed probe participate (local predicate).
  shard.resize_pending.store(true, std::memory_order_release);
  Table* old = shard.live.get();
  auto grown = std::make_unique<Table>(2 * (old->mask + 1));
  for (const Slot& s : old->slots) {
    const std::uint64_t k = s.key.load(std::memory_order_relaxed);
    if (k >= kTombstoneKey) continue;  // empty or tombstone
    std::size_t j = probe_start(k, grown->mask);
    while (grown->slots[j].key.load(std::memory_order_relaxed) != kEmptyKey) {
      j = (j + 1) & grown->mask;
    }
    grown->slots[j].value.store(s.value.load(std::memory_order_relaxed),
                                std::memory_order_relaxed);
    grown->slots[j].hot.store(s.hot.load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
    grown->slots[j].key.store(k, std::memory_order_release);
  }
  shard.retired.push_back(std::move(shard.live));
  shard.live = std::move(grown);
  shard.table.store(shard.live.get(), std::memory_order_release);
  shard.tombstones = 0;
  resizes_.fetch_add(1, std::memory_order_relaxed);
  if (armed_) {
    // First action of the resize-race pair: the retired table is about
    // to be poisoned (the real bug would free() it here).
    ResizeRaceTrigger& t = resize_trigger();
    t.set(&shard, shard.retired.back().get(), /*reader=*/false,
          /*resize_pending=*/true);
    t.trigger_here(/*is_first_action=*/true, pause_);
  }
  Table* dead = shard.retired.back().get();
  for (Slot& s : dead->slots) {
    if (s.key.load(std::memory_order_relaxed) < kTombstoneKey) {
      s.value.store(kPoison, std::memory_order_relaxed);
    }
  }
  shard.resize_pending.store(false, std::memory_order_release);
}

bool KvStore::evict_if_cold(std::uint64_t key) {
  Shard& shard = shard_for(key);
  bool present = false;
  bool cold = false;
  {
    std::scoped_lock lock(shard.mu);
    Table& table = *shard.live;
    std::size_t i = probe_start(key, table.mask);
    for (std::size_t n = 0; n <= table.mask; ++n, i = (i + 1) & table.mask) {
      const std::uint64_t k =
          table.slots[i].key.load(std::memory_order_relaxed);
      if (k == kEmptyKey) break;
      if (k != key) continue;
      present = true;
      cold = !table.slots[i].hot.load(std::memory_order_relaxed);
      break;
    }
  }
  // BUG 2, time of check: the coldness decision has now escaped the
  // lock.  A put landing before we re-acquire marks the entry hot again
  // and writes a value this eviction is about to destroy.
  if (!present || !cold) return false;
  if (armed_) {
    // Open the eviction window: concurrent puts on this key now pass
    // their local predicate and can rendezvous with us mid-window.
    evict_window_key_.store(key, std::memory_order_release);
    EvictToctouTrigger& t = evict_trigger();
    t.set(key, /*evictor=*/true, /*in_window=*/true);
    t.trigger_here(/*is_first_action=*/false, pause_);
  }
  if (pattern_sites_) {
    EvictPatternTrigger& t = pattern_trigger();
    t.set(/*evictor=*/true, /*in_window=*/true);
    // Pattern event 1 of 3: time of check.  The automaton starts a run,
    // binds t1 to this thread, and lets it continue (t1 is needed again
    // for the erase).
    t.trigger_here_site("check", pause_);
    evict_window_key_.store(key, std::memory_order_release);
    // Pattern event 3 of 3: time of use.  Out of order for the run
    // (check.PUT.erase), so this parks pending until a put advances the
    // automaton — the §3 pause that holds the window open.
    t.trigger_here_site("erase", pause_);
  }
  bool erased = false;
  bool lost = false;
  {
    std::scoped_lock lock(shard.mu);
    Table& table = *shard.live;
    std::size_t i = probe_start(key, table.mask);
    for (std::size_t n = 0; n <= table.mask; ++n, i = (i + 1) & table.mask) {
      const std::uint64_t k =
          table.slots[i].key.load(std::memory_order_relaxed);
      if (k == kEmptyKey) break;  // vanished meanwhile
      if (k != key) continue;
      // BUG 2, time of use: the fix would re-check the hot flag here.  We
      // only *observe* it — an erase of a re-hottened entry is precisely
      // the lost update this replica exists to manifest.
      lost = table.slots[i].hot.load(std::memory_order_relaxed);
      table.slots[i].key.store(kTombstoneKey, std::memory_order_release);
      table.slots[i].value.store(0, std::memory_order_relaxed);
      table.slots[i].hot.store(false, std::memory_order_relaxed);
      --shard.entries;
      ++shard.tombstones;
      erased = true;
      break;
    }
  }
  if (lost) lost_updates_.fetch_add(1, std::memory_order_relaxed);
  evict_window_key_.store(kEmptyKey, std::memory_order_release);
  return erased;
}

void KvStore::age_all() {
  for (auto& shard : shards_) {
    std::scoped_lock lock(shard->mu);
    for (Slot& s : shard->live->slots) {
      if (s.key.load(std::memory_order_relaxed) < kTombstoneKey) {
        s.hot.store(false, std::memory_order_relaxed);
      }
    }
  }
}

std::size_t KvStore::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::scoped_lock lock(shard->mu);
    total += shard->entries;
  }
  return total;
}

// ---------------------------------------------------------------------------
// High-traffic workload
// ---------------------------------------------------------------------------

namespace {

std::unordered_map<std::string, SpecOverride> spec_for(
    const WorkloadOptions& options) {
  std::unordered_map<std::string, SpecOverride> spec;
  switch (options.mode) {
    case Mode::kOff:
      break;
    case Mode::kSpecsDisabled:
      spec[kResizeRace].disabled = true;
      spec[kEvictToctou].disabled = true;
      break;
    case Mode::kArmedUnmatched: {
      // The put-side probe local-rejects unless its key sits in an open
      // eviction window (evict_window_key_); only those puts arrive.  A
      // spec bound of 0 is the production answer for them ("this pair
      // already reproduced, stop paying for it"): every such arrival
      // takes the sticky bounded-out fast path.  The get-side probe
      // needs no entry: its local predicate (resize_pending) rejects on
      // quiescent shards.
      SpecOverride bounded;
      bounded.bound = 0;
      spec[kEvictToctou] = bounded;
      break;
    }
    case Mode::kArmedMatching: {
      SpecOverride matching;
      matching.bound = options.match_bound;
      matching.pause = options.pause;
      spec[kResizeRace] = matching;
      spec[kEvictToctou] = matching;
      break;
    }
  }
  return spec;
}

}  // namespace

WorkloadResult run_workload(const WorkloadOptions& options) {
  Engine& engine = Engine::current();
  engine.reset();
  Config::set_enabled(true);
  engine.set_spec(spec_for(options));

  const bool armed = options.mode != Mode::kOff;
  const bool matching = options.mode == Mode::kArmedMatching;
  const std::size_t shard_count = 16;
  const std::size_t per_shard =
      (options.keys + shard_count - 1) / shard_count;
  std::size_t capacity = 1;
  while (capacity < per_shard * 2) capacity <<= 1;

  StoreOptions store_options;
  store_options.shard_count = shard_count;
  store_options.initial_capacity = capacity;
  // Matching mode sits the resize threshold just above the prefill so a
  // trickle of fresh inserts crosses it; the other modes leave ample
  // headroom so update-in-place traffic never resizes organically.
  store_options.max_load =
      matching ? (static_cast<double>(per_shard) + 64.0) /
                     static_cast<double>(capacity)
               : 0.75;
  store_options.armed = armed;
  store_options.pause = options.pause;
  KvStore store(store_options);

  const ZipfianGenerator zipf(options.keys, options.theta);
  {
    ScopedBreakpointsDisabled quiesce;
    for (std::uint64_t rank = 0; rank < options.keys; ++rank) {
      store.put(rank_to_key(rank), static_cast<std::int64_t>(rank));
    }
  }

  const int threads = std::max(1, options.threads);
  const std::size_t sessions = std::max<std::size_t>(1, options.sessions);
  std::atomic<std::int64_t> sink{0};
  rt::StartGate gate;
  std::vector<rt::Thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      // This worker's slice of the session pool.  Streams are derived
      // from (seed, global session index), so the aggregate key sequence
      // is a function of the seed alone, not of the pool size.
      const std::size_t first = sessions * static_cast<std::size_t>(t) /
                                static_cast<std::size_t>(threads);
      const std::size_t last = sessions * (static_cast<std::size_t>(t) + 1) /
                               static_cast<std::size_t>(threads);
      std::vector<rt::Rng> streams;
      streams.reserve(last - first);
      for (std::size_t s = first; s < last; ++s) {
        streams.push_back(session_rng(options.seed, s));
      }
      std::uint64_t fresh = 0;
      std::int64_t checksum = 0;
      gate.wait();
      for (std::uint64_t i = 0; i < options.ops_per_thread; ++i) {
        rt::Rng& rng = streams[i % streams.size()];
        const std::uint64_t rank = zipf.next(rng);
        const std::uint64_t key = rank_to_key(rank);
        busy_work(options.work_per_op);  // request parse/serialize cost
        if (rng.next_double() < options.get_fraction) {
          checksum += store.get(key);
        } else {
          store.put(key, static_cast<std::int64_t>(i));
        }
        if (matching && t == 0) {
          if ((i & 511) == 511) {
            // Fresh key: pushes some shard toward its resize threshold.
            store.put(rank_to_key(options.keys + (++fresh)),
                      static_cast<std::int64_t>(i));
          }
          if ((i & 32767) == 32767) {
            // Hot-key eviction pass: age everything, then try to evict
            // the hottest ranks — the TOCTOU window meets put traffic.
            store.age_all();
            for (std::uint64_t r = 0; r < 8; ++r) {
              store.evict_if_cold(rank_to_key(r));
            }
          }
        }
      }
      sink.fetch_add(checksum, std::memory_order_relaxed);
    });
  }

  rt::Stopwatch clock;
  gate.open();
  for (rt::Thread& worker : pool) worker.join();

  WorkloadResult result;
  result.seconds = clock.elapsed_seconds();
  result.ops = static_cast<std::uint64_t>(threads) * options.ops_per_thread;
  result.ns_per_op = result.seconds * 1e9 / static_cast<double>(result.ops);
  const BreakpointStats resize_stats = engine.stats(kResizeRace);
  const BreakpointStats evict_stats = engine.stats(kEvictToctou);
  result.hits = resize_stats.hits + evict_stats.hits;
  result.trigger_calls = resize_stats.calls + evict_stats.calls;
  result.poisoned_reads = store.poisoned_reads();
  result.lost_updates = store.lost_updates();
  result.resizes = store.resizes();
  engine.set_spec({});
  return result;
}

// ---------------------------------------------------------------------------
// Repro scenarios
// ---------------------------------------------------------------------------

namespace {

void configure(const RunOptions& options, const char* other_bug) {
  Config::set_enabled(options.breakpoints);
  Config::set_default_timeout(options.pause);
  // Each scenario hunts ONE bug; the store's other probe site would
  // otherwise postpone T per call with no complementary thread in the
  // workload (e.g. the writer's puts carry the TOCTOU first action).
  // Disabling it by spec is exactly how the paper's users scope a
  // reproduction to the breakpoint under study.
  std::unordered_map<std::string, SpecOverride> spec;
  spec[other_bug].disabled = true;
  Engine::current().set_spec(std::move(spec));
}

}  // namespace

RunOutcome run_resize_race(const RunOptions& options) {
  configure(options, /*other_bug=*/kEvictToctou);
  RunOutcome outcome;
  rt::Stopwatch clock;

  StoreOptions store_options;
  store_options.shard_count = 1;
  store_options.initial_capacity = 256;
  store_options.max_load = 0.5;  // first resize at 128 entries
  store_options.armed = options.breakpoints;
  store_options.pause = options.pause;
  KvStore store(store_options);

  const int base_keys =
      std::max(32, static_cast<int>(96 * options.work_scale));
  {
    ScopedBreakpointsDisabled quiesce;
    for (int i = 0; i < base_keys; ++i) {
      store.put(rank_to_key(static_cast<std::uint64_t>(i)), i);
    }
  }

  rt::Rng writer_rng(options.seed);
  rt::Rng reader_rng(options.seed ^ 0xabcdef123456ULL);
  std::atomic<bool> done{false};
  rt::StartGate gate;
  rt::Thread writer([&] {
    gate.wait();
    // Enough distinct inserts to cross several doubling thresholds.
    const int inserts = 4 * 128;
    for (int i = 0; i < inserts; ++i) {
      store.put(rank_to_key(1'000'000 + static_cast<std::uint64_t>(i)), i);
      busy_work(static_cast<int>(100 + writer_rng.next_below(200)));
    }
    done.store(true, std::memory_order_release);
  });
  rt::Thread reader([&] {
    gate.wait();
    while (!done.load(std::memory_order_acquire)) {
      const std::uint64_t rank = reader_rng.next_below(
          static_cast<std::uint64_t>(base_keys));
      (void)store.get(rank_to_key(rank));
    }
  });
  gate.open();
  writer.join();
  reader.join();

  Engine::current().set_spec({});
  outcome.runtime_seconds = clock.elapsed_seconds();
  if (store.poisoned_reads() > 0) {
    outcome.artifact = rt::Artifact::kRaceObserved;
    outcome.detail = "reader scanned a poisoned (retired) bucket table " +
                     std::to_string(store.poisoned_reads()) + " time(s)";
  }
  return outcome;
}

RunOutcome run_evict_toctou(const RunOptions& options) {
  configure(options, /*other_bug=*/kResizeRace);
  RunOutcome outcome;
  rt::Stopwatch clock;

  StoreOptions store_options;
  store_options.shard_count = 1;
  store_options.initial_capacity = 1024;
  store_options.max_load = 0.9;  // no resizes in this scenario
  store_options.armed = options.breakpoints;
  store_options.pause = options.pause;
  KvStore store(store_options);

  const int keys = std::max(16, static_cast<int>(32 * options.work_scale));
  {
    ScopedBreakpointsDisabled quiesce;
    for (int i = 0; i < keys; ++i) {
      store.put(rank_to_key(static_cast<std::uint64_t>(i)), i);
    }
  }

  const std::uint64_t target = rank_to_key(7);
  // The evictor drives: a fixed number of eviction attempts, with the
  // putter looping until they are done.  (The first version did it the
  // other way round — a fixed put count with a free-running evictor —
  // and TSan's asymmetric slowdown broke it: age_all is pure
  // instrumented atomics over every slot while busy_work is plain
  // arithmetic, so all the puts drained before the evictor sampled its
  // first coldness decision and the window never opened.  Pacing on the
  // evictor makes the choreography slowdown-invariant: every armed
  // attempt that samples cold has a put still coming to meet it.)
  const int attempts = std::max(4, static_cast<int>(12 * options.work_scale));
  rt::Rng put_rng(options.seed);
  std::atomic<bool> done{false};
  rt::StartGate gate;
  rt::Thread evictor([&] {
    gate.wait();
    for (int k = 0; k < attempts; ++k) {
      store.age_all();  // aging pass: even the hot key looks cold...
      // ...then the top eviction candidate is checked and erased; a put
      // in the unlocked window re-hottens it behind our back.  (Only
      // the contended key is scanned: an armed check of a genuinely
      // cold key would postpone the full T waiting for a put that never
      // comes, drowning the run in timeouts without adding coverage.)
      store.evict_if_cold(target);
    }
    done.store(true, std::memory_order_release);
  });
  rt::Thread putter([&] {
    gate.wait();
    for (int i = 1; !done.load(std::memory_order_acquire); ++i) {
      store.put(target, i);
      busy_work(static_cast<int>(200 + put_rng.next_below(400)));
    }
  });
  gate.open();
  evictor.join();
  putter.join();

  Engine::current().set_spec({});
  outcome.runtime_seconds = clock.elapsed_seconds();
  if (store.lost_updates() > 0) {
    outcome.artifact = rt::Artifact::kWrongResult;
    outcome.detail = "eviction destroyed a freshly-written entry " +
                     std::to_string(store.lost_updates()) + " time(s)";
  }
  return outcome;
}

RunOutcome run_evict_pattern(const RunOptions& options) {
  Config::set_enabled(true);
  Config::set_default_timeout(options.pause);
  if (options.breakpoints) {
    // The breakpoint exists ONLY through this spec entry — arming is a
    // text line, exactly the paper's "the spec is the bug report".
    const std::string text =
        std::string(kEvictPattern) + " pattern=" + kEvictPatternExpr +
        " pause=" +
        std::to_string(static_cast<long long>(options.pause.count())) +
        " predicted=" + std::to_string(kEvictPatternPredicted);
    Engine::current().set_spec(BreakpointSpec::parse(text).entries());
  } else {
    // Dormant control: same binary, same site calls, no spec — every
    // trigger_here_site is a no-op.
    Engine::current().set_spec({});
  }
  RunOutcome outcome;
  rt::Stopwatch clock;

  StoreOptions store_options;
  store_options.shard_count = 1;
  store_options.initial_capacity = 1024;
  store_options.max_load = 0.9;  // no resizes in this scenario
  store_options.pattern_sites = true;
  store_options.pause = options.pause;
  KvStore store(store_options);

  const int keys = std::max(16, static_cast<int>(32 * options.work_scale));
  {
    ScopedBreakpointsDisabled quiesce;
    for (int i = 0; i < keys; ++i) {
      store.put(rank_to_key(static_cast<std::uint64_t>(i)), i);
    }
  }

  const std::uint64_t target = rank_to_key(7);
  // Evictor-paced choreography, as in run_evict_toctou: every attempt
  // that samples cold has a put still coming to meet it.
  const int attempts = std::max(4, static_cast<int>(12 * options.work_scale));
  rt::Rng put_rng(options.seed);
  std::atomic<bool> done{false};
  rt::StartGate gate;
  rt::Thread evictor([&] {
    gate.wait();
    for (int k = 0; k < attempts; ++k) {
      store.age_all();
      store.evict_if_cold(target);
      // Aging cadence — and a clock point, so a run of not-cold skips
      // can't monopolize a virtual clock's grant.
      rt::clock_sleep_for(std::chrono::microseconds(100));
    }
    done.store(true, std::memory_order_release);
  });
  rt::Thread putter([&] {
    gate.wait();
    for (int i = 1; !done.load(std::memory_order_acquire); ++i) {
      store.put(target, i);
      // Inter-put think time THROUGH THE CLOCK (run_evict_toctou uses
      // busy_work here): a put outside the eviction window never
      // blocks on the pattern path, so under a virtual clock a pure
      // CPU spin would hold the grant forever and starve the evictor.
      rt::clock_sleep_for(
          std::chrono::microseconds(200 + put_rng.next_below(400)));
    }
  });
  gate.open();
  evictor.join();
  putter.join();

  Engine::current().set_spec({});
  outcome.runtime_seconds = clock.elapsed_seconds();
  if (store.lost_updates() > 0) {
    outcome.artifact = rt::Artifact::kWrongResult;
    outcome.detail = "pattern check.put.erase completed; eviction destroyed "
                     "a freshly-written entry " +
                     std::to_string(store.lost_updates()) + " time(s)";
  }
  return outcome;
}

}  // namespace cbp::apps::kvstore
