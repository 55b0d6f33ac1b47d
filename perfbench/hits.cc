// The two hit workloads: breakpoints that are meant to hit, in a loop.
//
// hits-local, "an in-process debugging session": tracing on, the
// engine's default order delay and T, two groups of two threads on
// their own breakpoint names:
//   * pair: both threads call the paper's trigger_here on one shared
//     ConflictTrigger, and every call should hit;
//   * pattern: `check:t1.put:t2.erase:t1`; one thread fires check then
//     erase, the other fires put continuously with a short think time,
//     so most of its events are pattern-rejects, as at a hot site.
// The time goes to parking, matching, the rank-order release and the
// pattern matcher under the slot mutex; admission is small.
//
// hits-broker, "a cross-process session": the pair again, but its spec
// entry says scope=process-group and its two threads are bound to two
// Engines, each with its own BrokerClient connection to a Broker started
// in this process.  Every hit runs ARRIVE -> MATCHED -> GRANT -> DONE
// through the broker's IO and match threads.
//
// All loops are closed: a thread calls again only after its previous
// call returned.  Rank order is checked from outside: the rank-0 thread
// stamps its hit count right after it returns, the last rank checks it.
//
// A run is split into parts, each on a freshly built rig (engines,
// spec, broker and connections, threads) whose set-up is timed, so that
// the set-ups spread over the run like the measurement windows do.  A
// run reports the median set-up: it is ~0.1 ms of thread starts whose
// wake-up jitter goes both ways, and over five passes of ten runs that
// median moved by at most 17% from pass to pass, the fastest by 29%.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/replica.h"
#include "broker/broker.h"
#include "broker/client.h"
#include "common.h"
#include "core/cbp.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

constexpr std::size_t kSpansKept = 4096;  // per thread, written at exit
constexpr int kPutThink = 32;             // busy_work between two puts
constexpr std::uint64_t kNone = std::numeric_limits<std::uint64_t>::max();

constexpr char kPairName[] = "perfbench-pair";
constexpr char kPatternName[] = "perfbench-pattern";
constexpr char kBrokerName[] = "perfbench-broker-pair";

/// How a run is split: `windows` measurement windows over `parts` rigs,
/// each rig after `setups` timed set-ups (the last one runs) and a
/// warm-up.
struct Plan {
  std::int64_t warmup_ns;
  std::int64_t window_ns;
  int parts;
  int setups;
  int windows = 0;
  bool span_run = false;

  /// Run-wide index of part `part`'s first window.
  [[nodiscard]] int first(int part) const { return windows * part / parts; }
};

Plan make_plan(const Options& o) {
  Plan p = o.smoke ? Plan{50'000'000, 50'000'000, 2, 1}
                   : Plan{250'000'000, 250'000'000, 8, 3};
  p.windows = std::max(2 * p.parts, static_cast<int>(o.seconds * 1e9 / static_cast<double>(p.window_ns)));
  p.span_run = o.spans;
  return p;
}

/// One part's measurement windows, fixed before its gate opens.  Calls
/// ending in [start, start + windows * window) count, in run-wide windows
/// first, first + 1, ...; in the span run, odd windows record spans and
/// even ones do not, which gives span.overhead.
struct Clocking {
  std::int64_t start_ns = 0;
  std::int64_t window_ns = 1;
  int first = 0;
  int windows = 0;
  bool span_run = false;

  [[nodiscard]] int window_of(std::int64_t t) const {
    if (t < start_ns) return -1;
    const std::int64_t w = (t - start_ns) / window_ns;
    return w < windows ? first + static_cast<int>(w) : -1;
  }
  [[nodiscard]] bool spans_at(std::int64_t t) const {
    const int w = window_of(t);
    return span_run && w >= 0 && w % 2 == 1;
  }
};

/// One calling thread's results over the whole run (every part).
struct Caller {
  explicit Caller(int windows)
      : hit(static_cast<std::size_t>(windows)), groups(static_cast<std::size_t>(windows)) {}

  std::vector<LatHist> hit;  ///< calls that hit, per measured window
  LatHist span_hit;  ///< calls that hit, in span windows
  LatHist span_any;  ///< every call, in span windows (the putter's rejects)
  std::vector<std::uint64_t> groups;  ///< groups this thread closed, per window
  std::uint64_t calls = 0;     ///< every trigger call
  std::uint64_t expected = 0;  ///< calls that should have hit
  std::uint64_t missed = 0;    ///< ... and ended without a hit, partner live
  std::uint64_t disorder = 0;  ///< rank-order violations seen
  std::uint64_t hits = 0;      ///< hitting calls
  double hit_us = 0.0;         ///< their summed duration
  SpanBuffer spans{kSpansKept};
};

/// Leader/follower hand-off of one group: the rank-0 thread stamps its
/// hit count, and when stopping it publishes its final count so the
/// follower stops on the same group instead of parking on a partner
/// that is gone.
struct GroupSync {
  explicit GroupSync(std::uint64_t first_op) : op_base(first_op) {}
  const std::uint64_t op_base;  ///< span operation id of group 0
  std::atomic<std::uint64_t> stamp{0};
  std::atomic<std::uint64_t> final{kNone};
};

/// Span operation ids of group `group` in part `part`: unique per run.
std::uint64_t op_base(int part, int group) {
  return static_cast<std::uint64_t>(2 * part + group) << 36;
}

/// Times one trigger call and accounts it.  `closes` marks the thread
/// whose return completes the group (the last rank).
template <class Call>
bool timed_call(Caller& me, const Clocking& clk, std::int64_t clock_cost,
                const char* span, std::uint64_t op, bool closes, Call call) {
  const std::int64_t t0 = now_ns();
  const bool hit = call();
  const std::int64_t t1 = now_ns();
  const std::int64_t d = t1 - t0 - clock_cost;
  const bool spans = clk.spans_at(t0);
  ++me.calls;
  if (spans) me.span_any.add(d);
  if (hit) {
    ++me.hits;
    me.hit_us += static_cast<double>(d) / 1000.0;
    const int w = clk.window_of(t1);
    if (w >= 0) {
      me.hit[static_cast<std::size_t>(w)].add(d);
      if (closes) ++me.groups[static_cast<std::size_t>(w)];
    }
    if (spans) {
      me.span_hit.add(d);
      me.spans.add(op, 0, span, t0, t1);
    }
  }
  return hit;
}

/// Follower loop shared by every group: call, check the leader's stamp,
/// stop on the leader's final count.  `prelude` runs untimed before each
/// call.
template <class Call, class Prelude>
void follow(Caller& me, GroupSync& sync, const std::atomic<bool>& stop,
            const Clocking& clk, std::int64_t clock_cost, const char* span,
            Call call, Prelude prelude) {
  std::uint64_t k = 0;
  for (;;) {
    prelude();
    ++me.expected;
    const bool hit = timed_call(me, clk, clock_cost, span, sync.op_base + k + 1, true, call);
    const bool stopped = stop.load(std::memory_order_relaxed);
    if (hit) {
      ++k;
      if (sync.stamp.load(std::memory_order_acquire) != k) ++me.disorder;
    } else if (!stopped) {
      ++me.missed;
    }
    const std::uint64_t f = sync.final.load(std::memory_order_acquire);
    if (f != kNone && k >= f) break;
    if (!hit && stopped) break;  // the leader is gone
  }
}

/// Leader loop of a pair: every call should hit.
template <class Call>
void lead(Caller& me, GroupSync& sync, const std::atomic<bool>& stop,
          const Clocking& clk, std::int64_t clock_cost, const char* span,
          Call call) {
  std::uint64_t k = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    ++me.expected;
    if (timed_call(me, clk, clock_cost, span, sync.op_base + k + 1, false, call)) {
      sync.stamp.store(++k, std::memory_order_release);
    } else if (!stop.load(std::memory_order_relaxed)) {
      ++me.missed;
    }
  }
  sync.final.store(k, std::memory_order_release);
}

/// A pattern site: the pattern's variables bind the threads, so the
/// joint predicate has nothing left to check.
class SiteTrigger : public cbp::BTrigger {
 public:
  SiteTrigger() : BTrigger(kPatternName) {}
  [[nodiscard]] bool predicate_global(const BTrigger&) const override {
    return true;
  }
};

/// Groups per second in each window, summed over the closing threads.
std::vector<double> window_rates(const Plan& plan,
                                 const std::vector<const Caller*>& closers,
                                 int parity = -1) {
  std::vector<double> v;
  for (int w = 0; w < plan.windows; ++w) {
    if (parity >= 0 && w % 2 != parity) continue;
    double groups = 0;
    for (const Caller* c : closers) groups += static_cast<double>(c->groups[static_cast<std::size_t>(w)]);
    v.push_back(groups * 1e9 / static_cast<double>(plan.window_ns));
  }
  return v;
}

/// Hit latency of each window over all `callers`: the median over windows
/// of the window's p50 and p99 (in us), so that a burst of host noise in
/// a few windows does not move the run's figure.
struct WindowLatency {
  Spread p50_us, p99_us;
  std::uint64_t samples = 0;
};

WindowLatency window_latency(const Plan& plan, const std::vector<const Caller*>& callers) {
  WindowLatency out;
  std::vector<double> p50, p99;
  for (std::size_t w = 0; w < static_cast<std::size_t>(plan.windows); ++w) {
    LatHist merged;
    for (const Caller* c : callers) merged += c->hit[w];
    if (merged.count() == 0) continue;
    out.samples += merged.count();
    p50.push_back(merged.quantile(0.50) / 1000.0);
    p99.push_back(merged.quantile(0.99) / 1000.0);
  }
  out.p50_us = spread(p50);
  out.p99_us = spread(p99);
  return out;
}

/// The threads of a hit rig and their hand-off (common.h): each thread
/// arrives at `gate` once when ready, then runs one loop per segment
/// until `exiting` is published.
struct Crew {
  explicit Crew(std::size_t threads) : gate(threads + 1) {}

  /// Runs on a rig thread: `loop` once per segment.
  template <class Loop>
  void serve(Loop loop) {
    gate.arrive_and_wait();  // ready
    for (;;) {
      gate.arrive_and_wait();  // start
      if (exiting) return;
      loop();
      gate.arrive_and_wait();  // done
    }
  }
  /// Coordinator: waits until every thread is ready (part of set-up).
  void wait_ready() { gate.arrive_and_wait(); }
  /// Coordinator: releases and joins the threads.
  void finish(std::vector<std::thread>& threads) {
    if (threads.empty()) return;
    exiting = true;
    gate.arrive_and_wait();
    for (auto& t : threads) t.join();
  }

  cbp::rt::Barrier gate;
  std::atomic<bool> stop{false};
  bool exiting = false;  // published before the opening barrier
};

/// Runs part `part`'s measured segment: fixes its windows after the
/// warm-up, opens the gate, sleeps through the windows, stops the callers
/// and waits for every one of them.
void run_windows(Crew& crew, Clocking& clocking, const Plan& plan, int part) {
  clocking.window_ns = plan.window_ns;
  clocking.first = plan.first(part);
  clocking.windows = plan.first(part + 1) - clocking.first;
  clocking.span_run = plan.span_run;
  clocking.start_ns = now_ns() + plan.warmup_ns;
  const std::int64_t end = clocking.start_ns + clocking.window_ns * clocking.windows;
  run_segment_for(crew.gate, crew.stop, std::chrono::nanoseconds(end - now_ns()));
}

/// Rank order is checked from outside the engine, so a rank-0 thread
/// that is preempted between its release and its stamp shows up as an
/// inversion (plain trigger_here orders by the order delay, not by an
/// acknowledgement).  That happened about once in 10^4 groups on a
/// 4-vCPU Xeon VM on a busy host; a broken release protocol inverts most
/// groups.  Inversions are therefore reported, and fail the run above 1%
/// of the groups.
constexpr double kInversionBudget = 0.01;

void account(const std::vector<const Caller*>& callers, Outcome& out) {
  std::string inversions;
  for (const Caller* c : callers) {
    out.attempted += c->expected;
    out.check(c->missed == 0, "trigger call ended without a hit while its partner was live", c->missed);
    out.check(static_cast<double>(c->disorder) <= kInversionBudget * static_cast<double>(c->hits),
              "rank-order violations above budget", c->disorder);
    inversions += (inversions.empty() ? "" : ", ") + std::to_string(c->disorder);
  }
  out.note("rank_order_inversions", "[" + inversions + "]");
}

double us(double ns) { return ns / 1000.0; }

std::string stats_json(const cbp::BreakpointStats& s) {
  return "{\"calls\": " + std::to_string(s.calls) +
         ", \"local_rejects\": " + std::to_string(s.local_rejects) +
         ", \"arrivals\": " + std::to_string(s.arrivals) +
         ", \"bounded\": " + std::to_string(s.bounded) +
         ", \"postponed\": " + std::to_string(s.postponed) +
         ", \"timeouts\": " + std::to_string(s.timeouts) +
         ", \"hits\": " + std::to_string(s.hits) +
         ", \"participants\": " + std::to_string(s.participants) +
         ", \"peer_lost\": " + std::to_string(s.peer_lost) +
         ", \"pattern_partials\": " + std::to_string(s.pattern_partials) +
         ", \"pattern_rejects\": " + std::to_string(s.pattern_rejects) +
         ", \"pattern_aborts\": " + std::to_string(s.pattern_aborts) + "}";
}

/// Admission identities every name must satisfy (quiescent snapshots,
/// summed over the run's engines).
void check_stats(const std::string& name, const cbp::BreakpointStats& s,
                 std::uint64_t hits, Outcome& out) {
  out.check(s.calls == s.local_rejects + s.arrivals, name + ": calls != local_rejects + arrivals");
  out.check(s.local_rejects == 0, name + ": local rejects", s.local_rejects);
  out.check(s.bounded == 0, name + ": bounded", s.bounded);
  out.check(s.hits == hits, name + ": engine hits != hits seen by the callers");
  out.check(s.pattern_aborts == 0, name + ": pattern abort", s.pattern_aborts);
  out.check(s.peer_lost == 0, name + ": peer lost", s.peer_lost);
}

void counters_per_group(const cbp::BreakpointStats& s, double groups, Outcome& out) {
  const auto per = [&](std::uint64_t v) { return groups > 0 ? static_cast<double>(v) / groups : 0.0; };
  out.metric("core.calls", per(s.calls));
  out.metric("core.local_rejects", per(s.local_rejects));
  out.metric("core.arrivals", per(s.arrivals));
  out.metric("core.bounded", per(s.bounded));
  out.metric("core.postponed", per(s.postponed));
  out.metric("core.hits", per(s.hits));
}

void span_overhead(const Plan& plan, const std::vector<const Caller*>& closers, Outcome& out) {
  const double on = spread(window_rates(plan, closers, 1)).median;
  const double off = spread(window_rates(plan, closers, 0)).median;
  out.metric("span.overhead", off > 0 ? 1.0 - on / off : 0.0);
}

void collect_spans(const std::vector<const Caller*>& callers, Outcome& out) {
  for (const Caller* c : callers) {
    out.spans.insert(out.spans.end(), c->spans.spans().begin(), c->spans.spans().end());
  }
}

// ---------------------------------------------------------------------------
// hits-local
// ---------------------------------------------------------------------------

struct LocalCallers {
  explicit LocalCallers(int windows)
      : pair0(windows), pair1(windows), putter(windows), eraser(windows) {}
  Caller pair0, pair1, putter, eraser;
};

struct LocalRig {
  LocalRig(const std::string& spec, LocalCallers& callers, int part,
           std::int64_t clock_cost_in)
      : c(callers),
        clock_cost(clock_cost_in),
        pair_sync(op_base(part, 0)),
        pattern_sync(op_base(part, 1)) {
    engine.set_spec(cbp::BreakpointSpec::parse(spec).entries());
    threads.emplace_back([this] {
      body([&] {
        lead(c.pair0, pair_sync, crew.stop, clocking, clock_cost, "pair.rank0",
             [&] { return pair.trigger_here(/*is_first_action=*/true); });
      });
    });
    threads.emplace_back([this] {
      body([&] {
        follow(c.pair1, pair_sync, crew.stop, clocking, clock_cost, "pair.rank1",
               [&] { return pair.trigger_here(/*is_first_action=*/false); },
               [] {});
      });
    });
    threads.emplace_back([this] { body([&] { put_loop(); }); });
    threads.emplace_back([this] {
      body([&] {
        SiteTrigger site;
        follow(c.eraser, pattern_sync, crew.stop, clocking, clock_cost,
               "pattern.erase",
               [&] { return site.trigger_here_site("erase").hit; },
               [&] { site.trigger_here_site("check"); });
      });
    });
    crew.wait_ready();
  }
  ~LocalRig() { crew.finish(threads); }
  LocalRig(const LocalRig&) = delete;
  LocalRig& operator=(const LocalRig&) = delete;

  /// Binds the thread to the engine and runs `loop` once per segment.
  template <class Loop>
  void body(Loop loop) {
    cbp::ScopedEngine bind(engine);
    crew.serve(loop);
  }

  /// The pattern's rank-0 thread: puts until stopped, leaving only right
  /// after a hit so that the eraser never waits on a put that will not
  /// come.
  void put_loop() {
    SiteTrigger site;
    std::uint64_t k = 0;
    for (;;) {
      const bool hit = timed_call(c.putter, clocking, clock_cost, "pattern.put",
                                  pattern_sync.op_base + k + 1, false,
                                  [&] { return site.trigger_here_site("put").hit; });
      if (hit) {
        pattern_sync.stamp.store(++k, std::memory_order_release);
        if (crew.stop.load(std::memory_order_relaxed)) break;
      }
      cbp::apps::busy_work(kPutThink);
    }
    pattern_sync.final.store(k, std::memory_order_release);
  }

  LocalCallers& c;
  cbp::Engine engine;
  const int pair_object = 0;
  cbp::ConflictTrigger pair{kPairName, &pair_object};
  Crew crew{4};
  Clocking clocking;  // published before the opening barrier
  const std::int64_t clock_cost;
  GroupSync pair_sync, pattern_sync;
  std::vector<std::thread> threads;
};

}  // namespace

Outcome run_hits_local(const Options& o) {
  Outcome out;
  const Plan plan = make_plan(o);
  const std::int64_t clock_cost = clock_cost_ns();
  const std::string spec = std::string(kPatternName) + " pattern=check:t1.put:t2.erase:t1\n";
  LocalCallers c(plan.windows);
  std::vector<double> setup_s;
  cbp::BreakpointStats pair, pattern;
  std::uint64_t trace_events = 0;
  std::int64_t delay_us = 0;
  std::unique_ptr<LocalRig> rig;
  for (int part = 0; part < plan.parts; ++part) {
    timed_setup(plan.setups, rig,
                [&] { return std::make_unique<LocalRig>(spec, c, part, clock_cost); }, setup_s);
    cbp::obs::Trace::clear();
    cbp::obs::Trace::set_enabled(true);
    run_windows(rig->crew, rig->clocking, plan, part);
    cbp::obs::Trace::set_enabled(false);
    const cbp::obs::TraceSnapshot trace = cbp::obs::Trace::collect();
    trace_events += trace.events.size() + trace.dropped;
    cbp::obs::Trace::clear();
    pair += rig->engine.stats(kPairName);
    pattern += rig->engine.stats(kPatternName);
    delay_us = rig->engine.settings().order_delay().count();
  }
  rig.reset();
  const Spread setup = spread(setup_s);

  account({&c.pair0, &c.pair1, &c.eraser}, out);
  check_stats(kPairName, pair, c.pair1.hits, out);
  check_stats(kPatternName, pattern, c.eraser.hits, out);
  out.check(c.pair0.hits == c.pair1.hits, "pair ranks saw different hit counts");
  out.check(c.putter.hits == c.eraser.hits, "pattern ranks saw different hit counts");
  out.note("pair_stats", stats_json(pair));
  out.note("pattern_stats", stats_json(pattern));
  out.note("trace_events", std::to_string(trace_events));

  const std::vector<const Caller*> closers = {&c.pair1, &c.eraser};
  const Spread rate = spread(window_rates(plan, closers));
  const WindowLatency latency = window_latency(plan, {&c.pair0, &c.pair1, &c.putter, &c.eraser});
  out.note("hits_per_s", json_spread(rate));
  out.note("hit_p50_us", json_spread(latency.p50_us));
  out.note("hit_p99_us", json_spread(latency.p99_us));
  out.note("hit_samples", std::to_string(latency.samples));
  out.note("order_delay_us", std::to_string(delay_us));
  out.note("setup_s", json_spread(setup));
  out.note("parts", std::to_string(plan.parts));

  if (!o.spans) {
    out.metric("ops_per_s", rate.median);
    out.metric("p50_us", latency.p50_us.median);
    out.metric("p99_us", latency.p99_us.median);
    out.metric("setup_s", setup.median);
    return out;
  }

  out.metric("pair.hit_us.rank0.p50", us(c.pair0.span_hit.quantile(0.50)));
  out.metric("pair.hit_us.rank0.p99", us(c.pair0.span_hit.quantile(0.99)));
  out.metric("pair.hit_us.rank1.p50", us(c.pair1.span_hit.quantile(0.50)));
  out.metric("pair.hit_us.rank1.p99", us(c.pair1.span_hit.quantile(0.99)));
  out.metric("pair.order_excess_us",
             us(c.pair1.span_hit.quantile(0.50)) - static_cast<double>(delay_us));
  out.metric("pair.hits_per_s", spread(window_rates(plan, {&c.pair1})).median);
  out.metric("pattern.hit_us.p50", us(c.eraser.span_hit.quantile(0.50)));
  out.metric("pattern.hit_us.p99", us(c.eraser.span_hit.quantile(0.99)));
  out.metric("pattern.put_ns", c.putter.span_any.quantile(0.50));
  out.metric("pattern.advance_frac",
             c.putter.calls > 0 ? static_cast<double>(pattern.pattern_partials) /
                                      static_cast<double>(c.putter.calls)
                                : 0.0);
  out.metric("pattern.hits_per_s", spread(window_rates(plan, {&c.eraser})).median);
  out.metric("core.wait_us.p50", static_cast<double>(pair.wait_hist.percentile(0.50)));
  out.metric("core.wait_us.p99", static_cast<double>(pair.wait_hist.percentile(0.99)));
  out.metric("core.order_us.p50", static_cast<double>(pair.order_hist.percentile(0.50)));
  out.metric("core.order_us.p99", static_cast<double>(pair.order_hist.percentile(0.99)));
  // Reconciliation: the engine's own park and release histograms against
  // the pair's call spans, over the whole run.
  const double span_us = c.pair0.hit_us + c.pair1.hit_us;
  out.metric("core.hist_vs_span",
             span_us > 0 ? static_cast<double>(pair.wait_hist.sum + pair.order_hist.sum) / span_us : 0.0);
  cbp::BreakpointStats both = pair;
  both += pattern;
  counters_per_group(both, static_cast<double>(c.pair1.hits + c.eraser.hits), out);
  span_overhead(plan, closers, out);
  collect_spans({&c.pair0, &c.pair1, &c.putter, &c.eraser}, out);
  return out;
}

// ---------------------------------------------------------------------------
// hits-broker
// ---------------------------------------------------------------------------

namespace {

struct BrokerCallers {
  explicit BrokerCallers(int windows) : rank0(windows), rank1(windows) {}
  Caller rank0, rank1;
};

struct BrokerRig {
  BrokerRig(const std::string& socket_path, const std::string& spec,
            BrokerCallers& callers, int part, std::int64_t clock_cost_in)
      : c(callers),
        broker(cbp::broker::BrokerOptions{socket_path}),
        clock_cost(clock_cost_in),
        sync(op_base(part, 0)) {
    if (!broker.start()) return;
    const auto entries = cbp::BreakpointSpec::parse(spec).entries();
    for (int i = 0; i < 2; ++i) {
      engines[i].set_spec(entries);
      clients[i] = cbp::broker::BrokerClient::connect(
          socket_path, std::chrono::milliseconds(5000), engines[i].tag());
      if (!clients[i]) return;
      engines[i].set_transport(clients[i]);
    }
    threads.emplace_back([this] {
      body(0, [&](cbp::ConflictTrigger& t) {
        lead(c.rank0, sync, crew.stop, clocking, clock_cost, "broker.rank0",
             [&] { return t.trigger_here(/*is_first_action=*/true); });
      });
    });
    threads.emplace_back([this] {
      body(1, [&](cbp::ConflictTrigger& t) {
        follow(c.rank1, sync, crew.stop, clocking, clock_cost, "broker.rank1",
               [&] { return t.trigger_here(/*is_first_action=*/false); },
               [] {});
      });
    });
    crew.wait_ready();
    ready = true;
  }
  ~BrokerRig() {
    crew.finish(threads);
    for (int i = 0; i < 2; ++i) {
      engines[i].set_transport(nullptr);
      if (clients[i]) clients[i]->shutdown();
    }
    broker.stop();
  }
  BrokerRig(const BrokerRig&) = delete;
  BrokerRig& operator=(const BrokerRig&) = delete;

  /// Binds the thread to engine `i` (one "process") and runs `loop` once
  /// per segment with that process's own trigger object.
  template <class Loop>
  void body(int i, Loop loop) {
    cbp::ScopedEngine bind(engines[i]);
    cbp::ConflictTrigger trigger(kBrokerName, nullptr);
    crew.serve([&] { loop(trigger); });
  }

  BrokerCallers& c;
  cbp::broker::Broker broker;
  std::array<cbp::Engine, 2> engines;
  std::array<std::shared_ptr<cbp::broker::BrokerClient>, 2> clients;
  Crew crew{2};
  Clocking clocking;  // published before the opening barrier
  const std::int64_t clock_cost;
  GroupSync sync;
  bool ready = false;
  std::vector<std::thread> threads;
};

void add(cbp::broker::BrokerStats& to, const cbp::broker::BrokerStats& s) {
  to.connections += s.connections;
  to.arrivals += s.arrivals;
  to.matches += s.matches;
  to.timeouts += s.timeouts;
  to.cancellations += s.cancellations;
  to.peer_lost += s.peer_lost;
  to.forced_advances += s.forced_advances;
  to.protocol_errors += s.protocol_errors;
}

}  // namespace

Outcome run_hits_broker(const Options& o) {
  Outcome out;
  const Plan plan = make_plan(o);
  const std::int64_t clock_cost = clock_cost_ns();
  const std::string socket_path =
      o.out_dir + "/broker-" + std::to_string(::getpid()) + ".sock";
  const std::string spec = std::string(kBrokerName) + " scope=process-group\n";
  BrokerCallers c(plan.windows);
  std::vector<double> setup_s;
  cbp::broker::BrokerStats b;
  cbp::BreakpointStats s0, s1;
  std::unique_ptr<BrokerRig> rig;
  for (int part = 0; part < plan.parts; ++part) {
    timed_setup(plan.setups, rig, [&] {
      return std::make_unique<BrokerRig>(socket_path, spec, c, part, clock_cost);
    }, setup_s);
    if (!rig->ready) {
      out.fail("broker could not start or a client could not connect at " + socket_path, 1);
      return out;
    }
    cbp::obs::Trace::clear();
    cbp::obs::Trace::set_enabled(true);
    run_windows(rig->crew, rig->clocking, plan, part);
    cbp::obs::Trace::set_enabled(false);
    cbp::obs::Trace::clear();
    add(b, rig->broker.stats());
    s0 += rig->engines[0].stats(kBrokerName);
    s1 += rig->engines[1].stats(kBrokerName);
  }
  rig.reset();
  const Spread setup = spread(setup_s);

  account({&c.rank0, &c.rank1}, out);
  check_stats("engine 0", s0, c.rank0.hits, out);
  check_stats("engine 1", s1, c.rank1.hits, out);
  out.check(b.matches == c.rank1.hits, "broker matches != hits");
  out.check(b.peer_lost == 0, "broker peer lost", b.peer_lost);
  out.check(b.forced_advances == 0, "broker forced advance", b.forced_advances);
  out.check(b.protocol_errors == 0, "broker protocol error", b.protocol_errors);
  out.note("engine0_stats", stats_json(s0));
  out.note("engine1_stats", stats_json(s1));
  out.note("broker_stats",
           "{\"connections\": " + std::to_string(b.connections) +
               ", \"arrivals\": " + std::to_string(b.arrivals) +
               ", \"matches\": " + std::to_string(b.matches) +
               ", \"timeouts\": " + std::to_string(b.timeouts) +
               ", \"cancellations\": " + std::to_string(b.cancellations) + "}");

  const Spread rate = spread(window_rates(plan, {&c.rank1}));
  const WindowLatency latency = window_latency(plan, {&c.rank0, &c.rank1});
  out.note("hits_per_s", json_spread(rate));
  out.note("hit_p50_us", json_spread(latency.p50_us));
  out.note("hit_p99_us", json_spread(latency.p99_us));
  out.note("hit_samples", std::to_string(latency.samples));
  out.note("setup_s", json_spread(setup));
  out.note("parts", std::to_string(plan.parts));

  if (!o.spans) {
    out.metric("ops_per_s", rate.median);
    out.metric("p50_us", latency.p50_us.median);
    out.metric("p99_us", latency.p99_us.median);
    out.metric("setup_s", setup.median);
    return out;
  }

  out.metric("broker.hit_us.rank0.p50", us(c.rank0.span_hit.quantile(0.50)));
  out.metric("broker.hit_us.rank0.p99", us(c.rank0.span_hit.quantile(0.99)));
  out.metric("broker.hit_us.rank1.p50", us(c.rank1.span_hit.quantile(0.50)));
  out.metric("broker.hit_us.rank1.p99", us(c.rank1.span_hit.quantile(0.99)));
  out.metric("broker.arrivals", static_cast<double>(b.arrivals));
  out.metric("broker.matches", static_cast<double>(b.matches));
  out.metric("broker.timeouts", static_cast<double>(b.timeouts));
  out.metric("broker.forced_advances", static_cast<double>(b.forced_advances));
  out.metric("broker.protocol_errors", static_cast<double>(b.protocol_errors));
  cbp::BreakpointStats both = s0;
  both += s1;
  out.metric("core.peer_lost", static_cast<double>(both.peer_lost));
  out.metric("core.wait_us.p50", static_cast<double>(both.wait_hist.percentile(0.50)));
  out.metric("core.wait_us.p99", static_cast<double>(both.wait_hist.percentile(0.99)));
  // The remote path times the whole broker round-trip as its wait.
  const double span_us = c.rank0.hit_us + c.rank1.hit_us;
  out.metric("core.hist_vs_span",
             span_us > 0 ? static_cast<double>(both.wait_hist.sum) / span_us : 0.0);
  counters_per_group(both, static_cast<double>(c.rank1.hits), out);
  span_overhead(plan, {&c.rank1}, out);
  collect_spans({&c.rank0, &c.rank1}, out);
  return out;
}

}  // namespace perfbench
