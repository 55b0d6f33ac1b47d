#include "core/pattern.h"

#include <sys/prctl.h>

#include <algorithm>
#include <cassert>
#include <cctype>
#include <deque>
#include <stdexcept>

#include "core/btrigger.h"
#include "runtime/vclock.h"

namespace cbp {

// ---------------------------------------------------------------------------
// PatternSpec: parser / compiler
// ---------------------------------------------------------------------------

namespace {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
         c == '-';
}

}  // namespace

/// Recursive-descent compiler over the whitespace-stripped pattern text.
/// Builds a Thompson NFA fragment per production; every fragment has one
/// start and one end state, so composition is pure epsilon plumbing.
struct PatternCompiler {
  explicit PatternCompiler(const std::string& raw) {
    text.reserve(raw.size());
    for (char c : raw) {
      if (std::isspace(static_cast<unsigned char>(c)) == 0) text.push_back(c);
    }
  }

  [[noreturn]] void fail(const std::string& why) const {
    throw std::invalid_argument("pattern '" + text + "': " + why +
                                " (at offset " + std::to_string(pos) + ")");
  }

  [[nodiscard]] char peek() const { return pos < text.size() ? text[pos] : 0; }
  bool eat(char c) {
    if (peek() != c) return false;
    ++pos;
    return true;
  }

  int new_state() {
    if (states.size() >= PatternSpec::kMaxStates) {
      fail("too many states (limit " +
           std::to_string(PatternSpec::kMaxStates) + ")");
    }
    states.emplace_back();
    return static_cast<int>(states.size() - 1);
  }

  int intern(std::vector<std::string>& table, const std::string& name,
             std::size_t limit, const char* what) {
    auto it = std::find(table.begin(), table.end(), name);
    if (it != table.end()) return static_cast<int>(it - table.begin());
    if (table.size() >= limit) {
      fail(std::string("too many ") + what + " (limit " +
           std::to_string(limit) + ")");
    }
    table.push_back(name);
    return static_cast<int>(table.size() - 1);
  }

  std::string ident() {
    const std::size_t begin = pos;
    while (is_ident_char(peek())) ++pos;
    if (pos == begin) fail("expected an identifier");
    return text.substr(begin, pos - begin);
  }

  /// A site label: an identifier optionally followed by a parenthesized
  /// subject that is part of the label (`acq(A)`), so grouping parens
  /// are only recognized where a label cannot start.
  std::string label() {
    std::string out = ident();
    if (peek() == '(') {
      const std::size_t close = text.find(')', pos);
      if (close == std::string::npos) fail("unterminated '(' in site label");
      out += text.substr(pos, close - pos + 1);
      pos = close + 1;
    }
    return out;
  }

  struct Frag {
    int start = 0;
    int end = 0;
  };

  Frag parse_event() {
    const std::string site = label();
    int var = -1;
    if (eat(':')) {
      var = intern(vars, ident(), PatternSpec::kMaxVars, "thread variables");
    }
    const int sym =
        intern(sites, site, PatternSpec::kMaxSites, "distinct sites");
    Frag f{new_state(), new_state()};
    states[static_cast<std::size_t>(f.start)].out.push_back({sym, var, f.end});
    return f;
  }

  Frag parse_atom() {
    if (eat('(')) {
      Frag inner = parse_alt();
      if (!eat(')')) fail("expected ')'");
      return inner;
    }
    return parse_event();
  }

  Frag parse_term() {
    Frag a = parse_atom();
    if (!eat('*')) return a;
    Frag f{new_state(), new_state()};
    auto eps = [&](int from, int to) {
      states[static_cast<std::size_t>(from)].eps.push_back(to);
    };
    eps(f.start, a.start);
    eps(f.start, f.end);
    eps(a.end, a.start);
    eps(a.end, f.end);
    return f;
  }

  Frag parse_seq() {
    Frag first = parse_term();
    while (pos < text.size() && peek() != '|' && peek() != ')') {
      if (!eat('.')) fail("expected '.', '|' or end of pattern");
      Frag next = parse_term();
      states[static_cast<std::size_t>(first.end)].eps.push_back(next.start);
      first.end = next.end;
    }
    return first;
  }

  Frag parse_alt() {
    Frag first = parse_seq();
    if (peek() != '|') return first;
    Frag f{new_state(), new_state()};
    auto eps = [&](int from, int to) {
      states[static_cast<std::size_t>(from)].eps.push_back(to);
    };
    eps(f.start, first.start);
    eps(first.end, f.end);
    while (eat('|')) {
      Frag next = parse_seq();
      eps(f.start, next.start);
      eps(next.end, f.end);
    }
    return f;
  }

  std::string text;
  std::size_t pos = 0;
  std::vector<PatternSpec::State> states;
  std::vector<std::string> sites;
  std::vector<std::string> vars;
};

PatternSpec PatternSpec::parse(const std::string& text) {
  PatternCompiler compiler(text);
  if (compiler.text.empty()) {
    throw std::invalid_argument("pattern: empty pattern");
  }
  const PatternCompiler::Frag top = compiler.parse_alt();
  if (compiler.pos != compiler.text.size()) compiler.fail("trailing input");

  PatternSpec spec;
  spec.states_ = std::move(compiler.states);
  spec.sites_ = std::move(compiler.sites);
  spec.vars_ = std::move(compiler.vars);
  spec.start_ = top.start;
  spec.accept_ = top.end;
  spec.canonical_ = std::move(compiler.text);

  const std::size_t n = spec.states_.size();
  // Epsilon closures (DFS per state; n <= 64 keeps this trivial).
  for (std::size_t s = 0; s < n; ++s) {
    std::uint64_t seen = 1ull << s;
    std::vector<int> stack{static_cast<int>(s)};
    while (!stack.empty()) {
      const int cur = stack.back();
      stack.pop_back();
      for (int next : spec.states_[static_cast<std::size_t>(cur)].eps) {
        const std::uint64_t bit = 1ull << next;
        if ((seen & bit) == 0) {
          seen |= bit;
          stack.push_back(next);
        }
      }
    }
    spec.states_[s].closure = seen;
  }
  // Reachable variables / sites per state: fixed point over the full
  // transition relation (epsilon and symbol edges alike).
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t s = 0; s < n; ++s) {
      State& st = spec.states_[s];
      std::uint64_t vars = st.vars_reachable;
      std::uint64_t syms = st.syms_reachable;
      for (int e : st.eps) {
        vars |= spec.states_[static_cast<std::size_t>(e)].vars_reachable;
        syms |= spec.states_[static_cast<std::size_t>(e)].syms_reachable;
      }
      for (const Transition& t : st.out) {
        syms |= 1ull << t.sym;
        if (t.var >= 0) vars |= 1ull << t.var;
        vars |= spec.states_[static_cast<std::size_t>(t.to)].vars_reachable;
        syms |= spec.states_[static_cast<std::size_t>(t.to)].syms_reachable;
      }
      if (vars != st.vars_reachable || syms != st.syms_reachable) {
        st.vars_reachable = vars;
        st.syms_reachable = syms;
        changed = true;
      }
    }
  }
  // Shortest accepted word (0-1 BFS: epsilon edges cost 0, events 1).
  std::vector<std::size_t> dist(n, SIZE_MAX);
  std::deque<int> queue;
  dist[static_cast<std::size_t>(spec.start_)] = 0;
  queue.push_back(spec.start_);
  while (!queue.empty()) {
    const int cur = queue.front();
    queue.pop_front();
    const std::size_t d = dist[static_cast<std::size_t>(cur)];
    const State& st = spec.states_[static_cast<std::size_t>(cur)];
    for (int e : st.eps) {
      if (d < dist[static_cast<std::size_t>(e)]) {
        dist[static_cast<std::size_t>(e)] = d;
        queue.push_front(e);
      }
    }
    for (const Transition& t : st.out) {
      if (d + 1 < dist[static_cast<std::size_t>(t.to)]) {
        dist[static_cast<std::size_t>(t.to)] = d + 1;
        queue.push_back(t.to);
      }
    }
  }
  spec.min_length_ = dist[static_cast<std::size_t>(spec.accept_)];
  if (spec.min_length_ < 2) {
    throw std::invalid_argument(
        "pattern '" + spec.canonical_ +
        "': a pattern breakpoint needs at least 2 events "
        "(use a plain breakpoint for single sites)");
  }
  return spec;
}

int PatternSpec::site_index(std::string_view label) const {
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    if (sites_[i] == label) return static_cast<int>(i);
  }
  return -1;
}

// ---------------------------------------------------------------------------
// PatternMatcher: run machinery
// ---------------------------------------------------------------------------

PatternMatcher::PatternMatcher(std::shared_ptr<const PatternSpec> spec,
                               std::uint32_t name_id)
    : spec_(std::move(spec)), name_id_(name_id) {
  assert(spec_ != nullptr);
}

bool PatternMatcher::plan_advance(const Run& run, int site, rt::ThreadId tid,
                                  AdvancePlan& plan) const {
  // The thread's existing variable, if an earlier event bound one.
  int tid_var = -1;
  for (std::size_t v = 0; v < run.bind.size(); ++v) {
    if ((run.bound_mask >> v) & 1u) {
      if (run.bind[v] == tid) {
        tid_var = static_cast<int>(v);
        break;
      }
    }
  }
  std::uint64_t next_none = 0;  // transitions needing no new binding
  std::uint64_t next_bind[PatternSpec::kMaxVars] = {};
  std::uint64_t set = run.set;
  while (set != 0) {
    const int s = __builtin_ctzll(set);
    set &= set - 1;
    for (const PatternSpec::Transition& t :
         spec_->states_[static_cast<std::size_t>(s)].out) {
      if (t.sym != site) continue;
      const std::uint64_t target =
          spec_->states_[static_cast<std::size_t>(t.to)].closure;
      if (t.var < 0) {
        next_none |= target;  // unbound site: any thread
      } else if ((run.bound_mask >> t.var) & 1u) {
        // Variable already bound: only its thread may take this edge.
        if (run.bind[static_cast<std::size_t>(t.var)] == tid) {
          next_none |= target;
        }
      } else if (tid_var == -1) {
        // Fresh binding — but distinct vars mean distinct threads, so a
        // thread already bound to another variable cannot take it.
        next_bind[t.var] |= target;
      }
    }
  }
  if (next_none != 0) {
    // Greedy: consistent-binding transitions win over new bindings.
    plan.new_set = next_none;
    plan.bind_var = -1;
    plan.thread_var = tid_var;
    return true;
  }
  for (std::size_t v = 0; v < PatternSpec::kMaxVars; ++v) {
    if (next_bind[v] != 0) {
      plan.new_set = next_bind[v];
      plan.bind_var = static_cast<int>(v);
      plan.thread_var = static_cast<int>(v);
      return true;
    }
  }
  return false;
}

void PatternMatcher::apply_advance(Run& run, rt::ThreadId tid,
                                   const AdvancePlan& plan, int site,
                                   Outcome& out) {
  run.set = plan.new_set;
  if (plan.bind_var >= 0) {
    if (run.bind.size() <= static_cast<std::size_t>(plan.bind_var)) {
      run.bind.resize(static_cast<std::size_t>(plan.bind_var) + 1, 0);
    }
    run.bind[static_cast<std::size_t>(plan.bind_var)] = tid;
    run.bound_mask |= 1ull << plan.bind_var;
  }
  run.progress += 1;
  out.advances.push_back({site, tid, run.progress});
}

bool PatternMatcher::parks_after(int thread_var, std::uint64_t set) const {
  if (thread_var < 0) return true;  // anonymous thread: always park
  std::uint64_t ahead = 0;
  while (set != 0) {
    const int s = __builtin_ctzll(set);
    set &= set - 1;
    ahead |= spec_->states_[static_cast<std::size_t>(s)].vars_reachable;
  }
  return ((ahead >> thread_var) & 1u) == 0;
}

void PatternMatcher::cascade(Run& run, Outcome& out) {
  bool again = true;
  while (again && !accepted(run.set)) {
    again = false;
    for (auto it = run.pending.begin(); it != run.pending.end(); ++it) {
      internal::Waiter* w = *it;
      AdvancePlan plan;
      if (!plan_advance(run, w->site, w->tid, plan)) continue;
      run.pending.erase(it);
      apply_advance(run, w->tid, plan, w->site, out);
      if (accepted(run.set) || parks_after(plan.thread_var, run.set)) {
        // Stays parked: a participant, ranked by consumption order.
        run.participants.push_back(w);
      } else {
        // The pattern still needs this thread at a later site — wake it
        // so it can get there.
        w->resumed = true;
        out.resumed.push_back(w);
      }
      again = true;
      break;  // pending list changed; rescan from the front
    }
  }
}

void PatternMatcher::build_hit(Run& run, std::size_t caller_pos,
                               rt::ThreadId tid, bool scoped, BTrigger& bt,
                               Outcome& out) {
  // Pending events the pattern completed without: wake them, no hit.
  for (internal::Waiter* w : run.pending) {
    w->resumed = true;
    out.resumed.push_back(w);
  }
  run.pending.clear();

  const int arity = static_cast<int>(run.participants.size()) + 1;
  auto group = std::make_shared<internal::GroupState>(arity);
  group->name_id = name_id_;
  group->match_time = rt::clock_now();
  out.info.arity = arity;
  out.info.threads.assign(static_cast<std::size_t>(arity), 0);
  // Release ranks follow event-consumption order; the caller's event
  // was consumed at position `caller_pos`, so participants consumed
  // after it (the cascade) shift one rank down.
  const int caller_rank = static_cast<int>(caller_pos);
  for (std::size_t i = 0; i < run.participants.size(); ++i) {
    internal::Waiter* w = run.participants[i];
    const int r = i < caller_pos ? static_cast<int>(i)
                                 : static_cast<int>(i) + 1;
    w->matched = true;
    w->matched_rank = r;
    w->group = group;
    group->uses_guard[static_cast<std::size_t>(r)] = w->scoped ? 1 : 0;
    out.info.threads[static_cast<std::size_t>(r)] = w->tid;
    out.matched.push_back(w);
  }
  group->uses_guard[static_cast<std::size_t>(caller_rank)] = scoped ? 1 : 0;
  out.info.threads[static_cast<std::size_t>(caller_rank)] = tid;
  out.info.name = bt.name();
  out.info.description = bt.describe();
  out.kind = Outcome::Kind::kHit;
  out.group = std::move(group);
  out.rank = caller_rank;
  out.progress = run.progress;

  const std::uint64_t done = run.id;
  runs_.erase(std::find_if(runs_.begin(), runs_.end(),
                           [done](const Run& r) { return r.id == done; }));
}

PatternMatcher::Outcome PatternMatcher::on_event(int site, rt::ThreadId tid,
                                                 bool scoped, BTrigger& bt,
                                                 internal::Waiter* self) {
  Outcome out;
  Run* run = nullptr;
  AdvancePlan plan;

  // 1. Oldest run that can consume this event right now.
  for (Run& r : runs_) {
    if (plan_advance(r, site, tid, plan)) {
      run = &r;
      break;
    }
  }

  if (run == nullptr) {
    // 2. Park pending on the oldest run that could consume it later —
    // the k-site form of "postpone the first arrival".
    for (Run& r : runs_) {
      std::uint64_t syms = 0;
      std::uint64_t set = r.set;
      while (set != 0) {
        const int s = __builtin_ctzll(set);
        set &= set - 1;
        syms |= spec_->states_[static_cast<std::size_t>(s)].syms_reachable;
      }
      if (((syms >> site) & 1u) == 0) continue;
      if (r.pending.size() >= kMaxPending) continue;
      self->run = r.id;
      self->site = site;
      r.pending.push_back(self);
      out.kind = Outcome::Kind::kPark;
      out.run = r.id;
      out.progress = r.progress;
      return out;
    }
    // 3. Start a new run if the initial state enables this site.
    Run fresh;
    fresh.set = spec_->states_[static_cast<std::size_t>(spec_->start_)].closure;
    if (!plan_advance(fresh, site, tid, plan)) {
      return out;  // kNoMatch: strict pattern order, no pause wasted
    }
    if (runs_.size() >= kMaxRuns) {
      auto victim = std::find_if(runs_.begin(), runs_.end(), [](const Run& r) {
        return r.participants.empty() && r.pending.empty();
      });
      if (victim == runs_.end()) return out;  // every run holds a thread
      out.aborted.push_back(victim->progress);
      runs_.erase(victim);
    }
    fresh.id = next_run_id_++;
    runs_.push_back(std::move(fresh));
    run = &runs_.back();
  }

  const std::size_t caller_pos = run->participants.size();
  apply_advance(*run, tid, plan, site, out);
  const int caller_var = plan.thread_var;
  cascade(*run, out);

  if (accepted(run->set)) {
    build_hit(*run, caller_pos, tid, scoped, bt, out);
    return out;
  }
  if (parks_after(caller_var, run->set)) {
    self->run = run->id;
    self->site = site;
    run->participants.insert(
        run->participants.begin() + static_cast<std::ptrdiff_t>(caller_pos),
        self);
    out.kind = Outcome::Kind::kPark;
    out.run = run->id;
    out.progress = run->progress;
  } else {
    out.kind = Outcome::Kind::kRecorded;
    out.run = run->id;
    out.progress = run->progress;
  }
  return out;
}

PatternMatcher::DetachResult PatternMatcher::detach(std::uint64_t run,
                                                    internal::Waiter* waiter) {
  DetachResult result;
  const auto it = std::find_if(runs_.begin(), runs_.end(),
                               [run](const Run& r) { return r.id == run; });
  if (it == runs_.end()) return result;
  // Stale-id guard: a rebuilt matcher may have reused the id — only a
  // run that actually holds this waiter aborts.
  const bool mine =
      std::find(it->participants.begin(), it->participants.end(), waiter) !=
          it->participants.end() ||
      std::find(it->pending.begin(), it->pending.end(), waiter) !=
          it->pending.end();
  if (!mine) return result;
  result.aborted = true;
  result.progress = it->progress;
  for (internal::Waiter* w : it->participants) {
    if (w != waiter && !w->matched) result.orphans.push_back(w);
  }
  for (internal::Waiter* w : it->pending) {
    if (w != waiter) result.orphans.push_back(w);
  }
  runs_.erase(it);
  return result;
}

// ---------------------------------------------------------------------------
// The degenerate single-step pattern: classic rendezvous selection, and
// the rank-order release protocol every hit uses
// ---------------------------------------------------------------------------

bool PatternMatcher::match_rendezvous(
    const std::vector<internal::Waiter*>& postponed, BTrigger& bt, int rank,
    int arity, bool scoped, rt::ThreadId my_tid, std::uint32_t name_id,
    std::shared_ptr<internal::GroupState>& group, int& out_rank, HitInfo& info,
    std::vector<internal::Waiter*>& chosen) {
  // Greedy, earliest-postponed first: one waiter per rank other than
  // ours (a pair takes any peer, whatever its declared rank), all from
  // distinct threads, each compatible with the arriving trigger and
  // pairwise with those already chosen.  predicate_global is user code,
  // but it must be evaluated while the peer is quiescent in the Postponed
  // set — the slot mutex is exactly what guarantees that, so predicates
  // are required to be pure and non-blocking (documented in btrigger.h).
  const auto need = static_cast<std::size_t>(arity - 1);
  const bool kary = arity > 2;
  for (internal::Waiter* w : postponed) {
    if (chosen.size() == need) break;
    if (w->matched || w->cancelled || w->arity != arity || w->tid == my_tid ||
        w->rank < 0 || w->rank >= arity || (kary && w->rank == rank)) {
      continue;
    }
    // Clashes with a chosen waiter: same thread, or (k-ary) same rank.
    if (std::any_of(chosen.begin(), chosen.end(),
                    [&](const internal::Waiter* c) {
                      return c->tid == w->tid || (kary && c->rank == w->rank);
                    })) {
      continue;
    }
    if (!bt.predicate_global(*w->trigger) ||
        !std::all_of(chosen.begin(), chosen.end(),
                     [&](const internal::Waiter* c) {
                       return c->trigger->predicate_global(*w->trigger);
                     })) {
      continue;
    }
    chosen.push_back(w);
  }
  if (chosen.size() < need) {
    chosen.clear();
    return false;
  }

  // Rank order: declared ranks, except that a pair whose declared ranks
  // are equal orders the postponed (earlier) peer first.
  std::sort(chosen.begin(), chosen.end(),
            [](const internal::Waiter* a, const internal::Waiter* b) {
              return a->rank < b->rank;
            });
  const bool tie = arity == 2 && chosen.front()->rank == rank;
  out_rank = tie ? 1 : rank;
  group = std::make_shared<internal::GroupState>(arity);
  group->name_id = name_id;
  group->match_time = rt::clock_now();
  // Each rank's scoped-ness is fixed here, before any participant can
  // observe the group: a waiter's comes from its Waiter record, ours
  // from the trigger call itself, so await_turn never reads a flag its
  // owner has not published yet.
  group->uses_guard[static_cast<std::size_t>(out_rank)] = scoped ? 1 : 0;
  info.arity = arity;
  info.threads.assign(static_cast<std::size_t>(arity), 0);
  info.threads[static_cast<std::size_t>(out_rank)] = my_tid;
  for (internal::Waiter* w : chosen) {
    const int r = tie ? 0 : w->rank;
    w->matched = true;
    w->matched_rank = r;
    w->group = group;
    group->uses_guard[static_cast<std::size_t>(r)] = w->scoped ? 1 : 0;
    info.threads[static_cast<std::size_t>(r)] = w->tid;
  }
  info.name = bt.name();
  info.description = bt.describe();
  return true;
}

namespace {

/// Holds the calling thread's timer slack at 1 ns for one real-clock
/// sleep, then restores the value it read.  Linux lets a timed wait end
/// up to the thread's slack late (50 us by default), a quarter of the
/// default 200 us order delay; a wait that a notify ends never pays it.
/// Under a bound virtual clock the sleep is free, so this makes no
/// syscall at all.
class ExactSleep {
 public:
  ExactSleep()
      : previous_(rt::bound_virtual_clock() != nullptr
                      ? 0
                      : ::prctl(PR_GET_TIMERSLACK)) {
    if (previous_ > 1) ::prctl(PR_SET_TIMERSLACK, 1UL);
  }
  ~ExactSleep() {
    if (previous_ > 1) {
      ::prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(previous_));
    }
  }
  ExactSleep(const ExactSleep&) = delete;
  ExactSleep& operator=(const ExactSleep&) = delete;

 private:
  int previous_;  ///< the caller's slack in ns; <= 1 means nothing to undo
};

}  // namespace

void PatternMatcher::await_turn(internal::GroupState& group, int rank,
                                bool scoped, rt::Duration order_delay,
                                rt::Duration guard_wait_cap) {
  const auto cap_deadline = rt::clock_now() + guard_wait_cap;

  std::unique_lock lock(group.mu);
  // uses_guard was fixed by the matcher before the group was published,
  // so each lower rank's protocol is known up front: a scoped rank is
  // waited on via its guard ack (which implies it released), a plain
  // rank via released[q] plus the order delay.  The old scheme — each
  // rank writing its own flag on entry — let a later rank read
  // uses_guard[q] == 0 for a scoped q that had released but not yet
  // been observed to be scoped, skipping the ack wait entirely.
  for (int q = 0; q < rank; ++q) {
    const auto qi = static_cast<std::size_t>(q);
    if (group.uses_guard[qi]) {
      if (!rt::clock_wait_until(group.cv, lock, cap_deadline,
                                [&] { return group.acked[qi] != 0; })) {
        break;  // cap exceeded: degrade to proceeding (never hang)
      }
      continue;
    }
    if (!rt::clock_wait_until(group.cv, lock, cap_deadline,
                              [&] { return group.released[qi] != 0; })) {
      break;  // cap exceeded: degrade to proceeding (never hang)
    }
    const auto turn_at = group.release_time[qi] + order_delay;
    const auto deadline = std::min(turn_at, cap_deadline);
    // Plain bounded sleep: no event ends it early by design, so its
    // timer is its end, and it is slept without slack.
    const ExactSleep exact;
    rt::clock_wait_until(group.cv, lock, deadline, [] { return false; });
  }
  group.released[static_cast<std::size_t>(rank)] = 1;
  group.release_time[static_cast<std::size_t>(rank)] = rt::clock_now();
  if (!scoped) group.acked[static_cast<std::size_t>(rank)] = 1;
  lock.unlock();
  rt::clock_notify_all(group.cv);
}

}  // namespace cbp
