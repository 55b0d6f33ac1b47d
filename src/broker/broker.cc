#include "broker/broker.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstring>
#include <map>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "broker/wire.h"

namespace cbp::broker {
namespace {

using SteadyClock = std::chrono::steady_clock;

/// Sanity bound on declared arity (matches the engine's practical use;
/// a wild value is a protocol error, not a resource commitment).
constexpr int kMaxArity = 64;

/// Sanity bound on an ARRIVE's timeout.  Engines send their scaled spec
/// pause, so a day is ample; a larger value is a protocol error, not a
/// deadline computation that overflows.
constexpr std::chrono::milliseconds kMaxArriveTimeout = std::chrono::hours(24);

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

struct Broker::Impl {
  explicit Impl(BrokerOptions opts) : options(std::move(opts)) {}

  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> inbuf;
    std::vector<std::uint8_t> outbuf;
  };

  struct Arrival {
    std::uint64_t conn_id = 0;
    std::uint64_t token = 0;
    int rank = 0;
    int arity = 2;
    SteadyClock::time_point deadline;
  };

  struct Member {
    std::uint64_t conn_id = 0;
    std::uint64_t token = 0;
    bool done = false;  ///< sent DONE, was force-advanced past, or lost
    bool lost = false;  ///< its connection died mid-protocol
  };

  struct Group {
    std::vector<Member> members;  ///< indexed by assigned rank
    int granted = -1;             ///< rank currently holding the grant
    SteadyClock::time_point grant_deadline;
  };

  BrokerOptions options;

  mutable std::mutex stats_mu;
  BrokerStats stats;  // guarded by stats_mu

  int listen_fd = -1;
  int wake_r = -1;  // self-pipe: stop() wakes the IO thread through it
  int wake_w = -1;
  std::atomic<bool> stopping{false};
  bool started = false;

  std::thread io_thread;

  // ---- IO-thread state: connections and the protocol ---------------------

  std::map<std::uint64_t, Conn> conns;
  std::uint64_t next_conn_id = 1;
  // Postponed arrivals per name, in arrival order (earliest first).
  std::unordered_map<std::string, std::vector<Arrival>> postponed;
  std::unordered_map<std::uint64_t, Group> groups;
  // (conn_id, token) -> group id, for DONE routing.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> in_group;
  std::uint64_t next_group_id = 1;

  void bump(std::uint64_t BrokerStats::* field, std::uint64_t by = 1) {
    std::scoped_lock lock(stats_mu);
    stats.*field += by;
  }

  void wake() {
    const char byte = 0;
    // Best-effort: a full pipe already guarantees a pending wakeup.
    while (::write(wake_w, &byte, 1) < 0 && errno == EINTR) {
    }
  }

  /// Appends `m` to the recipient's output buffer; the loop flushes it
  /// at the end of the round.  A recipient already gone is skipped.
  void send_to(std::uint64_t conn_id, const Message& m) {
    auto it = conns.find(conn_id);
    if (it == conns.end()) return;
    const std::vector<std::uint8_t> frame = encode(m);
    it->second.outbuf.insert(it->second.outbuf.end(), frame.begin(),
                             frame.end());
  }

  // ---- protocol ------------------------------------------------------------

  void erase_group(std::uint64_t gid) {
    auto it = groups.find(gid);
    if (it == groups.end()) return;
    for (const Member& m : it->second.members) {
      in_group.erase({m.conn_id, m.token});
    }
    groups.erase(it);
  }

  // Grants the next undone rank (skipping lost/forced members) or
  // retires the group.  `outcome` is what the grantee is told; a lost
  // member anywhere in the group upgrades it to kPeerLost.
  void grant_next(std::uint64_t gid, GrantOutcome outcome) {
    auto it = groups.find(gid);
    if (it == groups.end()) return;
    Group& g = it->second;
    const bool any_lost = std::any_of(g.members.begin(), g.members.end(),
                                      [](const Member& m) { return m.lost; });
    if (any_lost && outcome == GrantOutcome::kOk) {
      outcome = GrantOutcome::kPeerLost;
    }
    for (int r = g.granted + 1; r < static_cast<int>(g.members.size()); ++r) {
      Member& m = g.members[static_cast<std::size_t>(r)];
      if (m.done) continue;
      g.granted = r;
      g.grant_deadline = SteadyClock::now() + options.grant_cap;
      Message grant;
      grant.type = MsgType::kGrant;
      grant.token = m.token;
      grant.rank = r;
      grant.flags = static_cast<std::uint8_t>(outcome);
      send_to(m.conn_id, grant);
      return;
    }
    erase_group(gid);
  }

  void form_group(std::vector<std::pair<int, Arrival>> ranked) {
    const std::uint64_t gid = next_group_id++;
    Group g;
    g.members.resize(ranked.size());
    for (const auto& [r, a] : ranked) {
      Member& m = g.members[static_cast<std::size_t>(r)];
      m.conn_id = a.conn_id;
      m.token = a.token;
      in_group[{a.conn_id, a.token}] = gid;
    }
    groups.emplace(gid, std::move(g));
    bump(&BrokerStats::matches);
    grant_next(gid, GrantOutcome::kOk);
  }

  void handle_arrive(std::uint64_t conn_id, const Message& msg) {
    if (msg.arity < 2 || msg.arity > kMaxArity || msg.rank < 0 ||
        msg.rank >= msg.arity || msg.name.empty() ||
        msg.a > static_cast<std::uint64_t>(kMaxArriveTimeout.count())) {
      bump(&BrokerStats::protocol_errors);
      Message nak;
      nak.type = MsgType::kCancelled;
      nak.token = msg.token;
      send_to(conn_id, nak);  // never leave the caller parked
      return;
    }
    bump(&BrokerStats::arrivals);
    Arrival arriving;
    arriving.conn_id = conn_id;
    arriving.token = msg.token;
    arriving.rank = msg.rank;
    arriving.arity = msg.arity;
    arriving.deadline = SteadyClock::now() + std::chrono::milliseconds(msg.a);

    std::vector<Arrival>& waiting = postponed[msg.name];

    // One waiter per rank other than ours (a pair takes any peer,
    // whatever its declared rank), earliest-postponed first.  The first
    // pass prefers a peer from a *different* process — the reason the
    // breakpoint is process-group scoped — the second takes any.  A
    // waiter chosen in the first pass is not chosen again: its rank is
    // taken, or (a pair) nothing more is needed.
    const auto need = static_cast<std::size_t>(msg.arity - 1);
    std::vector<std::size_t> chosen;
    std::vector<char> rank_taken(static_cast<std::size_t>(msg.arity), 0);
    rank_taken[static_cast<std::size_t>(arriving.rank)] = 1;
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t i = 0; i < waiting.size() && chosen.size() < need;
           ++i) {
        const Arrival& w = waiting[i];
        const auto r = static_cast<std::size_t>(w.rank);
        if (w.arity != msg.arity || (pass == 0 && w.conn_id == conn_id) ||
            (msg.arity > 2 && rank_taken[r])) {
          continue;
        }
        rank_taken[r] = 1;
        chosen.push_back(i);
      }
    }
    if (chosen.size() < need) {
      waiting.push_back(arriving);
      return;
    }
    std::vector<std::pair<int, Arrival>> ranked;
    // Erase from the back so earlier indices stay valid.
    std::sort(chosen.begin(), chosen.end());
    for (auto it = chosen.rbegin(); it != chosen.rend(); ++it) {
      ranked.emplace_back(waiting[*it].rank, waiting[*it]);
      waiting.erase(waiting.begin() + static_cast<std::ptrdiff_t>(*it));
    }
    // Effective ranks mirror the in-process engine: declared, except that
    // a pair with equal declared ranks orders the postponed peer first.
    int my_rank = arriving.rank;
    if (ranked.front().first == my_rank) {
      ranked.front().first = 0;
      my_rank = 1;
    }
    ranked.emplace_back(my_rank, arriving);
    form_group(std::move(ranked));
  }

  // A postponed arrival is dropped and acknowledged.  A member of a
  // matched group has given up on its grant (its failsafe fired): that
  // counts as its DONE, so the rest of the group advances now instead of
  // after the grant cap.
  void handle_cancel(std::uint64_t conn_id, const Message& msg) {
    for (auto& [name, waiting] : postponed) {
      auto it = std::find_if(waiting.begin(), waiting.end(),
                             [&](const Arrival& a) {
                               return a.conn_id == conn_id &&
                                      a.token == msg.token;
                             });
      if (it != waiting.end()) {
        waiting.erase(it);
        bump(&BrokerStats::cancellations);
        Message ack;
        ack.type = MsgType::kCancelled;
        ack.token = msg.token;
        send_to(conn_id, ack);
        return;
      }
    }
    handle_done(conn_id, msg);
  }

  void handle_done(std::uint64_t conn_id, const Message& msg) {
    auto it = in_group.find({conn_id, msg.token});
    if (it == in_group.end()) return;  // duplicate / after force-advance
    const std::uint64_t gid = it->second;
    auto git = groups.find(gid);
    if (git == groups.end()) return;
    Group& g = git->second;
    for (int r = 0; r < static_cast<int>(g.members.size()); ++r) {
      Member& m = g.members[static_cast<std::size_t>(r)];
      if (m.conn_id != conn_id || m.token != msg.token) continue;
      if (m.done) return;
      m.done = true;
      if (r == g.granted) grant_next(gid, GrantOutcome::kOk);
      return;
    }
  }

  void handle_disconnect(std::uint64_t conn_id) {
    for (auto& [name, waiting] : postponed) {
      waiting.erase(std::remove_if(waiting.begin(), waiting.end(),
                                   [&](const Arrival& a) {
                                     return a.conn_id == conn_id;
                                   }),
                    waiting.end());
    }
    std::vector<std::uint64_t> to_advance;
    for (auto& [gid, g] : groups) {
      bool granted_lost = false;
      for (int r = 0; r < static_cast<int>(g.members.size()); ++r) {
        Member& m = g.members[static_cast<std::size_t>(r)];
        if (m.conn_id != conn_id || m.done) continue;
        m.done = true;
        m.lost = true;
        bump(&BrokerStats::peer_lost);
        if (r == g.granted) granted_lost = true;
      }
      if (granted_lost) to_advance.push_back(gid);
    }
    for (std::uint64_t gid : to_advance) {
      grant_next(gid, GrantOutcome::kPeerLost);
    }
  }

  void handle(std::uint64_t conn_id, const Message& msg) {
    switch (msg.type) {
      case MsgType::kHello:
        break;  // identity is informational (pid / engine tag)
      case MsgType::kArrive:
        handle_arrive(conn_id, msg);
        break;
      case MsgType::kCancel:
        handle_cancel(conn_id, msg);
        break;
      case MsgType::kDone:
        handle_done(conn_id, msg);
        break;
      default:
        bump(&BrokerStats::protocol_errors);  // server-only type
        break;
    }
  }

  void run_timers() {
    const auto now = SteadyClock::now();
    for (auto& [name, waiting] : postponed) {
      for (std::size_t i = 0; i < waiting.size();) {
        if (waiting[i].deadline > now) {
          ++i;
          continue;
        }
        bump(&BrokerStats::timeouts);
        Message out;
        out.type = MsgType::kTimeout;
        out.token = waiting[i].token;
        send_to(waiting[i].conn_id, out);
        waiting.erase(waiting.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
    std::vector<std::uint64_t> capped;
    for (auto& [gid, g] : groups) {
      if (g.granted >= 0 && g.grant_deadline <= now &&
          !g.members[static_cast<std::size_t>(g.granted)].done) {
        capped.push_back(gid);
      }
    }
    for (std::uint64_t gid : capped) {
      // The granted rank overran the cap (leaked guard / stalled
      // process): advance past it so the group degrades to a delay.
      Group& g = groups[gid];
      g.members[static_cast<std::size_t>(g.granted)].done = true;
      bump(&BrokerStats::forced_advances);
      grant_next(gid, GrantOutcome::kCap);
    }
  }

  /// poll()'s timeout: the nearest arrival or grant deadline, rounded up
  /// to whole milliseconds; -1 (no timeout) when nothing is pending.
  int poll_timeout_ms() const {
    auto earliest = SteadyClock::time_point::max();
    for (const auto& [name, waiting] : postponed) {
      for (const Arrival& a : waiting) {
        earliest = std::min(earliest, a.deadline);
      }
    }
    for (const auto& [gid, g] : groups) {
      if (g.granted >= 0) earliest = std::min(earliest, g.grant_deadline);
    }
    if (earliest == SteadyClock::time_point::max()) return -1;
    const auto wait = std::chrono::ceil<std::chrono::milliseconds>(
        earliest - SteadyClock::now());
    return static_cast<int>(std::clamp<std::chrono::milliseconds::rep>(
        wait.count(), 0, INT_MAX));
  }

  // ---- IO --------------------------------------------------------------------

  // Writes as much buffered output as the socket takes.  False when the
  // peer is gone mid-write.
  static bool flush_out(Conn& conn) {
    while (!conn.outbuf.empty()) {
      const ssize_t n = ::send(conn.fd, conn.outbuf.data(), conn.outbuf.size(),
                               MSG_NOSIGNAL);
      if (n > 0) {
        conn.outbuf.erase(conn.outbuf.begin(), conn.outbuf.begin() + n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      return false;
    }
    return true;
  }

  void disconnect(std::uint64_t id) {
    auto it = conns.find(id);
    if (it == conns.end()) return;
    ::close(it->second.fd);
    conns.erase(it);
    handle_disconnect(id);
  }

  // The broker's one thread: poll() over the listen socket, the self-pipe
  // and every connection; each round handles the frames read, then the
  // expired deadlines, then writes every connection's pending output.
  void io_loop() {
    std::vector<pollfd> fds;
    std::vector<std::uint64_t> fd_ids;  // parallel to fds; 0 = not a conn
    std::vector<std::uint64_t> dead;

    while (!stopping.load(std::memory_order_acquire)) {
      fds.clear();
      fd_ids.clear();
      fds.push_back({listen_fd, POLLIN, 0});
      fd_ids.push_back(0);
      fds.push_back({wake_r, POLLIN, 0});
      fd_ids.push_back(0);
      for (const auto& [id, conn] : conns) {
        short want = POLLIN;
        if (!conn.outbuf.empty()) want |= POLLOUT;
        fds.push_back({conn.fd, want, 0});
        fd_ids.push_back(id);
      }

      if (::poll(fds.data(), fds.size(), poll_timeout_ms()) < 0) {
        if (errno == EINTR) continue;
        break;  // unrecoverable poll failure
      }

      // Self-pipe: drain whatever woke us.
      if (fds[1].revents & POLLIN) {
        char buf[64];
        while (::read(wake_r, buf, sizeof(buf)) > 0) {
        }
      }

      if (fds[0].revents & POLLIN) {
        for (;;) {
          const int fd = ::accept(listen_fd, nullptr, nullptr);
          if (fd < 0) {
            if (errno == EINTR) continue;
            break;  // EAGAIN: accepted everything pending
          }
          if (!set_nonblocking(fd)) {
            ::close(fd);
            continue;
          }
          conns[next_conn_id++].fd = fd;
          bump(&BrokerStats::connections);
        }
      }

      dead.clear();
      for (std::size_t i = 2; i < fds.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
        const std::uint64_t id = fd_ids[i];
        auto it = conns.find(id);
        if (it == conns.end()) continue;
        Conn& conn = it->second;
        bool eof = false;
        for (;;) {
          std::uint8_t buf[4096];
          const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
          if (n > 0) {
            conn.inbuf.insert(conn.inbuf.end(), buf, buf + n);
            continue;
          }
          if (n < 0 && errno == EINTR) continue;
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          eof = true;  // EOF or hard error
          break;
        }
        // Handle frames inline, in arrival order (a malformed one drops
        // the connection), and those received *before* the EOF even when
        // both land in one round: a client that sends its final DONE and
        // immediately closes must complete cleanly, not count as a lost
        // peer (its disconnect is handled after its frames).
        const bool framed = drain_frames(
            conn.inbuf, [&](const Message& m) { handle(id, m); });
        if (!framed) bump(&BrokerStats::protocol_errors);
        if (!framed || eof) dead.push_back(id);
      }
      for (std::uint64_t id : dead) disconnect(id);

      run_timers();

      // Eager writes; POLLOUT is only needed for an EAGAIN tail.  Output
      // queued by a disconnect here is written next round (poll returns
      // at once for a connection with pending output).
      dead.clear();
      for (auto& [id, conn] : conns) {
        if (!flush_out(conn)) dead.push_back(id);
      }
      for (std::uint64_t id : dead) disconnect(id);
    }

    // Shutdown: every client sees EOF; the protocol state goes with them.
    for (auto& [id, conn] : conns) ::close(conn.fd);
    conns.clear();
    postponed.clear();
    groups.clear();
    in_group.clear();
  }
};

Broker::Broker(BrokerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Broker::~Broker() { stop(); }

bool Broker::start() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (impl_->options.socket_path.size() >= sizeof(addr.sun_path)) {
    return false;
  }
  std::memcpy(addr.sun_path, impl_->options.socket_path.c_str(),
              impl_->options.socket_path.size() + 1);
  ::unlink(impl_->options.socket_path.c_str());

  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
  if (fd < 0) return false;
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
    ::close(fd);
    return false;
  }

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) < 0) {
    ::close(fd);
    ::unlink(impl_->options.socket_path.c_str());
    return false;
  }

  impl_->listen_fd = fd;
  impl_->wake_r = pipe_fds[0];
  impl_->wake_w = pipe_fds[1];
  impl_->io_thread = std::thread([this] { impl_->io_loop(); });
  impl_->started = true;
  return true;
}

void Broker::stop() {
  if (!impl_->started) return;
  impl_->started = false;
  impl_->stopping.store(true, std::memory_order_release);
  impl_->wake();
  impl_->io_thread.join();  // closes every connection on its way out
  ::close(impl_->listen_fd);
  ::close(impl_->wake_r);
  ::close(impl_->wake_w);
  impl_->listen_fd = impl_->wake_r = impl_->wake_w = -1;
  ::unlink(impl_->options.socket_path.c_str());
}

BrokerStats Broker::stats() const {
  std::scoped_lock lock(impl_->stats_mu);
  return impl_->stats;
}

const std::string& Broker::socket_path() const {
  return impl_->options.socket_path;
}

}  // namespace cbp::broker
