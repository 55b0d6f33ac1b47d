#include "broker/client.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "broker/wire.h"

namespace cbp::broker {

using SteadyClock = std::chrono::steady_clock;

struct BrokerClient::Impl {
  /// One in-flight postponement, keyed by token.  `done` once a terminal
  /// frame arrived or the connection failed (outcome kError).
  struct Pending {
    bool done = false;
    RemoteOutcome outcome = RemoteOutcome::kError;
    int rank = -1;
  };

  int fd = -1;

  std::mutex write_mu;
  bool write_closed = false;  // guarded by write_mu

  std::mutex mu;
  std::condition_variable cv;
  std::unordered_map<std::uint64_t, Pending> pending;  // guarded by mu
  std::vector<std::uint8_t> inbuf;  // guarded by mu: a partial frame
  bool reading = false;        // a caller owns the read side; guarded by mu
  bool dead = false;           // broker EOF or bad frame; guarded by mu
  bool shutting_down = false;  // guarded by mu

  std::atomic<std::uint64_t> next_token{1};

  bool send(MsgType type, std::uint64_t token) {
    Message m;
    m.type = type;
    m.token = token;
    return send(m);
  }

  bool send(const Message& m) {
    std::scoped_lock lock(write_mu);
    if (write_closed || fd < 0) return false;
    return write_frame(fd, m);
  }

  /// Fails every postponement still waiting (mu held).
  void fail_all() {
    for (auto& [token, p] : pending) p.done = true;  // outcome stays kError
  }

  /// Hands one broker frame to its postponement (mu held).  A frame for
  /// a token no longer tracked — its caller's failsafe fired — is
  /// dropped: that caller's CANCEL already counts as its DONE.
  void dispatch(const Message& msg) {
    auto it = pending.find(msg.token);
    if (it == pending.end()) return;
    Pending& p = it->second;
    switch (msg.type) {
      case MsgType::kGrant:
        p.rank = msg.rank;
        p.outcome =
            msg.flags == static_cast<std::uint8_t>(GrantOutcome::kPeerLost)
                ? RemoteOutcome::kPeerLost
                : RemoteOutcome::kHit;
        break;
      case MsgType::kTimeout:
        p.outcome = RemoteOutcome::kTimeout;
        break;
      case MsgType::kCancelled:
        p.outcome = RemoteOutcome::kCancelled;
        break;
      default:
        return;  // client-to-broker type: ignore
    }
    p.done = true;
  }

  /// Takes the read side (mu held through `lock`, nobody reading, the
  /// connection alive): waits until the socket is readable or until
  /// `deadline` (not at all once it has passed), reads once, and
  /// dispatches every complete frame.  Then gives the read side back and
  /// wakes every waiter, which either takes it over or finds its result.
  void read_once(std::unique_lock<std::mutex>& lock,
                 SteadyClock::time_point deadline) {
    reading = true;
    lock.unlock();
    const auto wait = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - SteadyClock::now());
    pollfd pfd{fd, POLLIN, 0};
    std::uint8_t buf[4096];
    ssize_t n = -1;
    int err = EAGAIN;  // stays so when poll times out
    const int ready =
        ::poll(&pfd, 1,
               static_cast<int>(std::clamp<std::chrono::milliseconds::rep>(
                   wait.count(), 0, INT_MAX)));
    if (ready > 0) {
      n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n < 0) err = errno;
    } else if (ready < 0) {
      err = errno;
    }
    lock.lock();
    reading = false;
    if (n > 0) {
      inbuf.insert(inbuf.end(), buf, buf + n);
      if (!drain_frames(inbuf, [this](const Message& m) { dispatch(m); })) {
        dead = true;
      }
    } else if (n == 0 || (err != EAGAIN && err != EWOULDBLOCK &&
                          err != EINTR)) {
      dead = true;  // broker gone: every in-flight postponement fails
    }
    if (dead) fail_all();
    cv.notify_all();
  }
};

std::shared_ptr<BrokerClient> BrokerClient::connect(
    const std::string& socket_path, std::chrono::milliseconds retry_for,
    std::uint64_t engine_tag) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) return nullptr;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);

  const auto deadline = SteadyClock::now() + retry_for;
  int fd = -1;
  for (;;) {
    fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return nullptr;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      break;
    }
    ::close(fd);
    fd = -1;
    // The broker may simply not be listening yet (workers fork before
    // the parent starts it): retry until the window closes.
    if (SteadyClock::now() >= deadline) return nullptr;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  auto client = std::shared_ptr<BrokerClient>(new BrokerClient());
  client->impl_ = std::make_unique<Impl>();
  client->impl_->fd = fd;

  Message hello;
  hello.type = MsgType::kHello;
  hello.a = static_cast<std::uint64_t>(::getpid());
  hello.b = engine_tag;
  if (!client->impl_->send(hello)) {
    ::close(fd);
    client->impl_->fd = -1;
    return nullptr;
  }
  return client;
}

BrokerClient::~BrokerClient() { shutdown(); }

void BrokerClient::shutdown() {
  if (!impl_) return;
  Impl& im = *impl_;
  std::unique_lock lock(im.mu);
  if (im.shutting_down) return;
  im.shutting_down = true;
  im.fail_all();
  im.cv.notify_all();
  {
    std::scoped_lock write_lock(im.write_mu);
    im.write_closed = true;
  }
  if (im.fd < 0) return;
  ::shutdown(im.fd, SHUT_RDWR);  // wakes a caller polling the socket
  im.cv.wait(lock, [&] { return !im.reading; });
  ::close(im.fd);
  im.fd = -1;
}

bool BrokerClient::connected() const {
  if (!impl_) return false;
  Impl& im = *impl_;
  std::unique_lock lock(im.mu);
  // With no call reading, look for the broker's EOF without waiting.
  if (!im.reading && !im.dead && !im.shutting_down) {
    im.read_once(lock, SteadyClock::now());
  }
  return !im.dead && !im.shutting_down;
}

RemoteTriggerResult BrokerClient::trigger_remote(
    const RemoteTriggerRequest& request) {
  RemoteTriggerResult result;  // defaults to kError
  if (!impl_) return result;
  Impl& im = *impl_;

  const std::uint64_t token =
      im.next_token.fetch_add(1, std::memory_order_relaxed);
  {
    std::scoped_lock lock(im.mu);
    if (im.dead || im.shutting_down) return result;
    im.pending.emplace(token, Impl::Pending{});
  }

  Message arrive;
  arrive.type = MsgType::kArrive;
  arrive.token = token;
  arrive.a = static_cast<std::uint64_t>(request.timeout.count());
  arrive.rank = request.rank;
  arrive.arity = request.arity;
  arrive.name = request.name;
  const bool sent = im.send(arrive);

  // Failsafe: the broker owns the timeout, but a wedged broker must
  // turn into kError here, never a hang (core/transport.h).
  const auto deadline = SteadyClock::now() + request.timeout + kGrantSlack;

  std::unique_lock lock(im.mu);
  // References into an unordered_map survive other callers' inserts.
  Impl::Pending& mine = im.pending.at(token);
  while (sent && !mine.done && SteadyClock::now() < deadline) {
    if (im.reading) {
      im.cv.wait_until(lock, deadline);
    } else {
      im.read_once(lock, deadline);
    }
  }
  const Impl::Pending outcome = mine;
  im.pending.erase(token);
  lock.unlock();

  if (!outcome.done) {
    // Failsafe expired: tell the broker we are gone.  Were we matched,
    // the CANCEL counts as our DONE and the group advances.
    if (sent) im.send(MsgType::kCancel, token);
    return result;
  }
  result.outcome = outcome.outcome;
  if (!result.hit()) return result;
  result.rank = outcome.rank;
  // The hit ends when the engine calls `complete` (a plain hit's last
  // act, or a scoped hit's guard release); the callback keeps the client
  // alive even if the engine detaches the transport first.
  result.complete = [self = shared_from_this(), token] {
    self->impl_->send(MsgType::kDone, token);
  };
  return result;
}

}  // namespace cbp::broker
