// Trigger broker tests (src/broker): wire-protocol encode/decode, the
// in-process broker/client protocol (match, rank order, timeout,
// cancel, peer loss, grant cap, broker death, shutdown, many callers
// sharing one client), raw-socket protocol behaviour, rank order at the
// engine level on one CPU, and fork-based cross-process smoke at the
// engine level — two worker processes matching a scope=process-group
// breakpoint through a real unix-domain socket, including the peer-death
// release path.

#include <gtest/gtest.h>

#include <sched.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "broker/broker.h"
#include "broker/client.h"
#include "broker/wire.h"
#include "core/cbp.h"
#include "core/spec.h"
#include "core/triggers.h"
#include "runtime/clock.h"

namespace cbp {
namespace {

using namespace std::chrono_literals;
using SteadyClock = std::chrono::steady_clock;

std::string test_socket_path(const char* tag) {
  static std::atomic<int> counter{0};
  return "/tmp/cbp-test-" + std::string(tag) + "-" +
         std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// A plain blocking client socket: raw wire frames, no BrokerClient.
int raw_connect(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------

TEST(WireTest, EncodeDecodeRoundTrip) {
  broker::Message m;
  m.type = broker::MsgType::kArrive;
  m.token = 0x0123456789abcdefULL;
  m.a = 5000;
  m.b = 42;
  m.rank = 1;
  m.arity = 3;
  m.flags = 0xa5;  // opaque to the codec: every bit round-trips
  m.name = "prefork-scoreboard";

  const std::vector<std::uint8_t> frame = broker::encode(m);
  ASSERT_GE(frame.size(), 4u + broker::kHeaderSize);
  // The 4-byte LE prefix states the payload length exactly.
  const std::uint32_t payload =
      frame[0] | (frame[1] << 8) | (frame[2] << 16) |
      (static_cast<std::uint32_t>(frame[3]) << 24);
  ASSERT_EQ(payload, frame.size() - 4);

  const auto out = broker::decode(frame.data() + 4, payload);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->type, m.type);
  EXPECT_EQ(out->token, m.token);
  EXPECT_EQ(out->a, m.a);
  EXPECT_EQ(out->b, m.b);
  EXPECT_EQ(out->rank, m.rank);
  EXPECT_EQ(out->arity, m.arity);
  EXPECT_EQ(out->flags, m.flags);
  EXPECT_EQ(out->name, m.name);
}

TEST(WireTest, EncodeDecodeEmptyNameAndNegativeRank) {
  broker::Message m;
  m.type = broker::MsgType::kGrant;
  m.rank = -1;
  m.name.clear();
  const std::vector<std::uint8_t> frame = broker::encode(m);
  const auto out = broker::decode(frame.data() + 4, frame.size() - 4);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->rank, -1);
  EXPECT_TRUE(out->name.empty());
}

TEST(WireTest, DecodeRejectsMalformedPayloads) {
  broker::Message m;
  m.type = broker::MsgType::kArrive;
  m.name = "bp";
  std::vector<std::uint8_t> frame = broker::encode(m);
  const std::uint8_t* payload = frame.data() + 4;
  const std::size_t size = frame.size() - 4;

  // Truncated: shorter than the fixed header, or name bytes cut off.
  EXPECT_FALSE(broker::decode(payload, broker::kHeaderSize - 1).has_value());
  EXPECT_FALSE(broker::decode(payload, size - 1).has_value());
  // Oversized: trailing bytes past the declared name are an error too
  // (the length prefix and name_len must agree exactly).
  std::vector<std::uint8_t> padded(payload, payload + size);
  padded.push_back(0);
  EXPECT_FALSE(broker::decode(padded.data(), padded.size()).has_value());
  // Unknown message type, and the retired type 5 (a MATCHED frame that
  // preceded the grant; the GRANT carries the rank now).
  std::vector<std::uint8_t> bad_type(payload, payload + size);
  for (const int type : {99, 5}) {
    bad_type[0] = static_cast<std::uint8_t>(type);
    EXPECT_FALSE(broker::decode(bad_type.data(), bad_type.size()).has_value());
  }
}

// ---------------------------------------------------------------------------
// In-process broker + client protocol
// ---------------------------------------------------------------------------

RemoteTriggerRequest make_request(const std::string& name, int rank,
                                  std::chrono::milliseconds timeout,
                                  int arity = 2) {
  RemoteTriggerRequest request;
  request.name = name;
  request.rank = rank;
  request.arity = arity;
  request.timeout = timeout;
  return request;
}

/// One plain hit through the client, ended as the engine ends it: the
/// caller's last act is `complete`, which sends its DONE.
RemoteTriggerResult plain_hit(broker::BrokerClient& client,
                              const RemoteTriggerRequest& request) {
  RemoteTriggerResult result = client.trigger_remote(request);
  if (result.complete) result.complete();
  return result;
}

/// Threads of this process, as /proc/self/task lists them.
std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(BrokerClientProtocolTest, ConnectStartsNoThread) {
  const std::string path = test_socket_path("no-thread");
  broker::Broker server({path});
  ASSERT_TRUE(server.start());

  const std::size_t before = thread_count();
  auto a = broker::BrokerClient::connect(path);
  auto b = broker::BrokerClient::connect(path);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(thread_count(), before);
  EXPECT_TRUE(a->connected());

  a->shutdown();
  b->shutdown();
  server.stop();
}

TEST(BrokerClientProtocolTest, TwoClientsMatchInDeclaredRankOrder) {
  const std::string path = test_socket_path("match");
  broker::Broker server({path});
  ASSERT_TRUE(server.start());

  auto a = broker::BrokerClient::connect(path);
  auto b = broker::BrokerClient::connect(path);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  RemoteTriggerResult ra, rb;
  std::thread ta([&] { ra = plain_hit(*a, make_request("bp", 0, 5000ms)); });
  std::thread tb([&] { rb = plain_hit(*b, make_request("bp", 1, 5000ms)); });
  ta.join();
  tb.join();

  EXPECT_EQ(ra.outcome, RemoteOutcome::kHit);
  EXPECT_EQ(rb.outcome, RemoteOutcome::kHit);
  EXPECT_EQ(ra.rank, 0);
  EXPECT_EQ(rb.rank, 1);
  EXPECT_TRUE(ra.hit());
  EXPECT_TRUE(rb.hit());

  const broker::BrokerStats stats = server.stats();
  EXPECT_EQ(stats.connections, 2u);
  EXPECT_EQ(stats.arrivals, 2u);
  EXPECT_EQ(stats.matches, 1u);
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(stats.peer_lost, 0u);
  EXPECT_EQ(stats.forced_advances, 0u);  // rank 0's complete() advanced

  a->shutdown();
  b->shutdown();
  server.stop();
}

TEST(BrokerClientProtocolTest, EqualDeclaredRanksOrderByArrival) {
  const std::string path = test_socket_path("rank-tie");
  broker::Broker server({path});
  ASSERT_TRUE(server.start());

  auto a = broker::BrokerClient::connect(path);
  auto b = broker::BrokerClient::connect(path);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  RemoteTriggerResult ra, rb;
  std::thread ta([&] { ra = plain_hit(*a, make_request("tie", 0, 5000ms)); });
  // Make A's arrival strictly earlier: the broker breaks the declared-
  // rank tie the way the in-process engine does — earlier-postponed
  // goes first.
  std::this_thread::sleep_for(150ms);
  std::thread tb([&] { rb = plain_hit(*b, make_request("tie", 0, 5000ms)); });
  ta.join();
  tb.join();

  EXPECT_EQ(ra.outcome, RemoteOutcome::kHit);
  EXPECT_EQ(rb.outcome, RemoteOutcome::kHit);
  EXPECT_EQ(ra.rank, 0);
  EXPECT_EQ(rb.rank, 1);
  EXPECT_EQ(server.stats().forced_advances, 0u);

  a->shutdown();
  b->shutdown();
  server.stop();
}

TEST(BrokerClientProtocolTest, UnmatchedArrivalTimesOutBrokerSide) {
  const std::string path = test_socket_path("timeout");
  broker::Broker server({path});
  ASSERT_TRUE(server.start());

  auto a = broker::BrokerClient::connect(path);
  ASSERT_NE(a, nullptr);

  // A longer park on another name is pending first: the broker's wait
  // must follow the *nearest* deadline, not the first one or a tick.
  const int patient = raw_connect(path);
  ASSERT_GE(patient, 0);
  broker::Message long_park;
  long_park.type = broker::MsgType::kArrive;
  long_park.token = 1;
  long_park.a = 5000;
  long_park.rank = 0;
  long_park.arity = 2;
  long_park.name = "patient";
  ASSERT_TRUE(broker::write_frame(patient, long_park));
  const auto admitted_by = SteadyClock::now() + 5s;
  while (server.stats().arrivals < 1 && SteadyClock::now() < admitted_by) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(server.stats().arrivals, 1u);

  const auto start = SteadyClock::now();
  const RemoteTriggerResult result =
      a->trigger_remote(make_request("lonely", 0, 100ms));
  const auto elapsed = SteadyClock::now() - start;

  EXPECT_EQ(result.outcome, RemoteOutcome::kTimeout);
  EXPECT_FALSE(result.hit());
  EXPECT_GE(elapsed, 90ms);   // parked (about) the full bound
  EXPECT_LT(elapsed, 5s);     // ...but nowhere near the client failsafe
  EXPECT_LT(elapsed, 1s);     // ...nor the pending 5 s park's deadline
  EXPECT_EQ(server.stats().timeouts, 1u);

  ::close(patient);
  a->shutdown();
  server.stop();
}

TEST(BrokerClientProtocolTest, ScopedPeerDeathReleasesSurvivorAsPeerLost) {
  const std::string path = test_socket_path("peer-lost");
  broker::Broker server({path});
  ASSERT_TRUE(server.start());

  auto doomed = broker::BrokerClient::connect(path);
  auto survivor = broker::BrokerClient::connect(path);
  ASSERT_NE(doomed, nullptr);
  ASSERT_NE(survivor, nullptr);

  RemoteTriggerResult rd, rs;
  std::thread td([&] {
    rd = doomed->trigger_remote(make_request("crash", 0, 5000ms));
  });
  std::thread ts([&] {
    rs = survivor->trigger_remote(make_request("crash", 1, 5000ms));
  });

  // Rank 0 is granted first and holds the group (its DONE waits for
  // `complete`, which we never call — a crashed process).
  td.join();
  ASSERT_EQ(rd.outcome, RemoteOutcome::kHit);
  ASSERT_TRUE(rd.complete != nullptr);
  doomed->shutdown();  // EOF mid-protocol: the broker must free rank 1

  ts.join();
  EXPECT_EQ(rs.outcome, RemoteOutcome::kPeerLost);
  EXPECT_TRUE(rs.hit());  // a peer-lost release still counts as a hit
  EXPECT_GE(server.stats().peer_lost, 1u);

  survivor->shutdown();
  server.stop();
}

TEST(BrokerClientProtocolTest, LeakedGuardForceAdvancesAfterGrantCap) {
  const std::string path = test_socket_path("grant-cap");
  broker::BrokerOptions options;
  options.socket_path = path;
  options.grant_cap = 100ms;  // fast cap for the test
  broker::Broker server(options);
  ASSERT_TRUE(server.start());

  auto leaker = broker::BrokerClient::connect(path);
  auto waiter = broker::BrokerClient::connect(path);
  ASSERT_NE(leaker, nullptr);
  ASSERT_NE(waiter, nullptr);

  RemoteTriggerResult rl, rw;
  std::thread tl([&] {
    rl = leaker->trigger_remote(make_request("leak", 0, 5000ms));
  });
  std::thread tw([&] {
    rw = waiter->trigger_remote(make_request("leak", 1, 5000ms));
  });

  tl.join();  // rank 0 granted; its `complete` is never invoked but the
  tw.join();  // process stays alive — only the grant cap can free rank 1

  ASSERT_EQ(rl.outcome, RemoteOutcome::kHit);
  EXPECT_EQ(rw.outcome, RemoteOutcome::kHit);  // forced advance, peer alive
  EXPECT_EQ(rw.rank, 1);
  EXPECT_GE(server.stats().forced_advances, 1u);
  EXPECT_EQ(server.stats().peer_lost, 0u);

  leaker->shutdown();
  waiter->shutdown();
  server.stop();
}

TEST(BrokerClientProtocolTest, BrokerDeathFailsInFlightPostponement) {
  const std::string path = test_socket_path("broker-death");
  auto server = std::make_unique<broker::Broker>(
      broker::BrokerOptions{path, 2000ms});
  ASSERT_TRUE(server->start());

  auto a = broker::BrokerClient::connect(path);
  ASSERT_NE(a, nullptr);

  RemoteTriggerResult result;
  std::thread t([&] {
    result = a->trigger_remote(make_request("orphan", 0, 30000ms));
  });
  std::this_thread::sleep_for(100ms);  // let the arrival park
  const auto stop_start = SteadyClock::now();
  server->stop();  // clients see EOF
  t.join();
  const auto elapsed = SteadyClock::now() - stop_start;

  EXPECT_EQ(result.outcome, RemoteOutcome::kError);
  EXPECT_LT(elapsed, 10s);  // failed fast, not after timeout + slack
  EXPECT_FALSE(a->connected());
  // Future postponements fail immediately too.
  EXPECT_EQ(a->trigger_remote(make_request("orphan", 0, 100ms)).outcome,
            RemoteOutcome::kError);
  a->shutdown();
}

TEST(BrokerClientProtocolTest, ScopedReleaseAfterBrokerStopReturns) {
  // Releasing a scoped guard sends DONE on a socket whose broker end is
  // closed.  That write must fail like any other, not raise SIGPIPE and
  // kill the process.
  const std::string path = test_socket_path("late-release");
  auto server = std::make_unique<broker::Broker>(
      broker::BrokerOptions{path, 2000ms});
  ASSERT_TRUE(server->start());
  auto a = broker::BrokerClient::connect(path);
  auto b = broker::BrokerClient::connect(path);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  RemoteTriggerResult ra, rb;
  std::thread ta([&] {
    ra = a->trigger_remote(make_request("late", 0, 5000ms));
  });
  std::thread tb([&] { rb = b->trigger_remote(make_request("late", 1, 5000ms)); });
  ta.join();
  ASSERT_EQ(ra.outcome, RemoteOutcome::kHit);
  ASSERT_TRUE(ra.complete != nullptr);

  server->stop();
  tb.join();
  const auto deadline = SteadyClock::now() + 10s;
  while (a->connected() && SteadyClock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_FALSE(a->connected());
  ra.complete();  // the guard release: returns instead of dying
  EXPECT_FALSE(a->connected());
  a->shutdown();
  b->shutdown();
}

// shutdown() while a caller is blocked reading the socket: the caller
// wakes and fails at once, and shutdown() returns (it closes the fd only
// once the caller has let go).
TEST(BrokerClientProtocolTest, ShutdownWakesAReadingCaller) {
  const std::string path = test_socket_path("shutdown-reader");
  broker::Broker server({path});
  ASSERT_TRUE(server.start());
  auto a = broker::BrokerClient::connect(path);
  ASSERT_NE(a, nullptr);

  RemoteTriggerResult result;
  std::thread t([&] {
    result = a->trigger_remote(make_request("alone", 0, 30000ms));
  });
  const auto admitted_by = SteadyClock::now() + 5s;
  while (server.stats().arrivals < 1 && SteadyClock::now() < admitted_by) {
    std::this_thread::sleep_for(1ms);
  }
  const auto start = SteadyClock::now();
  a->shutdown();
  t.join();

  EXPECT_LT(SteadyClock::now() - start, 5s);  // not the 30 s park
  EXPECT_EQ(result.outcome, RemoteOutcome::kError);
  EXPECT_FALSE(a->connected());
  server.stop();
}

// Many threads of one process share its client, and so its read side:
// whichever caller reads hands each frame to the caller it belongs to.
// One more caller of the same client parks on a name nobody else uses
// (it may hold the read side all along) and must still time out.
TEST(BrokerClientProtocolTest, ManyCallersShareOneClient) {
  const std::string path = test_socket_path("many");
  broker::Broker server({path});
  ASSERT_TRUE(server.start());
  auto a = broker::BrokerClient::connect(path);
  auto b = broker::BrokerClient::connect(path);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  RemoteTriggerResult parked;
  std::thread parker([&] {
    parked = plain_hit(*a, make_request("many-parked", 0, 1000ms));
  });
  const auto admitted_by = SteadyClock::now() + 5s;
  while (server.stats().arrivals < 1 && SteadyClock::now() < admitted_by) {
    std::this_thread::sleep_for(1ms);
  }

  // Caller i of client a (rank 0) pairs with caller i of client b
  // (rank 1) on its own name.
  constexpr int kCallers = 4;
  constexpr int kHits = 200;
  std::atomic<int> right{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> callers;
  for (int i = 0; i < kCallers; ++i) {
    for (int rank = 0; rank < 2; ++rank) {
      callers.emplace_back([&, i, rank] {
        broker::BrokerClient& client = rank == 0 ? *a : *b;
        const RemoteTriggerRequest request =
            make_request("many-" + std::to_string(i), rank, 5000ms);
        for (int k = 0; k < kHits; ++k) {
          const RemoteTriggerResult r = plain_hit(client, request);
          (r.outcome == RemoteOutcome::kHit && r.rank == rank ? right : wrong)
              .fetch_add(1);
        }
      });
    }
  }
  for (std::thread& t : callers) t.join();
  parker.join();

  EXPECT_EQ(right.load(), 2 * kCallers * kHits);
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(parked.outcome, RemoteOutcome::kTimeout);
  const broker::BrokerStats stats = server.stats();
  EXPECT_EQ(stats.matches, static_cast<std::uint64_t>(kCallers * kHits));
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.forced_advances, 0u);
  EXPECT_EQ(stats.peer_lost, 0u);

  a->shutdown();
  b->shutdown();
  server.stop();
}

// ---------------------------------------------------------------------------
// Raw-socket protocol behaviour (no BrokerClient in the way)
// ---------------------------------------------------------------------------

TEST(BrokerRawWireTest, CancelIsAcknowledgedAndBadArityIsNaked) {
  const std::string path = test_socket_path("raw");
  broker::Broker server({path});
  ASSERT_TRUE(server.start());
  const int fd = raw_connect(path);
  ASSERT_GE(fd, 0);

  broker::Message hello;
  hello.type = broker::MsgType::kHello;
  hello.a = static_cast<std::uint64_t>(::getpid());
  ASSERT_TRUE(broker::write_frame(fd, hello));

  broker::Message arrive;
  arrive.type = broker::MsgType::kArrive;
  arrive.token = 7;
  arrive.a = 30000;  // long bound: only CANCEL can end it
  arrive.rank = 0;
  arrive.arity = 2;
  arrive.name = "raw-bp";
  ASSERT_TRUE(broker::write_frame(fd, arrive));

  broker::Message cancel;
  cancel.type = broker::MsgType::kCancel;
  cancel.token = 7;
  ASSERT_TRUE(broker::write_frame(fd, cancel));

  auto ack = broker::read_frame(fd);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->type, broker::MsgType::kCancelled);
  EXPECT_EQ(ack->token, 7u);
  EXPECT_EQ(server.stats().cancellations, 1u);

  // An arrival with nonsense arity is nak'ed (kCancelled) rather than
  // parked forever or crashing the broker.
  broker::Message bad = arrive;
  bad.token = 8;
  bad.arity = 0;
  ASSERT_TRUE(broker::write_frame(fd, bad));
  auto nak = broker::read_frame(fd);
  ASSERT_TRUE(nak.has_value());
  EXPECT_EQ(nak->type, broker::MsgType::kCancelled);
  EXPECT_EQ(nak->token, 8u);
  EXPECT_GE(server.stats().protocol_errors, 1u);

  // So is one whose timeout is past the broker's ceiling: its deadline
  // would overflow, and it must not time out at once instead.
  broker::Message huge = arrive;
  huge.token = 9;
  huge.a = std::uint64_t{1} << 62;
  ASSERT_TRUE(broker::write_frame(fd, huge));
  auto huge_nak = broker::read_frame(fd);
  ASSERT_TRUE(huge_nak.has_value());
  EXPECT_EQ(huge_nak->type, broker::MsgType::kCancelled);
  EXPECT_EQ(huge_nak->token, 9u);
  EXPECT_GE(server.stats().protocol_errors, 2u);
  EXPECT_EQ(server.stats().timeouts, 0u);

  ::close(fd);
  server.stop();
}

/// Reads frames from `fd` until one of type `type` (or EOF/error).
std::optional<broker::Message> read_until(int fd, broker::MsgType type) {
  for (;;) {
    std::optional<broker::Message> m = broker::read_frame(fd);
    if (!m || m->type == type) return m;
  }
}

// A rank that writes its DONE and closes at once, so that both can land
// in one poll round: the DONE is handled before the EOF, and the next
// rank is granted normally, not as the survivor of a lost peer.
TEST(BrokerRawWireTest, DoneThenCloseGrantsTheNextRankOk) {
  const std::string path = test_socket_path("done-close");
  broker::Broker server({path});
  ASSERT_TRUE(server.start());

  constexpr int kRounds = 10;
  for (int round = 0; round < kRounds; ++round) {
    const int fd0 = raw_connect(path);
    const int fd1 = raw_connect(path);
    ASSERT_GE(fd0, 0);
    ASSERT_GE(fd1, 0);
    broker::Message arrive;
    arrive.type = broker::MsgType::kArrive;
    arrive.a = 5000;
    arrive.arity = 2;
    arrive.name = "done-close-" + std::to_string(round);
    arrive.token = 1;
    arrive.rank = 0;
    ASSERT_TRUE(broker::write_frame(fd0, arrive));
    arrive.token = 2;
    arrive.rank = 1;
    ASSERT_TRUE(broker::write_frame(fd1, arrive));

    auto grant0 = read_until(fd0, broker::MsgType::kGrant);
    ASSERT_TRUE(grant0.has_value());
    EXPECT_EQ(grant0->rank, 0);
    broker::Message done;
    done.type = broker::MsgType::kDone;
    done.token = 1;
    ASSERT_TRUE(broker::write_frame(fd0, done));
    ::close(fd0);

    auto grant1 = read_until(fd1, broker::MsgType::kGrant);
    ASSERT_TRUE(grant1.has_value());
    EXPECT_EQ(grant1->rank, 1);
    EXPECT_EQ(grant1->flags,
              static_cast<std::uint8_t>(broker::GrantOutcome::kOk));
    done.token = 2;
    ASSERT_TRUE(broker::write_frame(fd1, done));
    ::close(fd1);
  }
  const broker::BrokerStats stats = server.stats();
  EXPECT_EQ(stats.matches, static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(stats.peer_lost, 0u);
  server.stop();
}

/// Parks a raw rank-0 arrival (token 1) on `fd0` and a rank-1 arrival
/// (token 2) on `fd1`, so the broker matches them.
void arrive_pair(int fd0, int fd1, const std::string& name) {
  broker::Message arrive;
  arrive.type = broker::MsgType::kArrive;
  arrive.a = 5000;
  arrive.arity = 2;
  arrive.name = name;
  arrive.token = 1;
  arrive.rank = 0;
  ASSERT_TRUE(broker::write_frame(fd0, arrive));
  arrive.token = 2;
  arrive.rank = 1;
  ASSERT_TRUE(broker::write_frame(fd1, arrive));
}

void send_raw(int fd, broker::MsgType type, std::uint64_t token) {
  broker::Message m;
  m.type = type;
  m.token = token;
  ASSERT_TRUE(broker::write_frame(fd, m));
}

// A matched member gets one frame: its GRANT, which carries its rank.
TEST(BrokerRawWireTest, MatchedRankOneFirstReceivesItsGrant) {
  const std::string path = test_socket_path("one-frame");
  broker::Broker server({path});
  ASSERT_TRUE(server.start());
  const int fd0 = raw_connect(path);
  const int fd1 = raw_connect(path);
  ASSERT_GE(fd0, 0);
  ASSERT_GE(fd1, 0);
  arrive_pair(fd0, fd1, "one-frame");

  const auto first0 = broker::read_frame(fd0);
  ASSERT_TRUE(first0.has_value());
  EXPECT_EQ(first0->type, broker::MsgType::kGrant);
  EXPECT_EQ(first0->rank, 0);
  send_raw(fd0, broker::MsgType::kDone, 1);

  const auto first1 = broker::read_frame(fd1);
  ASSERT_TRUE(first1.has_value());
  EXPECT_EQ(first1->type, broker::MsgType::kGrant);
  EXPECT_EQ(first1->token, 2u);
  EXPECT_EQ(first1->rank, 1);
  EXPECT_EQ(first1->flags,
            static_cast<std::uint8_t>(broker::GrantOutcome::kOk));
  send_raw(fd1, broker::MsgType::kDone, 2);

  ::close(fd0);
  ::close(fd1);
  server.stop();
}

// A granted member whose client gave up on it sends CANCEL, not DONE.
// The broker counts it as the member's DONE: the next rank is granted
// at once, not forced past after the grant cap.
TEST(BrokerRawWireTest, CancelFromAGrantedMemberCountsAsDone) {
  const std::string path = test_socket_path("cancel-done");
  broker::BrokerOptions options;
  options.socket_path = path;
  options.grant_cap = 2000ms;
  broker::Broker server(options);
  ASSERT_TRUE(server.start());
  const int fd0 = raw_connect(path);
  const int fd1 = raw_connect(path);
  ASSERT_GE(fd0, 0);
  ASSERT_GE(fd1, 0);
  arrive_pair(fd0, fd1, "cancel-done");

  const auto grant0 = read_until(fd0, broker::MsgType::kGrant);
  ASSERT_TRUE(grant0.has_value());
  EXPECT_EQ(grant0->rank, 0);
  const auto cancelled_at = SteadyClock::now();
  send_raw(fd0, broker::MsgType::kCancel, 1);

  const auto grant1 = read_until(fd1, broker::MsgType::kGrant);
  const auto waited = SteadyClock::now() - cancelled_at;
  ASSERT_TRUE(grant1.has_value());
  EXPECT_EQ(grant1->rank, 1);
  EXPECT_EQ(grant1->flags,
            static_cast<std::uint8_t>(broker::GrantOutcome::kOk));
  EXPECT_LT(waited, 1000ms);  // well before the 2 s cap
  EXPECT_EQ(server.stats().forced_advances, 0u);
  send_raw(fd1, broker::MsgType::kDone, 2);

  ::close(fd0);
  ::close(fd1);
  server.stop();
}

TEST(BrokerRawWireTest, OversizedFrameDropsTheConnection) {
  const std::string path = test_socket_path("oversized");
  broker::Broker server({path});
  ASSERT_TRUE(server.start());
  const int fd = raw_connect(path);
  ASSERT_GE(fd, 0);

  // A length prefix past kMaxFrame: protocol error, connection dropped.
  const std::uint32_t huge = broker::kMaxFrame + 1;
  const std::uint8_t prefix[4] = {
      static_cast<std::uint8_t>(huge & 0xff),
      static_cast<std::uint8_t>((huge >> 8) & 0xff),
      static_cast<std::uint8_t>((huge >> 16) & 0xff),
      static_cast<std::uint8_t>((huge >> 24) & 0xff)};
  ASSERT_TRUE(broker::write_exact(fd, prefix, sizeof(prefix)));

  EXPECT_FALSE(broker::read_frame(fd).has_value());  // EOF: we were dropped
  EXPECT_GE(server.stats().protocol_errors, 1u);

  ::close(fd);
  server.stop();
}

// ---------------------------------------------------------------------------
// Engine-level behaviour
// ---------------------------------------------------------------------------

class BrokerEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Engine::instance().reset();
    BreakpointSpec::clear_installed();
    Config::set_enabled(true);
    Config::set_order_delay(1ms);
    rt::TimeScale::set(1.0);
  }
  void TearDown() override {
    Engine::instance().set_transport(nullptr);
    BreakpointSpec::clear_installed();
    Engine::instance().reset();
  }
};

// scope=process-group with *no* transport attached must fall back to
// local matching, not error out or hang: the spec can ship before the
// broker does.
TEST_F(BrokerEngineTest, ProcessGroupScopeFallsBackToLocalWithoutTransport) {
  BreakpointSpec::parse("fallback-bp scope=process-group\n").install();
  int probe = 0;
  bool first = false, second = false;
  std::thread t1([&] {
    ConflictTrigger t("fallback-bp", &probe);
    first = t.trigger_here(/*is_first_action=*/true, 2000ms);
  });
  std::thread t2([&] {
    ConflictTrigger t("fallback-bp", &probe);
    second = t.trigger_here(/*is_first_action=*/false, 2000ms);
  });
  t1.join();
  t2.join();
  EXPECT_TRUE(first);
  EXPECT_TRUE(second);
  // The local path counts one hit per matched *pair* (the remote path
  // counts one per process — each address space keeps its own stats).
  EXPECT_EQ(Engine::instance().total_stats().hits, 1u);
  EXPECT_EQ(Engine::instance().total_stats().peer_lost, 0u);
}

/// Pins the calling thread, and every thread it starts from then on, to
/// the first CPU it may run on; restores its CPU set on destruction.
class PinnedToOneCpu {
 public:
  PinnedToOneCpu() {
    if (::sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        CPU_SET(cpu, &one);
        break;
      }
    }
    pinned_ = ::sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~PinnedToOneCpu() {
    if (pinned_) ::sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinnedToOneCpu(const PinnedToOneCpu&) = delete;
  PinnedToOneCpu& operator=(const PinnedToOneCpu&) = delete;

  [[nodiscard]] bool pinned() const { return pinned_; }

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

// Rank order of plain remote hits, checked from outside the engine as
// perfbench does: rank 0 stamps its hit count right after it returns,
// rank 1 checks it.  On one CPU a rank 0 that sends its DONE is easily
// preempted before it returns, so this is where rank 1 would overtake
// it.  Two Engines stand for two processes; the broker runs in this one.
TEST_F(BrokerEngineTest, PlainHitsReturnInRankOrderOnOneCpu) {
  const PinnedToOneCpu pin;
  ASSERT_TRUE(pin.pinned());

  const std::string path = test_socket_path("one-cpu");
  broker::Broker server({path});
  ASSERT_TRUE(server.start());
  const auto entries =
      BreakpointSpec::parse("one-cpu-bp scope=process-group\n").entries();
  std::array<Engine, 2> engines;
  std::array<std::shared_ptr<broker::BrokerClient>, 2> clients;
  for (std::size_t i = 0; i < 2; ++i) {
    engines[i].set_spec(entries);
    clients[i] =
        broker::BrokerClient::connect(path, 5000ms, engines[i].tag());
    ASSERT_NE(clients[i], nullptr);
    engines[i].set_transport(clients[i]);
  }

  constexpr int kGroups = 2000;
  std::atomic<int> stamp{0};
  int hits0 = 0;
  int hits1 = 0;
  int inversions = 0;
  std::thread rank0([&] {
    ScopedEngine bind(engines[0]);
    ConflictTrigger trigger("one-cpu-bp", nullptr);
    for (int k = 1; k <= kGroups; ++k) {
      hits0 += trigger.trigger_here(/*is_first_action=*/true, 5000ms) ? 1 : 0;
      stamp.store(k, std::memory_order_release);
    }
  });
  std::thread rank1([&] {
    ScopedEngine bind(engines[1]);
    ConflictTrigger trigger("one-cpu-bp", nullptr);
    for (int k = 1; k <= kGroups; ++k) {
      hits1 += trigger.trigger_here(/*is_first_action=*/false, 5000ms) ? 1 : 0;
      if (stamp.load(std::memory_order_acquire) != k) ++inversions;
    }
  });
  rank0.join();
  rank1.join();
  for (std::size_t i = 0; i < 2; ++i) {
    engines[i].set_transport(nullptr);
    clients[i]->shutdown();
  }

  EXPECT_EQ(hits0, kGroups);
  EXPECT_EQ(hits1, kGroups);
  EXPECT_EQ(server.stats().matches, static_cast<std::uint64_t>(kGroups));
  EXPECT_LE(inversions, kGroups / 100);  // perfbench's 1% budget
  server.stop();
}

// ---------------------------------------------------------------------------
// Fork-based cross-process smoke (the CI multi-process broker test)
// ---------------------------------------------------------------------------

/// Reaps `pid` with a deadline; SIGKILLs and fails on expiry so a broker
/// bug shows up as a test failure, never a ctest hang.
int wait_with_deadline(pid_t pid, std::chrono::seconds budget) {
  const auto deadline = SteadyClock::now() + budget;
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) {
      return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
    }
    if (SteadyClock::now() >= deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      return 125;  // sentinel: wedged
    }
    std::this_thread::sleep_for(2ms);
  }
}

/// Child body for the fork tests: fresh engine state, process-group
/// spec, broker transport, one trigger.  Communicates via exit code
/// only (no gtest in the child): 3 = connect failed, 4 = no hit.
[[noreturn]] void fork_child(const std::string& path, const char* bp_name,
                             bool is_first, bool die_holding_guard) {
  Engine& engine = Engine::instance();
  engine.reset();
  BreakpointSpec::clear_installed();
  Config::set_enabled(true);
  rt::TimeScale::set(1.0);
  BreakpointSpec::parse(std::string(bp_name) + " scope=process-group\n")
      .install();
  auto client = broker::BrokerClient::connect(path, 5000ms, engine.tag());
  if (!client) _exit(3);
  engine.set_transport(client);

  ConflictTrigger trigger(bp_name, nullptr);
  if (die_holding_guard) {
    TriggerResult result = trigger.trigger_here_scoped(is_first, 5000ms);
    if (result.hit) _exit(42);  // die mid-protocol, DONE never sent
    _exit(4);
  }
  TriggerResult result = trigger.trigger_here_scoped(is_first, 5000ms);
  const bool hit = result.hit;
  const bool peer_lost = result.peer_lost;
  result.guard.release();
  client->shutdown();
  if (!hit) _exit(4);
  _exit(peer_lost ? 5 : 0);
}

TEST(BrokerForkTest, TwoProcessesMatchThroughTheBroker) {
  const std::string path = test_socket_path("fork-match");
  // fork *before* the broker starts its threads (prefork discipline:
  // the parent is single-threaded at every fork).
  pid_t kids[2];
  for (int w = 0; w < 2; ++w) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) fork_child(path, "fork-match-bp", w == 0, false);
    kids[w] = pid;
  }
  broker::Broker server({path});
  ASSERT_TRUE(server.start());

  const int status0 = wait_with_deadline(kids[0], 30s);
  const int status1 = wait_with_deadline(kids[1], 30s);
  EXPECT_EQ(status0, 0);
  EXPECT_EQ(status1, 0);

  const broker::BrokerStats stats = server.stats();
  EXPECT_EQ(stats.matches, 1u);
  EXPECT_EQ(stats.arrivals, 2u);
  EXPECT_EQ(stats.peer_lost, 0u);
  EXPECT_EQ(stats.timeouts, 0u);
  server.stop();
}

TEST(BrokerForkTest, KilledWorkerReleasesItsPeerAsPeerLost) {
  const std::string path = test_socket_path("fork-kill");
  pid_t kids[2];
  for (int w = 0; w < 2; ++w) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Worker 0 declares rank 0 (granted first) and dies holding the
      // guard; worker 1 parks for its grant and must be released as
      // peer-lost — never left to hang.
      fork_child(path, "fork-kill-bp", w == 0, /*die_holding_guard=*/w == 0);
    }
    kids[w] = pid;
  }
  broker::Broker server({path});
  ASSERT_TRUE(server.start());

  const int status0 = wait_with_deadline(kids[0], 30s);
  const int status1 = wait_with_deadline(kids[1], 30s);
  EXPECT_EQ(status0, 42);  // died mid-protocol as designed
  EXPECT_EQ(status1, 5);   // survivor: hit with peer_lost set

  const broker::BrokerStats stats = server.stats();
  EXPECT_EQ(stats.matches, 1u);
  EXPECT_GE(stats.peer_lost, 1u);
  server.stop();
}

}  // namespace
}  // namespace cbp
