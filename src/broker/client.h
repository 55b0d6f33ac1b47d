// BrokerClient: the TransportPolicy a child engine attaches to route
// `scope=process-group` breakpoints through the machine's trigger
// broker (src/broker/broker.h).
//
// One connection per client, one client per process (typically created
// right after fork and handed to Engine::set_transport).  The client
// starts no thread: trigger_remote is fully synchronous, and the calling
// thread reads the socket itself.  One waiting caller at a time owns the
// read side; it hands every frame it reads to the postponement its token
// names, then wakes the other waiters, which either find their result or
// take the read side over.  Every hit ends through
// RemoteTriggerResult::complete, which sends the DONE that lets the next
// rank proceed.
//
// Liveness guarantees (core/transport.h's contract):
//   * the postponement bound is enforced broker-side, but a client-side
//     failsafe (timeout + kGrantSlack) also runs, so a dead or wedged
//     broker turns into kError, never a hang;
//   * broker EOF fails every in-flight and future postponement with
//     kError immediately (the engine then counts them cancelled);
//   * a caller whose failsafe fires sends CANCEL, which the broker
//     counts as its DONE if it was matched, so the rest of the group
//     advances; a GRANT that arrives for it later is dropped.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "core/transport.h"

namespace cbp::broker {

class BrokerClient : public TransportPolicy,
                     public std::enable_shared_from_this<BrokerClient> {
 public:
  /// Extra real time past the request timeout before the client-side
  /// failsafe gives up on the broker (covers match + grant latency and
  /// the broker's own grant cap).
  static constexpr std::chrono::milliseconds kGrantSlack{10000};

  /// Connects to the broker socket, retrying for up to `retry_for`
  /// (workers typically start concurrently with the broker), and sends
  /// the HELLO identity frame.  Starts no thread.  Null on failure.
  static std::shared_ptr<BrokerClient> connect(
      const std::string& socket_path,
      std::chrono::milliseconds retry_for = std::chrono::milliseconds(5000),
      std::uint64_t engine_tag = 0);

  ~BrokerClient() override;
  BrokerClient(const BrokerClient&) = delete;
  BrokerClient& operator=(const BrokerClient&) = delete;

  /// TransportPolicy: one full remote postponement.  Thread-safe.
  RemoteTriggerResult trigger_remote(
      const RemoteTriggerRequest& request) override;

  /// Closes the connection; all in-flight postponements fail with
  /// kError.  Wakes a caller reading the socket and closes the fd once
  /// it has let go.  Idempotent; also run by the destructor.
  void shutdown();

  /// False once the broker is gone or shutdown() ran.  With no call
  /// reading the socket, it reads without waiting, so a dead broker
  /// shows while no postponement is in flight.
  [[nodiscard]] bool connected() const;

 private:
  BrokerClient() = default;

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace cbp::broker
