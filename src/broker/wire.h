// Wire protocol of the trigger broker (src/broker/broker.h).
//
// Frames are length-prefixed: a 4-byte little-endian payload length,
// then the payload.  The payload layout is fixed-position (no varints):
//
//   offset  size  field
//        0     1  type       (MsgType)
//        1     8  token      (u64 LE; client-chosen postponement id)
//        9     8  a          (u64 LE; per-type meaning, see below)
//       17     8  b          (u64 LE; per-type meaning)
//       25     4  rank       (i32 LE)
//       29     4  arity      (i32 LE)
//       33     1  flags      (per-type bits)
//       34     2  name_len   (u16 LE)
//       36     n  name       (raw bytes, no NUL)
//
// Per-type field use:
//
//   kHello      client -> broker, once per connection.
//               a = pid, b = engine tag (process-unique identity).
//   kArrive     client -> broker: one postponement.  a = timeout in ms,
//               rank/arity declared, name set.
//   kCancel     client -> broker: give up on `token` (failsafe expiry).
//               A postponed arrival is dropped and acknowledged; for a
//               member of a matched group it counts as that member's
//               kDone.
//   kDone       client -> broker: `token`'s hit is over; the broker may
//               grant the next rank.
//   kGrant      broker -> client: `token` matched and may proceed.
//               rank = assigned rank, flags = GrantOutcome.  A matched
//               member's first and only frame.
//   kTimeout    broker -> client: `token` parked its full bound unmatched.
//   kCancelled  broker -> client: ack of kCancel.
//
// Type 5 (once a MATCHED frame that preceded the grant) is retired and
// rejected by decode(); the other values keep their numbers.
//
// All multi-byte integers are little-endian on the wire regardless of
// host order (encoded byte-by-byte, so the code is endian-agnostic).
// A frame longer than kMaxFrame is a protocol error and the connection
// is dropped — names are breakpoint identifiers, not payloads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace cbp::broker {

enum class MsgType : std::uint8_t {
  kHello = 1,
  kArrive = 2,
  kCancel = 3,
  kDone = 4,
  kGrant = 6,
  kTimeout = 7,
  kCancelled = 8,
};

/// kGrant's flags byte: how the grantee got its turn.
enum class GrantOutcome : std::uint8_t {
  kOk = 0,        ///< normal rank-ordered grant
  kPeerLost = 1,  ///< a peer process died; the broker released you
  kCap = 2,       ///< a lower rank overran the grant cap; forced advance
};

/// Hard ceiling on payload size (length prefix excluded).
inline constexpr std::size_t kMaxFrame = 4096;

/// Fixed-position payload size before the name bytes.
inline constexpr std::size_t kHeaderSize = 36;

struct Message {
  MsgType type = MsgType::kHello;
  std::uint64_t token = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::int32_t rank = 0;
  std::int32_t arity = 2;
  std::uint8_t flags = 0;
  std::string name;
};

/// Serializes `m` into one frame (length prefix included).
std::vector<std::uint8_t> encode(const Message& m);

/// Decodes one *payload* (prefix already stripped).  nullopt on a
/// truncated or oversized payload or an unknown message type.
std::optional<Message> decode(const std::uint8_t* data, std::size_t size);

/// Splits a byte stream into frames: decodes the complete frames at the
/// front of `buf`, hands each to `on_frame` in order, and erases them;
/// a partial frame at the end stays for the next read.  False on a
/// malformed frame: the stream cannot be resynchronised, so the reader
/// drops it.  The broker and the client both read through it.
bool drain_frames(std::vector<std::uint8_t>& buf,
                  const std::function<void(const Message&)>& on_frame);

// ---- fd helpers ----------------------------------------------------------
// Blocking-socket helpers: the client writes through them, and raw
// callers (tests, tools) read with read_frame.  Both transfers retry on
// EINTR and resume partial transfers; false means EOF or a hard error.
// Writes use send(MSG_NOSIGNAL), so a closed peer fails the write
// instead of raising SIGPIPE.

bool read_exact(int fd, void* buf, std::size_t size);
bool write_exact(int fd, const void* buf, std::size_t size);

/// Reads one full frame from a blocking fd.  nullopt on EOF, error, or
/// a malformed frame.
std::optional<Message> read_frame(int fd);

/// Writes one full frame to a blocking fd.
bool write_frame(int fd, const Message& m);

}  // namespace cbp::broker
