#include "broker/wire.h"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

namespace cbp::broker {
namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
  }
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

std::vector<std::uint8_t> encode(const Message& m) {
  const std::size_t payload = kHeaderSize + m.name.size();
  std::vector<std::uint8_t> out;
  out.reserve(4 + payload);
  put_u32(out, static_cast<std::uint32_t>(payload));
  out.push_back(static_cast<std::uint8_t>(m.type));
  put_u64(out, m.token);
  put_u64(out, m.a);
  put_u64(out, m.b);
  put_u32(out, static_cast<std::uint32_t>(m.rank));
  put_u32(out, static_cast<std::uint32_t>(m.arity));
  out.push_back(m.flags);
  put_u16(out, static_cast<std::uint16_t>(m.name.size()));
  out.insert(out.end(), m.name.begin(), m.name.end());
  return out;
}

std::optional<Message> decode(const std::uint8_t* data, std::size_t size) {
  if (size < kHeaderSize || size > kMaxFrame) return std::nullopt;
  Message m;
  const std::uint8_t type = data[0];
  if (type < static_cast<std::uint8_t>(MsgType::kHello) ||
      type > static_cast<std::uint8_t>(MsgType::kCancelled) ||
      type == 5) {  // 5: the retired MATCHED frame
    return std::nullopt;
  }
  m.type = static_cast<MsgType>(type);
  m.token = get_u64(data + 1);
  m.a = get_u64(data + 9);
  m.b = get_u64(data + 17);
  m.rank = static_cast<std::int32_t>(get_u32(data + 25));
  m.arity = static_cast<std::int32_t>(get_u32(data + 29));
  m.flags = data[33];
  const std::uint16_t name_len = get_u16(data + 34);
  if (kHeaderSize + name_len != size) return std::nullopt;
  m.name.assign(reinterpret_cast<const char*>(data + kHeaderSize), name_len);
  return m;
}

bool drain_frames(std::vector<std::uint8_t>& buf,
                  const std::function<void(const Message&)>& on_frame) {
  std::size_t offset = 0;
  while (buf.size() - offset >= 4) {
    const std::uint8_t* p = buf.data() + offset;
    const std::uint32_t payload = get_u32(p);
    if (payload < kHeaderSize || payload > kMaxFrame) return false;
    if (buf.size() - offset < 4 + payload) break;  // partial
    const std::optional<Message> msg = decode(p + 4, payload);
    if (!msg) return false;
    on_frame(*msg);
    offset += 4 + payload;
  }
  buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(offset));
  return true;
}

bool read_exact(int fd, void* buf, std::size_t size) {
  auto* p = static_cast<std::uint8_t*>(buf);
  while (size > 0) {
    const ssize_t n = ::read(fd, p, size);
    if (n > 0) {
      p += n;
      size -= static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) return false;  // EOF
    if (errno == EINTR) continue;
    return false;
  }
  return true;
}

bool write_exact(int fd, const void* buf, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  while (size > 0) {
    // MSG_NOSIGNAL: a peer that has closed turns into EPIPE here, not
    // into a SIGPIPE that kills the writing process.
    const ssize_t n = ::send(fd, p, size, MSG_NOSIGNAL);
    if (n > 0) {
      p += n;
      size -= static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

std::optional<Message> read_frame(int fd) {
  std::uint8_t prefix[4];
  if (!read_exact(fd, prefix, sizeof(prefix))) return std::nullopt;
  const std::uint32_t payload = get_u32(prefix);
  if (payload < kHeaderSize || payload > kMaxFrame) return std::nullopt;
  std::vector<std::uint8_t> buf(payload);
  if (!read_exact(fd, buf.data(), buf.size())) return std::nullopt;
  return decode(buf.data(), buf.size());
}

bool write_frame(int fd, const Message& m) {
  const std::vector<std::uint8_t> frame = encode(m);
  return write_exact(fd, frame.data(), frame.size());
}

}  // namespace cbp::broker
