#include "pfi/tcp_stub.hpp"

#include "net/layers.hpp"
#include "tcp/header.hpp"

namespace pfi::core {

namespace {

constexpr std::size_t kHdrAt = net::IpMeta::kSize;

bool parse(const xk::Message& msg, tcp::TcpHeader& h) {
  return tcp::TcpHeader::peek(msg, kHdrAt, h);
}

std::optional<std::int64_t> parse_int(const std::string& s) {
  try {
    std::size_t pos = 0;
    const std::int64_t v = std::stoll(s, &pos, 0);
    if (pos != s.size()) return std::nullopt;
    return v;
  } catch (...) {
    return std::nullopt;
  }
}

/// Rewrite one big-endian field of `width` bytes at absolute offset `at`.
void poke(xk::Message& msg, std::size_t at, int width, std::int64_t value) {
  for (int i = 0; i < width; ++i) {
    msg.set_byte(at + static_cast<std::size_t>(i),
                 static_cast<std::uint8_t>(value >> (8 * (width - 1 - i))));
  }
}

}  // namespace

std::string TcpStub::type_of(const xk::Message& msg) const {
  tcp::TcpHeader h;
  if (!parse(msg, h)) return "unknown";
  if (h.has(tcp::kRst)) return "tcp-rst";
  if (h.has(tcp::kSyn)) return h.has(tcp::kAck) ? "tcp-synack" : "tcp-syn";
  if (h.has(tcp::kFin)) return "tcp-fin";
  if (h.payload_len > 0) return "tcp-data";
  if (h.has(tcp::kAck)) return "tcp-ack";
  return "unknown";
}

std::string TcpStub::summary(const xk::Message& msg) const {
  tcp::TcpHeader h;
  if (!parse(msg, h)) return "runt tcp segment";
  const net::IpMeta meta = net::IpMeta::peek(msg);
  std::string out = h.summary();
  out += " sport=";
  out += std::to_string(h.src_port);
  out += " dport=";
  out += std::to_string(h.dst_port);
  out += " remote=";
  out += net::to_string(meta.remote);
  return out;
}

std::optional<std::int64_t> TcpStub::field(const xk::Message& msg,
                                           const std::string& name) const {
  const net::IpMeta meta = net::IpMeta::peek(msg);
  if (name == "remote") return meta.remote;
  if (name == "proto") return static_cast<std::int64_t>(meta.proto);
  tcp::TcpHeader h;
  if (!parse(msg, h)) return std::nullopt;
  if (name == "src_port") return h.src_port;
  if (name == "dst_port") return h.dst_port;
  if (name == "seq") return h.seq;
  if (name == "ack") return h.ack;
  if (name == "flags") return h.flags;
  if (name == "window") return h.window;
  if (name == "len") return h.payload_len;
  if (name == "syn") return h.has(tcp::kSyn) ? 1 : 0;
  if (name == "fin") return h.has(tcp::kFin) ? 1 : 0;
  if (name == "rst") return h.has(tcp::kRst) ? 1 : 0;
  if (name == "ack_flag") return h.has(tcp::kAck) ? 1 : 0;
  return std::nullopt;
}

bool TcpStub::set_field(xk::Message& msg, const std::string& name,
                        std::int64_t value) const {
  tcp::TcpHeader h;
  if (name == "remote") {
    poke(msg, 0, 4, value);
    return true;
  }
  if (!parse(msg, h)) return false;
  if (name == "src_port") {
    poke(msg, kHdrAt + 0, 2, value);
  } else if (name == "dst_port") {
    poke(msg, kHdrAt + 2, 2, value);
  } else if (name == "seq") {
    poke(msg, kHdrAt + 4, 4, value);
  } else if (name == "ack") {
    poke(msg, kHdrAt + 8, 4, value);
  } else if (name == "flags") {
    poke(msg, kHdrAt + 12, 1, value);
  } else if (name == "window") {
    poke(msg, kHdrAt + 13, 2, value);
  } else if (name == "len") {
    poke(msg, kHdrAt + 15, 2, value);
  } else {
    return false;
  }
  return true;
}

std::optional<xk::Message> TcpStub::generate(
    const std::map<std::string, std::string>& params) const {
  tcp::TcpHeader h;
  net::IpMeta meta;
  meta.proto = net::IpProto::kTcp;
  std::string payload;
  for (const auto& [key, value] : params) {
    if (key == "payload") {
      payload = value;
      continue;
    }
    if (key == "flags") {
      if (value == "syn") {
        h.flags = tcp::kSyn;
        continue;
      }
      if (value == "synack") {
        h.flags = tcp::kSyn | tcp::kAck;
        continue;
      }
      if (value == "ack") {
        h.flags = tcp::kAck;
        continue;
      }
      if (value == "rst") {
        h.flags = tcp::kRst | tcp::kAck;
        continue;
      }
      if (value == "fin") {
        h.flags = tcp::kFin | tcp::kAck;
        continue;
      }
    }
    auto v = parse_int(value);
    if (!v) return std::nullopt;
    if (key == "remote") {
      meta.remote = static_cast<std::uint32_t>(*v);
    } else if (key == "src_port") {
      h.src_port = static_cast<std::uint16_t>(*v);
    } else if (key == "dst_port") {
      h.dst_port = static_cast<std::uint16_t>(*v);
    } else if (key == "seq") {
      h.seq = static_cast<std::uint32_t>(*v);
    } else if (key == "ack") {
      h.ack = static_cast<std::uint32_t>(*v);
    } else if (key == "flags") {
      h.flags = static_cast<std::uint8_t>(*v);
    } else if (key == "window") {
      h.window = static_cast<std::uint16_t>(*v);
    } else {
      return std::nullopt;
    }
  }
  h.payload_len = static_cast<std::uint16_t>(payload.size());
  xk::Message msg{payload};
  h.push_onto(msg);
  meta.push_onto(msg);
  return msg;
}

}  // namespace pfi::core
