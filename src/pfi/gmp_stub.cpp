#include "pfi/gmp_stub.hpp"

#include <sstream>
#include <string_view>

#include "gmp/message.hpp"
#include "net/layers.hpp"

namespace pfi::core {

namespace {

constexpr std::size_t kRelAt = net::UdpMeta::kSize;
constexpr std::size_t kGmpAt = kRelAt + gmp::RelHeader::kSize;

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

/// A type name as scripts write it: the short form (`heartbeat`) or the
/// one type_of() reports (`gmp-heartbeat`).
std::optional<gmp::MsgType> type_from_name(std::string_view name) {
  using gmp::MsgType;
  if (name.rfind("gmp-", 0) == 0) name.remove_prefix(4);
  if (name == "heartbeat") return MsgType::kHeartbeat;
  if (name == "proclaim") return MsgType::kProclaim;
  if (name == "join") return MsgType::kJoin;
  if (name == "mc" || name == "membership-change") {
    return MsgType::kMembershipChange;
  }
  if (name == "ack" || name == "mc-ack") return MsgType::kMcAck;
  if (name == "nak" || name == "mc-nak") return MsgType::kMcNak;
  if (name == "commit") return MsgType::kCommit;
  if (name == "death" || name == "death-report") return MsgType::kDeathReport;
  return std::nullopt;
}

void poke(xk::Message& msg, std::size_t at, int width, std::int64_t value) {
  for (int i = 0; i < width; ++i) {
    msg.set_byte(at + static_cast<std::size_t>(i),
                 static_cast<std::uint8_t>(value >> (8 * (width - 1 - i))));
  }
}

}  // namespace

std::string GmpStub::type_of(const xk::Message& msg) const {
  gmp::RelHeader rel;
  if (!gmp::RelHeader::peek(msg, kRelAt, rel)) return "unknown";
  if (rel.kind == gmp::RelKind::kAck) return "rel-ack";
  gmp::MsgType type;
  if (!gmp::GmpMessage::peek_type(msg, kGmpAt, type)) return "unknown";
  switch (type) {
    case gmp::MsgType::kHeartbeat: return "gmp-heartbeat";
    case gmp::MsgType::kProclaim: return "gmp-proclaim";
    case gmp::MsgType::kJoin: return "gmp-join";
    case gmp::MsgType::kMembershipChange: return "gmp-mc";
    case gmp::MsgType::kMcAck: return "gmp-ack";
    case gmp::MsgType::kMcNak: return "gmp-nak";
    case gmp::MsgType::kCommit: return "gmp-commit";
    case gmp::MsgType::kDeathReport: return "gmp-death";
  }
  return "unknown";
}

std::string GmpStub::summary(const xk::Message& msg) const {
  const net::UdpMeta meta = net::UdpMeta::peek(msg);
  gmp::RelHeader rel;
  if (!gmp::RelHeader::peek(msg, kRelAt, rel)) return "runt gmp message";
  std::ostringstream os;
  if (rel.kind == gmp::RelKind::kAck) {
    os << "rel-ack seq=" << rel.seq;
  } else {
    gmp::GmpMessage m;
    if (gmp::GmpMessage::peek(msg, kGmpAt, m)) {
      os << m.summary();
      if (rel.kind == gmp::RelKind::kData) os << " [rel seq=" << rel.seq << "]";
    } else {
      os << "runt gmp payload";
    }
  }
  os << " remote=" << meta.remote;
  return os.str();
}

std::optional<std::int64_t> GmpStub::field(const xk::Message& msg,
                                           const std::string& name) const {
  const net::UdpMeta meta = net::UdpMeta::peek(msg);
  if (name == "remote") return meta.remote;
  if (name == "remote_port") return meta.remote_port;
  if (name == "local_port") return meta.local_port;
  gmp::RelHeader rel;
  if (!gmp::RelHeader::peek(msg, kRelAt, rel)) return std::nullopt;
  if (name == "rel_kind") return static_cast<std::int64_t>(rel.kind);
  if (name == "rel_seq") return rel.seq;
  gmp::GmpMessage m;
  if (!gmp::GmpMessage::peek(msg, kGmpAt, m)) return std::nullopt;
  if (name == "type") return static_cast<std::int64_t>(m.type);
  if (name == "sender") return m.sender;
  if (name == "originator") return m.originator;
  if (name == "subject") return m.subject;
  if (name == "view_id") return static_cast<std::int64_t>(m.view_id);
  if (name == "member_count") {
    return static_cast<std::int64_t>(m.members.size());
  }
  return std::nullopt;
}

bool GmpStub::set_field(xk::Message& msg, const std::string& name,
                        std::int64_t value) const {
  if (name == "remote") {
    poke(msg, 0, 4, value);
    return true;
  }
  if (name == "remote_port") {
    poke(msg, 4, 2, value);
    return true;
  }
  if (name == "local_port") {
    poke(msg, 6, 2, value);
    return true;
  }
  gmp::RelHeader rel;
  if (!gmp::RelHeader::peek(msg, kRelAt, rel)) return false;
  if (name == "rel_seq") {
    poke(msg, kRelAt + 1, 4, value);
    return true;
  }
  gmp::GmpMessage m;
  if (!gmp::GmpMessage::peek(msg, kGmpAt, m)) return false;
  if (name == "type") {
    poke(msg, kGmpAt, 1, value);
  } else if (name == "sender") {
    poke(msg, kGmpAt + 1, 4, value);
  } else if (name == "originator") {
    poke(msg, kGmpAt + 5, 4, value);
  } else if (name == "subject") {
    poke(msg, kGmpAt + 9, 4, value);
  } else if (name == "view_id") {
    poke(msg, kGmpAt + 13, 8, value);
  } else {
    return false;
  }
  return true;
}

std::optional<xk::Message> GmpStub::generate(
    const std::map<std::string, std::string>& params) const {
  gmp::GmpMessage m;
  net::UdpMeta meta;
  meta.remote_port = 7777;
  meta.local_port = 7777;
  for (const auto& [key, value] : params) {
    if (key == "type") {
      auto t = type_from_name(value);
      if (!t) return std::nullopt;
      m.type = *t;
      continue;
    }
    auto v = parse_int(value);
    if (!v) return std::nullopt;
    if (key == "remote") {
      meta.remote = static_cast<std::uint32_t>(*v);
    } else if (key == "remote_port") {
      meta.remote_port = static_cast<std::uint16_t>(*v);
    } else if (key == "local_port") {
      meta.local_port = static_cast<std::uint16_t>(*v);
    } else if (key == "sender") {
      m.sender = static_cast<std::uint32_t>(*v);
    } else if (key == "originator") {
      m.originator = static_cast<std::uint32_t>(*v);
    } else if (key == "subject") {
      m.subject = static_cast<std::uint32_t>(*v);
    } else if (key == "view_id") {
      m.view_id = static_cast<std::uint64_t>(*v);
    } else {
      return std::nullopt;
    }
  }
  xk::Message msg = m.encode();
  gmp::RelHeader rel;
  rel.kind = gmp::RelKind::kRaw;
  rel.push_onto(msg);
  meta.push_onto(msg);
  return msg;
}

}  // namespace pfi::core
