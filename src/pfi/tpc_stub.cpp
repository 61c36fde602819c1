#include "pfi/tpc_stub.hpp"

#include <sstream>
#include <string_view>

#include "net/layers.hpp"
#include "tpc/tpc.hpp"

namespace pfi::core {

namespace {

constexpr std::size_t kTpcAt = net::UdpMeta::kSize;

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

void poke(xk::Message& msg, std::size_t at, int width, std::int64_t value) {
  for (int i = 0; i < width; ++i) {
    msg.set_byte(at + static_cast<std::size_t>(i),
                 static_cast<std::uint8_t>(value >> (8 * (width - 1 - i))));
  }
}

}  // namespace

std::string TpcStub::type_of(const xk::Message& msg) const {
  tpc::MsgType type;
  if (!tpc::TpcMessage::peek_type(msg, kTpcAt, type)) return "unknown";
  switch (type) {
    case tpc::MsgType::kVoteReq: return "tpc-vote-req";
    case tpc::MsgType::kVoteYes: return "tpc-vote-yes";
    case tpc::MsgType::kVoteNo: return "tpc-vote-no";
    case tpc::MsgType::kDecision: return "tpc-decision";
    case tpc::MsgType::kAck: return "tpc-ack";
    case tpc::MsgType::kDecisionReq: return "tpc-decision-req";
  }
  return "unknown";
}

std::string TpcStub::summary(const xk::Message& msg) const {
  tpc::TpcMessage m;
  if (!tpc::TpcMessage::peek(msg, kTpcAt, m)) return "runt tpc message";
  const net::UdpMeta meta = net::UdpMeta::peek(msg);
  std::ostringstream os;
  os << m.summary() << " remote=" << meta.remote;
  return os.str();
}

std::optional<std::int64_t> TpcStub::field(const xk::Message& msg,
                                           const std::string& name) const {
  const net::UdpMeta meta = net::UdpMeta::peek(msg);
  if (name == "remote") return meta.remote;
  tpc::TpcMessage m;
  if (!tpc::TpcMessage::peek(msg, kTpcAt, m)) return std::nullopt;
  if (name == "type") return static_cast<std::int64_t>(m.type);
  if (name == "txid") return m.txid;
  if (name == "sender") return m.sender;
  if (name == "decision") return static_cast<std::int64_t>(m.decision);
  if (name == "participant_count") {
    return static_cast<std::int64_t>(m.participants.size());
  }
  return std::nullopt;
}

bool TpcStub::set_field(xk::Message& msg, const std::string& name,
                        std::int64_t value) const {
  if (name == "remote") {
    poke(msg, 0, 4, value);
    return true;
  }
  tpc::TpcMessage m;
  if (!tpc::TpcMessage::peek(msg, kTpcAt, m)) return false;
  if (name == "type") {
    poke(msg, kTpcAt, 1, value);
  } else if (name == "txid") {
    poke(msg, kTpcAt + 1, 4, value);
  } else if (name == "sender") {
    poke(msg, kTpcAt + 5, 4, value);
  } else if (name == "decision") {
    poke(msg, kTpcAt + 9, 1, value);
  } else {
    return false;
  }
  return true;
}

std::optional<xk::Message> TpcStub::generate(
    const std::map<std::string, std::string>& params) const {
  tpc::TpcMessage m;
  net::UdpMeta meta;
  meta.remote_port = 9900;
  meta.local_port = 9900;
  for (const auto& [key, value] : params) {
    if (key == "type") {
      // The short form (`vote-req`) or the one type_of() reports
      // (`tpc-vote-req`).
      std::string_view type = value;
      if (type.rfind("tpc-", 0) == 0) type.remove_prefix(4);
      if (type == "vote-req") {
        m.type = tpc::MsgType::kVoteReq;
      } else if (type == "vote-yes") {
        m.type = tpc::MsgType::kVoteYes;
      } else if (type == "vote-no") {
        m.type = tpc::MsgType::kVoteNo;
      } else if (type == "decision") {
        m.type = tpc::MsgType::kDecision;
      } else if (type == "ack") {
        m.type = tpc::MsgType::kAck;
      } else if (type == "decision-req") {
        m.type = tpc::MsgType::kDecisionReq;
      } else {
        return std::nullopt;
      }
      continue;
    }
    if (key == "decision") {
      if (value == "commit") {
        m.decision = tpc::Decision::kCommit;
      } else if (value == "abort") {
        m.decision = tpc::Decision::kAbort;
      } else {
        return std::nullopt;
      }
      continue;
    }
    auto v = parse_int(value);
    if (!v) return std::nullopt;
    if (key == "remote") {
      meta.remote = static_cast<std::uint32_t>(*v);
    } else if (key == "txid") {
      m.txid = static_cast<std::uint32_t>(*v);
    } else if (key == "sender") {
      m.sender = static_cast<std::uint32_t>(*v);
    } else {
      return std::nullopt;
    }
  }
  xk::Message msg = m.encode();
  meta.push_onto(msg);
  return msg;
}

}  // namespace pfi::core
