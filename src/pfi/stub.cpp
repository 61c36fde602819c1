#include "pfi/stub.hpp"

#include <sstream>

namespace pfi::core {

namespace {

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

}  // namespace

std::string ToyStub::type_of(const xk::Message& msg) const {
  if (msg.size() < 5) return "unknown";
  switch (msg.byte_at(0)) {
    case kAck: return "ack";
    case kNack: return "nack";
    case kGack: return "gack";
    case kData: return "data";
    default: return "unknown";
  }
}

std::string ToyStub::summary(const xk::Message& msg) const {
  std::ostringstream os;
  os << type_of(msg);
  if (msg.size() >= 5) {
    os << " id=" << field(msg, "id").value_or(0) << " len=" << msg.size() - 5;
  }
  return os.str();
}

std::optional<std::int64_t> ToyStub::field(const xk::Message& msg,
                                           const std::string& name) const {
  if (msg.size() < 5) return std::nullopt;
  if (name == "type") return msg.byte_at(0);
  if (name == "id") {
    xk::Reader r{msg.bytes().subspan(1)};
    return r.u32();
  }
  if (name == "len") return static_cast<std::int64_t>(msg.size()) - 5;
  return std::nullopt;
}

bool ToyStub::set_field(xk::Message& msg, const std::string& name,
                        std::int64_t value) const {
  if (msg.size() < 5) return false;
  if (name == "type") {
    msg.set_byte(0, static_cast<std::uint8_t>(value));
    return true;
  }
  if (name == "id") {
    const auto v = static_cast<std::uint32_t>(value);
    for (int i = 0; i < 4; ++i) {
      msg.set_byte(static_cast<std::size_t>(1 + i),
                   static_cast<std::uint8_t>(v >> (24 - 8 * i)));
    }
    return true;
  }
  return false;
}

std::optional<xk::Message> ToyStub::generate(
    const std::map<std::string, std::string>& params) const {
  std::uint8_t type = kData;
  std::uint32_t id = 0;
  std::string payload;
  if (auto it = params.find("type"); it != params.end()) {
    if (it->second == "ack") {
      type = kAck;
    } else if (it->second == "nack") {
      type = kNack;
    } else if (it->second == "gack") {
      type = kGack;
    } else if (it->second == "data") {
      type = kData;
    } else if (auto v = parse_int(it->second)) {
      type = static_cast<std::uint8_t>(*v);
    } else {
      return std::nullopt;
    }
  }
  if (auto it = params.find("id"); it != params.end()) {
    auto v = parse_int(it->second);
    if (!v) return std::nullopt;
    id = static_cast<std::uint32_t>(*v);
  }
  if (auto it = params.find("payload"); it != params.end()) {
    payload = it->second;
  }
  return make(type, id, payload);
}

xk::Message ToyStub::make(std::uint8_t type, std::uint32_t id,
                          std::string_view payload) {
  xk::Message msg{payload};
  xk::Writer w{msg.prepend(5)};
  w.u8(type);
  w.u32(id);
  return msg;
}

}  // namespace pfi::core
