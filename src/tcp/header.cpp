#include "tcp/header.hpp"

namespace pfi::tcp {

void TcpHeader::push_onto(xk::Message& msg) const {
  xk::Writer w;
  w.u16(src_port);
  w.u16(dst_port);
  w.u32(seq);
  w.u32(ack);
  w.u8(flags);
  w.u16(window);
  w.u16(payload_len);
  w.push_onto(msg);
}

bool TcpHeader::pop_from(xk::Message& msg, TcpHeader& out) {
  if (!peek(msg, 0, out)) return false;
  msg.pop_header(kSize);
  return true;
}

bool TcpHeader::peek(const xk::Message& msg, std::size_t at, TcpHeader& out) {
  if (msg.size() < at + kSize) return false;
  xk::Reader r{msg.bytes().subspan(at)};
  out.src_port = r.u16();
  out.dst_port = r.u16();
  out.seq = r.u32();
  out.ack = r.u32();
  out.flags = r.u8();
  out.window = r.u16();
  out.payload_len = r.u16();
  return !r.truncated();
}

std::string TcpHeader::summary() const {
  std::string out;
  out.reserve(72);  // the longest: every flag, every field at its maximum
  auto flag = [&](Flags f, const char* name) {
    if (has(f)) {
      if (!out.empty()) out += '|';
      out += name;
    }
  };
  flag(kSyn, "SYN");
  flag(kFin, "FIN");
  flag(kRst, "RST");
  flag(kPsh, "PSH");
  flag(kAck, "ACK");
  if (out.empty()) out = "none";
  out += " seq=";
  out += std::to_string(seq);
  out += " ack=";
  out += std::to_string(ack);
  out += " win=";
  out += std::to_string(window);
  out += " len=";
  out += std::to_string(payload_len);
  return out;
}

}  // namespace pfi::tcp
