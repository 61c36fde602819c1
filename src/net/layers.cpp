#include "net/layers.hpp"

namespace pfi::net {

namespace {

constexpr std::size_t kIpHeaderSize = 12;
constexpr std::size_t kUdpHeaderSize = 6;

}  // namespace

void IpMeta::push_onto(xk::Message& msg) const {
  xk::Writer w{msg.prepend(kSize)};
  w.u32(remote);
  w.u8(static_cast<std::uint8_t>(proto));
}

IpMeta IpMeta::pop_from(xk::Message& msg) {
  IpMeta meta = peek(msg);
  msg.pop_header(kSize);
  return meta;
}

IpMeta IpMeta::peek(const xk::Message& msg) {
  xk::Reader r{msg};
  IpMeta meta;
  meta.remote = r.u32();
  meta.proto = static_cast<IpProto>(r.u8());
  return meta;
}

void UdpMeta::push_onto(xk::Message& msg) const {
  xk::Writer w{msg.prepend(kSize)};
  w.u32(remote);
  w.u16(remote_port);
  w.u16(local_port);
}

UdpMeta UdpMeta::pop_from(xk::Message& msg) {
  UdpMeta meta = peek(msg);
  msg.pop_header(kSize);
  return meta;
}

UdpMeta UdpMeta::peek(const xk::Message& msg) {
  xk::Reader r{msg};
  UdpMeta meta;
  meta.remote = r.u32();
  meta.remote_port = r.u16();
  meta.local_port = r.u16();
  return meta;
}

NetDev::NetDev(Network& network, NodeId self)
    : Layer("netdev"), network_(network), self_(self) {
  network_.attach(self_, [this](xk::Message msg) { send_up(std::move(msg)); });
}

NetDev::~NetDev() { network_.detach(self_); }

void NetDev::push(xk::Message msg) {
  // The IP header is outermost here; dst sits at bytes [4,8). This models the
  // ARP-resolved link destination without a separate link header.
  xk::Reader r{msg};
  r.u32();  // src
  const NodeId dst = r.u32();
  if (r.truncated()) return;  // malformed runt frame: drop
  network_.transmit(self_, dst, std::move(msg));
}

void NetDev::pop(xk::Message msg) { send_up(std::move(msg)); }

IpLayer::IpLayer(NodeId self) : Layer("ip"), self_(self) {}

void IpLayer::push(xk::Message msg) {
  const IpMeta meta = IpMeta::pop_from(msg);
  const auto len = static_cast<std::uint16_t>(msg.size());
  xk::Writer w{msg.prepend(kIpHeaderSize)};
  w.u32(self_);            // src
  w.u32(meta.remote);      // dst
  w.u8(static_cast<std::uint8_t>(meta.proto));
  w.u8(64);                // ttl
  w.u16(len);              // the payload's, not counting this header
  send_down(std::move(msg));
}

void IpLayer::pop(xk::Message msg) {
  xk::Reader r{msg};
  const NodeId src = r.u32();
  const NodeId dst = r.u32();
  const auto proto = static_cast<IpProto>(r.u8());
  r.u8();   // ttl
  r.u16();  // len
  if (r.truncated()) return;
  if (dst != self_ && dst != kBroadcast) return;  // not ours
  msg.pop_header(kIpHeaderSize);
  IpMeta meta;
  meta.remote = src;
  meta.proto = proto;
  meta.push_onto(msg);
  send_up(std::move(msg));
}

UdpLayer::UdpLayer(NodeId self) : Layer("udp"), self_(self) {}

void UdpLayer::push(xk::Message msg) {
  const UdpMeta meta = UdpMeta::pop_from(msg);
  const auto len = static_cast<std::uint16_t>(msg.size());
  xk::Writer w{msg.prepend(kUdpHeaderSize)};
  w.u16(meta.local_port);
  w.u16(meta.remote_port);
  w.u16(len);  // the payload's, not counting this header
  IpMeta ip;
  ip.remote = meta.remote;
  ip.proto = IpProto::kUdp;
  ip.push_onto(msg);
  send_down(std::move(msg));
}

void UdpLayer::pop(xk::Message msg) {
  const IpMeta ip = IpMeta::pop_from(msg);
  if (ip.proto != IpProto::kUdp) return;
  xk::Reader r{msg};
  const Port src_port = r.u16();
  const Port dst_port = r.u16();
  r.u16();  // len
  if (r.truncated()) return;
  msg.pop_header(kUdpHeaderSize);
  UdpMeta meta;
  meta.remote = ip.remote;
  meta.remote_port = src_port;
  meta.local_port = dst_port;
  meta.push_onto(msg);
  send_up(std::move(msg));
}

}  // namespace pfi::net
