// Recognition/generation stub tests: ToyStub, TcpStub, GmpStub, TpcStub;
// the wire bytes of every header of the stack, and type_of over every cut
// of a message.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "gmp/message.hpp"
#include "net/layers.hpp"
#include "pfi/gmp_stub.hpp"
#include "pfi/stub.hpp"
#include "pfi/tcp_stub.hpp"
#include "pfi/tpc_stub.hpp"
#include "tcp/header.hpp"
#include "tpc/tpc.hpp"
#include "xk/layer.hpp"

namespace pfi::core {
namespace {

TEST(ToyStubTest, RecognisesTypes) {
  ToyStub stub;
  EXPECT_EQ(stub.type_of(ToyStub::make(ToyStub::kAck, 1)), "ack");
  EXPECT_EQ(stub.type_of(ToyStub::make(ToyStub::kNack, 1)), "nack");
  EXPECT_EQ(stub.type_of(ToyStub::make(ToyStub::kGack, 1)), "gack");
  EXPECT_EQ(stub.type_of(ToyStub::make(ToyStub::kData, 1)), "data");
  EXPECT_EQ(stub.type_of(xk::Message{"xy"}), "unknown");
}

TEST(ToyStubTest, FieldsAndSetFields) {
  ToyStub stub;
  xk::Message m = ToyStub::make(ToyStub::kData, 0x01020304, "pp");
  EXPECT_EQ(stub.field(m, "id"), 0x01020304);
  EXPECT_EQ(stub.field(m, "type"), ToyStub::kData);
  EXPECT_EQ(stub.field(m, "len"), 2);
  EXPECT_FALSE(stub.field(m, "bogus").has_value());
  EXPECT_TRUE(stub.set_field(m, "id", 0x0A0B0C0D));
  EXPECT_EQ(stub.field(m, "id"), 0x0A0B0C0D);
}

TEST(ToyStubTest, GenerateFromParams) {
  ToyStub stub;
  auto m = stub.generate({{"type", "nack"}, {"id", "12"}, {"payload", "zz"}});
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(stub.type_of(*m), "nack");
  EXPECT_EQ(stub.field(*m, "id"), 12);
  EXPECT_EQ(stub.field(*m, "len"), 2);
  EXPECT_FALSE(stub.generate({{"type", "garbage"}}).has_value());
}

xk::Message make_tcp_segment(std::uint8_t flags, std::uint32_t seq,
                             std::uint32_t ack, std::string_view payload) {
  tcp::TcpHeader h;
  h.src_port = 1000;
  h.dst_port = 2000;
  h.seq = seq;
  h.ack = ack;
  h.flags = flags;
  h.window = 4096;
  h.payload_len = static_cast<std::uint16_t>(payload.size());
  xk::Message m{payload};
  h.push_onto(m);
  net::IpMeta meta;
  meta.remote = 42;
  meta.proto = net::IpProto::kTcp;
  meta.push_onto(m);
  return m;
}

TEST(TcpStubTest, RecognisesSegmentTypes) {
  TcpStub stub;
  EXPECT_EQ(stub.type_of(make_tcp_segment(tcp::kSyn, 1, 0, "")), "tcp-syn");
  EXPECT_EQ(stub.type_of(make_tcp_segment(tcp::kSyn | tcp::kAck, 1, 2, "")),
            "tcp-synack");
  EXPECT_EQ(stub.type_of(make_tcp_segment(tcp::kAck, 1, 2, "")), "tcp-ack");
  EXPECT_EQ(stub.type_of(make_tcp_segment(tcp::kAck, 1, 2, "pay")),
            "tcp-data");
  EXPECT_EQ(stub.type_of(make_tcp_segment(tcp::kRst | tcp::kAck, 1, 2, "")),
            "tcp-rst");
  EXPECT_EQ(stub.type_of(make_tcp_segment(tcp::kFin | tcp::kAck, 1, 2, "")),
            "tcp-fin");
  EXPECT_EQ(stub.type_of(xk::Message{"short"}), "unknown");
}

TEST(TcpStubTest, FieldsReadable) {
  TcpStub stub;
  xk::Message m = make_tcp_segment(tcp::kAck, 111, 222, "body");
  EXPECT_EQ(stub.field(m, "seq"), 111);
  EXPECT_EQ(stub.field(m, "ack"), 222);
  EXPECT_EQ(stub.field(m, "src_port"), 1000);
  EXPECT_EQ(stub.field(m, "dst_port"), 2000);
  EXPECT_EQ(stub.field(m, "window"), 4096);
  EXPECT_EQ(stub.field(m, "len"), 4);
  EXPECT_EQ(stub.field(m, "remote"), 42);
  EXPECT_EQ(stub.field(m, "ack_flag"), 1);
  EXPECT_EQ(stub.field(m, "syn"), 0);
}

TEST(TcpStubTest, SetFieldRewritesWire) {
  TcpStub stub;
  xk::Message m = make_tcp_segment(tcp::kAck, 111, 222, "");
  EXPECT_TRUE(stub.set_field(m, "seq", 999));
  EXPECT_TRUE(stub.set_field(m, "window", 0));
  EXPECT_TRUE(stub.set_field(m, "remote", 7));
  EXPECT_EQ(stub.field(m, "seq"), 999);
  EXPECT_EQ(stub.field(m, "window"), 0);
  EXPECT_EQ(stub.field(m, "remote"), 7);
  EXPECT_FALSE(stub.set_field(m, "nonsense", 1));
}

TEST(TcpStubTest, GenerateSpuriousAck) {
  TcpStub stub;
  auto m = stub.generate({{"remote", "9"},
                          {"src_port", "5000"},
                          {"dst_port", "6000"},
                          {"seq", "100"},
                          {"ack", "200"},
                          {"flags", "ack"},
                          {"window", "1024"}});
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(stub.type_of(*m), "tcp-ack");
  EXPECT_EQ(stub.field(*m, "remote"), 9);
  EXPECT_EQ(stub.field(*m, "ack"), 200);
  auto rst = stub.generate({{"flags", "rst"}});
  ASSERT_TRUE(rst.has_value());
  EXPECT_EQ(stub.type_of(*rst), "tcp-rst");
}

TEST(TcpStubTest, SummaryMentionsFlagsAndSeq) {
  TcpStub stub;
  const std::string s =
      stub.summary(make_tcp_segment(tcp::kSyn, 7, 0, ""));
  EXPECT_NE(s.find("SYN"), std::string::npos);
  EXPECT_NE(s.find("seq=7"), std::string::npos);
}

xk::Message make_gmp_wire(gmp::MsgType type, net::NodeId sender,
                          gmp::RelKind kind = gmp::RelKind::kRaw) {
  gmp::GmpMessage m;
  m.type = type;
  m.sender = sender;
  m.originator = sender;
  m.view_id = 0x10007;
  m.members = {1, 2};
  xk::Message wire = m.encode();
  gmp::RelHeader rel;
  rel.kind = kind;
  rel.seq = 5;
  rel.push_onto(wire);
  net::UdpMeta meta;
  meta.remote = sender;
  meta.remote_port = 7777;
  meta.local_port = 7777;
  meta.push_onto(wire);
  return wire;
}

TEST(GmpStubTest, RecognisesAllTypes) {
  GmpStub stub;
  using gmp::MsgType;
  EXPECT_EQ(stub.type_of(make_gmp_wire(MsgType::kHeartbeat, 1)),
            "gmp-heartbeat");
  EXPECT_EQ(stub.type_of(make_gmp_wire(MsgType::kProclaim, 1)),
            "gmp-proclaim");
  EXPECT_EQ(stub.type_of(make_gmp_wire(MsgType::kJoin, 1)), "gmp-join");
  EXPECT_EQ(stub.type_of(make_gmp_wire(MsgType::kMembershipChange, 1)),
            "gmp-mc");
  EXPECT_EQ(stub.type_of(make_gmp_wire(MsgType::kMcAck, 1)), "gmp-ack");
  EXPECT_EQ(stub.type_of(make_gmp_wire(MsgType::kMcNak, 1)), "gmp-nak");
  EXPECT_EQ(stub.type_of(make_gmp_wire(MsgType::kCommit, 1)), "gmp-commit");
  EXPECT_EQ(stub.type_of(make_gmp_wire(MsgType::kDeathReport, 1)),
            "gmp-death");
  EXPECT_EQ(stub.type_of(make_gmp_wire(MsgType::kHeartbeat, 1,
                                       gmp::RelKind::kAck)),
            "rel-ack");
}

TEST(GmpStubTest, FieldsReadable) {
  GmpStub stub;
  xk::Message m = make_gmp_wire(gmp::MsgType::kCommit, 3);
  EXPECT_EQ(stub.field(m, "sender"), 3);
  EXPECT_EQ(stub.field(m, "remote"), 3);
  EXPECT_EQ(stub.field(m, "view_id"), 0x10007);
  EXPECT_EQ(stub.field(m, "member_count"), 2);
  EXPECT_EQ(stub.field(m, "rel_seq"), 5);
}

TEST(GmpStubTest, SetFieldRedirectsAndRewrites) {
  GmpStub stub;
  xk::Message m = make_gmp_wire(gmp::MsgType::kProclaim, 3);
  EXPECT_TRUE(stub.set_field(m, "remote", 9));
  EXPECT_TRUE(stub.set_field(m, "sender", 8));
  EXPECT_TRUE(stub.set_field(m, "subject", 4));
  EXPECT_EQ(stub.field(m, "remote"), 9);
  EXPECT_EQ(stub.field(m, "sender"), 8);
  EXPECT_EQ(stub.field(m, "subject"), 4);
}

TEST(GmpStubTest, GenerateForgedDeathReport) {
  GmpStub stub;
  auto m = stub.generate({{"type", "death"},
                          {"sender", "2"},
                          {"originator", "2"},
                          {"subject", "3"},
                          {"remote", "1"}});
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(stub.type_of(*m), "gmp-death");
  EXPECT_EQ(stub.field(*m, "subject"), 3);
  EXPECT_FALSE(stub.generate({{"type", "nonsense"}}).has_value());
}

TEST(GmpStubTest, SummaryHumanReadable) {
  GmpStub stub;
  const std::string s = stub.summary(make_gmp_wire(gmp::MsgType::kCommit, 3));
  EXPECT_NE(s.find("commit"), std::string::npos);
  EXPECT_NE(s.find("members={1,2}"), std::string::npos);
}

xk::Message make_tpc_wire(tpc::MsgType type, std::uint32_t txid) {
  tpc::TpcMessage m;
  m.type = type;
  m.txid = txid;
  m.sender = 5;
  m.decision = tpc::Decision::kCommit;
  m.participants = {1, 2};
  xk::Message wire = m.encode();
  net::UdpMeta meta;
  meta.remote = 5;
  meta.remote_port = 9900;
  meta.local_port = 9900;
  meta.push_onto(wire);
  return wire;
}

TEST(TpcStubTest, RecognisesAllTypes) {
  TpcStub stub;
  using tpc::MsgType;
  EXPECT_EQ(stub.type_of(make_tpc_wire(MsgType::kVoteReq, 1)),
            "tpc-vote-req");
  EXPECT_EQ(stub.type_of(make_tpc_wire(MsgType::kVoteYes, 1)),
            "tpc-vote-yes");
  EXPECT_EQ(stub.type_of(make_tpc_wire(MsgType::kVoteNo, 1)), "tpc-vote-no");
  EXPECT_EQ(stub.type_of(make_tpc_wire(MsgType::kDecision, 1)),
            "tpc-decision");
  EXPECT_EQ(stub.type_of(make_tpc_wire(MsgType::kAck, 1)), "tpc-ack");
  EXPECT_EQ(stub.type_of(make_tpc_wire(MsgType::kDecisionReq, 1)),
            "tpc-decision-req");
  EXPECT_EQ(stub.type_of(xk::Message{"runt"}), "unknown");
}

TEST(TpcStubTest, FieldsAndRewrites) {
  TpcStub stub;
  xk::Message m = make_tpc_wire(tpc::MsgType::kDecision, 77);
  EXPECT_EQ(stub.field(m, "txid"), 77);
  EXPECT_EQ(stub.field(m, "sender"), 5);
  EXPECT_EQ(stub.field(m, "decision"),
            static_cast<std::int64_t>(tpc::Decision::kCommit));
  EXPECT_EQ(stub.field(m, "participant_count"), 2);
  EXPECT_TRUE(stub.set_field(m, "decision",
                             static_cast<std::int64_t>(tpc::Decision::kAbort)));
  EXPECT_EQ(stub.field(m, "decision"),
            static_cast<std::int64_t>(tpc::Decision::kAbort));
  EXPECT_TRUE(stub.set_field(m, "txid", 99));
  EXPECT_EQ(stub.field(m, "txid"), 99);
}

TEST(TpcStubTest, GenerateForgedDecision) {
  TpcStub stub;
  auto m = stub.generate({{"type", "decision"},
                          {"txid", "8"},
                          {"sender", "1"},
                          {"decision", "abort"},
                          {"remote", "3"}});
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(stub.type_of(*m), "tpc-decision");
  EXPECT_EQ(stub.field(*m, "txid"), 8);
  EXPECT_FALSE(stub.generate({{"type", "nonsense"}}).has_value());
  EXPECT_FALSE(stub.generate({{"decision", "maybe"}}).has_value());
}

// --- Wire bytes -------------------------------------------------------------
//
// The bytes each encoder writes, pinned from the output of the accumulate-
// then-copy writer the span writer replaced: a change in any header's
// layout or byte order fails here before it shows in a record.

std::string hex(const xk::Message& m) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : m.bytes()) {
    out += kHex[b >> 4];
    out += kHex[b & 0xF];
  }
  return out;
}

/// Bottom of a test stack: keeps the last frame pushed into it.
class Sink : public xk::Layer {
 public:
  Sink() : Layer("sink") {}
  void push(xk::Message msg) override { last = std::move(msg); }
  void pop(xk::Message msg) override { send_up(std::move(msg)); }
  std::optional<xk::Message> last;
};

/// What `layer` hands down for `msg`.
std::string pushed_through(std::unique_ptr<xk::Layer> layer,
                           xk::Message msg) {
  xk::Stack stack;
  xk::Layer* top = stack.add(std::move(layer));
  auto* sink = static_cast<Sink*>(stack.add(std::make_unique<Sink>()));
  top->push(std::move(msg));
  return sink->last ? hex(*sink->last) : "(nothing)";
}

constexpr net::NodeId kSelf = 0x01020304;
constexpr net::NodeId kRemote = 0x0A0B0C0D;

net::UdpMeta test_udp_meta() {
  net::UdpMeta u;
  u.remote = kRemote;
  u.remote_port = 0x1E61;
  u.local_port = 0x2B67;
  return u;
}

gmp::GmpMessage gmp_mc_with_three_members() {
  gmp::GmpMessage g;
  g.type = gmp::MsgType::kMembershipChange;
  g.sender = 0x11;
  g.originator = 0x22;
  g.subject = 0x33;
  g.view_id = 0x0102030405060708ULL;
  g.members = {1, 2, 0xDEADBEEF};
  return g;
}

tpc::TpcMessage tpc_vote_req_with_three_participants() {
  tpc::TpcMessage t;
  t.type = tpc::MsgType::kVoteReq;
  t.txid = 0x77;
  t.sender = 5;
  t.participants = {1, 2, 3};
  return t;
}

TEST(WireBytes, MetaHeaders) {
  xk::Message ip_meta;
  net::IpMeta ip;
  ip.remote = kRemote;
  ip.proto = net::IpProto::kTcp;
  ip.push_onto(ip_meta);
  EXPECT_EQ(hex(ip_meta), "0a0b0c0d06");

  xk::Message udp_meta;
  test_udp_meta().push_onto(udp_meta);
  EXPECT_EQ(hex(udp_meta), "0a0b0c0d1e612b67");
}

TEST(WireBytes, IpAndUdpHeaders) {
  // IP: src, dst, proto, ttl 64, the payload's length.
  xk::Message down{"abc"};
  net::IpMeta ip;
  ip.remote = kRemote;
  ip.proto = net::IpProto::kUdp;
  ip.push_onto(down);
  EXPECT_EQ(pushed_through(std::make_unique<net::IpLayer>(kSelf),
                           std::move(down)),
            "010203040a0b0c0d11400003616263");

  // UDP: IpMeta, then local port, remote port, the payload's length.
  xk::Message datagram{"abc"};
  test_udp_meta().push_onto(datagram);
  EXPECT_EQ(pushed_through(std::make_unique<net::UdpLayer>(kSelf),
                           std::move(datagram)),
            "0a0b0c0d112b671e610003616263");
}

TEST(WireBytes, RelAndTcpHeaders) {
  xk::Message rel_msg;
  gmp::RelHeader rel;
  rel.kind = gmp::RelKind::kData;
  rel.seq = 0xA1B2C3D4;
  rel.push_onto(rel_msg);
  EXPECT_EQ(hex(rel_msg), "00a1b2c3d4");

  xk::Message segment{"xy"};
  tcp::TcpHeader h;
  h.src_port = 0x1234;
  h.dst_port = 0x5678;
  h.seq = 0x9ABCDEF0;
  h.ack = 0x0FEDCBA9;
  h.flags = tcp::kAck | tcp::kPsh;
  h.window = 0x4000;
  h.payload_len = 2;
  h.push_onto(segment);
  EXPECT_EQ(hex(segment), "123456789abcdef00fedcba918400000027879");
}

TEST(WireBytes, ProtocolBodiesAndToyMessage) {
  EXPECT_EQ(hex(gmp_mc_with_three_members().encode()),
            "0400000011000000220000003301020304050607080003"
            "0000000100000002deadbeef");
  EXPECT_EQ(hex(tpc_vote_req_with_three_participants().encode()),
            "010000007700000005000003"
            "000000010000000200000003");
  EXPECT_EQ(hex(ToyStub::make(ToyStub::kData, 0x01020304, "pp")),
            "08010203047070");
}

// --- type_of over every cut -------------------------------------------------
//
// type_of must name a message as the full decode would: "unknown" for a
// runt, a cut header and a cut member list alike. Each table gives, from a
// length on, the name type_of returned for every cut of that length and
// longer, captured from the stubs that decoded every member.

using CutTable = std::vector<std::pair<std::size_t, std::string>>;

void expect_cuts(const PacketStub& stub, const xk::Message& whole,
                 const CutTable& want) {
  std::size_t row = 0;
  for (std::size_t n = 0; n <= whole.size(); ++n) {
    while (row + 1 < want.size() && want[row + 1].first <= n) ++row;
    const auto b = whole.bytes();
    const xk::Message cut{std::vector<std::uint8_t>(b.begin(), b.begin() + n)};
    EXPECT_EQ(stub.type_of(cut), want[row].second) << "cut at " << n;
  }
}

xk::Message gmp_mc_wire(gmp::RelKind kind) {
  xk::Message wire = gmp_mc_with_three_members().encode();
  gmp::RelHeader rel;
  rel.kind = kind;
  rel.seq = 5;
  rel.push_onto(wire);
  net::UdpMeta meta;
  meta.remote = 3;
  meta.remote_port = 7777;
  meta.local_port = 7777;
  meta.push_onto(wire);
  return wire;
}

xk::Message tpc_vote_req_wire() {
  xk::Message wire = tpc_vote_req_with_three_participants().encode();
  net::UdpMeta meta;
  meta.remote = 5;
  meta.remote_port = 9900;
  meta.local_port = 9900;
  meta.push_onto(wire);
  return wire;
}

TEST(TypeOfCuts, GmpMembershipChangeWithThreeMembers) {
  const xk::Message wire = gmp_mc_wire(gmp::RelKind::kData);
  ASSERT_EQ(wire.size(), 8u + 5u + 23u + 12u);
  expect_cuts(GmpStub{}, wire, {{0, "unknown"}, {48, "gmp-mc"}});
}

TEST(TypeOfCuts, RelAckNeedsOnlyItsHeader) {
  expect_cuts(GmpStub{}, gmp_mc_wire(gmp::RelKind::kAck),
              {{0, "unknown"}, {13, "rel-ack"}});
}

TEST(TypeOfCuts, TpcVoteReqWithThreeParticipants) {
  const xk::Message wire = tpc_vote_req_wire();
  ASSERT_EQ(wire.size(), 8u + 12u + 12u);
  expect_cuts(TpcStub{}, wire, {{0, "unknown"}, {32, "tpc-vote-req"}});
}

TEST(TypeOfCuts, CorruptedCountsAndTypes) {
  // The member count sits at body offset 21 (GMP) and 10 (TPC): a count
  // below the members present still decodes, one above them does not.
  GmpStub gmp_stub;
  const std::size_t count_at = 8 + 5 + 21;
  xk::Message fewer = gmp_mc_wire(gmp::RelKind::kData);
  fewer.set_byte(count_at, 0);
  fewer.set_byte(count_at + 1, 2);
  EXPECT_EQ(gmp_stub.type_of(fewer), "gmp-mc");
  xk::Message more = gmp_mc_wire(gmp::RelKind::kData);
  more.set_byte(count_at, 0xFF);
  more.set_byte(count_at + 1, 0xFF);
  EXPECT_EQ(gmp_stub.type_of(more), "unknown");
  xk::Message bad_type = gmp_mc_wire(gmp::RelKind::kData);
  bad_type.set_byte(8 + 5, 0x42);
  EXPECT_EQ(gmp_stub.type_of(bad_type), "unknown");
  xk::Message bad_kind = gmp_mc_wire(gmp::RelKind::kData);
  bad_kind.set_byte(8, 0x07);  // neither ACK nor a known kind: body decides
  EXPECT_EQ(gmp_stub.type_of(bad_kind), "gmp-mc");

  TpcStub tpc_stub;
  xk::Message tpc_fewer = tpc_vote_req_wire();
  tpc_fewer.set_byte(8 + 10, 0);
  tpc_fewer.set_byte(8 + 11, 1);
  EXPECT_EQ(tpc_stub.type_of(tpc_fewer), "tpc-vote-req");
  xk::Message tpc_more = tpc_vote_req_wire();
  tpc_more.set_byte(8 + 10, 0xFF);
  tpc_more.set_byte(8 + 11, 0xFF);
  EXPECT_EQ(tpc_stub.type_of(tpc_more), "unknown");
}

}  // namespace
}  // namespace pfi::core
