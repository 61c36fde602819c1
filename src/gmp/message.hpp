// GMP wire messages and the reliable-communication header.
//
// The paper's GMP prototype ran "as a user-level server ... on top of UDP"
// with "a reliable communication layer ... implemented using retransmission
// timers and sequence numbers". Stack layout here (top to bottom):
//
//   GmpDaemon | ReliableLayer | [PFI] | UdpLayer | IpLayer | NetDev
//
// Formats (big-endian):
//
//   daemon -> reliable (and reliable -> daemon):
//     UdpMeta (8) | ctrl u8 (0 = raw, 1 = reliable) | GmpMessage
//     (upward the ctrl byte is absent: UdpMeta | GmpMessage)
//
//   reliable -> UDP (what the PFI layer sees, both directions):
//     UdpMeta (8) | RelHeader (5) | GmpMessage
//
//   RelHeader: kind u8 (0 = DATA, 1 = ACK, 2 = RAW) | seq u32
//
//   GmpMessage: type u8 | sender u32 | originator u32 | subject u32 |
//               view_id u64 | member_count u16 | members u32 * n
//               (23 + 4 * n bytes)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/addr.hpp"
#include "xk/message.hpp"

namespace pfi::gmp {

enum class MsgType : std::uint8_t {
  kHeartbeat = 1,
  kProclaim = 2,
  kJoin = 3,
  kMembershipChange = 4,
  kMcAck = 5,
  kMcNak = 6,
  kCommit = 7,
  kDeathReport = 8,
};

std::string to_string(MsgType t);

struct GmpMessage {
  MsgType type = MsgType::kHeartbeat;
  net::NodeId sender = 0;      // who transmitted this copy (forwarders rewrite)
  net::NodeId originator = 0;  // who the message is ultimately from
  net::NodeId subject = 0;     // DEATH_REPORT: the suspected-dead node
  std::uint64_t view_id = 0;
  std::vector<net::NodeId> members;  // MC / COMMIT proposals

  /// Bytes before the members, and where member_count sits among them.
  static constexpr std::size_t kFixedSize = 23;
  static constexpr std::size_t kCountAt = 21;

  [[nodiscard]] xk::Message encode() const;
  static bool decode(const xk::Message& msg, GmpMessage& out);
  /// Parse at a byte offset without consuming (for the recognition stub).
  static bool peek(const xk::Message& msg, std::size_t at, GmpMessage& out);
  /// Just the type of the message at `at`, after the length checks peek
  /// makes (the fixed part, then every member): true iff peek would be.
  static bool peek_type(const xk::Message& msg, std::size_t at, MsgType& out);
  [[nodiscard]] std::string summary() const;
};

enum class RelKind : std::uint8_t { kData = 0, kAck = 1, kRaw = 2 };

struct RelHeader {
  RelKind kind = RelKind::kRaw;
  std::uint32_t seq = 0;

  static constexpr std::size_t kSize = 5;
  void push_onto(xk::Message& msg) const;
  static bool pop_from(xk::Message& msg, RelHeader& out);
  static bool peek(const xk::Message& msg, std::size_t at, RelHeader& out);
};

/// Control byte the daemon prefixes to tell the reliable layer how to ship.
enum class SendMode : std::uint8_t { kRaw = 0, kReliable = 1 };

}  // namespace pfi::gmp
