// What the two script hosts' command tables share: the PFI layer's filter
// interpreters and the scripted driver. Declaring a shared command's
// signature once keeps the two tables accepting the same calls, and
// pfi_lint, which reads the live interpreters, sees one signature per name.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "script/interp.hpp"
#include "xk/message.hpp"

namespace pfi::core {

/// msg_log's note: its words after the name, space-separated, without a
/// `cur_msg` handle.
inline std::string log_note(const script::CallArgs& a) {
  std::string note;
  for (std::size_t i = 1; i < a.size(); ++i) {
    if (a[i] == "cur_msg") continue;
    if (!note.empty()) note += ' ';
    note += a[i];
  }
  return note;
}

/// The bytes a hex string spells (xInjectHex, drv_send_hex); nullopt for an
/// odd length or a character that is not a hex digit.
inline std::optional<xk::Message> message_from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) return std::nullopt;
  std::vector<std::uint8_t> bytes;
  bytes.reserve(hex.size() / 2);
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    bytes.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return xk::Message{std::move(bytes)};
}

}  // namespace pfi::core

namespace pfi::core::host_sig {

inline constexpr script::CommandSig kMsgType{"msg_type", 0, 1,
                                             "msg_type ?cur_msg?"};
inline constexpr script::CommandSig kMsgLen{"msg_len", 0, 1,
                                            "msg_len ?cur_msg?"};
inline constexpr script::CommandSig kMsgField{"msg_field", 1, 1,
                                              "msg_field name"};
inline constexpr script::CommandSig kMsgLog{"msg_log", 0, -1,
                                            "msg_log ?cur_msg? ?note ...?"};
inline constexpr script::CommandSig kAfter{"after", 2, 2,
                                           "after milliseconds script"};
inline constexpr script::CommandSig kNowMs{"now_ms", 0, 0, "now_ms"};
inline constexpr script::CommandSig kDstBernoulli{"dst_bernoulli", 1, 1,
                                                  "dst_bernoulli p"};
inline constexpr script::CommandSig kSyncSet{"sync_set", 2, 2,
                                             "sync_set name value"};
inline constexpr script::CommandSig kSyncGet{"sync_get", 1, 2,
                                             "sync_get name ?default?"};

}  // namespace pfi::core::host_sig
