// Signatures of the host commands that both script hosts register: the PFI
// layer's filter interpreters and the scripted driver. Declaring them once
// keeps the two registrations accepting the same calls, and pfi_lint, which
// reads the live registrations, sees one signature per name.
#pragma once

#include "script/interp.hpp"

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
