#include "pfi/pfi_layer.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "pfi/host_commands.hpp"

namespace pfi::core {

namespace {

using script::Result;

std::optional<std::int64_t> to_int(const std::string& s) {
  std::int64_t v = 0;
  auto r = std::from_chars(s.data(), s.data() + s.size(), v, 10);
  if (r.ec == std::errc{} && r.ptr == s.data() + s.size()) return v;
  // Accept 0x hex too (message types are often written in hex).
  if (s.size() > 2 && (s[0] == '0') && (s[1] == 'x' || s[1] == 'X')) {
    r = std::from_chars(s.data() + 2, s.data() + s.size(), v, 16);
    if (r.ec == std::errc{} && r.ptr == s.data() + s.size()) return v;
  }
  return std::nullopt;
}

std::optional<double> to_double(const std::string& s) {
  double v = 0;
  auto r = std::from_chars(s.data(), s.data() + s.size(), v);
  if (r.ec == std::errc{} && r.ptr == s.data() + s.size()) return v;
  return std::nullopt;
}

std::string to_hex(const xk::Message& msg) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(msg.size() * 2);
  for (std::uint8_t b : msg.bytes()) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xF]);
  }
  return out;
}

}  // namespace

PfiLayer::PfiLayer(sim::Scheduler& sched, PfiConfig cfg)
    : Layer("pfi"),
      sched_(sched),
      cfg_(std::move(cfg)),
      rng_(cfg_.rng_seed),
      send_interp_(host_commands(), this),
      receive_interp_(host_commands(), this),
      alive_(std::make_shared<bool>(true)) {}

PfiLayer::~PfiLayer() { *alive_ = false; }

script::Result PfiLayer::run_setup(const std::string& script, int first_line) {
  Result s = send_interp_.eval(script);
  Result r = receive_interp_.eval(script);
  Result out = s.is_error() ? std::move(s) : std::move(r);
  if (out.is_error() && out.line > 0) out.line += first_line - 1;
  return out;
}

void PfiLayer::set_send_script(const std::string& script, int first_line) {
  send_program_ = script.empty() ? nullptr : send_interp_.compile(script);
  send_script_line_ = first_line;
}

void PfiLayer::set_receive_script(const std::string& script,
                                  int first_line) {
  receive_program_ =
      script.empty() ? nullptr : receive_interp_.compile(script);
  receive_script_line_ = first_line;
}

void PfiLayer::register_command(const script::CommandSig& sig,
                                script::Interp::Command fn) {
  send_interp_.register_command(sig, fn);
  receive_interp_.register_command(sig, std::move(fn));
}

void PfiLayer::push(xk::Message msg) {
  ++stats_.sends_intercepted;
  run_filter(Direction::kDown, std::move(msg));
}

void PfiLayer::pop(xk::Message msg) {
  ++stats_.recvs_intercepted;
  run_filter(Direction::kUp, std::move(msg));
}

std::size_t PfiLayer::held_count(const std::string& queue) const {
  auto it = hold_queues_.find(queue);
  return it == hold_queues_.end() ? 0 : it->second.size();
}

void PfiLayer::set_metrics(obs::Registry* registry) {
  metrics_ = registry;
  m_type_counters_.clear();
  m_last_type_.clear();
  m_last_type_counter_ = nullptr;
  m_msg_bytes_ =
      registry != nullptr ? &registry->histogram("pfi.msg_bytes") : nullptr;
}

void PfiLayer::count_message(const xk::Message& msg) {
  // Per-message cost budget: one histogram observe + one counter inc via the
  // single-entry type cache. Filter-invocation counts need no live counter —
  // they are already in PfiStats (sends/recvs_intercepted), exported into
  // the registry at collect time.
  if (metrics_ == nullptr) return;
  PFI_OBS_OBSERVE(m_msg_bytes_, msg.size());
  std::string type = type_of(msg);
  if (m_last_type_counter_ == nullptr || type != m_last_type_) {
    auto [it, fresh] = m_type_counters_.try_emplace(std::move(type));
    if (fresh) {
      it->second = &metrics_->counter("pfi.msg_type." + it->first);
    }
    m_last_type_ = it->first;
    m_last_type_counter_ = it->second;
  }
  PFI_OBS_INC(m_last_type_counter_);
}

void PfiLayer::run_filter(Direction dir, xk::Message msg) {
  count_message(msg);
  MsgCtx ctx;
  ctx.msg = std::move(msg);
  ctx.dir = dir;

  const script::Interp::Program& program =
      dir == Direction::kDown ? send_program_ : receive_program_;
  if (program != nullptr) {
    current_ = &ctx;
    Result r = interp_for(dir).eval(program);
    current_ = nullptr;
    if (r.is_error()) {
      ++stats_.script_errors;
      // Report the file-absolute line of the failing top-level command
      // ("line 12: invalid command name ..."), offset by where this
      // section sits in its source file.
      last_error_ = r.value;
      if (r.line > 0) {
        const int offset =
            dir == Direction::kDown ? send_script_line_ : receive_script_line_;
        last_error_ = "line " + std::to_string(r.line + offset - 1) + ": " +
                      r.value;
      }
      if (cfg_.trace != nullptr) {
        cfg_.trace->add(sched_.now(), cfg_.node_name, "error", "pfi-script",
                        last_error_);
      }
    }
  }

  if (ctx.held) return;  // already parked in a hold queue by xHold
  if (ctx.dropped) {
    ++stats_.dropped;
    return;
  }
  if (ctx.corrupted) ++stats_.corrupted;
  const int copies = 1 + ctx.duplicates;
  stats_.duplicated += static_cast<std::uint64_t>(ctx.duplicates);
  if (ctx.delay > 0) ++stats_.delayed;
  auto emit = [&](xk::Message m) {
    if (ctx.delay > 0) {
      sched_.schedule(ctx.delay,
                      [this, alive = alive_, dir, m = std::move(m)]() mutable {
                        if (*alive) forward(dir, std::move(m));
                      });
    } else {
      forward(dir, std::move(m));
    }
  };
  for (int i = 1; i < copies; ++i) emit(ctx.msg);
  if (copies > 0) emit(std::move(ctx.msg));  // the last copy takes the message
}

void PfiLayer::forward(Direction dir, xk::Message msg) {
  if (dir == Direction::kDown) {
    send_down(std::move(msg));
  } else {
    send_up(std::move(msg));
  }
}

std::string PfiLayer::type_of(const xk::Message& msg) const {
  if (cfg_.stub == nullptr) return "raw";
  return cfg_.stub->type_of(msg);
}

void PfiLayer::trace_packet(const MsgCtx& ctx, const std::string& verb,
                            const std::string& note) const {
  if (cfg_.trace == nullptr) return;
  std::string detail =
      cfg_.stub != nullptr ? cfg_.stub->summary(ctx.msg) : ctx.msg.printable();
  if (!note.empty()) detail += " | " + note;
  cfg_.trace->add(sched_.now(), cfg_.node_name, verb, type_of(ctx.msg),
                  std::move(detail));
}

void PfiLayer::release(const std::string& queue, bool reversed,
                       std::int64_t count) {
  auto it = hold_queues_.find(queue);
  if (it == hold_queues_.end()) return;
  auto& q = it->second;
  std::vector<HeldMsg> batch;
  while (!q.empty() &&
         (count < 0 || static_cast<std::int64_t>(batch.size()) < count)) {
    if (reversed) {
      batch.push_back(std::move(q.back()));
      q.pop_back();
    } else {
      batch.push_back(std::move(q.front()));
      q.pop_front();
    }
  }
  for (auto& held : batch) {
    ++stats_.released;
    forward(held.dir, std::move(held.msg));
  }
}

void PfiLayer::inject(Direction dir, xk::Message msg, sim::Duration delay) {
  ++stats_.injected;
  if (cfg_.trace != nullptr) {
    std::string detail =
        cfg_.stub != nullptr ? cfg_.stub->summary(msg) : msg.printable();
    cfg_.trace->add(sched_.now(), cfg_.node_name, "inject", type_of(msg),
                    detail);
  }
  if (delay > 0) {
    sched_.schedule(delay,
                    [this, alive = alive_, dir, m = std::move(msg)]() mutable {
                      if (*alive) forward(dir, std::move(m));
                    });
  } else {
    forward(dir, std::move(msg));
  }
}

// ---------------------------------------------------------------------------
// Script command library
// ---------------------------------------------------------------------------

namespace {

using script::CallArgs;
using script::Interp;

PfiLayer& layer_of(Interp& in) { return *static_cast<PfiLayer*>(in.host()); }

/// A message command run outside a filter; word 0 is the command's name.
Result no_message(const CallArgs& a) {
  return Result::error(a[0] + ": no current message");
}

}  // namespace

std::span<const script::Binding> PfiLayer::host_commands() {
  using script::CommandSig;

  // The paper's scripts pass a `cur_msg` handle ("msg_type cur_msg"); there
  // is exactly one current message per filter run, so the handle argument is
  // accepted and ignored.

  static constexpr CommandSig kXDelay{"xDelay", 1, 2,
                                      "xDelay ?cur_msg? milliseconds"};
  static constexpr CommandSig kXDuplicate{"xDuplicate", 0, 2,
                                          "xDuplicate ?cur_msg? ?count?"};
  static constexpr CommandSig kXInject{"xInject", 1, -1,
                                       "xInject up|down ?key value ...?"};

  static constexpr script::CommandDef kCommands[] = {
      {host_sig::kMsgType, [](Interp& in, const CallArgs& a) -> Result {
        const PfiLayer& l = layer_of(in);
        if (l.current_ == nullptr) return no_message(a);
        return Result::ok(l.type_of(l.current_->msg));
      }},

      {host_sig::kMsgLen, [](Interp& in, const CallArgs& a) -> Result {
        const MsgCtx* ctx = layer_of(in).current_;
        if (ctx == nullptr) return no_message(a);
        return Result::ok(std::to_string(ctx->msg.size()));
      }},

      {{"msg_byte", 1, 1, "msg_byte index"},
       [](Interp& in, const CallArgs& a) -> Result {
         const MsgCtx* ctx = layer_of(in).current_;
         if (ctx == nullptr) return no_message(a);
         auto i = to_int(a[1]);
         if (!i || *i < 0) return Result::error("msg_byte: bad index");
         return Result::ok(
             std::to_string(ctx->msg.byte_at(static_cast<std::size_t>(*i))));
       }},

      {{"msg_set_byte", 2, 2, "msg_set_byte index value"},
       [](Interp& in, const CallArgs& a) -> Result {
         MsgCtx* ctx = layer_of(in).current_;
         if (ctx == nullptr) return no_message(a);
         auto i = to_int(a[1]);
         auto v = to_int(a[2]);
         if (!i || !v || *i < 0) return Result::error("msg_set_byte: bad args");
         ctx->msg.set_byte(static_cast<std::size_t>(*i),
                           static_cast<std::uint8_t>(*v));
         ctx->corrupted = true;
         return Result::ok();
       }},

      {{"msg_truncate", 1, 1, "msg_truncate length"},
       [](Interp& in, const CallArgs& a) -> Result {
         MsgCtx* ctx = layer_of(in).current_;
         if (ctx == nullptr) return no_message(a);
         auto n = to_int(a[1]);
         if (!n || *n < 0) return Result::error("msg_truncate: bad length");
         ctx->msg.truncate(static_cast<std::size_t>(*n));
         ctx->corrupted = true;
         return Result::ok();
       }},

      {host_sig::kMsgField, [](Interp& in, const CallArgs& a) -> Result {
        const PfiLayer& l = layer_of(in);
        if (l.current_ == nullptr) return no_message(a);
        if (l.cfg_.stub == nullptr) return Result::error("msg_field: no stub");
        auto v = l.cfg_.stub->field(l.current_->msg, a[1]);
        if (!v) return Result::error("msg_field: no field \"" + a[1] + "\"");
        return Result::ok(std::to_string(*v));
      }},

      {{"msg_set_field", 2, 2, "msg_set_field name value"},
       [](Interp& in, const CallArgs& a) -> Result {
         const PfiLayer& l = layer_of(in);
         MsgCtx* ctx = l.current_;
         if (ctx == nullptr) return no_message(a);
         if (l.cfg_.stub == nullptr) {
           return Result::error("msg_set_field: no stub");
         }
         auto v = to_int(a[2]);
         if (!v) return Result::error("msg_set_field: bad value");
         if (!l.cfg_.stub->set_field(ctx->msg, a[1], *v)) {
           return Result::error("msg_set_field: can't set \"" + a[1] + "\"");
         }
         ctx->corrupted = true;
         return Result::ok();
       }},

      {{"msg_hex", 0, 1, "msg_hex ?cur_msg?"},
       [](Interp& in, const CallArgs& a) -> Result {
         const MsgCtx* ctx = layer_of(in).current_;
         if (ctx == nullptr) return no_message(a);
         return Result::ok(to_hex(ctx->msg));
       }},

      {host_sig::kMsgLog, [](Interp& in, const CallArgs& a) -> Result {
        const PfiLayer& l = layer_of(in);
        if (l.current_ == nullptr) return no_message(a);
        const bool send = l.dir_of(in) == Direction::kDown;
        l.trace_packet(*l.current_, send ? "send" : "recv", log_note(a));
        return Result::ok();
      }},

      // --- manipulation ------------------------------------------------------

      {{"xDrop", 0, 1, "xDrop ?cur_msg?"},
       [](Interp& in, const CallArgs& a) -> Result {
         MsgCtx* ctx = layer_of(in).current_;
         if (ctx == nullptr) return no_message(a);
         ctx->dropped = true;
         return Result::ok();
       }},

      {kXDelay, [](Interp& in, const CallArgs& a) -> Result {
        MsgCtx* ctx = layer_of(in).current_;
        if (ctx == nullptr) return no_message(a);
        if (a.size() == 3 && a[1] != "cur_msg") {
          return script::wrong_args(kXDelay.usage);
        }
        auto ms = to_int(a.back());
        if (!ms || *ms < 0) return Result::error("xDelay: bad delay");
        ctx->delay = sim::msec(*ms);
        return Result::ok();
      }},

      {kXDuplicate, [](Interp& in, const CallArgs& a) -> Result {
        MsgCtx* ctx = layer_of(in).current_;
        if (ctx == nullptr) return no_message(a);
        // The handle is optional, as for xDelay: `xDuplicate cur_msg 3`.
        const bool handle = a.size() > 1 && a[1] == "cur_msg";
        if (a.size() == 3 && !handle) {
          return script::wrong_args(kXDuplicate.usage);
        }
        std::int64_t n = 1;
        if (a.size() == (handle ? 3u : 2u)) {
          auto v = to_int(a.back());
          if (!v || *v < 0) return Result::error("xDuplicate: bad count");
          n = *v;
        }
        ctx->duplicates = static_cast<int>(n);
        return Result::ok();
      }},

      {{"xHold", 1, 1, "xHold queueName"},
       [](Interp& in, const CallArgs& a) -> Result {
         PfiLayer& l = layer_of(in);
         MsgCtx* ctx = l.current_;
         if (ctx == nullptr) return no_message(a);
         if (ctx->held) return Result::error("xHold: message already held");
         // Park immediately so xHeldCount in the same filter run sees it —
         // that is what makes "hold until N accumulate, then release" work.
         l.hold_queues_[a[1]].push_back(HeldMsg{std::move(ctx->msg), ctx->dir});
         ctx->held = true;
         ++l.stats_.held;
         return Result::ok();
       }},

      {{"xRelease", 1, 2, "xRelease queueName ?count?"},
       [](Interp& in, const CallArgs& a) -> Result {
         std::int64_t count = -1;
         if (a.size() == 3) {
           auto v = to_int(a[2]);
           if (!v) return Result::error("xRelease: bad count");
           count = *v;
         }
         layer_of(in).release(a[1], false, count);
         return Result::ok();
       }},

      {{"xReleaseReversed", 1, 1, "xReleaseReversed queueName"},
       [](Interp& in, const CallArgs& a) -> Result {
         layer_of(in).release(a[1], true, -1);
         return Result::ok();
       }},

      {{"xHeldCount", 1, 1, "xHeldCount queueName"},
       [](Interp& in, const CallArgs& a) -> Result {
         return Result::ok(std::to_string(layer_of(in).held_count(a[1])));
       }},

      // Kill the *hosting* process, not the simulated node — a
      // fault-injection fixture for testing that a crashing testbed is
      // contained by the campaign sandbox (--isolate). Never use outside
      // sandboxed runs.
      {{"xCrashProcess", 0, 0, "xCrashProcess"},
       [](Interp&, const CallArgs&) -> Result {
         std::fflush(nullptr);  // don't lose buffered trace output
         std::abort();          // SIGABRT; unreachable return
       }},

      // --- injection ---------------------------------------------------------

      {kXInject, [](Interp& in, const CallArgs& a) -> Result {
        PfiLayer& l = layer_of(in);
        if (a.size() % 2 != 0) return script::wrong_args(kXInject.usage);
        if (a[1] != "up" && a[1] != "down") {
          return Result::error("xInject: direction must be up or down");
        }
        if (l.cfg_.stub == nullptr) return Result::error("xInject: no stub");
        std::map<std::string, std::string> params;
        for (std::size_t i = 2; i + 1 < a.size(); i += 2) {
          params[a[i]] = a[i + 1];
        }
        auto msg = l.cfg_.stub->generate(params);
        if (!msg) return Result::error("xInject: stub can't generate message");
        l.inject(a[1] == "down" ? Direction::kDown : Direction::kUp,
                 std::move(*msg), 0);
        return Result::ok();
      }},

      {{"xInjectHex", 2, 3, "xInjectHex up|down hexBytes ?delayMs?"},
       [](Interp& in, const CallArgs& a) -> Result {
         if (a[1] != "up" && a[1] != "down") {
           return Result::error("xInjectHex: direction must be up or down");
         }
         auto msg = message_from_hex(a[2]);
         if (!msg) return Result::error("xInjectHex: bad hex string");
         sim::Duration delay = 0;
         if (a.size() == 4) {
           auto ms = to_int(a[3]);
           if (!ms || *ms < 0) return Result::error("xInjectHex: bad delay");
           delay = sim::msec(*ms);
         }
         layer_of(in).inject(a[1] == "down" ? Direction::kDown : Direction::kUp,
                             std::move(*msg), delay);
         return Result::ok();
       }},

      // --- clocks, distributions, misc ---------------------------------------

      {{"now_us", 0, 0, "now_us"}, [](Interp& in, const CallArgs&) {
        return Result::ok(std::to_string(layer_of(in).sched_.now()));
      }},
      {host_sig::kNowMs, [](Interp& in, const CallArgs&) {
        return Result::ok(
            std::to_string(layer_of(in).sched_.now() / sim::kMillisecond));
      }},
      {{"now_s", 0, 0, "now_s"}, [](Interp& in, const CallArgs&) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6f",
                      sim::to_seconds(layer_of(in).sched_.now()));
        return Result::ok(buf);
      }},

      {{"dst_normal", 2, 2, "dst_normal mean variance"},
       [](Interp& in, const CallArgs& a) -> Result {
         auto mean = to_double(a[1]);
         auto var = to_double(a[2]);
         if (!mean || !var) return Result::error("dst_normal: bad args");
         char buf[64];
         std::snprintf(buf, sizeof buf, "%.6f",
                       layer_of(in).rng_.normal(*mean, *var));
         return Result::ok(buf);
       }},

      {{"dst_uniform", 2, 2, "dst_uniform lo hi"},
       [](Interp& in, const CallArgs& a) -> Result {
         auto lo = to_double(a[1]);
         auto hi = to_double(a[2]);
         if (!lo || !hi) return Result::error("dst_uniform: bad args");
         char buf[64];
         std::snprintf(buf, sizeof buf, "%.6f",
                       layer_of(in).rng_.uniform(*lo, *hi));
         return Result::ok(buf);
       }},

      {{"dst_exponential", 1, 1, "dst_exponential mean"},
       [](Interp& in, const CallArgs& a) -> Result {
         auto mean = to_double(a[1]);
         if (!mean) return Result::error("dst_exponential: bad args");
         char buf[64];
         std::snprintf(buf, sizeof buf, "%.6f",
                       layer_of(in).rng_.exponential(*mean));
         return Result::ok(buf);
       }},

      {host_sig::kDstBernoulli, [](Interp& in, const CallArgs& a) -> Result {
        auto p = to_double(a[1]);
        if (!p) return Result::error("dst_bernoulli: bad args");
        return Result::ok(layer_of(in).rng_.bernoulli(*p) ? "1" : "0");
      }},

      // --- cross-interpreter and cross-node state ----------------------------

      {{"peer_set", 2, 2, "peer_set name value"},
       [](Interp& in, const CallArgs& a) -> Result {
         PfiLayer& l = layer_of(in);
         l.other_interp(l.dir_of(in)).set_global(a[1], a[2]);
         return Result::ok();
       }},

      {{"peer_get", 1, 2, "peer_get name ?default?"},
       [](Interp& in, const CallArgs& a) -> Result {
         PfiLayer& l = layer_of(in);
         auto v = l.other_interp(l.dir_of(in)).get_global(a[1]);
         if (v) return Result::ok(*v);
         if (a.size() == 3) return Result::ok(a[2]);
         return Result::error("peer_get: no such variable \"" + a[1] + "\"");
       }},

      {host_sig::kSyncSet, [](Interp& in, const CallArgs& a) -> Result {
        SyncBus* sync = layer_of(in).cfg_.sync.get();
        if (sync == nullptr) return Result::error("sync_set: no sync bus");
        sync->set(a[1], a[2]);
        return Result::ok();
      }},

      {host_sig::kSyncGet, [](Interp& in, const CallArgs& a) -> Result {
        SyncBus* sync = layer_of(in).cfg_.sync.get();
        if (sync == nullptr) return Result::error("sync_get: no sync bus");
        auto v = sync->get(a[1]);
        if (v) return Result::ok(*v);
        if (a.size() == 3) return Result::ok(a[2]);
        return Result::error("sync_get: no such entry \"" + a[1] + "\"");
      }},

      {{"sync_incr", 1, 2, "sync_incr name ?by?"},
       [](Interp& in, const CallArgs& a) -> Result {
         SyncBus* sync = layer_of(in).cfg_.sync.get();
         if (sync == nullptr) return Result::error("sync_incr: no sync bus");
         std::int64_t by = 1;
         if (a.size() == 3) {
           auto v = to_int(a[2]);
           if (!v) return Result::error("sync_incr: bad increment");
           by = *v;
         }
         return Result::ok(std::to_string(sync->incr(a[1], by)));
       }},

      {host_sig::kAfter, [](Interp& in, const CallArgs& a) -> Result {
        PfiLayer& l = layer_of(in);
        auto ms = to_int(a[1]);
        if (!ms || *ms < 0) return Result::error("after: bad delay");
        l.sched_.schedule(sim::msec(*ms), [&l, alive = l.alive_,
                                           dir = l.dir_of(in), body = a[2]] {
          if (!*alive) return;
          Result r = l.interp_for(dir).eval(body);
          if (r.is_error()) {
            ++l.stats_.script_errors;
            l.last_error_ = r.value;
          }
        });
        return Result::ok();
      }},

      {{"trace_note", 0, -1, "trace_note ?word ...?"},
       [](Interp& in, const CallArgs& a) -> Result {
         const PfiLayer& l = layer_of(in);
         std::string note;
         for (std::size_t i = 1; i < a.size(); ++i) {
           if (!note.empty()) note += ' ';
           note += a[i];
         }
         if (l.cfg_.trace != nullptr) {
           l.cfg_.trace->add(l.sched_.now(), l.cfg_.node_name, "note",
                             "pfi-note", note);
         }
         return Result::ok();
       }},

      {{"node_name", 0, 0, "node_name"}, [](Interp& in, const CallArgs&) {
        return Result::ok(layer_of(in).cfg_.node_name);
      }},

      {{"filter_dir", 0, 0, "filter_dir"}, [](Interp& in, const CallArgs&) {
        const bool send = layer_of(in).dir_of(in) == Direction::kDown;
        return Result::ok(send ? "send" : "recv");
      }},
  };
  static const std::vector<script::Binding> table =
      script::command_table(kCommands);
  return table;
}

}  // namespace pfi::core
