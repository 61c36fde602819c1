// The PFI (probe/fault-injection) layer — the paper's contribution.
//
// Spliced between any two consecutive layers of a protocol stack
// (Stack::insert_below), it intercepts every message in both directions and
// evaluates a Tcl script per message:
//
//   * send filter   — runs on every push (message travelling DOWN),
//   * receive filter — runs on every pop (message travelling UP).
//
// Each filter runs in its own persistent interpreter, so scripts keep state
// (counters, phase flags) across messages; the two interpreters can poke
// each other's variables (peer_set/peer_get), and PFI layers on different
// nodes coordinate through a SyncBus (sync_set/sync_get). Scripts act on the
// current message with the operation families of paper §2.1:
//
//   message filtering    — msg_type, msg_field, msg_len, msg_byte, msg_log
//   message manipulation — xDrop, xDelay, xDuplicate, xCorrupt (msg_set_byte/
//                          msg_set_field/msg_truncate), xHold/xRelease
//                          (reordering)
//   message injection    — xInject (via the generation stub), xInjectHex
//
// plus utilities: distributions (dst_normal/dst_uniform/dst_exponential/
// dst_bernoulli), clocks (now_ms/now_us), deferred scripts (after), and
// trace_note. A script that neither drops, holds, nor delays the current
// message lets it pass unchanged; a script error is counted, logged, and the
// message passes (fail-open, so a typo can't silently black-hole a link).
// These commands are one static table, the host table of every layer's
// interpreters: a command finds its layer through Interp::host() and its
// direction by which of the layer's interpreters called it.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "pfi/stub.hpp"
#include "pfi/sync.hpp"
#include "script/interp.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "trace/trace.hpp"
#include "xk/layer.hpp"

namespace pfi::core {

struct PfiStats {
  std::uint64_t sends_intercepted = 0;
  std::uint64_t recvs_intercepted = 0;
  std::uint64_t dropped = 0;
  std::uint64_t delayed = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t injected = 0;
  std::uint64_t held = 0;
  std::uint64_t released = 0;
  std::uint64_t script_errors = 0;
};

struct PfiConfig {
  std::string node_name = "node";
  trace::TraceLog* trace = nullptr;              // optional
  std::shared_ptr<PacketStub> stub;              // optional (raw mode if null)
  std::shared_ptr<SyncBus> sync;                 // optional
  std::uint64_t rng_seed = 42;
};

class PfiLayer : public xk::Layer {
 public:
  PfiLayer(sim::Scheduler& sched, PfiConfig cfg);
  ~PfiLayer() override;

  /// Install filter scripts, compiled here once; every message runs the
  /// compiled form. Empty script = pass-through. `first_line` is the
  /// 1-based line the script text starts on in its source file (a sectioned
  /// .tcl file — ScriptFile records it), so script errors report
  /// file-absolute lines.
  void set_send_script(const std::string& script, int first_line = 1);
  void set_receive_script(const std::string& script, int first_line = 1);

  /// Evaluate a script once in BOTH interpreters (setup: constants, procs,
  /// `after` schedules). Returns the receive interpreter's result; a send-
  /// side error wins if both fail. On error, Result::line is shifted by
  /// `first_line` so it is file-absolute.
  script::Result run_setup(const std::string& script, int first_line = 1);

  /// Register a user-defined command into both interpreters (the paper's
  /// "user defined procedures ... written in C and linked into the tool").
  /// The interpreters enforce `sig`'s argument count before `fn` runs. A
  /// registration shadows a host command of the same name in this layer.
  void register_command(const script::CommandSig& sig,
                        script::Interp::Command fn);

  [[nodiscard]] script::Interp& send_interp() { return send_interp_; }
  [[nodiscard]] script::Interp& receive_interp() { return receive_interp_; }

  void push(xk::Message msg) override;
  void pop(xk::Message msg) override;

  [[nodiscard]] const PfiStats& stats() const { return stats_; }
  [[nodiscard]] const std::string& last_error() const { return last_error_; }
  [[nodiscard]] const std::string& node_name() const { return cfg_.node_name; }
  [[nodiscard]] PacketStub* stub() const { return cfg_.stub.get(); }

  /// Messages currently parked in a hold queue.
  [[nodiscard]] std::size_t held_count(const std::string& queue) const;

  /// Attach a metrics registry: per-message-type counters
  /// ("pfi.msg_type.ka-heartbeat") and a message-size histogram, counted
  /// live in run_filter. Null detaches (the default). The registry must
  /// outlive the layer or the next detach.
  void set_metrics(obs::Registry* registry);

 private:
  enum class Direction { kDown, kUp };  // push = down (send), pop = up (recv)

  struct MsgCtx {
    xk::Message msg;
    Direction dir = Direction::kDown;
    bool dropped = false;
    bool corrupted = false;
    bool held = false;  // xHold already moved the message into a queue
    sim::Duration delay = 0;
    int duplicates = 0;
  };

  struct HeldMsg {
    xk::Message msg;
    Direction dir;
  };

  /// The host-command table, sorted by name; built on first use.
  static std::span<const script::Binding> host_commands();

  void run_filter(Direction dir, xk::Message msg);
  void forward(Direction dir, xk::Message msg);
  /// Forward up to `count` (< 0: all) messages of a hold queue, oldest
  /// first or, `reversed`, newest first.
  void release(const std::string& queue, bool reversed, std::int64_t count);
  /// Send a message the script built, now or after `delay`.
  void inject(Direction dir, xk::Message msg, sim::Duration delay);
  /// The direction whose filter runs in `interp`, one of this layer's.
  [[nodiscard]] Direction dir_of(const script::Interp& interp) const {
    return &interp == &send_interp_ ? Direction::kDown : Direction::kUp;
  }
  script::Interp& interp_for(Direction dir) {
    return dir == Direction::kDown ? send_interp_ : receive_interp_;
  }
  script::Interp& other_interp(Direction dir) {
    return dir == Direction::kDown ? receive_interp_ : send_interp_;
  }
  [[nodiscard]] std::string type_of(const xk::Message& msg) const;
  void trace_packet(const MsgCtx& ctx, const std::string& verb,
                    const std::string& note) const;
  void count_message(const xk::Message& msg);

  sim::Scheduler& sched_;
  PfiConfig cfg_;
  sim::Rng rng_;
  script::Interp send_interp_;
  script::Interp receive_interp_;
  script::Interp::Program send_program_;     // null: pass-through
  script::Interp::Program receive_program_;  // null: pass-through
  int send_script_line_ = 1;
  int receive_script_line_ = 1;
  MsgCtx* current_ = nullptr;  // valid only during run_filter
  std::map<std::string, std::deque<HeldMsg>> hold_queues_;
  PfiStats stats_;
  std::string last_error_;
  obs::Registry* metrics_ = nullptr;
  obs::Histogram* m_msg_bytes_ = nullptr;
  std::map<std::string, obs::Counter*> m_type_counters_;
  // Single-entry hot cache: protocols emit long runs of one message type,
  // so most messages skip the map lookup entirely.
  std::string m_last_type_;
  obs::Counter* m_last_type_counter_ = nullptr;
  // `after` callbacks capture `this`; invalidate them on destruction.
  std::shared_ptr<bool> alive_;
};

}  // namespace pfi::core
