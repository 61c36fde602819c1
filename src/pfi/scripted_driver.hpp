// Script-driven driver layer (paper Figure 1(a)).
//
// "The driver and PFI layers run scripts which control their actions as
// messages are exchanged" — the driver sits ON TOP of the target protocol,
// generates protocol-valid traffic, and reacts to what comes up the stack.
// ScriptedDriver is that top layer with a Tcl interpreter of its own:
//
//   * a SETUP script runs once at start (typically arms an `after` loop
//     that keeps generating messages);
//   * a RECEIVE script runs for every message popped up to the driver,
//     with the usual msg_* commands available;
//   * `drv_send key value ...` builds a message through the generation stub
//     and pushes it DOWN the stack; `drv_send_hex` pushes raw bytes;
//   * counters/state persist in the interpreter, and the driver shares a
//     SyncBus with PFI layers so the two can "communicate with each other
//     during the test and coerce the system into certain states".
// Its commands are one static table, the host table of every driver's
// interpreter; each finds its driver through Interp::host().
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "pfi/stub.hpp"
#include "pfi/sync.hpp"
#include "script/interp.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "trace/trace.hpp"
#include "xk/layer.hpp"

namespace pfi::core {

struct DriverStats {
  std::uint64_t generated = 0;
  std::uint64_t received = 0;
  std::uint64_t script_errors = 0;
};

class ScriptedDriver : public xk::Layer {
 public:
  struct Config {
    std::string node_name = "driver";
    trace::TraceLog* trace = nullptr;
    std::shared_ptr<PacketStub> stub;  // for drv_send / msg_* commands
    std::shared_ptr<SyncBus> sync;
    std::uint64_t rng_seed = 7;
  };

  ScriptedDriver(sim::Scheduler& sched, Config cfg);
  ~ScriptedDriver() override;

  /// Run the setup script once (arm timers, initialise counters).
  script::Result start(const std::string& setup_script);

  /// Script evaluated for each message popped up to the driver.
  void set_receive_script(std::string script) {
    receive_script_ = std::move(script);
  }

  void push(xk::Message msg) override { send_down(std::move(msg)); }
  void pop(xk::Message msg) override;

  [[nodiscard]] script::Interp& interp() { return interp_; }
  [[nodiscard]] const DriverStats& stats() const { return stats_; }
  [[nodiscard]] const std::string& last_error() const { return last_error_; }

 private:
  /// The host-command table, sorted by name; built on first use.
  static std::span<const script::Binding> host_commands();
  void note_error(const script::Result& r);

  sim::Scheduler& sched_;
  Config cfg_;
  sim::Rng rng_;
  script::Interp interp_;
  std::string receive_script_;
  xk::Message* current_ = nullptr;  // during receive script only
  DriverStats stats_;
  std::string last_error_;
  std::shared_ptr<bool> alive_;
};

}  // namespace pfi::core
