#include "pfi/scripted_driver.hpp"

#include <charconv>

#include "pfi/host_commands.hpp"

namespace pfi::core {

namespace {

using script::CallArgs;
using script::Interp;
using script::Result;

ScriptedDriver& driver_of(Interp& in) {
  return *static_cast<ScriptedDriver*>(in.host());
}

}  // namespace

ScriptedDriver::ScriptedDriver(sim::Scheduler& sched, Config cfg)
    : Layer("driver"),
      sched_(sched),
      cfg_(std::move(cfg)),
      rng_(cfg_.rng_seed),
      interp_(host_commands(), this),
      alive_(std::make_shared<bool>(true)) {}

ScriptedDriver::~ScriptedDriver() { *alive_ = false; }

script::Result ScriptedDriver::start(const std::string& setup_script) {
  Result r = interp_.eval(setup_script);
  if (r.is_error()) note_error(r);
  return r;
}

void ScriptedDriver::pop(xk::Message msg) {
  ++stats_.received;
  if (receive_script_.empty()) return;
  current_ = &msg;
  Result r = interp_.eval(receive_script_);
  current_ = nullptr;
  if (r.is_error()) note_error(r);
}

void ScriptedDriver::note_error(const script::Result& r) {
  ++stats_.script_errors;
  last_error_ = r.value;
  if (cfg_.trace != nullptr) {
    cfg_.trace->add(sched_.now(), cfg_.node_name, "error", "driver-script",
                    r.value);
  }
}

std::span<const script::Binding> ScriptedDriver::host_commands() {
  static constexpr script::CommandSig kDrvSend{
      "drv_send", 2, -1, "drv_send key value ?key value ...?"};

  static constexpr script::CommandDef kCommands[] = {
      {kDrvSend, [](Interp& in, const CallArgs& a) -> Result {
        ScriptedDriver& d = driver_of(in);
        if (a.size() % 2 != 1) return script::wrong_args(kDrvSend.usage);
        if (d.cfg_.stub == nullptr) return Result::error("drv_send: no stub");
        std::map<std::string, std::string> params;
        for (std::size_t i = 1; i + 1 < a.size(); i += 2) {
          params[a[i]] = a[i + 1];
        }
        auto msg = d.cfg_.stub->generate(params);
        if (!msg) return Result::error("drv_send: stub can't generate");
        ++d.stats_.generated;
        if (d.cfg_.trace != nullptr) {
          d.cfg_.trace->add(d.sched_.now(), d.cfg_.node_name, "send",
                            d.cfg_.stub->type_of(*msg),
                            d.cfg_.stub->summary(*msg));
        }
        d.send_down(std::move(*msg));
        return Result::ok();
      }},

      {{"drv_send_hex", 1, 1, "drv_send_hex bytes"},
       [](Interp& in, const CallArgs& a) -> Result {
         ScriptedDriver& d = driver_of(in);
         auto msg = message_from_hex(a[1]);
         if (!msg) return Result::error("drv_send_hex: bad hex");
         ++d.stats_.generated;
         d.send_down(std::move(*msg));
         return Result::ok();
       }},

      {host_sig::kMsgType, [](Interp& in, const CallArgs&) -> Result {
        const ScriptedDriver& d = driver_of(in);
        if (d.current_ == nullptr) return Result::error("msg_type: no message");
        if (d.cfg_.stub == nullptr) return Result::ok("raw");
        return Result::ok(d.cfg_.stub->type_of(*d.current_));
      }},

      {host_sig::kMsgField, [](Interp& in, const CallArgs& a) -> Result {
        const ScriptedDriver& d = driver_of(in);
        if (d.current_ == nullptr) {
          return Result::error("msg_field: no message");
        }
        if (d.cfg_.stub == nullptr) return Result::error("msg_field: no stub");
        auto v = d.cfg_.stub->field(*d.current_, a[1]);
        if (!v) return Result::error("msg_field: no field " + a[1]);
        return Result::ok(std::to_string(*v));
      }},

      {host_sig::kMsgLen, [](Interp& in, const CallArgs&) -> Result {
        const ScriptedDriver& d = driver_of(in);
        if (d.current_ == nullptr) return Result::error("msg_len: no message");
        return Result::ok(std::to_string(d.current_->size()));
      }},

      {host_sig::kMsgLog, [](Interp& in, const CallArgs& a) -> Result {
        const ScriptedDriver& d = driver_of(in);
        if (d.current_ == nullptr) return Result::error("msg_log: no message");
        if (d.cfg_.trace != nullptr) {
          const PacketStub* stub = d.cfg_.stub.get();
          std::string detail = stub != nullptr ? stub->summary(*d.current_)
                                               : d.current_->printable();
          const std::string note = log_note(a);
          if (!note.empty()) detail += " | " + note;
          d.cfg_.trace->add(
              d.sched_.now(), d.cfg_.node_name, "recv",
              stub != nullptr ? stub->type_of(*d.current_) : "raw", detail);
        }
        return Result::ok();
      }},

      {host_sig::kAfter, [](Interp& in, const CallArgs& a) -> Result {
        ScriptedDriver& d = driver_of(in);
        std::int64_t ms = 0;
        auto res = std::from_chars(a[1].data(), a[1].data() + a[1].size(), ms);
        if (res.ec != std::errc{} || ms < 0) {
          return Result::error("after: bad delay");
        }
        d.sched_.schedule(sim::msec(ms), [&d, alive = d.alive_, body = a[2]] {
          if (!*alive) return;
          Result r = d.interp_.eval(body);
          if (r.is_error()) d.note_error(r);
        });
        return Result::ok();
      }},

      {host_sig::kNowMs, [](Interp& in, const CallArgs&) {
        return Result::ok(
            std::to_string(driver_of(in).sched_.now() / sim::kMillisecond));
      }},

      {host_sig::kDstBernoulli, [](Interp& in, const CallArgs& a) -> Result {
        double p = 0;
        try {
          p = std::stod(a[1]);
        } catch (...) {
          return Result::error("dst_bernoulli: bad p");
        }
        return Result::ok(driver_of(in).rng_.bernoulli(p) ? "1" : "0");
      }},

      {host_sig::kSyncSet, [](Interp& in, const CallArgs& a) -> Result {
        SyncBus* sync = driver_of(in).cfg_.sync.get();
        if (sync == nullptr) return Result::error("sync_set: no bus");
        sync->set(a[1], a[2]);
        return Result::ok();
      }},

      {host_sig::kSyncGet, [](Interp& in, const CallArgs& a) -> Result {
        SyncBus* sync = driver_of(in).cfg_.sync.get();
        if (sync == nullptr) return Result::error("sync_get: no bus");
        auto v = sync->get(a[1]);
        if (v) return Result::ok(*v);
        if (a.size() == 3) return Result::ok(a[2]);
        return Result::error("sync_get: no such entry");
      }},
  };
  static const std::vector<script::Binding> table =
      script::command_table(kCommands);
  return table;
}

}  // namespace pfi::core
