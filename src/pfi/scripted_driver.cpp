#include "pfi/scripted_driver.hpp"

#include <charconv>

#include "pfi/host_commands.hpp"

namespace pfi::core {

namespace {

using script::Result;

std::optional<xk::Message> hex_to_message(const std::string& hex) {
  if (hex.size() % 2 != 0) return std::nullopt;
  std::vector<std::uint8_t> bytes;
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

}  // namespace

ScriptedDriver::ScriptedDriver(sim::Scheduler& sched, Config cfg)
    : Layer("driver"),
      sched_(sched),
      cfg_(std::move(cfg)),
      rng_(cfg_.rng_seed),
      interp_(std::make_unique<script::Interp>()),
      alive_(std::make_shared<bool>(true)) {
  install_commands();
}

ScriptedDriver::~ScriptedDriver() { *alive_ = false; }

script::Result ScriptedDriver::start(const std::string& setup_script) {
  Result r = interp_->eval(setup_script);
  if (r.is_error()) note_error(r);
  return r;
}

void ScriptedDriver::pop(xk::Message msg) {
  ++stats_.received;
  if (receive_script_.empty()) return;
  current_ = &msg;
  Result r = interp_->eval(receive_script_);
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

void ScriptedDriver::install_commands() {
  using Args = std::vector<std::string>;
  auto& in = *interp_;

  static constexpr script::CommandSig kDrvSend{
      "drv_send", 2, -1, "drv_send key value ?key value ...?"};
  in.register_command(
      kDrvSend, [this](script::Interp&, const Args& a) -> Result {
        if (a.size() % 2 != 1) return script::wrong_args(kDrvSend.usage);
        if (cfg_.stub == nullptr) return Result::error("drv_send: no stub");
        std::map<std::string, std::string> params;
        for (std::size_t i = 1; i + 1 < a.size(); i += 2) {
          params[a[i]] = a[i + 1];
        }
        auto msg = cfg_.stub->generate(params);
        if (!msg) return Result::error("drv_send: stub can't generate");
        ++stats_.generated;
        if (cfg_.trace != nullptr) {
          cfg_.trace->add(sched_.now(), cfg_.node_name, "send",
                          cfg_.stub->type_of(*msg), cfg_.stub->summary(*msg));
        }
        send_down(std::move(*msg));
        return Result::ok();
      });

  in.register_command(
      {"drv_send_hex", 1, 1, "drv_send_hex bytes"},
      [this](script::Interp&, const Args& a) -> Result {
        auto msg = hex_to_message(a[1]);
        if (!msg) return Result::error("drv_send_hex: bad hex");
        ++stats_.generated;
        send_down(std::move(*msg));
        return Result::ok();
      });

  in.register_command(host_sig::kMsgType, [this](script::Interp&,
                                                 const Args&) -> Result {
    if (current_ == nullptr) return Result::error("msg_type: no message");
    if (cfg_.stub == nullptr) return Result::ok("raw");
    return Result::ok(cfg_.stub->type_of(*current_));
  });

  in.register_command(
      host_sig::kMsgField, [this](script::Interp&, const Args& a) -> Result {
        if (current_ == nullptr) return Result::error("msg_field: no message");
        if (cfg_.stub == nullptr) return Result::error("msg_field: no stub");
        auto v = cfg_.stub->field(*current_, a[1]);
        if (!v) return Result::error("msg_field: no field " + a[1]);
        return Result::ok(std::to_string(*v));
      });

  in.register_command(host_sig::kMsgLen, [this](script::Interp&,
                                                const Args&) -> Result {
    if (current_ == nullptr) return Result::error("msg_len: no message");
    return Result::ok(std::to_string(current_->size()));
  });

  in.register_command(
      host_sig::kMsgLog, [this](script::Interp&, const Args& a) -> Result {
        if (current_ == nullptr) return Result::error("msg_log: no message");
        std::string note;
        for (std::size_t i = 1; i < a.size(); ++i) {
          if (a[i] == "cur_msg") continue;
          if (!note.empty()) note += ' ';
          note += a[i];
        }
        if (cfg_.trace != nullptr) {
          std::string detail = cfg_.stub != nullptr
                                   ? cfg_.stub->summary(*current_)
                                   : current_->printable();
          if (!note.empty()) detail += " | " + note;
          cfg_.trace->add(sched_.now(), cfg_.node_name, "recv",
                          cfg_.stub != nullptr
                              ? cfg_.stub->type_of(*current_)
                              : "raw",
                          detail);
        }
        return Result::ok();
      });

  in.register_command(
      host_sig::kAfter, [this](script::Interp&, const Args& a) -> Result {
        std::int64_t ms = 0;
        auto res =
            std::from_chars(a[1].data(), a[1].data() + a[1].size(), ms);
        if (res.ec != std::errc{} || ms < 0) {
          return Result::error("after: bad delay");
        }
        sched_.schedule(sim::msec(ms), [this, alive = alive_, body = a[2]] {
          if (!*alive) return;
          Result r = interp_->eval(body);
          if (r.is_error()) note_error(r);
        });
        return Result::ok();
      });

  in.register_command(host_sig::kNowMs, [this](script::Interp&, const Args&) {
    return Result::ok(std::to_string(sched_.now() / sim::kMillisecond));
  });

  in.register_command(
      host_sig::kDstBernoulli,
      [this](script::Interp&, const Args& a) -> Result {
        double p = 0;
        try {
          p = std::stod(a[1]);
        } catch (...) {
          return Result::error("dst_bernoulli: bad p");
        }
        return Result::ok(rng_.bernoulli(p) ? "1" : "0");
      });

  in.register_command(
      host_sig::kSyncSet, [this](script::Interp&, const Args& a) -> Result {
        if (cfg_.sync == nullptr) return Result::error("sync_set: no bus");
        cfg_.sync->set(a[1], a[2]);
        return Result::ok();
      });

  in.register_command(
      host_sig::kSyncGet, [this](script::Interp&, const Args& a) -> Result {
        if (cfg_.sync == nullptr) return Result::error("sync_get: no bus");
        auto v = cfg_.sync->get(a[1]);
        if (v) return Result::ok(*v);
        if (a.size() == 3) return Result::ok(a[2]);
        return Result::error("sync_get: no such entry");
      });
}

}  // namespace pfi::core
