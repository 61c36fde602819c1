// PFI layer tests: filtering, manipulation, injection, cross-interpreter
// state, sync bus, distributions, deferred scripts, and fail-open behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "pfi/pfi_layer.hpp"
#include "pfi/stub.hpp"
#include "script/parse.hpp"
#include "sim/scheduler.hpp"
#include "xk/layer.hpp"

namespace pfi::core {
namespace {

/// app / PFI / loopback harness: everything the app sends comes back up
/// through the PFI receive filter.
struct Harness {
  sim::Scheduler sched;
  trace::TraceLog trace;
  std::shared_ptr<SyncBus> sync = std::make_shared<SyncBus>();
  xk::Stack stack;
  xk::AppLayer* app;
  PfiLayer* pfi;

  struct Loopback : xk::Layer {
    Loopback() : Layer("loop") {}
    void push(xk::Message m) override { send_up(std::move(m)); }
    void pop(xk::Message m) override { send_up(std::move(m)); }
  };

  Harness() {
    app = static_cast<xk::AppLayer*>(
        stack.add(std::make_unique<xk::AppLayer>()));
    PfiConfig cfg;
    cfg.node_name = "testnode";
    cfg.trace = &trace;
    cfg.stub = std::make_shared<ToyStub>();
    cfg.sync = sync;
    pfi = static_cast<PfiLayer*>(
        stack.add(std::make_unique<PfiLayer>(sched, cfg)));
    stack.add(std::make_unique<Loopback>());
  }

  void send(std::uint8_t type, std::uint32_t id, std::string_view pl = {}) {
    app->send(ToyStub::make(type, id, pl));
  }
  std::size_t delivered() {
    sched.run();
    return app->received().size();
  }
};

TEST(PfiLayer, PassThroughWithoutScripts) {
  Harness h;
  h.send(ToyStub::kData, 1, "hello");
  EXPECT_EQ(h.delivered(), 1u);
  EXPECT_EQ(h.pfi->stats().sends_intercepted, 1u);
  EXPECT_EQ(h.pfi->stats().recvs_intercepted, 1u);
}

TEST(PfiLayer, PaperDropAckScript) {
  Harness h;
  h.pfi->run_setup("set ACK 0x1\nset NACK 0x2\nset GACK 0x4");
  h.pfi->set_receive_script(R"tcl(
set type [msg_type cur_msg]
if {$type eq "ack"} { xDrop cur_msg }
)tcl");
  h.send(ToyStub::kAck, 1);
  h.send(ToyStub::kData, 2);
  h.send(ToyStub::kAck, 3);
  EXPECT_EQ(h.delivered(), 1u);
  EXPECT_EQ(h.pfi->stats().dropped, 2u);
}

TEST(PfiLayer, SendFilterIndependentOfReceiveFilter) {
  Harness h;
  h.pfi->set_send_script("xDrop cur_msg");
  h.send(ToyStub::kData, 1);
  EXPECT_EQ(h.delivered(), 0u);
  // Dropped on the way down: the receive side never saw it.
  EXPECT_EQ(h.pfi->stats().recvs_intercepted, 0u);
}

TEST(PfiLayer, DelayHoldsMessage) {
  Harness h;
  h.pfi->set_send_script("xDelay cur_msg 500");
  h.send(ToyStub::kData, 1);
  h.sched.run_until(sim::msec(100));
  EXPECT_TRUE(h.app->received().empty());
  h.sched.run_until(sim::msec(600));
  EXPECT_EQ(h.app->received().size(), 1u);
  EXPECT_EQ(h.pfi->stats().delayed, 1u);
}

TEST(PfiLayer, DelayCausesReordering) {
  Harness h;
  h.pfi->run_setup("set n 0");
  h.pfi->set_send_script(R"tcl(
incr n
if {$n == 1} { xDelay cur_msg 1000 }
)tcl");
  h.send(ToyStub::kData, 1);
  h.send(ToyStub::kData, 2);
  h.sched.run();
  ASSERT_EQ(h.app->received().size(), 2u);
  ToyStub stub;
  EXPECT_EQ(stub.field(h.app->received()[0], "id"), 2);
  EXPECT_EQ(stub.field(h.app->received()[1], "id"), 1);
}

TEST(PfiLayer, DuplicateProducesCopies) {
  Harness h;
  h.pfi->set_send_script("xDuplicate 2");
  h.send(ToyStub::kData, 1);
  EXPECT_EQ(h.delivered(), 3u);
  EXPECT_EQ(h.pfi->stats().duplicated, 2u);
}

TEST(PfiLayer, DuplicateTakesAnOptionalHandle) {
  // Like xDelay, xDuplicate accepts the paper's `cur_msg` handle before
  // its optional count.
  const struct {
    const char* script;
    std::size_t delivered;
    std::uint64_t script_errors;
  } rows[] = {
      {"xDuplicate", 2, 0},
      {"xDuplicate 2", 3, 0},
      {"xDuplicate cur_msg", 2, 0},
      {"xDuplicate cur_msg 3", 4, 0},
      {"xDuplicate 3 cur_msg", 1, 1},  // a script error fails open
  };
  for (const auto& row : rows) {
    Harness h;
    h.pfi->set_send_script(row.script);
    h.send(ToyStub::kData, 1);
    EXPECT_EQ(h.delivered(), row.delivered) << row.script;
    EXPECT_EQ(h.pfi->stats().script_errors, row.script_errors) << row.script;
  }
}

TEST(PfiLayer, CorruptionViaSetByte) {
  Harness h;
  h.pfi->set_send_script("msg_set_byte 0 0x2");  // ack -> nack
  h.send(ToyStub::kAck, 1);
  EXPECT_EQ(h.delivered(), 1u);
  ToyStub stub;
  EXPECT_EQ(stub.type_of(h.app->received()[0]), "nack");
  EXPECT_EQ(h.pfi->stats().corrupted, 1u);
}

TEST(PfiLayer, CorruptionViaSetField) {
  Harness h;
  h.pfi->set_send_script("msg_set_field id 999");
  h.send(ToyStub::kData, 1);
  EXPECT_EQ(h.delivered(), 1u);
  ToyStub stub;
  EXPECT_EQ(stub.field(h.app->received()[0], "id"), 999);
}

TEST(PfiLayer, TruncateShortens) {
  Harness h;
  h.pfi->set_send_script("msg_truncate 5");  // header only
  h.send(ToyStub::kData, 1, "payload");
  EXPECT_EQ(h.delivered(), 1u);
  EXPECT_EQ(h.app->received()[0].size(), 5u);
}

TEST(PfiLayer, HoldAndReleaseFifo) {
  Harness h;
  h.pfi->set_send_script(R"tcl(
set t [msg_type cur_msg]
if {$t eq "data"} { xHold q }
)tcl");
  h.send(ToyStub::kData, 1);
  h.send(ToyStub::kData, 2);
  h.sched.run();
  EXPECT_TRUE(h.app->received().empty());
  EXPECT_EQ(h.pfi->held_count("q"), 2u);
  h.pfi->send_interp().eval("xRelease q");
  h.sched.run();
  ASSERT_EQ(h.app->received().size(), 2u);
  ToyStub stub;
  EXPECT_EQ(stub.field(h.app->received()[0], "id"), 1);
  EXPECT_EQ(stub.field(h.app->received()[1], "id"), 2);
}

TEST(PfiLayer, ReleaseReversedReorders) {
  Harness h;
  h.pfi->set_send_script(R"tcl(
xHold q
if {[xHeldCount q] >= 3} { xReleaseReversed q }
)tcl");
  h.send(ToyStub::kData, 1);
  h.send(ToyStub::kData, 2);
  h.send(ToyStub::kData, 3);
  h.sched.run();
  ASSERT_EQ(h.app->received().size(), 3u);
  ToyStub stub;
  EXPECT_EQ(stub.field(h.app->received()[0], "id"), 3);
  EXPECT_EQ(stub.field(h.app->received()[1], "id"), 2);
  EXPECT_EQ(stub.field(h.app->received()[2], "id"), 1);
}

TEST(PfiLayer, ReleaseWithCount) {
  Harness h;
  h.pfi->set_send_script("xHold q");
  h.send(ToyStub::kData, 1);
  h.send(ToyStub::kData, 2);
  h.send(ToyStub::kData, 3);
  h.sched.run();
  h.pfi->send_interp().eval("xRelease q 2");
  h.sched.run();
  EXPECT_EQ(h.app->received().size(), 2u);
  EXPECT_EQ(h.pfi->held_count("q"), 1u);
}

TEST(PfiLayer, InjectViaStub) {
  Harness h;
  h.pfi->receive_interp().eval("xInject up type gack id 77");
  h.sched.run();
  ASSERT_EQ(h.app->received().size(), 1u);
  ToyStub stub;
  EXPECT_EQ(stub.type_of(h.app->received()[0]), "gack");
  EXPECT_EQ(stub.field(h.app->received()[0], "id"), 77);
  EXPECT_EQ(h.pfi->stats().injected, 1u);
}

TEST(PfiLayer, InjectHexDown) {
  Harness h;
  // type=data(0x08), id=0x00000005, payload "hi" (6869)
  h.pfi->send_interp().eval("xInjectHex down 08000000056869");
  h.sched.run();
  ASSERT_EQ(h.app->received().size(), 1u);  // loops back up
  EXPECT_EQ(h.app->received()[0].size(), 7u);
}

TEST(PfiLayer, InjectHexWithDelay) {
  Harness h;
  h.pfi->send_interp().eval("xInjectHex down 0800000001 250");
  h.sched.run_until(sim::msec(100));
  EXPECT_TRUE(h.app->received().empty());
  h.sched.run_until(sim::msec(300));
  EXPECT_EQ(h.app->received().size(), 1u);
}

TEST(PfiLayer, BadHexRejected) {
  Harness h;
  EXPECT_TRUE(h.pfi->send_interp().eval("xInjectHex down zz").is_error());
  EXPECT_TRUE(h.pfi->send_interp().eval("xInjectHex down 123").is_error());
}

TEST(PfiLayer, CrossInterpreterPeerSetGet) {
  Harness h;
  // The paper's example: the send filter tells the receive filter to start
  // dropping.
  h.pfi->run_setup("set dropping 0");
  h.pfi->set_send_script(R"tcl(
if {[msg_type cur_msg] eq "gack"} { peer_set dropping 1 }
)tcl");
  h.pfi->set_receive_script(R"tcl(
if {$dropping == 1} { xDrop cur_msg }
)tcl");
  h.send(ToyStub::kData, 1);  // passes both ways
  h.sched.run();
  EXPECT_EQ(h.app->received().size(), 1u);
  h.send(ToyStub::kGack, 2);  // flips the switch on the way down
  h.send(ToyStub::kData, 3);  // dropped on the way up
  h.sched.run();
  EXPECT_EQ(h.app->received().size(), 1u);
  EXPECT_EQ(h.pfi->stats().dropped, 2u);
  EXPECT_EQ(h.pfi->send_interp().get_global("dropping").value_or(""), "0");
  EXPECT_EQ(h.pfi->receive_interp().get_global("dropping").value_or(""), "1");
}

TEST(PfiLayer, SyncBusSharedAcrossLayers) {
  Harness h1;
  // Second layer sharing the same bus.
  sim::Scheduler sched2;
  PfiConfig cfg;
  cfg.sync = h1.sync;
  PfiLayer other{sched2, cfg};
  h1.pfi->send_interp().eval("sync_set phase attack");
  script::Result r = other.send_interp().eval("sync_get phase");
  EXPECT_TRUE(r.is_ok());
  EXPECT_EQ(r.value, "attack");
  other.send_interp().eval("sync_incr counter 5");
  EXPECT_EQ(h1.pfi->receive_interp().eval("sync_incr counter 1").value, "6");
}

TEST(PfiLayer, SyncGetDefault) {
  Harness h;
  EXPECT_EQ(h.pfi->send_interp().eval("sync_get missing fallback").value,
            "fallback");
  EXPECT_TRUE(h.pfi->send_interp().eval("sync_get missing").is_error());
}

TEST(PfiLayer, AfterSchedulesScript) {
  Harness h;
  h.pfi->run_setup("set phase 0");
  h.pfi->send_interp().eval("after 1000 {set phase 1}");
  h.sched.run_until(sim::msec(500));
  EXPECT_EQ(h.pfi->send_interp().get_global("phase").value_or(""), "0");
  h.sched.run_until(sim::msec(1500));
  EXPECT_EQ(h.pfi->send_interp().get_global("phase").value_or(""), "1");
}

TEST(PfiLayer, AfterCanRepeatItself) {
  Harness h;
  h.pfi->run_setup("set ticks 0");
  h.pfi->send_interp().eval(
      "proc tick {} { global ticks; incr ticks; after 100 tick }\n"
      "after 100 tick");
  h.sched.run_until(sim::msec(550));
  EXPECT_EQ(h.pfi->send_interp().get_global("ticks").value_or(""), "5");
}

TEST(PfiLayer, DistributionsReturnNumbers) {
  Harness h;
  auto& in = h.pfi->send_interp();
  for (const char* script :
       {"dst_normal 5 1", "dst_uniform 0 10", "dst_exponential 2"}) {
    script::Result r = in.eval(script);
    ASSERT_TRUE(r.is_ok()) << script;
    EXPECT_NO_THROW((void)std::stod(r.value)) << script;
  }
  script::Result b = in.eval("dst_bernoulli 0.5");
  ASSERT_TRUE(b.is_ok());
  EXPECT_TRUE(b.value == "0" || b.value == "1");
}

TEST(PfiLayer, ProbabilisticDropRoughlyMatchesRate) {
  Harness h;
  h.pfi->set_send_script("if {[dst_bernoulli 0.5]} { xDrop cur_msg }");
  for (int i = 0; i < 400; ++i) {
    h.send(ToyStub::kData, static_cast<std::uint32_t>(i));
  }
  h.sched.run();
  const auto got = h.app->received().size();
  EXPECT_GT(got, 120u);
  EXPECT_LT(got, 280u);
}

TEST(PfiLayer, ScriptErrorFailsOpen) {
  Harness h;
  h.pfi->set_send_script("this_command_does_not_exist");
  h.send(ToyStub::kData, 1);
  EXPECT_EQ(h.delivered(), 1u);  // message still passes
  EXPECT_EQ(h.pfi->stats().script_errors, 1u);
  EXPECT_NE(h.pfi->last_error().find("invalid command name"),
            std::string::npos);
}

TEST(PfiLayer, DropWinsOverDuplicate) {
  Harness h;
  h.pfi->set_send_script("xDuplicate 3\nxDrop cur_msg");
  h.send(ToyStub::kData, 1);
  EXPECT_EQ(h.delivered(), 0u);
}

TEST(PfiLayer, MsgLogWritesTrace) {
  Harness h;
  h.pfi->set_receive_script("msg_log cur_msg experiment-note");
  h.send(ToyStub::kData, 42, "xyz");
  h.sched.run();
  ASSERT_EQ(h.trace.size(), 1u);
  const auto& rec = h.trace.records()[0];
  EXPECT_EQ(rec.node, "testnode");
  EXPECT_EQ(rec.direction, "recv");
  EXPECT_EQ(rec.type, "data");
  EXPECT_NE(rec.detail.find("id=42"), std::string::npos);
  EXPECT_NE(rec.detail.find("experiment-note"), std::string::npos);
}

TEST(PfiLayer, CountersPersistAcrossMessages) {
  Harness h;
  h.pfi->run_setup("set count 0");
  h.pfi->set_send_script("incr count\nif {$count > 3} { xDrop cur_msg }");
  for (int i = 0; i < 6; ++i) {
    h.send(ToyStub::kData, static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(h.delivered(), 3u);
}

TEST(PfiLayer, UserDefinedCommandCallable) {
  Harness h;
  int called = 0;
  h.pfi->register_command(
      {"my_probe", 0, 0, "my_probe"},
      [&called](script::Interp&, const std::vector<std::string>&) {
        ++called;
        return script::Result::ok("done");
      });
  h.pfi->set_send_script("my_probe");
  h.send(ToyStub::kData, 1);
  h.sched.run();
  EXPECT_EQ(called, 1);
}

TEST(PfiLayer, NodeNameAndDirAvailable) {
  Harness h;
  EXPECT_EQ(h.pfi->send_interp().eval("node_name").value, "testnode");
  EXPECT_EQ(h.pfi->send_interp().eval("filter_dir").value, "send");
  EXPECT_EQ(h.pfi->receive_interp().eval("filter_dir").value, "recv");
}

TEST(PfiLayer, NowCommandsTrackSimClock) {
  Harness h;
  h.sched.run_until(sim::msec(2500));
  EXPECT_EQ(h.pfi->send_interp().eval("now_ms").value, "2500");
  EXPECT_EQ(h.pfi->send_interp().eval("now_us").value, "2500000");
}

TEST(PfiLayer, MsgCommandsOutsideFilterAreErrors) {
  Harness h;
  EXPECT_TRUE(h.pfi->send_interp().eval("msg_type cur_msg").is_error());
  EXPECT_TRUE(h.pfi->send_interp().eval("xDrop cur_msg").is_error());
  EXPECT_TRUE(h.pfi->send_interp().eval("xDelay cur_msg 10").is_error());
}

TEST(PfiLayer, SetupRunsInBothInterpreters) {
  Harness h;
  h.pfi->run_setup("set shared 9");
  EXPECT_EQ(h.pfi->send_interp().get_global("shared").value_or(""), "9");
  EXPECT_EQ(h.pfi->receive_interp().get_global("shared").value_or(""), "9");
}

// ---------------------------------------------------------------------------
// One host-command table: per-interpreter shadowing, per-layer state
// ---------------------------------------------------------------------------

TEST(PfiLayer, ProcShadowsAHostCommandInItsInterpreterOnly) {
  Harness h;
  Harness other;
  ASSERT_TRUE(h.pfi->send_interp()
                  .eval("proc msg_type {args} {return shadowed}")
                  .is_ok());
  for (Harness* x : {&h, &other}) {
    x->pfi->set_send_script("set seen [msg_type cur_msg]");
    x->pfi->set_receive_script("set seen [msg_type cur_msg]");
    x->send(ToyStub::kData, 1);
    EXPECT_EQ(x->delivered(), 1u);
  }
  EXPECT_EQ(h.pfi->send_interp().get_global("seen").value_or(""), "shadowed");
  EXPECT_EQ(h.pfi->receive_interp().get_global("seen").value_or(""), "data");
  EXPECT_EQ(other.pfi->send_interp().get_global("seen").value_or(""), "data");
  EXPECT_EQ(other.pfi->receive_interp().get_global("seen").value_or(""),
            "data");
}

TEST(PfiLayer, RegisteredCommandShadowsAHostCommandInItsLayerOnly) {
  Harness h;
  Harness other;
  int calls = 0;
  h.pfi->register_command(
      {"xDrop", 0, 1, "xDrop ?cur_msg?"},
      [&calls](script::Interp&, const std::vector<std::string>&) {
        ++calls;
        return script::Result::ok();
      });
  for (Harness* x : {&h, &other}) x->pfi->set_send_script("xDrop cur_msg");
  h.send(ToyStub::kData, 1);
  other.send(ToyStub::kData, 2);
  EXPECT_EQ(h.delivered(), 1u);  // the registration ran instead
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(h.pfi->stats().dropped, 0u);
  EXPECT_EQ(other.delivered(), 0u);
  EXPECT_EQ(other.pfi->stats().dropped, 1u);
}

TEST(PfiLayer, LayersOnOneSchedulerAnswerFromTheirOwnState) {
  sim::Scheduler sched;
  PfiConfig cfg;
  cfg.stub = std::make_shared<ToyStub>();
  cfg.node_name = "alpha";
  PfiLayer alpha{sched, cfg};
  cfg.node_name = "beta";
  PfiLayer beta{sched, cfg};
  const struct {
    PfiLayer* layer;
    const char* name;
    int held;
  } rows[] = {{&alpha, "alpha", 2}, {&beta, "beta", 1}};
  for (const auto& row : rows) {
    row.layer->set_send_script("xHold q");
    for (int i = 0; i < row.held; ++i) {
      row.layer->push(ToyStub::make(ToyStub::kData, 1));
    }
    row.layer->send_interp().set_global("mine", std::string{row.name} + "/s");
    row.layer->receive_interp().set_global("mine",
                                           std::string{row.name} + "/r");
  }
  for (const auto& row : rows) {
    script::Interp& send = row.layer->send_interp();
    script::Interp& recv = row.layer->receive_interp();
    EXPECT_EQ(send.eval("node_name").value, row.name);
    EXPECT_EQ(recv.eval("node_name").value, row.name);
    EXPECT_EQ(send.eval("filter_dir").value, "send");
    EXPECT_EQ(recv.eval("filter_dir").value, "recv");
    EXPECT_EQ(send.eval("xHeldCount q").value, std::to_string(row.held));
    EXPECT_EQ(recv.eval("xHeldCount q").value, std::to_string(row.held));
    EXPECT_EQ(send.eval("peer_get mine").value, std::string{row.name} + "/r");
    EXPECT_EQ(recv.eval("peer_get mine").value, std::string{row.name} + "/s");
  }
}

TEST(PfiLayer, AfterRunsInTheInterpreterThatScheduledIt) {
  Harness h;
  ASSERT_TRUE(
      h.pfi->send_interp().eval("after 10 {set ran [filter_dir]}").is_ok());
  ASSERT_TRUE(
      h.pfi->receive_interp().eval("after 20 {set ran [filter_dir]}").is_ok());
  h.sched.run();
  EXPECT_EQ(h.pfi->send_interp().get_global("ran").value_or(""), "send");
  EXPECT_EQ(h.pfi->receive_interp().get_global("ran").value_or(""), "recv");
}

TEST(PfiLayer, InfoCommandsListsEachHostCommandOnce) {
  Harness h;
  // A proc shadowing a host command, and a registration of a new name.
  h.pfi->run_setup("proc msg_type {args} {return p}");
  h.pfi->register_command(
      {"my_probe", 0, 0, "my_probe"},
      [](script::Interp&, const std::vector<std::string>&) {
        return script::Result::ok();
      });
  constexpr std::size_t kHostCommands = 35;
  for (script::Interp* in : {&h.pfi->send_interp(), &h.pfi->receive_interp()}) {
    const std::vector<std::string> names =
        script::parse_list(in->eval("info commands").value);
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(),
              names.size());
    EXPECT_EQ(names.size(),
              script::core_commands().size() + kHostCommands + 1);
    for (const char* name : {"msg_type", "xDrop", "after", "filter_dir",
                             "peer_get", "my_probe", "set"}) {
      EXPECT_EQ(std::count(names.begin(), names.end(), name), 1) << name;
    }
  }
}

}  // namespace
}  // namespace pfi::core
