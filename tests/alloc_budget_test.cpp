// Allocation budgets for the per-message path.
//
// A counting operator new, linked into this binary only, turns "the message
// path allocates nothing" into exact assertions, and pins whole-cell
// ceilings so that a return of per-frame allocations fails here
// deterministically instead of hiding in timing noise. The exact counts
// hold on any standard library; each ceiling sits a few percent (GMP) to
// ~10% (TCP) above the count its test prints, so a library difference does
// not trip it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <utility>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "campaign/suite.hpp"
#include "gmp/message.hpp"
#include "gmp/reliable.hpp"
#include "net/layers.hpp"
#include "pfi/gmp_stub.hpp"
#include "pfi/pfi_layer.hpp"
#include "script/interp.hpp"
#include "sim/scheduler.hpp"
#include "xk/layer.hpp"
#include "xk/message.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_alloc_or_throw(std::size_t n) {
  void* p = counted_alloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// The aligned forms keep the library's own definitions, which pair with its
// own deletes.
void* operator new(std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new[](std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace pfi {
namespace {

/// Allocations made while running `fn`.
template <typename Fn>
std::uint64_t allocs_during(Fn&& fn) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  fn();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

/// Bottom of a test stack: keeps the last frame without allocating.
class Sink : public xk::Layer {
 public:
  Sink() : Layer("sink") {}
  void push(xk::Message msg) override { last = std::move(msg); }
  void pop(xk::Message msg) override { send_up(std::move(msg)); }
  std::optional<xk::Message> last;
};

TEST(AllocBudget, HeaderRoundTripsOnHeadroomAllocateNothing) {
  xk::Message msg{"payload"};
  net::IpMeta ip;
  ip.remote = 7;
  ip.proto = net::IpProto::kUdp;
  net::UdpMeta udp;
  udp.remote = 7;
  udp.remote_port = 4000;
  udp.local_port = 4001;
  gmp::RelHeader rel;
  rel.kind = gmp::RelKind::kData;
  rel.seq = 42;
  gmp::RelHeader rel_out;
  const std::uint64_t n = allocs_during([&] {
    for (int i = 0; i < 100; ++i) {
      ip.push_onto(msg);
      udp.push_onto(msg);
      rel.push_onto(msg);
      ASSERT_TRUE(gmp::RelHeader::pop_from(msg, rel_out));
      EXPECT_EQ(net::UdpMeta::pop_from(msg).local_port, 4001);
      EXPECT_EQ(net::IpMeta::pop_from(msg).remote, 7u);
    }
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(rel_out.seq, 42u);
  EXPECT_EQ(msg.as_string(), "payload");
}

TEST(AllocBudget, GmpEncodeAllocatesOnceAndTheStackBelowNever) {
  // A GMP node's stack below the daemon: reliable -> UDP -> IP.
  sim::Scheduler sched;
  xk::Stack stack;
  xk::Layer* top = stack.add(std::make_unique<gmp::ReliableLayer>(sched));
  stack.add(std::make_unique<net::UdpLayer>(1));
  stack.add(std::make_unique<net::IpLayer>(1));
  auto* sink = static_cast<Sink*>(stack.add(std::make_unique<Sink>()));

  gmp::GmpMessage m;
  m.type = gmp::MsgType::kMembershipChange;
  m.sender = 1;
  m.originator = 1;
  m.view_id = 9;
  m.members = {1, 2, 3};

  xk::Message msg;
  const std::uint64_t encode = allocs_during([&] { msg = m.encode(); });
  EXPECT_EQ(encode, 1u) << "encode allocates the message buffer only";
  const std::size_t encoded = msg.size();

  // The daemon's ctrl byte and UdpMeta, then the reliable layer's RelHeader,
  // UDP's header and IpMeta, and IP's header: all in the encode's headroom.
  const std::uint64_t below = allocs_during([&] {
    const auto ctrl = static_cast<std::uint8_t>(gmp::SendMode::kRaw);
    msg.push_header(std::span{&ctrl, 1});
    net::UdpMeta meta;
    meta.remote = 2;
    meta.remote_port = 5000;
    meta.local_port = 5000;
    meta.push_onto(msg);
    top->push(std::move(msg));
  });
  EXPECT_EQ(below, 0u);
  ASSERT_TRUE(sink->last.has_value());
  // IP 12 + UDP 6 + RelHeader 5 in front of the encoded message.
  EXPECT_EQ(sink->last->size(), 12u + 6u + gmp::RelHeader::kSize + encoded);
}

TEST(AllocBudget, ScheduledMessageClosureAllocatesNothing) {
  sim::Scheduler sched;
  std::size_t delivered = 0;
  auto send = [&] {
    xk::Message frame{"0123456789abcdef"};
    const std::uint64_t n = allocs_during([&] {
      sched.schedule(1, [&delivered, frame = std::move(frame)]() mutable {
        delivered += frame.size();
      });
      ASSERT_TRUE(sched.step());
    });
    return n;
  };
  send();  // warm-up: the slab and the event heap grow once
  EXPECT_EQ(send(), 0u);
  EXPECT_EQ(delivered, 32u);
}

/// Top of a test stack: keeps the last frame that came up.
class Top : public xk::Layer {
 public:
  Top() : Layer("top") {}
  void push(xk::Message msg) override { send_down(std::move(msg)); }
  void pop(xk::Message msg) override { last = std::move(msg); }
  std::optional<xk::Message> last;
};

// The interpreter compiles the filter once; a warm filter run that leaves a
// message alone (type lookup, a compare, an untaken branch) allocates
// nothing, also for a message that carries a member list, which type_of
// names without decoding.
TEST(AllocBudget, CompiledGmpReceiveFilterAllocatesNothingOnAPassedMessage) {
  std::string err;
  const auto spec = campaign::load_spec_file(
      std::string(PFI_SCRIPTS_DIR) + "/campaign_gmp_omission.spec", &err);
  ASSERT_TRUE(spec.has_value()) << err;
  const core::failure::Scripts scripts =
      campaign::plan(*spec).front().schedule.compile();
  ASSERT_FALSE(scripts.receive.empty());

  sim::Scheduler sched;
  core::PfiConfig cfg;
  cfg.stub = std::make_shared<core::GmpStub>();
  xk::Stack stack;
  auto* top = static_cast<Top*>(stack.add(std::make_unique<Top>()));
  xk::Layer* pfi = stack.add(std::make_unique<core::PfiLayer>(sched, cfg));
  auto& layer = static_cast<core::PfiLayer&>(*pfi);
  ASSERT_TRUE(layer.run_setup(scripts.setup).is_ok());
  layer.set_receive_script(scripts.receive);

  const auto message = cfg.stub->generate({{"type", "gmp-ack"}});
  ASSERT_TRUE(message.has_value());
  ASSERT_EQ(cfg.stub->type_of(*message), "gmp-ack");
  auto deliver = [&](const xk::Message& wire) {
    xk::Message msg = wire;
    return allocs_during([&] { pfi->pop(std::move(msg)); });
  };
  deliver(*message);  // warm-up: compiles the filter's bodies, sizes buffers
  EXPECT_EQ(deliver(*message), 0u);

  // A membership change as the reliable layer ships it: the encoded body,
  // RelHeader and UdpMeta. generate() sets no members, so build it here.
  gmp::GmpMessage mc;
  mc.type = gmp::MsgType::kMembershipChange;
  mc.sender = 1;
  mc.originator = 1;
  mc.view_id = 9;
  mc.members = {1, 2, 3};
  xk::Message mc_wire = mc.encode();
  gmp::RelHeader rel;
  rel.kind = gmp::RelKind::kData;
  rel.seq = 1;
  rel.push_onto(mc_wire);
  net::UdpMeta meta;
  meta.remote = 1;
  meta.remote_port = 7777;
  meta.local_port = 7777;
  meta.push_onto(mc_wire);
  ASSERT_EQ(cfg.stub->type_of(mc_wire), "gmp-mc");
  EXPECT_EQ(deliver(mc_wire), 0u);
  EXPECT_EQ(layer.stats().recvs_intercepted, 3u);
  EXPECT_EQ(layer.stats().script_errors, 0u) << layer.last_error();
  EXPECT_EQ(layer.stats().dropped, 0u);
  ASSERT_TRUE(top->last.has_value());
}

// The core commands are one table every interpreter shares, so building
// an interpreter costs a fixed handful of allocations, none per builtin.
TEST(AllocBudget, InterpreterSharesTheCoreCommandTable) {
  const std::size_t builtins = script::core_commands().size();
  ASSERT_GE(builtins, 30u);
  const std::uint64_t n =
      allocs_during([] { const script::Interp interp; (void)interp; });
  EXPECT_LE(n, 4u);
}

// The host commands are one table every PfiLayer shares too, so building a
// layer (two interpreters) costs a fixed handful of allocations, none per
// host command.
TEST(AllocBudget, PfiLayerSharesTheHostCommandTable) {
  sim::Scheduler sched;
  {
    // The first layer builds the table, once per process.
    core::PfiLayer layer{sched, core::PfiConfig{}};
    const std::size_t host = layer.send_interp().signatures().size() -
                             script::core_commands().size();
    ASSERT_GE(host, 30u);
  }
  const std::uint64_t n = allocs_during([&sched] {
    const core::PfiLayer layer{sched, core::PfiConfig{}};
    (void)layer;
  });
  std::printf("allocations to build a PfiLayer: %llu\n",
              static_cast<unsigned long long>(n));
  EXPECT_LE(n, 10u);
}

/// Allocations of one run_cell, after a warm-up run of the same cell has
/// paid for lazily built tables.
std::uint64_t steady_cell_allocs(const campaign::RunCell& cell) {
  const campaign::RunResult warm = campaign::run_cell(cell);
  EXPECT_FALSE(warm.errored()) << warm.error;
  return allocs_during([&] {
    const campaign::RunResult r = campaign::run_cell(cell);
    EXPECT_FALSE(r.errored()) << r.error;
  });
}

TEST(AllocBudget, GmpCampaignCellCeiling) {
  std::string err;
  const auto spec = campaign::load_spec_file(
      std::string(PFI_SCRIPTS_DIR) + "/campaign_gmp_omission.spec", &err);
  ASSERT_TRUE(spec.has_value()) << err;
  const auto cells = campaign::plan(*spec);
  ASSERT_FALSE(cells.empty());
  const std::uint64_t n = steady_cell_allocs(cells.front());
  std::printf("allocations for %s: %llu\n", cells.front().id.c_str(),
              static_cast<unsigned long long>(n));
  EXPECT_LE(n, 1420u);
}

TEST(AllocBudget, TpcCampaignCellCeiling) {
  std::string err;
  const auto spec = campaign::load_spec_file(
      std::string(PFI_SCRIPTS_DIR) + "/campaign_tpc.spec", &err);
  ASSERT_TRUE(spec.has_value()) << err;
  const auto cells = campaign::plan(*spec);
  ASSERT_FALSE(cells.empty());
  const std::uint64_t n = steady_cell_allocs(cells.front());
  std::printf("allocations for %s: %llu\n", cells.front().id.c_str(),
              static_cast<unsigned long long>(n));
  EXPECT_LE(n, 530u);
}

TEST(AllocBudget, TcpSuiteCellCeiling) {
  std::string err;
  const auto cells = campaign::plan_suite(PFI_SUITES_DIR "/tcp", &err);
  ASSERT_TRUE(cells.has_value()) << err;
  ASSERT_FALSE(cells->empty());
  const std::uint64_t n = steady_cell_allocs(cells->front());
  std::printf("allocations for %s: %llu\n", cells->front().id.c_str(),
              static_cast<unsigned long long>(n));
  EXPECT_LE(n, 4570u);
}

}  // namespace
}  // namespace pfi
