// Unit tests for the x-Kernel-style message and layer framework.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <span>

#include "trace/trace.hpp"
#include "xk/layer.hpp"
#include "xk/message.hpp"

namespace pfi::xk {
namespace {

TEST(Message, EmptyByDefault) {
  Message m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
}

TEST(Message, FromStringRoundTrips) {
  Message m{"hello"};
  EXPECT_EQ(m.as_string(), "hello");
  EXPECT_EQ(m.size(), 5u);
}

TEST(Message, PushPopHeaderInverse) {
  Message m{"payload"};
  const std::vector<std::uint8_t> hdr{1, 2, 3, 4};
  m.push_header(hdr);
  EXPECT_EQ(m.size(), 11u);
  auto popped = m.pop_header(4);
  EXPECT_EQ(std::vector(popped.begin(), popped.end()), hdr);
  EXPECT_EQ(m.as_string(), "payload");
}

TEST(Message, PopHeaderTooLargeReturnsEmptyAndLeavesMessage) {
  Message m{"abc"};
  auto popped = m.pop_header(10);
  EXPECT_TRUE(popped.empty());
  EXPECT_EQ(m.as_string(), "abc");
}

TEST(Message, NestedHeadersPopInReverseOrder) {
  Message m{"data"};
  const std::vector<std::uint8_t> inner{0xAA};
  const std::vector<std::uint8_t> outer{0xBB, 0xCC};
  m.push_header(inner);
  m.push_header(outer);
  auto popped = m.pop_header(2);
  EXPECT_EQ(std::vector(popped.begin(), popped.end()), outer);
  popped = m.pop_header(1);
  EXPECT_EQ(std::vector(popped.begin(), popped.end()), inner);
  EXPECT_EQ(m.as_string(), "data");
}

TEST(Message, HeaderLargerThanHeadroomRegrows) {
  // The headroom optimisation must fall back gracefully when a header
  // exceeds the reserved front space.
  Message m{"payload"};
  std::vector<std::uint8_t> big(500);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i);
  }
  m.push_header(big);
  EXPECT_EQ(m.size(), 507u);
  auto popped = m.pop_header(500);
  EXPECT_EQ(std::vector(popped.begin(), popped.end()), big);
  EXPECT_EQ(m.as_string(), "payload");
}

TEST(Message, ManyHeaderCyclesStayConsistent) {
  Message m{"x"};
  const std::vector<std::uint8_t> hdr{9, 8, 7};
  for (int i = 0; i < 1000; ++i) {
    m.push_header(hdr);
    ASSERT_EQ(m.size(), 4u);
    auto popped = m.pop_header(3);
    ASSERT_EQ(std::vector(popped.begin(), popped.end()), hdr);
  }
  EXPECT_EQ(m.as_string(), "x");
}

TEST(Message, DeepHeaderStackBeyondHeadroom) {
  // 30 stacked 5-byte headers = 150 bytes of prefix, crossing the 64-byte
  // headroom twice; everything must still pop in reverse order.
  Message m{"core"};
  for (std::uint8_t i = 0; i < 30; ++i) {
    std::vector<std::uint8_t> h{i, i, i, i, i};
    m.push_header(h);
  }
  for (int i = 29; i >= 0; --i) {
    auto h = m.pop_header(5);
    ASSERT_EQ(h.size(), 5u);
    EXPECT_EQ(h[0], static_cast<std::uint8_t>(i));
  }
  EXPECT_EQ(m.as_string(), "core");
}

TEST(Message, EqualityIsContentBased) {
  // Same content via different header histories must compare equal.
  Message a{"abc"};
  Message b;
  b.append("c");
  const std::vector<std::uint8_t> hdr{'a', 'b'};
  b.push_header(hdr);
  EXPECT_TRUE(a == b);
  Message c{"abd"};
  EXPECT_FALSE(a == c);
}

TEST(Message, ByteAccessOutOfRangeIsSafe) {
  Message m{"x"};
  EXPECT_EQ(m.byte_at(100), 0);
  m.set_byte(100, 7);  // silently ignored
  EXPECT_EQ(m.size(), 1u);
}

TEST(Message, SetByteMutates) {
  Message m{"abc"};
  m.set_byte(1, 'X');
  EXPECT_EQ(m.as_string(), "aXc");
}

TEST(Message, TruncateShortens) {
  Message m{"abcdef"};
  m.truncate(3);
  EXPECT_EQ(m.as_string(), "abc");
  m.truncate(10);  // no-op when longer than message
  EXPECT_EQ(m.size(), 3u);
}

TEST(Message, PrintableEscapesNonPrintables) {
  Message m{std::vector<std::uint8_t>{'a', 0x00, 0xFF, 'b'}};
  EXPECT_EQ(m.printable(), "a\\x00\\xffb");
}

TEST(Message, PrependOnEmptyMessageLeavesHeadroomInFront) {
  Message m;
  const std::span<std::uint8_t> hdr = m.prepend(4);
  ASSERT_EQ(hdr.size(), 4u);
  const std::uint8_t bytes[] = {1, 2, 3, 4};
  std::copy(std::begin(bytes), std::end(bytes), hdr.begin());
  EXPECT_EQ(m.size(), 4u);
  EXPECT_EQ(m.byte_at(0), 1);
  EXPECT_EQ(m.byte_at(3), 4);
  // The regrow kept kHeadroom free in front: the next headers land in the
  // same buffer, directly before the first.
  const std::uint8_t* first = m.bytes().data();
  EXPECT_EQ(m.prepend(Message::kHeadroom).data() + Message::kHeadroom, first);
  EXPECT_EQ(m.size(), 4u + Message::kHeadroom);
}

TEST(Message, PrependPastHeadroomRegrowsAndKeepsThePayload) {
  Message m{"payload"};
  const std::span<std::uint8_t> big = m.prepend(Message::kHeadroom + 36);
  ASSERT_EQ(big.size(), Message::kHeadroom + 36);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i);
  }
  EXPECT_EQ(m.size(), Message::kHeadroom + 36 + 7);
  const std::uint8_t* front = m.bytes().data();
  EXPECT_EQ(m.prepend(Message::kHeadroom).data() + Message::kHeadroom, front);
  m.pop_header(Message::kHeadroom);
  auto popped = m.pop_header(Message::kHeadroom + 36);
  EXPECT_EQ(std::vector(popped.begin(), popped.end()),
            std::vector(big.begin(), big.end()));
  EXPECT_EQ(m.as_string(), "payload");
}

TEST(WriterReader, AllWidthsRoundTrip) {
  std::uint8_t buf[1 + 2 + 4 + 8 + 2 + 8];
  Writer w{buf};
  w.u8(0x12);
  w.u16(0x3456);
  w.u32(0x789ABCDE);
  w.u64(0x0102030405060708ULL);
  w.str("hi there");
  EXPECT_FALSE(w.overflowed());
  Reader r{std::span<const std::uint8_t>{buf}};
  EXPECT_EQ(r.u8(), 0x12);
  EXPECT_EQ(r.u16(), 0x3456);
  EXPECT_EQ(r.u32(), 0x789ABCDEu);
  EXPECT_EQ(r.u64(), 0x0102030405060708ULL);
  EXPECT_EQ(r.str(), "hi there");
  EXPECT_FALSE(r.truncated());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(WriterReader, LongStringFillsA306ByteSpan) {
  // 2 + 300 + 4 bytes, exactly the span's size.
  std::vector<std::uint8_t> buf(306);
  Writer w{buf};
  const std::string body(300, 'q');
  w.str(body);
  w.u32(0xCAFEF00D);
  EXPECT_FALSE(w.overflowed());
  Reader r{std::span<const std::uint8_t>{buf}};
  EXPECT_EQ(r.str(), body);
  EXPECT_EQ(r.u32(), 0xCAFEF00Du);
  EXPECT_FALSE(r.truncated());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(WriterReader, WritePastTheSpanWritesNothingAndSticks) {
  std::uint8_t buf[6] = {0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE};
  Writer w{std::span{buf}.first(3)};
  w.u16(0x0102);
  EXPECT_FALSE(w.overflowed());
  w.u16(0x0304);  // one byte short: nothing of it lands
  EXPECT_TRUE(w.overflowed());
  w.u8(0x05);  // would fit, but the writer stays refused
  w.str("");
  EXPECT_TRUE(w.overflowed());
  const std::uint8_t want[6] = {0x01, 0x02, 0xEE, 0xEE, 0xEE, 0xEE};
  EXPECT_TRUE(std::equal(std::begin(buf), std::end(buf), std::begin(want)));
}

TEST(WriterReader, BigEndianOnWire) {
  std::uint8_t buf[2];
  Writer w{buf};
  w.u16(0x0102);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[1], 0x02);
}

TEST(WriterReader, TruncatedReadSticky) {
  std::uint8_t buf[1];
  Writer w{buf};
  w.u8(1);
  Reader r{std::span<const std::uint8_t>{buf}};
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_TRUE(r.truncated());
  EXPECT_EQ(r.u8(), 0);  // stays truncated
  EXPECT_TRUE(r.truncated());
}

/// Layer that stamps its name onto headers both ways, for order checks.
class TaggingLayer : public Layer {
 public:
  explicit TaggingLayer(std::string name, std::vector<std::string>& log)
      : Layer(std::move(name)), log_(log) {}
  void push(Message msg) override {
    log_.push_back(name() + ":push");
    send_down(std::move(msg));
  }
  void pop(Message msg) override {
    log_.push_back(name() + ":pop");
    send_up(std::move(msg));
  }

 private:
  std::vector<std::string>& log_;
};

/// Bottom layer that reflects pushes back up (loopback device).
class LoopbackLayer : public Layer {
 public:
  LoopbackLayer() : Layer("loop") {}
  void push(Message msg) override { send_up(std::move(msg)); }
  void pop(Message msg) override { send_up(std::move(msg)); }
};

TEST(Stack, PushTraversesTopToBottom) {
  Stack stack;
  std::vector<std::string> log;
  auto* app = static_cast<AppLayer*>(stack.add(std::make_unique<AppLayer>()));
  stack.add(std::make_unique<TaggingLayer>("a", log));
  stack.add(std::make_unique<TaggingLayer>("b", log));
  stack.add(std::make_unique<LoopbackLayer>());
  app->send("ping");
  EXPECT_EQ(log, (std::vector<std::string>{"a:push", "b:push", "b:pop",
                                           "a:pop"}));
  ASSERT_EQ(app->received().size(), 1u);
  EXPECT_EQ(app->received()[0].as_string(), "ping");
}

TEST(Stack, InsertBelowSplicesLayer) {
  Stack stack;
  std::vector<std::string> log;
  auto* app = static_cast<AppLayer*>(stack.add(std::make_unique<AppLayer>()));
  auto* a = stack.add(std::make_unique<TaggingLayer>("a", log));
  stack.add(std::make_unique<LoopbackLayer>());
  stack.insert_below(*a, std::make_unique<TaggingLayer>("spliced", log));
  app->send("x");
  EXPECT_EQ(log[0], "a:push");
  EXPECT_EQ(log[1], "spliced:push");
  EXPECT_EQ(stack.names(),
            (std::vector<std::string>{"app", "a", "spliced", "loop"}));
}

TEST(Stack, InsertAboveSplicesLayer) {
  Stack stack;
  std::vector<std::string> log;
  stack.add(std::make_unique<AppLayer>());
  auto* a = stack.add(std::make_unique<TaggingLayer>("a", log));
  stack.insert_above(*a, std::make_unique<TaggingLayer>("above", log));
  EXPECT_EQ(stack.names(), (std::vector<std::string>{"app", "above", "a"}));
}

TEST(Stack, RemoveRelinksNeighbours) {
  Stack stack;
  std::vector<std::string> log;
  auto* app = static_cast<AppLayer*>(stack.add(std::make_unique<AppLayer>()));
  auto* mid = stack.add(std::make_unique<TaggingLayer>("mid", log));
  stack.add(std::make_unique<LoopbackLayer>());
  stack.remove(*mid);
  app->send("y");
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(app->received().size(), 1u);
}

TEST(Stack, FindByName) {
  Stack stack;
  stack.add(std::make_unique<AppLayer>("top"));
  EXPECT_NE(stack.find("top"), nullptr);
  EXPECT_EQ(stack.find("nope"), nullptr);
}

TEST(Stack, BottomPushWithNoDeviceDropsSilently) {
  Stack stack;
  auto* app = static_cast<AppLayer*>(stack.add(std::make_unique<AppLayer>()));
  app->send("into the void");  // must not crash
  EXPECT_TRUE(app->received().empty());
}

TEST(AppLayer, TakeReceivedDrains) {
  Stack stack;
  auto* app = static_cast<AppLayer*>(stack.add(std::make_unique<AppLayer>()));
  stack.add(std::make_unique<LoopbackLayer>());
  app->send("one");
  app->send("two");
  auto msgs = app->take_received();
  EXPECT_EQ(msgs.size(), 2u);
  EXPECT_TRUE(app->received().empty());
}

TEST(TraceLog, IntervalsComputeSuccessiveDifferences) {
  std::vector<sim::TimePoint> times{sim::sec(1), sim::sec(3), sim::sec(7)};
  auto iv = trace::TraceLog::intervals(times);
  ASSERT_EQ(iv.size(), 2u);
  EXPECT_EQ(iv[0], sim::sec(2));
  EXPECT_EQ(iv[1], sim::sec(4));
}

TEST(TraceLog, SelectAndCount) {
  trace::TraceLog log;
  log.add(1, "n1", "send", "t1", "a");
  log.add(2, "n1", "recv", "t1", "b");
  log.add(3, "n2", "send", "t2", "c");
  EXPECT_EQ(log.count("t1"), 2u);
  EXPECT_EQ(log.count("t1", "send"), 1u);
  auto sel = log.select([](const trace::Record& r) { return r.node == "n2"; });
  ASSERT_EQ(sel.size(), 1u);
  EXPECT_EQ(sel[0].detail, "c");
  auto first = log.first([](const trace::Record& r) { return r.at > 1; });
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->at, 2);
}

// Property: header push/pop round-trips for arbitrary sizes.
class HeaderRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HeaderRoundTrip, Inverse) {
  const std::size_t n = GetParam();
  Message m{"body"};
  std::vector<std::uint8_t> hdr(n);
  for (std::size_t i = 0; i < n; ++i) {
    hdr[i] = static_cast<std::uint8_t>(i * 37);
  }
  m.push_header(hdr);
  auto popped = m.pop_header(n);
  EXPECT_EQ(std::vector(popped.begin(), popped.end()), hdr);
  EXPECT_EQ(m.as_string(), "body");
}

INSTANTIATE_TEST_SUITE_P(Sizes, HeaderRoundTrip,
                         ::testing::Values(0, 1, 2, 5, 17, 64, 255, 1500));

}  // namespace
}  // namespace pfi::xk
