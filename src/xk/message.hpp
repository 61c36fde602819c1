// x-Kernel-style message abstraction.
//
// A Message is the unit that travels up and down a protocol stack. Layers
// prepend their header on the way down (push_header) and strip it on the way
// up (pop_header), exactly like the x-Kernel message tool the paper's stack
// is built on. The PFI layer additionally needs to inspect and mutate bytes
// in place (message corruption faults), so raw indexed access is provided.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace pfi::xk {

class Message {
 public:
  Message() = default;
  explicit Message(std::vector<std::uint8_t> bytes);
  explicit Message(std::string_view payload);

  [[nodiscard]] std::size_t size() const { return buf_.size() - off_; }
  [[nodiscard]] bool empty() const { return size() == 0; }

  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return {buf_.data() + off_, size()};
  }
  [[nodiscard]] std::span<std::uint8_t> mutable_bytes() {
    return {buf_.data() + off_, size()};
  }

  /// Prepend `header` (a layer pushing its header on the way down the stack).
  void push_header(std::span<const std::uint8_t> header);

  /// Remove the first `n` bytes (a layer stripping its header on the way up)
  /// and return a view of them, valid until the message next changes.
  /// Returns an empty view, and leaves the message alone, if it is shorter
  /// than `n`.
  std::span<const std::uint8_t> pop_header(std::size_t n);

  /// Append payload bytes at the tail.
  void append(std::span<const std::uint8_t> data);
  void append(std::string_view data);

  /// Truncate to the first `n` bytes (drop any trailer).
  void truncate(std::size_t n);

  /// Byte access; out-of-range reads return 0, out-of-range writes are
  /// ignored (scripts may probe past the end of short packets).
  [[nodiscard]] std::uint8_t byte_at(std::size_t i) const;
  void set_byte(std::size_t i, std::uint8_t v);

  /// Payload rendered as text (non-printables escaped) — used by msg_log.
  [[nodiscard]] std::string printable() const;

  /// Whole contents as a string (for application-level payloads).
  [[nodiscard]] std::string as_string() const;

  /// Content equality (representation headroom is irrelevant).
  bool operator==(const Message& other) const;

 private:
  // Layers prepend headers on the way down, so the message keeps headroom at
  // the front: push_header fills it (O(header)) and pop_header just advances
  // `off_`. A push that runs out regrows with kHeadroom free bytes in front
  // of the new header, so the stack's later pushes fit without a copy. The
  // x-Kernel's message tool used the same trick; the pfi_overhead bench
  // measures the win.
  static constexpr std::size_t kHeadroom = 64;

  std::vector<std::uint8_t> buf_;
  std::size_t off_ = 0;  // start of live data within buf_
};

/// Big-endian (network byte order) header writer. Bytes accumulate in
/// inline storage, so building any header of the stack allocates nothing;
/// only a writer that grows past kInlineBytes spills to the heap.
class Writer {
 public:
  static constexpr std::size_t kInlineBytes = 128;

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void raw(std::span<const std::uint8_t> data);
  void str(std::string_view s);  // length-prefixed (u16) string

  [[nodiscard]] std::span<const std::uint8_t> data() const {
    return {size_ <= kInlineBytes ? inline_ : heap_.data(), size_};
  }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Prepend the accumulated bytes onto `msg` as a header.
  void push_onto(Message& msg) const { msg.push_header(data()); }

 private:
  /// Extend by `n` bytes and return where they go.
  std::uint8_t* grow(std::size_t n);
  void put_be(std::uint64_t v, int width);

  std::uint8_t inline_[kInlineBytes];  // bytes [0, size_) are written
  std::vector<std::uint8_t> heap_;     // every byte, once past kInlineBytes
  std::size_t size_ = 0;
};

/// Big-endian header reader over a byte span. Reads past the end yield zero
/// and set a sticky truncation flag the caller can check.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}
  explicit Reader(const Message& msg) : data_(msg.bytes()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::vector<std::uint8_t> raw(std::size_t n);
  std::string str();  // length-prefixed (u16) string

  [[nodiscard]] std::size_t offset() const { return off_; }
  [[nodiscard]] std::size_t remaining() const {
    return off_ <= data_.size() ? data_.size() - off_ : 0;
  }
  [[nodiscard]] bool truncated() const { return truncated_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t off_ = 0;
  bool truncated_ = false;
};

}  // namespace pfi::xk
