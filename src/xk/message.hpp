// x-Kernel-style message abstraction.
//
// A Message is the unit that travels up and down a protocol stack. Layers
// prepend their header on the way down and strip it on the way up
// (pop_header), exactly like the x-Kernel message tool the paper's stack is
// built on. A layer writes its header in place: prepend(n) hands out the n
// bytes in front of the message, inside its headroom, and a Writer fills
// them. The PFI layer additionally needs to inspect and mutate bytes in
// place (message corruption faults), so raw indexed access is provided.
//
// Writer and Reader are the one big-endian codec every layer uses. Both
// work over a span: a Writer fills a span its caller sized (a header from
// prepend), a Reader walks received bytes. Both are inline, so encoding or
// decoding a header compiles to a few loads and stores with a bounds check.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
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

  /// Free bytes a fresh or regrown message keeps in front of its data, so
  /// the stack's later headers fit without a copy.
  static constexpr std::size_t kHeadroom = 64;

  /// Make room for an `n`-byte header in front and return it for the caller
  /// to fill (a layer writing its header in place on the way down). The
  /// bytes come out of the headroom; a message out of headroom regrows with
  /// kHeadroom free in front of the new header. The view is valid until the
  /// message next changes.
  std::span<std::uint8_t> prepend(std::size_t n) {
    if (n > off_) regrow_front(n);
    off_ -= n;
    return {buf_.data() + off_, n};
  }

  /// Prepend a copy of `header`.
  void push_header(std::span<const std::uint8_t> header) {
    std::copy(header.begin(), header.end(), prepend(header.size()).begin());
  }

  /// Remove the first `n` bytes (a layer stripping its header on the way up)
  /// and return a view of them, valid until the message next changes.
  /// Returns an empty view, and leaves the message alone, if it is shorter
  /// than `n`.
  std::span<const std::uint8_t> pop_header(std::size_t n) {
    if (n > size()) return {};
    const std::span<const std::uint8_t> header{buf_.data() + off_, n};
    off_ += n;
    return header;
  }

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
  // the front: prepend hands it out (O(1)) and pop_header just advances
  // `off_`. The x-Kernel's message tool used the same trick; the
  // pfi_overhead bench measures the win.

  /// Move the data into a new buffer with kHeadroom + n free bytes in
  /// front of it.
  void regrow_front(std::size_t n);

  std::vector<std::uint8_t> buf_;
  std::size_t off_ = 0;  // start of live data within buf_
};

/// Big-endian (network byte order) writer over a span the caller sized,
/// usually the header prepend() handed out. Writing past the end writes
/// nothing and sets a sticky overflow flag; every later write is refused
/// too (the mirror of Reader::truncated()).
class Writer {
 public:
  explicit Writer(std::span<std::uint8_t> out) : out_(out) {}

  void u8(std::uint8_t v) { put_be<1>(v); }
  void u16(std::uint16_t v) { put_be<2>(v); }
  void u32(std::uint32_t v) { put_be<4>(v); }
  void u64(std::uint64_t v) { put_be<8>(v); }
  void raw(std::span<const std::uint8_t> data) {
    if (!claim(data.size())) return;
    std::copy(data.begin(), data.end(), out_.begin() + off_);
    off_ += data.size();
  }
  void str(std::string_view s) {  // length-prefixed (u16) string
    const std::string_view body = s.substr(0, 0xFFFF);
    u16(static_cast<std::uint16_t>(body.size()));
    raw({reinterpret_cast<const std::uint8_t*>(body.data()), body.size()});
  }

  [[nodiscard]] bool overflowed() const { return overflowed_; }

 private:
  /// True if the next `n` bytes fit; otherwise sets the sticky flag.
  /// `off_ + n` cannot wrap: off_ never exceeds size + 1, and no span (so
  /// no `n`) comes near SIZE_MAX / 2.
  bool claim(std::size_t n) {
    if (off_ + n <= out_.size()) return true;
    overflowed_ = true;
    off_ = out_.size() + 1;
    return false;
  }

  template <std::size_t kWidth>
  void put_be(std::uint64_t v) {
    if (!claim(kWidth)) return;
    for (std::size_t i = 0; i < kWidth; ++i) {
      out_[off_ + i] = static_cast<std::uint8_t>(v >> (8 * (kWidth - 1 - i)));
    }
    off_ += kWidth;
  }

  std::span<std::uint8_t> out_;
  std::size_t off_ = 0;
  bool overflowed_ = false;
};

/// Big-endian reader over a byte span. Reads past the end yield zero and
/// set a sticky truncation flag the caller can check; every later read
/// yields zero too.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}
  explicit Reader(const Message& msg) : data_(msg.bytes()) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(get_be<1>()); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(get_be<2>()); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(get_be<4>()); }
  std::uint64_t u64() { return get_be<8>(); }
  std::vector<std::uint8_t> raw(std::size_t n);
  std::string str();  // length-prefixed (u16) string

  [[nodiscard]] std::size_t remaining() const {
    return off_ <= data_.size() ? data_.size() - off_ : 0;
  }
  [[nodiscard]] bool truncated() const { return truncated_; }

 private:
  /// True if the next `n` bytes are there; otherwise sets the sticky flag.
  /// A truncated reader sits at size + 1, so the check stays
  /// `off_ + n > size`: rewritten as `n > size - off_` it would wrap.
  /// `off_ + n` itself cannot wrap: `n` is a field width, or raw() has
  /// capped it at size + 1.
  bool take(std::size_t n) {
    if (off_ + n > data_.size()) {
      truncated_ = true;
      off_ = data_.size() + 1;
      return false;
    }
    return true;
  }

  template <std::size_t kWidth>
  std::uint64_t get_be() {
    if (!take(kWidth)) return 0;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < kWidth; ++i) v = (v << 8) | data_[off_ + i];
    off_ += kWidth;
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t off_ = 0;
  bool truncated_ = false;
};

}  // namespace pfi::xk
