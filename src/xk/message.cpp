#include "xk/message.hpp"

#include <algorithm>
#include <cctype>

namespace pfi::xk {

Message::Message(std::vector<std::uint8_t> bytes) {
  buf_.reserve(kHeadroom + bytes.size());
  buf_.resize(kHeadroom);
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  off_ = kHeadroom;
}

Message::Message(std::string_view payload) {
  buf_.reserve(kHeadroom + payload.size());
  buf_.resize(kHeadroom);
  buf_.insert(buf_.end(), payload.begin(), payload.end());
  off_ = kHeadroom;
}

void Message::regrow_front(std::size_t n) {
  // Out of headroom: regrow with kHeadroom to spare once the header is in.
  const std::size_t front = kHeadroom + n;
  std::vector<std::uint8_t> fresh;
  fresh.reserve(front + size());
  fresh.resize(front);
  fresh.insert(fresh.end(), buf_.begin() + static_cast<long>(off_),
               buf_.end());
  buf_ = std::move(fresh);
  off_ = front;
}

void Message::append(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void Message::append(std::string_view data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void Message::truncate(std::size_t n) {
  if (n < size()) buf_.resize(off_ + n);
}

std::uint8_t Message::byte_at(std::size_t i) const {
  return i < size() ? buf_[off_ + i] : 0;
}

void Message::set_byte(std::size_t i, std::uint8_t v) {
  if (i < size()) buf_[off_ + i] = v;
}

bool Message::operator==(const Message& other) const {
  return std::equal(bytes().begin(), bytes().end(), other.bytes().begin(),
                    other.bytes().end());
}

std::string Message::printable() const {
  std::string out;
  out.reserve(size());
  for (std::uint8_t b : bytes()) {
    if (std::isprint(b) != 0) {
      out.push_back(static_cast<char>(b));
    } else {
      static constexpr char kHex[] = "0123456789abcdef";
      out += "\\x";
      out.push_back(kHex[b >> 4]);
      out.push_back(kHex[b & 0xF]);
    }
  }
  return out;
}

std::string Message::as_string() const {
  return {bytes().begin(), bytes().end()};
}

}  // namespace pfi::xk
