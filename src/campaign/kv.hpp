// Length-prefixed key/value entries — the campaign's wire idiom.
//
// The fork sandbox streams RunResults as a flat sequence of
// `key len\nbytes\n` entries (campaign/sandbox.hpp), and every fabric frame
// payload uses the same self-delimiting format: trivially lossless (values
// may contain any byte, including newlines), trivially skippable (unknown
// keys are forward compatibility, not errors), and with doubles travelling
// as C99 hex floats there is no precision policy to keep in sync across
// machines. Both decode bytes from another process, so every parse here
// fails closed.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <string_view>
#include <system_error>

namespace pfi::campaign::kv {

/// The decimal digits of `v`, written into `buf` (no heap, no sign).
template <typename Int>
std::string_view digits(char (&buf)[24], Int v) {
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, v);
  return {buf, static_cast<std::size_t>(r.ptr - buf)};
}

/// One entry whose value is the concatenation of `parts`, written in place:
/// callers compose a value ("<count> <name>") without building it first.
inline void put_parts(std::string* out, const char* key,
                      std::initializer_list<std::string_view> parts) {
  std::size_t len = 0;
  for (const std::string_view p : parts) len += p.size();
  char buf[24];
  const std::string_view n = digits(buf, len);
  const std::size_t key_len = std::strlen(key);
  const std::size_t at = out->size();
  out->resize(at + key_len + n.size() + len + 3);
  char* w = out->data() + at;
  const auto copy = [&w](const char* src, std::size_t size) {
    std::memcpy(w, src, size);
    w += size;
  };
  copy(key, key_len);
  *w++ = ' ';
  copy(n.data(), n.size());
  *w++ = '\n';
  for (const std::string_view p : parts) copy(p.data(), p.size());
  *w = '\n';
}

inline void put(std::string* out, const char* key, std::string_view v) {
  put_parts(out, key, {v});
}

inline void put_u64(std::string* out, const char* key, std::uint64_t v) {
  char buf[24];
  put(out, key, digits(buf, v));
}

inline void put_i64(std::string* out, const char* key, std::int64_t v) {
  char buf[24];
  put(out, key, digits(buf, v));
}

/// Doubles travel as C99 hex floats: exact round-trip, no locale.
inline void put_double(std::string* out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  put(out, key, buf);
}

/// A whole-token unsigned or signed decimal: digits with at most a leading
/// '-' (signed only), nothing before or after, in range. Anything else —
/// "+5", " 5", "5 ", "0x5", an overflow — is refused, not read as a prefix
/// or a saturated value.
template <typename Int>
bool parse_int(std::string_view v, Int* out) {
  const char* end = v.data() + v.size();
  const std::from_chars_result r = std::from_chars(v.data(), end, *out);
  return !v.empty() && r.ec == std::errc{} && r.ptr == end;
}

/// Cursor over `key len\nbytes\n` entries. Key and value are views into
/// `bytes`, valid while it is. Unknown keys are skipped by the caller; a
/// malformed entry ends the scan (next() returns false).
struct Scan {
  std::string_view bytes;
  std::size_t pos = 0;

  bool next(std::string_view* key, std::string_view* value) {
    if (pos >= bytes.size()) return false;
    const std::size_t sp = bytes.find(' ', pos);
    if (sp == std::string_view::npos) return false;
    const std::size_t nl = bytes.find('\n', sp + 1);
    if (nl == std::string_view::npos) return false;
    // Digits only, whole token, no overflow: the payload is parsed
    // pre-auth, so a hostile length token must die here, not in the
    // bounds arithmetic below.
    std::uint64_t len = 0;
    if (!parse_int(bytes.substr(sp + 1, nl - sp - 1), &len)) return false;
    // Overflow-proof bounds: the value plus its trailing '\n' must fit in
    // what remains after the header newline. The naive `nl + 1 + len + 1`
    // wraps for a crafted len, passing the check into an OOB read — or
    // sends `pos` backwards so the scan re-parses the same entry forever.
    if (nl + 2 > bytes.size() || len > bytes.size() - (nl + 2)) return false;
    if (bytes[nl + 1 + len] != '\n') return false;
    *key = bytes.substr(pos, sp - pos);
    *value = bytes.substr(nl + 1, len);
    pos = nl + 1 + len + 1;
    return true;
  }
};

/// Strict numeric parses: the whole token must be one in-range number (see
/// parse_int). A failed parse yields 0 and reports through *ok when given —
/// frame decoders reject such entries instead of letting a silently
/// saturated value masquerade as a real count, slot or epoch.
inline std::int64_t to_i64(std::string_view v, bool* ok = nullptr) {
  std::int64_t r = 0;
  const bool good = parse_int(v, &r);
  if (ok != nullptr) *ok = good;
  return good ? r : 0;
}

inline std::uint64_t to_u64(std::string_view v, bool* ok = nullptr) {
  std::uint64_t r = 0;
  const bool good = parse_int(v, &r);
  if (ok != nullptr) *ok = good;
  return good ? r : 0;
}

/// strtod over a NUL-terminated stack copy: hex floats ("0x1.ep+4", the
/// form put_double writes) and inf/nan parse exactly as they always did.
inline double to_double(std::string_view v, bool* ok = nullptr) {
  char buf[64];
  bool good = !v.empty() && v.size() < sizeof buf;
  double r = 0.0;
  if (good) {
    std::memcpy(buf, v.data(), v.size());
    buf[v.size()] = '\0';
    char* end = nullptr;
    r = std::strtod(buf, &end);
    good = end == buf + v.size();
  }
  if (ok != nullptr) *ok = good;
  return good ? r : 0.0;
}

/// Accumulates numeric-parse health across one decoder: any token that
/// over/underflows or carries stray bytes poisons `ok`, and the decoder
/// rejects the whole payload instead of acting on a misparsed value.
struct Num {
  bool ok = true;

  std::int64_t i64(std::string_view v) {
    bool good = true;
    const std::int64_t r = to_i64(v, &good);
    ok = ok && good;
    return r;
  }

  std::uint64_t u64(std::string_view v) {
    bool good = true;
    const std::uint64_t r = to_u64(v, &good);
    ok = ok && good;
    return r;
  }

  double f64(std::string_view v) {
    bool good = true;
    const double r = to_double(v, &good);
    ok = ok && good;
    return r;
  }
};

}  // namespace pfi::campaign::kv
