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

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

namespace pfi::campaign::kv {

inline void put(std::string* out, const char* key, std::string_view v) {
  *out += key;
  *out += ' ';
  *out += std::to_string(v.size());
  *out += '\n';
  out->append(v.data(), v.size());
  *out += '\n';
}

inline void put_u64(std::string* out, const char* key, std::uint64_t v) {
  put(out, key, std::to_string(v));
}

inline void put_i64(std::string* out, const char* key, std::int64_t v) {
  put(out, key, std::to_string(v));
}

/// Doubles travel as C99 hex floats: exact round-trip, no locale.
inline void put_double(std::string* out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  put(out, key, buf);
}

/// Cursor over `key len\nbytes\n` entries. Unknown keys are skipped by the
/// caller; a malformed entry ends the scan (next() returns false).
struct Scan {
  std::string_view bytes;
  std::size_t pos = 0;

  bool next(std::string* key, std::string* value) {
    if (pos >= bytes.size()) return false;
    const std::size_t sp = bytes.find(' ', pos);
    if (sp == std::string_view::npos) return false;
    const std::size_t nl = bytes.find('\n', sp + 1);
    if (nl == std::string_view::npos) return false;
    char* end = nullptr;
    // The length token is NUL-free inside a string_view; copy it out.
    const std::string len_tok(bytes.substr(sp + 1, nl - sp - 1));
    // Digits only (strtoull would happily wrap "-1") and no ERANGE
    // saturation: the payload is parsed pre-auth, so a hostile length
    // token must die here, not in the bounds arithmetic below.
    if (len_tok.empty() || len_tok[0] < '0' || len_tok[0] > '9') return false;
    errno = 0;
    const unsigned long long len = std::strtoull(len_tok.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || errno == ERANGE) return false;
    // Overflow-proof bounds: the value plus its trailing '\n' must fit in
    // what remains after the header newline. The naive `nl + 1 + len + 1`
    // wraps for a crafted len, passing the check into an OOB read — or
    // sends `pos` backwards so the scan re-parses the same entry forever.
    if (nl + 2 > bytes.size() || len > bytes.size() - (nl + 2)) return false;
    if (bytes[nl + 1 + len] != '\n') return false;
    key->assign(bytes.substr(pos, sp - pos));
    value->assign(bytes.substr(nl + 1, len));
    pos = nl + 1 + len + 1;
    return true;
  }
};

/// Strict numeric parses: the whole string must be one in-range number.
/// A failed parse (empty, trailing bytes, ERANGE over/underflow, a minus
/// sign where only unsigned makes sense) yields 0 and reports through *ok
/// when given — frame decoders reject such entries instead of letting a
/// silently saturated value masquerade as a real count, slot or epoch.
inline std::int64_t to_i64(const std::string& v, bool* ok = nullptr) {
  char* end = nullptr;
  errno = 0;
  const long long r = std::strtoll(v.c_str(), &end, 10);
  const bool good =
      !v.empty() && end != nullptr && *end == '\0' && errno != ERANGE;
  if (ok != nullptr) *ok = good;
  return good ? static_cast<std::int64_t>(r) : 0;
}

inline std::uint64_t to_u64(const std::string& v, bool* ok = nullptr) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long r = std::strtoull(v.c_str(), &end, 10);
  const bool good = !v.empty() && v[0] != '-' && end != nullptr &&
                    *end == '\0' && errno != ERANGE;
  if (ok != nullptr) *ok = good;
  return good ? static_cast<std::uint64_t>(r) : 0;
}

inline double to_double(const std::string& v, bool* ok = nullptr) {
  char* end = nullptr;
  const double r = std::strtod(v.c_str(), &end);
  const bool good = !v.empty() && end != nullptr && *end == '\0';
  if (ok != nullptr) *ok = good;
  return good ? r : 0.0;
}

/// Accumulates numeric-parse health across one decoder: any token that
/// over/underflows or carries trailing bytes poisons `ok`, and the decoder
/// rejects the whole payload instead of acting on a misparsed value.
struct Num {
  bool ok = true;

  std::int64_t i64(const std::string& v) {
    bool good = true;
    const std::int64_t r = to_i64(v, &good);
    ok = ok && good;
    return r;
  }

  std::uint64_t u64(const std::string& v) {
    bool good = true;
    const std::uint64_t r = to_u64(v, &good);
    ok = ok && good;
    return r;
  }

  double f64(const std::string& v) {
    bool good = true;
    const double r = to_double(v, &good);
    ok = ok && good;
    return r;
  }
};

}  // namespace pfi::campaign::kv
