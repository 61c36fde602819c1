#include "fabric/wire.hpp"

#include <cstring>

#include "campaign/kv.hpp"
#include "campaign/sandbox.hpp"

namespace pfi::fabric {

namespace kv = campaign::kv;

namespace {

using kv::Num;

bool known_type(std::uint8_t t) {
  // The whole reserved window frames cleanly; handlers ignore (and count)
  // types they do not implement, so a newer peer's frames degrade instead
  // of corrupting the stream. Above the window is garbage.
  return t >= static_cast<std::uint8_t>(FrameType::kHello) &&
         t <= kMaxReservedFrameType;
}

}  // namespace

std::string encode_frame(FrameType type, std::string_view payload) {
  std::string out;
  out.reserve(5 + payload.size());
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size()) + 1;
  out.push_back(static_cast<char>((len >> 24) & 0xFF));
  out.push_back(static_cast<char>((len >> 16) & 0xFF));
  out.push_back(static_cast<char>((len >> 8) & 0xFF));
  out.push_back(static_cast<char>(len & 0xFF));
  out.push_back(static_cast<char>(type));
  out.append(payload.data(), payload.size());
  return out;
}

bool FrameReader::next(Frame* out) {
  if (corrupt_) return false;
  // Compact once the consumed prefix dominates the buffer.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  if (buf_.size() - pos_ < 4) return false;
  const auto* b = reinterpret_cast<const unsigned char*>(buf_.data() + pos_);
  const std::uint32_t len = (static_cast<std::uint32_t>(b[0]) << 24) |
                            (static_cast<std::uint32_t>(b[1]) << 16) |
                            (static_cast<std::uint32_t>(b[2]) << 8) |
                            static_cast<std::uint32_t>(b[3]);
  if (len == 0 || len > max_payload_ + 1) {
    corrupt_ = true;
    return false;
  }
  if (buf_.size() - pos_ < 4 + len) return false;
  const std::uint8_t type = static_cast<std::uint8_t>(buf_[pos_ + 4]);
  if (!known_type(type)) {
    corrupt_ = true;
    return false;
  }
  out->type = static_cast<FrameType>(type);
  out->payload.assign(buf_, pos_ + 5, len - 1);
  pos_ += 4 + len;
  return true;
}

// --- handshake -------------------------------------------------------------

std::string encode_hello(const Hello& h) {
  std::string out;
  kv::put_u64(&out, "v", h.version);
  kv::put(&out, "role", h.role);
  kv::put(&out, "name", h.name);
  if (!h.token.empty()) kv::put(&out, "token", h.token);
  if (!h.id.empty()) kv::put(&out, "id", h.id);
  return out;
}

bool decode_hello(std::string_view payload, Hello* out) {
  kv::Scan scan{payload};
  std::string_view key, value;
  bool has_version = false;
  Num num;
  Hello h;
  while (scan.next(&key, &value)) {
    if (key == "v") {
      h.version = static_cast<std::uint32_t>(num.u64(value));
      has_version = true;
    } else if (key == "role") {
      h.role = std::string(value);
    } else if (key == "name") {
      h.name = std::string(value);
    } else if (key == "token") {
      h.token = std::string(value);
    } else if (key == "id") {
      h.id = std::string(value);
    }
  }
  if (!num.ok || !has_version || h.role.empty()) return false;
  *out = h;
  return true;
}

bool tokens_equal(std::string_view a, std::string_view b) {
  // Accumulate every byte difference so the comparison touches all of both
  // strings regardless of where the first mismatch sits. Length differences
  // short-circuit — the secret's length is not treated as secret.
  if (a.size() != b.size()) return false;
  unsigned char diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff = static_cast<unsigned char>(
        diff | (static_cast<unsigned char>(a[i]) ^
                static_cast<unsigned char>(b[i])));
  }
  return diff == 0;
}

// --- leases ----------------------------------------------------------------

std::string encode_lease_request(int want) {
  std::string out;
  kv::put_i64(&out, "want", want);
  return out;
}

bool decode_lease_request(std::string_view payload, int* want) {
  kv::Scan scan{payload};
  std::string_view key, value;
  while (scan.next(&key, &value)) {
    if (key == "want") {
      Num num;
      *want = static_cast<int>(num.i64(value));
      return num.ok && *want > 0;
    }
  }
  return false;
}

std::string encode_lease_grant(int job, const std::vector<int>& slots,
                               const std::vector<std::int64_t>& epochs,
                               const std::vector<campaign::RunCell>& cells) {
  std::string out;
  kv::put_i64(&out, "job", job);
  kv::put_u64(&out, "n", slots.size());
  for (std::size_t i = 0;
       i < slots.size() && i < epochs.size() && i < cells.size(); ++i) {
    kv::put_i64(&out, "slot", slots[i]);
    kv::put_i64(&out, "epoch", epochs[i]);
    kv::put(&out, "cell", encode_cell(cells[i]));
  }
  return out;
}

bool decode_lease_grant(std::string_view payload, int* job,
                        std::vector<int>* slots,
                        std::vector<std::int64_t>* epochs,
                        std::vector<campaign::RunCell>* cells) {
  slots->clear();
  epochs->clear();
  cells->clear();
  *job = 0;
  kv::Scan scan{payload};
  std::string_view key, value;
  std::uint64_t n = 0;
  int pending_slot = -1;
  std::int64_t pending_epoch = 0;
  bool have_slot = false, have_epoch = false;
  Num num;
  while (scan.next(&key, &value)) {
    if (key == "job") {
      *job = static_cast<int>(num.i64(value));
    } else if (key == "n") {
      n = num.u64(value);
    } else if (key == "slot") {
      pending_slot = static_cast<int>(num.i64(value));
      have_slot = true;
    } else if (key == "epoch") {
      pending_epoch = num.i64(value);
      have_epoch = true;
    } else if (key == "cell") {
      campaign::RunCell cell;
      if (!have_slot || !have_epoch || !decode_cell(value, &cell)) {
        return false;
      }
      slots->push_back(pending_slot);
      epochs->push_back(pending_epoch);
      cells->push_back(std::move(cell));
      have_slot = have_epoch = false;
    }
  }
  return num.ok && slots->size() == n;
}

// --- cells -----------------------------------------------------------------

std::string encode_cell(const campaign::RunCell& cell) {
  std::string out;
  kv::put_i64(&out, "index", cell.index);
  kv::put(&out, "id", cell.id);
  kv::put(&out, "protocol", cell.protocol);
  kv::put(&out, "oracle", cell.oracle);
  kv::put(&out, "vendor", cell.vendor);
  kv::put(&out, "script_file", cell.script_file);
  // New axes only travel when set — a v3 peer without them never sees the
  // keys, and older decoders skip unknown keys.
  if (!cell.conform_file.empty()) kv::put(&out, "conform", cell.conform_file);
  if (!cell.scenario.empty()) kv::put(&out, "scenario", cell.scenario);
  kv::put_u64(&out, "seed", cell.seed);
  kv::put_i64(&out, "nodes", cell.nodes);
  kv::put_i64(&out, "target", cell.target_node);
  kv::put_i64(&out, "warmup", cell.warmup);
  kv::put_i64(&out, "duration", cell.duration);
  kv::put_i64(&out, "jitter", cell.jitter);
  kv::put(&out, "buggy", cell.buggy ? "1" : "0");
  kv::put_i64(&out, "timeout_ms", cell.timeout_ms);
  kv::put_u64(&out, "max_events", cell.max_sim_events);
  kv::put(&out, "timeline", cell.capture_timeline ? "1" : "0");
  kv::put_u64(&out, "nev", cell.schedule.events.size());
  for (const campaign::FaultEvent& e : cell.schedule.events) {
    std::string ev;
    kv::put(&ev, "type", e.type);
    kv::put(&ev, "kind", core::scriptgen::to_string(e.kind));
    kv::put_i64(&ev, "occ", e.occurrence);
    kv::put(&ev, "send", e.on_send ? "1" : "0");
    kv::put_i64(&ev, "delay", e.delay);
    kv::put_i64(&ev, "copies", e.copies);
    kv::put_u64(&ev, "corrupt_off", e.corrupt_offset);
    kv::put_i64(&ev, "batch", e.batch);
    kv::put(&out, "ev", ev);
  }
  return out;
}

namespace {

bool parse_kind(std::string_view s, core::scriptgen::FaultKind* out) {
  using core::scriptgen::FaultKind;
  for (FaultKind k : {FaultKind::kDrop, FaultKind::kDelay,
                      FaultKind::kDuplicate, FaultKind::kCorrupt,
                      FaultKind::kReorder}) {
    if (core::scriptgen::to_string(k) == s) {
      *out = k;
      return true;
    }
  }
  return false;
}

bool decode_event(std::string_view payload, campaign::FaultEvent* out) {
  kv::Scan scan{payload};
  std::string_view key, value;
  campaign::FaultEvent e;
  Num num;
  while (scan.next(&key, &value)) {
    if (key == "type") {
      e.type = std::string(value);
    } else if (key == "kind") {
      if (!parse_kind(value, &e.kind)) return false;
    } else if (key == "occ") {
      e.occurrence = static_cast<int>(num.i64(value));
    } else if (key == "send") {
      e.on_send = value == "1";
    } else if (key == "delay") {
      e.delay = num.i64(value);
    } else if (key == "copies") {
      e.copies = static_cast<int>(num.i64(value));
    } else if (key == "corrupt_off") {
      e.corrupt_offset = static_cast<std::size_t>(num.u64(value));
    } else if (key == "batch") {
      e.batch = static_cast<int>(num.i64(value));
    }
  }
  if (!num.ok) return false;
  *out = std::move(e);
  return true;
}

}  // namespace

bool decode_cell(std::string_view payload, campaign::RunCell* out) {
  kv::Scan scan{payload};
  std::string_view key, value;
  campaign::RunCell cell;
  std::uint64_t nev = 0;
  Num num;
  while (scan.next(&key, &value)) {
    if (key == "index") {
      cell.index = static_cast<int>(num.i64(value));
    } else if (key == "id") {
      cell.id = std::string(value);
    } else if (key == "protocol") {
      cell.protocol = std::string(value);
    } else if (key == "oracle") {
      cell.oracle = std::string(value);
    } else if (key == "vendor") {
      cell.vendor = std::string(value);
    } else if (key == "script_file") {
      cell.script_file = std::string(value);
    } else if (key == "conform") {
      cell.conform_file = std::string(value);
    } else if (key == "scenario") {
      cell.scenario = std::string(value);
    } else if (key == "seed") {
      cell.seed = num.u64(value);
    } else if (key == "nodes") {
      cell.nodes = static_cast<int>(num.i64(value));
    } else if (key == "target") {
      cell.target_node = static_cast<int>(num.i64(value));
    } else if (key == "warmup") {
      cell.warmup = num.i64(value);
    } else if (key == "duration") {
      cell.duration = num.i64(value);
    } else if (key == "jitter") {
      cell.jitter = num.i64(value);
    } else if (key == "buggy") {
      cell.buggy = value == "1";
    } else if (key == "timeout_ms") {
      cell.timeout_ms = static_cast<int>(num.i64(value));
    } else if (key == "max_events") {
      cell.max_sim_events = num.u64(value);
    } else if (key == "timeline") {
      cell.capture_timeline = value == "1";
    } else if (key == "nev") {
      nev = num.u64(value);
    } else if (key == "ev") {
      campaign::FaultEvent e;
      if (!decode_event(value, &e)) return false;
      cell.schedule.events.push_back(std::move(e));
    }
  }
  if (!num.ok || cell.schedule.events.size() != nev) return false;
  if (cell.id.empty() || cell.protocol.empty()) return false;
  *out = std::move(cell);
  return true;
}

// --- results ---------------------------------------------------------------

std::string encode_result(int job, int slot, std::int64_t epoch,
                          const campaign::RunResult& r) {
  const std::string res = campaign::wire_encode(r);
  std::string out;
  out.reserve(96 + res.size());
  kv::put_i64(&out, "job", job);
  kv::put_i64(&out, "slot", slot);
  kv::put_i64(&out, "epoch", epoch);
  kv::put(&out, "res", res);
  return out;
}

bool decode_result(std::string_view payload, int* job, int* slot,
                   std::int64_t* epoch, campaign::RunResult* out) {
  kv::Scan scan{payload};
  std::string_view key, value;
  bool have_slot = false, have_res = false;
  *job = 0;
  *epoch = 0;
  Num num;
  while (scan.next(&key, &value)) {
    if (key == "job") {
      *job = static_cast<int>(num.i64(value));
    } else if (key == "slot") {
      *slot = static_cast<int>(num.i64(value));
      have_slot = true;
    } else if (key == "epoch") {
      *epoch = num.i64(value);
    } else if (key == "res") {
      if (!campaign::wire_decode(value, out)) return false;
      have_res = true;
    }
  }
  return num.ok && have_slot && have_res;
}

// --- stats (v3) ------------------------------------------------------------

std::string encode_stats(const std::vector<obs::MetricSample>& samples) {
  std::string out;
  kv::put_u64(&out, "n", samples.size());
  for (const obs::MetricSample& m : samples) {
    std::string entry;
    kv::put(&entry, "name", m.name);
    const char kind[2] = {m.kind, '\0'};
    kv::put(&entry, "k", kind);
    kv::put_u64(&entry, "v", m.value);
    kv::put(&out, "s", entry);
  }
  return out;
}

bool decode_stats(std::string_view payload,
                  std::vector<obs::MetricSample>* out) {
  out->clear();
  kv::Scan scan{payload};
  std::string_view key, value;
  std::uint64_t n = 0;
  bool have_n = false;
  Num num;
  while (scan.next(&key, &value)) {
    if (key == "n") {
      n = num.u64(value);
      have_n = true;
      if (n > kMaxStatsSamples) return false;
    } else if (key == "s") {
      if (out->size() >= kMaxStatsSamples) return false;
      kv::Scan inner{value};
      std::string_view ik, iv;
      obs::MetricSample m;
      bool have_name = false, have_kind = false, have_value = false;
      while (inner.next(&ik, &iv)) {
        if (ik == "name") {
          m.name = std::string(iv);
          have_name = true;
        } else if (ik == "k") {
          if (iv.size() != 1) return false;
          m.kind = iv[0];
          have_kind = true;
        } else if (ik == "v") {
          m.value = num.u64(iv);
          have_value = true;
        }
      }
      if (!have_name || !have_kind || !have_value || m.name.empty()) {
        return false;
      }
      out->push_back(std::move(m));
    }
  }
  // have_n distinguishes a genuinely empty snapshot from a payload the
  // scanner silently produced nothing for (garbage bytes).
  return num.ok && have_n && out->size() == n;
}

// --- bye -------------------------------------------------------------------

std::string encode_bye(std::string_view reason) {
  std::string out;
  kv::put(&out, "reason", reason);
  return out;
}

std::string decode_bye(std::string_view payload) {
  kv::Scan scan{payload};
  std::string_view key, value;
  while (scan.next(&key, &value)) {
    if (key == "reason") return std::string(value);
  }
  return "";
}

// --- daemon ----------------------------------------------------------------

std::string encode_submit(const Submit& s) {
  std::string out;
  kv::put(&out, "spec", s.spec_text);
  kv::put(&out, "filter", s.filter);
  kv::put_i64(&out, "timeout_ms", s.timeout_ms);
  kv::put_i64(&out, "max_events", s.max_events);
  kv::put_i64(&out, "retries", s.retries);
  kv::put_i64(&out, "explore", s.explore);
  if (s.max_workers > 0) kv::put_i64(&out, "max_workers", s.max_workers);
  for (const std::string& k : s.have) kv::put(&out, "have", k);
  return out;
}

bool decode_submit(std::string_view payload, Submit* out) {
  kv::Scan scan{payload};
  std::string_view key, value;
  Submit s;
  bool have_spec = false;
  Num num;
  while (scan.next(&key, &value)) {
    if (key == "spec") {
      s.spec_text = std::string(value);
      have_spec = true;
    } else if (key == "filter") {
      s.filter = std::string(value);
    } else if (key == "timeout_ms") {
      s.timeout_ms = static_cast<int>(num.i64(value));
    } else if (key == "max_events") {
      s.max_events = num.i64(value);
    } else if (key == "retries") {
      s.retries = static_cast<int>(num.i64(value));
    } else if (key == "explore") {
      s.explore = static_cast<int>(num.i64(value));
    } else if (key == "max_workers") {
      s.max_workers = static_cast<int>(num.i64(value));
    } else if (key == "have") {
      s.have.emplace_back(value);
    }
  }
  if (!num.ok || !have_spec) return false;
  *out = std::move(s);
  return true;
}

std::string encode_json_line(FrameType type, std::string_view json) {
  std::string out;
  kv::put(&out, "json", json);
  return encode_frame(type, out);
}

std::string decode_json_line(std::string_view payload) {
  kv::Scan scan{payload};
  std::string_view key, value;
  while (scan.next(&key, &value)) {
    if (key == "json") return std::string(value);
  }
  return "";
}

std::string encode_artifact(std::string_view name, std::string_view bytes,
                            std::string_view chunk) {
  std::string out;
  kv::put(&out, "name", name);
  if (!chunk.empty()) kv::put(&out, "chunk", chunk);
  kv::put(&out, "bytes", bytes);
  return out;
}

bool decode_artifact(std::string_view payload, std::string* name,
                     std::string* bytes, std::string* chunk) {
  kv::Scan scan{payload};
  std::string_view key, value;
  bool have_name = false, have_bytes = false;
  if (chunk != nullptr) chunk->clear();
  while (scan.next(&key, &value)) {
    if (key == "name") {
      *name = std::string(value);
      have_name = true;
    } else if (key == "bytes") {
      *bytes = std::string(value);
      have_bytes = true;
    } else if (key == "chunk") {
      if (chunk != nullptr) *chunk = std::string(value);
    }
  }
  return have_name && have_bytes;
}

}  // namespace pfi::fabric
