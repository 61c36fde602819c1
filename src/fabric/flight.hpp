// Fabric flight recorder: a bounded, allocation-light ring of structured
// control-plane events (connects, auth rejections, lease grants, results,
// detaches, reattaches, requeues, heartbeat misses, idle timeouts).
//
// The fabric's behaviour under churn — which worker held which lease when
// the link flapped, how long a requeue took to land on a survivor — is
// exactly the kind of thing the paper says an experimenter must be able to
// *see*, and exactly what a handful of aggregate counters cannot show. The
// recorder is the fleet-level analogue of trace::TraceLog: both coordinator
// and workers append fixed-size records tagged with worker id, job, slot,
// lease epoch and a monotonic microsecond timestamp, and dump them either
// as JSONL (`--flight-out`) or as Chrome trace-event lanes (pid = host,
// tid = worker) that splice into the same `--timeline` document the
// per-cell simulation lanes use.
//
// Design constraints:
//
//   * Bounded: a pre-allocated ring; when full, the oldest record is
//     overwritten and a monotonic `dropped` counter advances — the same
//     contract as TraceLog::set_capacity (total_added == size + dropped).
//   * Allocation-light: record() copies a fixed-size POD into the
//     pre-sized ring under a mutex — no heap traffic on the hot path, so
//     recording from executor callbacks is safe even while the --isolate
//     path forks.
//   * Side-channel only: flight records carry wall-clock timestamps and
//     never feed a report, journal or per-run record.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace pfi::fabric {

/// The event catalog (docs/FABRIC.md "Fleet observability" lists each one).
enum class FlightEvent : std::uint8_t {
  kConnect,           // a peer connected (coordinator: accept; worker: dial)
  kAddrReject,        // TCP peer refused by the allowlist
  kVersionReject,     // HELLO refused: not kProtocolVersion
  kAuthReject,        // HELLO refused by token mismatch
  kHandshakeTimeout,  // pre-HELLO connection dropped as stalled
  kJoin,              // worker completed a fresh HELLO handshake
  kLeaseRequest,      // worker asked for cells
  kLeaseGrant,        // a lease grant left (coordinator) / arrived (worker)
  kResult,            // a result arrived (coordinator) / was sent (worker)
  kStats,             // a STATS metrics snapshot crossed the wire
  kDetach,            // link lost; reconnect grace running
  kReattach,          // detached worker resumed under its stable id
  kRequeue,           // grace expired: one leased slot went back to a queue
  kHeartbeatMiss,     // liveness beats stopped (dead_after / failed send)
  kIdleTimeout,       // worker's idle detector declared the link dead
  kBye,               // graceful goodbye
};

/// Stable kebab-case name ("lease-grant") used in JSONL and trace lanes.
const char* flight_event_name(FlightEvent e);

/// One fixed-size ring entry. `worker` is truncated to fit; job/slot are -1
/// and epoch 0 when the event carries no such tag.
struct FlightRecord {
  std::uint64_t t_us = 0;  // monotonic µs since the recorder was created
  FlightEvent event = FlightEvent::kConnect;
  char worker[15] = {};    // NUL-terminated worker id ("" = none)
  std::int32_t job = -1;
  std::int32_t slot = -1;
  std::int64_t epoch = 0;
};

/// Thread-safe bounded event ring. One per process side (the coordinator's
/// Engine and each worker's run_worker loop write to their own).
class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 8192;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  /// Resize the ring. Shrinking evicts the oldest records and counts them
  /// as dropped — TraceLog::set_capacity semantics. Capacity 0 is clamped
  /// to 1 (the ring is always bounded; that is its point).
  void set_capacity(std::size_t capacity);
  [[nodiscard]] std::size_t capacity() const;
  [[nodiscard]] std::size_t size() const;
  /// Records evicted to make room, ever. Monotonic.
  [[nodiscard]] std::uint64_t dropped() const;
  /// Records ever recorded (= size() + dropped()).
  [[nodiscard]] std::uint64_t total_added() const;

  void record(FlightEvent event, std::string_view worker = {}, int job = -1,
              int slot = -1, std::int64_t epoch = 0);

  /// Oldest-first copy of the current ring contents.
  [[nodiscard]] std::vector<FlightRecord> snapshot() const;

  /// One JSON object per line, oldest first, fixed key set:
  ///   {"t_us":N,"event":"lease-grant","worker":"w1","job":1,"slot":0,
  ///    "epoch":7}
  /// A final {"event":"flight-meta","recorded":N,"dropped":N} line reports
  /// ring accounting so a consumer can tell truncation from quiet.
  [[nodiscard]] std::string to_jsonl() const;

  /// Chrome trace-event fragment (comma-separated objects, no brackets):
  /// one process lane named `process_label`, one thread lane per worker id
  /// (tid 0 carries events with no worker tag). Splices into
  /// obs::timeline_document alongside per-cell simulation fragments.
  [[nodiscard]] std::string to_trace_events(std::string_view process_label,
                                            int pid) const;

 private:
  [[nodiscard]] std::vector<FlightRecord> snapshot_locked() const;

  mutable std::mutex mu_;
  std::vector<FlightRecord> ring_;  // pre-sized to capacity_
  std::size_t capacity_;
  std::size_t head_ = 0;  // next write position
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace pfi::fabric
