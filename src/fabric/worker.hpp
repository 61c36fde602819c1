// Worker process: pulls cell leases from a coordinator, executes them
// through the campaign executor (so --jobs, --isolate, retries and the
// per-cell watchdog all still apply *inside* the worker), and streams each
// result back the moment it finishes. Leasing is pipelined: the worker asks
// for its next grant as soon as one arrives, so that grant waits in the
// socket while the current one computes and the lease round trip hides
// behind the work. A heartbeat thread keeps the coordinator's dead-worker
// detector quiet while a long cell computes.
//
// Losing the link is not fatal: the worker keeps computing its lease,
// remembers every encoded RESULT the coordinator may not have read (a grant
// proves delivery of everything sent before the LEASE it answers — TCP
// ordering — so the unacked tail is at most two grants), and reconnects
// with capped exponential backoff presenting the stable worker id the
// coordinator assigned in HELLO. Before closing the dead link it reads the
// complete frames still queued there. After the handshake it re-sends the
// unacknowledged results (the coordinator dedupes by job/slot/epoch),
// finishes any grant it salvaged, and only then asks for work: that first
// LEASE tells the coordinator that a cell it still holds for this worker
// without a result was lost in flight — the campaign's bytes never notice.
//
// Fork-safety: the heartbeat thread sends a pre-encoded frame and never
// allocates, so the executor's --isolate path (which forks children while
// the heartbeat thread runs) cannot inherit a held malloc lock.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include <sys/types.h>

#include "fabric/flight.hpp"

namespace pfi::fabric {

struct WorkerOptions {
  std::string connect;   // "HOST:PORT" or "unix:PATH"
  int jobs = 1;          // executor threads / child processes per lease
  bool isolate = false;  // fork-sandbox each cell inside the worker
  int retries = 0;       // executor retry policy for errored cells
  int heartbeat_ms = 500;
  /// Declare the link dead and reconnect when nothing arrives for this
  /// long (the coordinator beats parked workers every ~500 ms, so a
  /// healthy link is never silent). Bounds the hang a silent partition —
  /// coordinator host gone without an RST — would otherwise stretch to
  /// TCP's many-minute retransmission timeout while finished results sit
  /// undelivered. <= 0 = auto: max(5000, 10 * heartbeat_ms).
  int idle_timeout_ms = 0;
  /// Connect attempts (initial and per reconnect) beyond the first, with
  /// capped exponential backoff (100 ms doubling to 2 s) between them.
  int connect_retries = 5;
  /// Shared secret presented in HELLO ("" = none).
  std::string token;
  std::string name;      // diagnostic label sent in HELLO
  std::function<void(const std::string&)> on_log;
  /// Ship cumulative obs::Registry snapshots (stage histograms, lease/cell
  /// counters) as STATS frames when the worker goes idle (no grant queued)
  /// and at most once per heartbeat_ms while it is busy. Encoded on the
  /// main thread (the heartbeat thread stays pre-encoded and
  /// allocation-free).
  bool ship_stats = true;
  /// Optional flight recorder for this worker's own control-plane view
  /// (connects, grants, results, detaches, reattaches, idle timeouts).
  /// Side channel only; `pfi_worker --flight-out` dumps it at exit.
  FlightRecorder* flight = nullptr;
};

/// Connect, handshake, and serve leases until the coordinator says BYE.
/// Returns 0 on a graceful BYE, 1 on a connect/protocol/socket failure,
/// 2 when the coordinator rejected our protocol version, 3 when it
/// rejected our token.
int run_worker(const WorkerOptions& opts);

/// Auto-spawned local workers (`pfi_campaign --workers N`): each is a
/// fork()ed child running run_worker() and _exit()ing. Must be called
/// while the parent is still single-threaded.
struct LocalWorkerPool {
  std::vector<pid_t> pids;
};

/// Fork `n` workers dialing `base.connect`. `close_fd` (the parent's
/// listening socket, usually) is closed in each child so a dead parent
/// can't leak the bound address. False + *err on fork failure.
bool spawn_local_workers(const WorkerOptions& base, int n, int close_fd,
                         LocalWorkerPool* pool, std::string* err);

/// Reap every spawned worker: up to `grace_ms` of WNOHANG polling for a
/// voluntary exit (they exit on BYE), then SIGKILL + blocking reap.
/// Returns the number that had to be killed.
int reap_local_workers(LocalWorkerPool* pool, int grace_ms = 5000);

}  // namespace pfi::fabric
