// Campaign-as-a-service daemon (`pfi_fabricd`).
//
// One long-lived Engine accepts *both* kinds of connection on one socket:
// workers (HELLO role=worker) join the lease pool exactly as they would for
// a one-shot coordinator, and clients (HELLO role=client) SUBMIT campaign
// or search specs as jobs. Up to max_active jobs run **concurrently** over
// the shared worker pool — each job's cells are a separate Engine batch,
// leases are granted round-robin across jobs, and a job's `--max-workers`
// quota caps how many distinct workers serve it at once. Further
// submissions queue FIFO behind the active set.
//
// Each job runs on its own thread (campaign assembly, or search::explore's
// mutation loop) and posts cell batches to the daemon's event loop through
// a Bridge; the event loop dispatches them through the Engine and posts the
// slot-ordered results back. So the execution path — and therefore every
// record — is byte-identical to `pfi_campaign --workers N`, which is
// byte-identical to `--jobs 1`.
//
// While a campaign job runs, its client receives PROGRESS frames (one JSON
// line per finished cell) *and* incremental journal ARTIFACT chunks — each
// finished record streamed as one journal line keyed by its content hash —
// so a client killed mid-run already holds every delivered record and can
// resubmit with Submit.have to execute only the remainder. When a job
// ends: final ARTIFACT frames (campaign: report + journal + metrics;
// search: report + corpus) and one DONE frame with the summary. A client
// that disconnects mid-job doesn't kill the job's in-flight cells, but its
// still-queued cells are cancelled (nobody is listening) and queued
// never-started jobs from that client are dropped.
//
// Any client may also send an empty STATUS frame at any time (wire v3) and
// gets back one STATUS frame carrying a deterministic-schema JSON document:
// daemon counters, every active/queued job with its progress tallies, every
// known worker's lease/reattach/last-seen state, the FabricStats counters,
// and the fleet-merged metrics. `pfi_campaign --status ADDR` is the CLI for
// it; docs/FABRIC.md "Fleet observability" pins the schema.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "fabric/coordinator.hpp"
#include "fabric/socket.hpp"

namespace pfi::fabric {

struct ServiceStats {
  int jobs_accepted = 0;
  int jobs_completed = 0;
  int jobs_rejected = 0;   // SUBMITs that failed to parse/plan
  int peak_active = 0;     // most jobs ever running concurrently
  FabricStats fabric;      // copied from the engine at shutdown
};

/// The daemon's options: the shared fleet settings (the token gates every
/// HELLO, worker and client alike; the Engine records into `flight` and
/// `obs`, which feed the STATUS reply and the fleet section of every
/// campaign job's metrics artifact), plus the job queue's own.
struct ServiceOptions : FleetOptions {
  /// Jobs running concurrently over the shared pool; more queue FIFO.
  int max_active = 4;
  /// Sampled every loop iteration; true drains the active jobs (their
  /// unfinished cells come back index == -1) and BYEs everyone.
  std::function<bool()> should_stop;
};

/// Run the daemon event loop until should_stop. Returns 0 on a clean
/// shutdown. The listener stays owned by the caller.
int run_service(Listener* listener, const ServiceOptions& opts,
                ServiceStats* stats = nullptr);

}  // namespace pfi::fabric
