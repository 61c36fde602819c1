// Parallel campaign executor.
//
// Cells are claimed from an atomic cursor by a pool of worker threads; each
// worker builds and tears down a private testbed per cell (see runner.hpp),
// so there is no shared mutable state between concurrent runs and no locks
// around the simulation itself. Results land in a pre-sized vector slot per
// cell, which makes the returned order — and therefore every per-run JSON
// record — identical whatever the thread count. The determinism test in
// tests/campaign_test.cpp holds this invariant down.
//
// Resilience (this layer, not the runner, owns campaign survival):
//
//   * isolate — each cell runs in a forked child process (sandbox.hpp); a
//     crashing or wedged testbed becomes an error record instead of
//     campaign death. The isolate path is a single-threaded process pool
//     (children are the parallelism), which keeps fork() trivially safe.
//   * retries — errored cells (never oracle-failed ones) are re-run with
//     capped exponential backoff; the final record is byte-identical to a
//     first-try success, and the attempt count travels outside the record.
//   * should_stop — sampled between cells; on true, no new cell is claimed,
//     in-flight cells finish, and unclaimed results come back with
//     index == -1 (RunResult::index >= 0 marks "actually executed").
#pragma once

#include <functional>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"

namespace pfi::campaign {

struct ExecutorOptions {
  /// Worker threads; values < 1 are clamped to 1. 1 = run inline, no pool.
  /// Under `isolate` this is the number of concurrent child processes.
  int jobs = 1;
  /// Run every cell in a forked child process (POSIX).
  bool isolate = false;
  /// Re-run an errored cell up to this many extra times.
  int retries = 0;
  /// Backoff before retry k (1-based): min(retry_backoff_ms << (k-1), 2000).
  int retry_backoff_ms = 100;
  /// Called as each cell finishes (any worker thread, serialised by an
  /// internal mutex). Completion order is nondeterministic — only use this
  /// for progress display, never for result assembly.
  std::function<void(const RunResult&)> on_result;
  /// Called (serialised, like on_result) before each retry of an errored
  /// cell — campaign-side logging of attempts.
  std::function<void(const RunResult&, int attempt, int max_attempts)>
      on_retry;
  /// Sampled before claiming each cell; true stops the campaign gracefully.
  std::function<bool()> should_stop;
};

/// Run every cell; returns results in cell order (results[i] is cells[i]).
/// When should_stop fires mid-campaign, skipped cells keep index == -1.
std::vector<RunResult> run_cells(const std::vector<RunCell>& cells,
                                 const ExecutorOptions& opts = {});

}  // namespace pfi::campaign
