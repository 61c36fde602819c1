// Failing-schedule minimisation (delta debugging).
//
// When a cell fails its oracle, the interesting artefact is rarely the whole
// fault schedule — a storm of twelve injected faults usually reproduces from
// one or two of them. Because schedules are structured event lists (not
// opaque Tcl), we can run Zeller's ddmin over the events: re-execute the
// cell with subsets of the schedule, keep any subset that still fails, and
// converge on a 1-minimal failing schedule. Every probe is a fresh
// deterministic simulation, so "still fails" is exact, and the result is
// re-verified with one final clean run.
//
// Only schedule-mode cells are minimisable; literal .tcl cells have no event
// structure to cut.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>

#include "campaign/journal.hpp"
#include "campaign/runner.hpp"
#include "campaign/schedule.hpp"
#include "campaign/spec.hpp"

namespace pfi::campaign {

struct MinimizeOptions {
  /// Probe budget: maximum cell re-executions before giving up and
  /// returning the best (smallest still-failing) schedule found so far.
  /// Cache-answered probes don't count against it.
  int max_runs = 512;
  /// Optional content-hash record cache (cell_key -> record_json, the
  /// journal's in-memory form). Probes whose key is present answer from
  /// the cached record's verdict instead of re-executing — ddmin revisits
  /// many subsets, and across resumed campaigns the same subsets repeat —
  /// and fresh probe records are inserted so later probes (and later
  /// minimisations) hit. The final re-verification always runs for real.
  std::map<std::string, std::string>* cache = nullptr;
  /// Optional journal to append fresh probe records to (persists the cache
  /// across campaign runs). Ignored when null.
  Journal* journal = nullptr;
  /// Optional equivalence resolver, consulted on a cache miss: maps the
  /// probe cell to the cache key of a behaviourally equivalent recorded
  /// cell ("" = no equivalent known). A resolved record answers the probe
  /// as a cache hit. The search plugs lint::canonical_key's class
  /// representatives in here so ddmin probes ride the same equivalence
  /// pruning as the search loop. Ignored when cache is null.
  std::function<std::string(const RunCell&)> equivalent_key;
};

struct MinimizeResult {
  FaultSchedule schedule;  // smallest failing schedule found
  std::size_t original_events = 0;
  std::size_t minimal_events = 0;
  int runs = 0;             // probe simulations executed
  int cache_hits = 0;       // probes answered from the record cache
  bool failed_originally = false;  // original schedule reproduced the failure
  bool reproduced = false;  // final re-verification run still fails
  RunResult verification;   // result of that final run
};

/// Minimise `cell`'s schedule. If the cell passes as given (nothing to
/// minimise), failed_originally is false and the schedule comes back
/// unchanged.
MinimizeResult minimize_schedule(const RunCell& cell,
                                 const MinimizeOptions& opts = {});

}  // namespace pfi::campaign
