// Campaign specification and run-matrix planner.
//
// A CampaignSpec declares axes (message types x fault kinds x seeds, or
// literal .tcl script files x seeds, optionally x TCP vendor profiles); the
// planner expands the cross product into an ordered list of RunCells, each a
// fully self-contained description of one deterministic simulation. Specs
// load from a tiny line-oriented text format (see docs/CAMPAIGN.md):
//
//   name gmp-omission
//   protocol gmp
//   types gmp-heartbeat gmp-commit
//   faults drop delay
//   seeds 1000..1009
//   oracle quiet
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/schedule.hpp"
#include "pfi/scriptgen.hpp"
#include "sim/time.hpp"

namespace pfi::campaign {

struct CampaignSpec {
  std::string name = "campaign";
  std::string protocol = "gmp";  // gmp | tcp | tpc
  /// Oracle deciding pass/fail (see experiments/oracles.hpp), one of
  /// protocol_oracles(protocol).
  std::string oracle;  // empty = protocol default

  // --- fault axes -----------------------------------------------------------
  std::vector<std::string> types;  // message types to fault (schedule mode)
  std::vector<core::scriptgen::FaultKind> faults;
  std::vector<std::uint64_t> seeds = {1};
  std::vector<std::string> script_files;  // literal-.tcl mode (overrides
                                          // types x faults)
  std::vector<std::string> vendors;       // tcp only; empty = sunos

  // --- workload -------------------------------------------------------------
  /// Driver workload shape (tcp only; see conformance::known_scenarios()):
  /// bulk | echo | zero-window | keepalive. Empty = the legacy 512 B /
  /// 500 ms shape.
  std::string scenario;

  // --- schedule shape -------------------------------------------------------
  int burst = 1;             // events per cell: occurrences first..first+burst-1
  int first_occurrence = 1;
  bool on_send_side = true;
  sim::Duration delay = sim::msec(1500);  // for delay faults

  // --- run shape ------------------------------------------------------------
  int nodes = 3;        // gmp/tpc cluster size
  int target_node = 2;  // node whose PFI layer gets the scripts
  sim::Duration warmup = sim::sec(10);   // run this long before installing
  sim::Duration duration = sim::sec(70); // total simulated time
  sim::Duration jitter = 0;              // per-link jitter (seed-sensitive)
  bool buggy = false;  // enable the GMP daemon's seeded historical bugs

  // --- resilience ----------------------------------------------------------
  int timeout_ms = 0;  // wall-clock watchdog per cell (0 = off)
  std::uint64_t max_sim_events = 0;  // sim-event watchdog per cell (0 = off)
  int retries = 0;     // executor re-runs of *errored* cells (0 = off)
};

/// The oracles the runner accepts for a protocol, sorted; empty for an
/// unknown protocol. This is the one protocol -> oracle table: run_cell,
/// the spec's default oracle and pfi_lint all read it.
const std::vector<std::string>& protocol_oracles(std::string_view protocol);

/// Parse the text form. Returns nullopt and sets *err on malformed input.
std::optional<CampaignSpec> parse_spec(const std::string& text,
                                       std::string* err);

/// Read + parse a spec file.
std::optional<CampaignSpec> load_spec_file(const std::string& path,
                                           std::string* err);

/// One cell of the run matrix: everything run_cell() needs, nothing shared.
struct RunCell {
  int index = 0;    // position in the planned matrix (stable result order)
  std::string id;   // unique, human-readable: "gmp/gmp-commit/drop/s1000"
  std::string protocol;
  std::string oracle;
  std::string vendor;       // tcp cells
  FaultSchedule schedule;   // schedule mode
  std::string script_file;  // literal-.tcl mode (schedule empty)
  /// Conformance mode: a .pdt timeline file. Overrides schedule/script_file
  /// as the fault load; required by (and usually paired with) the
  /// "conformance" oracle. See src/conformance/.
  std::string conform_file;
  /// Driver workload shape (tcp; empty = legacy 512 B / 500 ms).
  std::string scenario;
  std::uint64_t seed = 1;
  int nodes = 3;
  int target_node = 2;
  sim::Duration warmup = sim::sec(10);
  sim::Duration duration = sim::sec(70);
  sim::Duration jitter = 0;
  bool buggy = false;
  int timeout_ms = 0;                // wall-clock watchdog (0 = off)
  std::uint64_t max_sim_events = 0;  // sim-event watchdog (0 = off)
  // Runner-side toggle (not part of the planned matrix or cell identity):
  // capture a Chrome trace-event timeline fragment for this cell.
  bool capture_timeline = false;
};

/// Expand the spec's cross product in deterministic order:
/// vendor (tcp) -> type -> fault -> seed, or script -> seed.
std::vector<RunCell> plan(const CampaignSpec& spec);

/// Keep only cells whose id contains `substr` (empty keeps all); reindexes.
std::vector<RunCell> filter_cells(std::vector<RunCell> cells,
                                  const std::string& substr);

}  // namespace pfi::campaign
