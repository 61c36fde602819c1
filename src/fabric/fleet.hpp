// The fleet's command line: one table of the flags pfi_campaign,
// pfi_fabricd and pfi_worker share (fleet.cpp declares each once, with the
// binaries that accept it, the setting it writes and its help line), the
// one parser that reads them together with a main's own flags, and the
// local fleet a coordinating binary stands up around its event loop.
// Numbers parse strictly (campaign::kv::to_i64, then the target's range):
// a missing value, trailing bytes (`5s`) or a fraction (`0.5`) is a usage
// error, never a silently truncated setting.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "fabric/coordinator.hpp"
#include "fabric/flight.hpp"
#include "fabric/socket.hpp"
#include "fabric/worker.hpp"

namespace pfi::fabric {

/// The binaries that read fleet flags.
enum Binary : unsigned {
  kCampaignBinary = 1u << 0,  // pfi_campaign
  kFabricdBinary = 1u << 1,   // pfi_fabricd
  kWorkerBinary = 1u << 2,    // pfi_worker
};

/// What the shared fleet flags set.
struct FleetSettings {
  /// --token, --heartbeat-ms, --dead-after-ms, --reconnect-grace-ms.
  FleetOptions coordinator;
  /// pfi_worker itself, or the local workers a coordinator forks. Its
  /// token and heartbeat_ms follow coordinator's: the local fleet presents
  /// the token it is checked against, and both directions beat alike.
  WorkerOptions worker;
  int workers = 0;         // --workers N: local workers to fork
  std::string listen;      // --listen ADDR
  std::string flight_out;  // --flight-out FILE
};

/// One command-line flag: a switch (bool) or a flag whose value is stored
/// through the pointer; a list flag appends each occurrence.
struct Flag {
  std::string_view name;
  std::variant<bool*, int*, std::int64_t*, std::string*,
               std::vector<std::string>*>
      into;
};

enum class Parsed { kOk, kHelp, kUsage };

/// Parse `args` (argv without the program name) against the shared flags
/// `binary` accepts plus `own`. Non-flag arguments go to *positionals
/// (null: a usage error). An unknown flag, another binary's flag, or a
/// malformed or missing value is kUsage; --help or -h is kHelp. An empty
/// token falls back to $PFI_FABRIC_TOKEN.
Parsed parse_flags(const std::vector<std::string>& args, Binary binary,
                   const std::vector<Flag>& own, FleetSettings* fleet,
                   std::vector<std::string>* positionals = nullptr);

/// The usage lines of the shared flags `binary` accepts.
std::string fleet_usage(Binary binary);

/// A coordinating binary's local end of the fleet.
class LocalFleet {
 public:
  /// Open --listen (an ephemeral loopback port when empty) and fork the
  /// --workers local workers against it. Call while single-threaded.
  bool start(const FleetSettings& fleet, std::string* err);
  /// Reap the local workers and write the flight recorder to `flight_out`
  /// (unless empty). False when that write failed.
  bool finish(const std::string& flight_out);

  Listener listener;
  LocalWorkerPool pool;
  FlightRecorder flight;
};

}  // namespace pfi::fabric
