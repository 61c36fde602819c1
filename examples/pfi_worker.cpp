// pfi_worker — join a campaign fabric and execute leased cells.
//
//   $ ./pfi_worker --connect 10.0.0.5:7700 --jobs 4 --isolate
//   $ ./pfi_worker --connect unix:/tmp/fabricd.sock
//
// Connects to a coordinator (`pfi_campaign --workers N` auto-spawns these
// locally; this binary is the remote/manual form), pulls cell leases, runs
// them through the ordinary campaign executor — so --jobs, --isolate,
// --retries and the per-cell watchdog all apply *inside* the worker — and
// streams each result back as it finishes. The initial connect and any
// mid-campaign link loss retry with capped exponential backoff; finished
// results survive the flap and are re-submitted after the reconnect.
// Exits 0 when the coordinator says BYE, 2 if the protocol versions
// disagree, 3 if the coordinator rejected our --token.
#include <cstdio>
#include <string>
#include <vector>

#include "campaign/report.hpp"
#include "fabric/fleet.hpp"
#include "fabric/worker.hpp"

namespace {

int usage(int code) {
  std::printf(
      "usage: pfi_worker --connect HOST:PORT|unix:PATH [options]\n"
      "  --jobs N          executor threads / child processes (default 1);\n"
      "                    a lease asks for 2*N cells (at least 2; a grant\n"
      "                    carries at most 8)\n"
      "  --isolate         fork-sandbox each cell inside this worker\n"
      "  --retries N       re-run errored cells up to N extra times\n"
      "  --connect-retries N  extra connect attempts, capped exponential\n"
      "                    backoff (default 5; applies to reconnects too)\n"
      "  --idle-timeout-ms N  reconnect when the link is silent this long\n"
      "                    (default: max(5000, 10*heartbeat))\n"
      "  --name LABEL      diagnostic name sent in HELLO (default\n"
      "                    pid-<pid>)\n"
      "  --no-stats        don't ship obs metrics snapshots (STATS frames)\n"
      "                    to the coordinator\n"
      "  --quiet           no per-lease log lines on stderr\n"
      "%s"
      "Numbers are whole integers; a malformed one is a usage error.\n",
      pfi::fabric::fleet_usage(pfi::fabric::kWorkerBinary).c_str());
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  namespace fabric = pfi::fabric;
  fabric::FleetSettings fleet;
  fabric::WorkerOptions& opts = fleet.worker;
  bool no_stats = false;
  bool quiet = false;
  const std::vector<fabric::Flag> own = {
      {"--connect", &opts.connect},
      {"--jobs", &opts.jobs},
      {"--isolate", &opts.isolate},
      {"--retries", &opts.retries},
      {"--connect-retries", &opts.connect_retries},
      {"--idle-timeout-ms", &opts.idle_timeout_ms},
      {"--name", &opts.name},
      {"--no-stats", &no_stats},
      {"--quiet", &quiet}};
  const fabric::Parsed parsed = fabric::parse_flags(
      {argv + 1, argv + argc}, fabric::kWorkerBinary, own, &fleet);
  if (parsed != fabric::Parsed::kOk) {
    return usage(parsed == fabric::Parsed::kHelp ? 0 : 2);
  }
  if (opts.connect.empty()) return usage(2);
  opts.ship_stats = !no_stats;
  if (!quiet) {
    opts.on_log = [](const std::string& msg) {
      std::fprintf(stderr, "pfi_worker: %s\n", msg.c_str());
    };
  }
  fabric::FlightRecorder flight;
  if (!fleet.flight_out.empty()) opts.flight = &flight;
  const int rc = fabric::run_worker(opts);
  if (!fleet.flight_out.empty() &&
      !pfi::campaign::write_file_or_stdout(fleet.flight_out,
                                           flight.to_jsonl())) {
    return rc != 0 ? rc : 2;
  }
  return rc;
}
