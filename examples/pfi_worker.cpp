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
#include <cstdlib>
#include <cstring>
#include <string>

#include "campaign/report.hpp"
#include "fabric/wire.hpp"
#include "fabric/worker.hpp"

namespace {

int usage(int code) {
  std::printf(
      "usage: pfi_worker --connect HOST:PORT|unix:PATH [options]\n"
      "  --jobs N            executor threads / child processes (default 1)\n"
      "  --isolate           fork-sandbox each cell inside this worker\n"
      "  --retries N         re-run errored cells up to N extra times\n"
      "  --lease N           cells requested per lease (default 2*jobs, min 2)\n"
      "  --token SECRET      shared secret for HELLO auth (or set\n"
      "                      PFI_FABRIC_TOKEN)\n"
      "  --connect-retries N extra connect attempts, capped exponential\n"
      "                      backoff (default 5; applies to reconnects too)\n"
      "  --heartbeat-ms N    liveness beat interval while computing\n"
      "                      (default 500)\n"
      "  --idle-timeout-ms N reconnect when the link is silent this long\n"
      "                      (default: max(5000, 10*heartbeat))\n"
      "  --name LABEL        diagnostic name sent in HELLO (default\n"
      "                      pid-<pid>)\n"
      "  --flight-out FILE   dump this worker's flight recorder (dials,\n"
      "                      grants, results, reconnects) as JSONL at exit\n"
      "  --no-stats          don't ship obs metrics snapshots (STATS frames)\n"
      "                      to the coordinator\n"
      "  --quiet             no per-lease log lines on stderr\n");
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  pfi::fabric::WorkerOptions opts;
  std::string flight_out;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (a == "--connect") {
      opts.connect = next();
    } else if (a == "--jobs") {
      opts.jobs = std::atoi(next());
    } else if (a == "--isolate") {
      opts.isolate = true;
    } else if (a == "--retries") {
      opts.retries = std::atoi(next());
    } else if (a == "--lease") {
      opts.lease_want = std::atoi(next());
    } else if (a == "--token") {
      opts.token = next();
    } else if (a == "--connect-retries") {
      opts.connect_retries = std::atoi(next());
    } else if (a == "--heartbeat-ms") {
      opts.heartbeat_ms = std::atoi(next());
    } else if (a == "--idle-timeout-ms") {
      opts.idle_timeout_ms = std::atoi(next());
    } else if (a == "--name") {
      opts.name = next();
    } else if (a == "--flight-out") {
      flight_out = next();
    } else if (a == "--no-stats") {
      opts.ship_stats = false;
    } else if (a == "--quiet") {
      quiet = true;
    } else if (a == "--help" || a == "-h") {
      return usage(0);
    } else {
      return usage(2);
    }
  }
  if (opts.connect.empty()) return usage(2);
  opts.token = pfi::fabric::token_or_env(opts.token);
  if (!quiet) {
    opts.on_log = [](const std::string& msg) {
      std::fprintf(stderr, "pfi_worker: %s\n", msg.c_str());
    };
  }
  pfi::fabric::FlightRecorder flight;
  if (!flight_out.empty()) opts.flight = &flight;
  const int rc = pfi::fabric::run_worker(opts);
  if (!flight_out.empty() &&
      !pfi::campaign::write_file_or_stdout(flight_out, flight.to_jsonl())) {
    return rc != 0 ? rc : 2;
  }
  return rc;
}
