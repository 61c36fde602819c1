// pfi_fabricd — the campaign-as-a-service daemon.
//
//   $ ./pfi_fabricd --listen 0.0.0.0:7700 --workers 4
//   $ ./pfi_fabricd --listen unix:/tmp/fabricd.sock
//
// One socket, two populations: workers (pfi_worker, or --workers N
// auto-spawned local ones) join the lease pool; clients
// (`pfi_campaign spec --submit ADDR`) submit campaign or search specs as
// jobs. Up to --max-active jobs run concurrently over the shared pool
// (leases round-robin across them, per-job --max-workers quotas honoured);
// more queue FIFO. Each client streams PROGRESS lines and live journal
// chunks while its job runs and receives the final artifacts (report,
// journal, metrics / corpus) when it finishes. --token gates every HELLO;
// --allow restricts TCP peers. SIGINT/SIGTERM drains the active jobs and
// BYEs every connection.
#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include "fabric/fleet.hpp"
#include "fabric/service.hpp"
#include "obs/metrics.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

extern "C" void handle_stop(int) { g_stop = 1; }

int usage(int code) {
  std::printf(
      "usage: pfi_fabricd --listen HOST:PORT|unix:PATH [options]\n"
      "  --jobs N          executor threads per auto-spawned worker\n"
      "  --isolate         auto-spawned workers fork-sandbox each cell\n"
      "  --retries N       auto-spawned workers' retry policy\n"
      "  --allow ADDR      allowlist a TCP peer address (repeatable)\n"
      "  --max-active N    jobs running concurrently (default 4)\n"
      "  --quiet           no job/worker log lines on stderr\n"
      "%s"
      "--heartbeat-ms applies both ways: the daemon beats parked workers and\n"
      "auto-spawned workers beat the daemon. `pfi_campaign --status ADDR`\n"
      "queries a running daemon.\n"
      "Numbers are whole integers; a malformed one is a usage error.\n",
      pfi::fabric::fleet_usage(pfi::fabric::kFabricdBinary).c_str());
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  namespace fabric = pfi::fabric;
  fabric::FleetSettings fleet;
  fabric::ServiceOptions sopts;
  bool quiet = false;
  const std::vector<fabric::Flag> own = {
      {"--jobs", &fleet.worker.jobs},
      {"--isolate", &fleet.worker.isolate},
      {"--retries", &fleet.worker.retries},
      {"--allow", &fleet.coordinator.allow},
      {"--max-active", &sopts.max_active},
      {"--quiet", &quiet}};
  const fabric::Parsed parsed = fabric::parse_flags(
      {argv + 1, argv + argc}, fabric::kFabricdBinary, own, &fleet);
  if (parsed != fabric::Parsed::kOk) {
    return usage(parsed == fabric::Parsed::kHelp ? 0 : 2);
  }
  if (fleet.listen.empty()) return usage(2);
  static_cast<fabric::FleetOptions&>(sopts) = fleet.coordinator;

  // Spawn local workers *before* the service starts any threads: the
  // children come from fork() and must not inherit a multithreaded parent.
  std::string err;
  fabric::LocalFleet local;
  if (!local.start(fleet, &err)) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 2;
  }
  if (!quiet) {
    sopts.on_log = [](const std::string& msg) {
      std::fprintf(stderr, "pfi_fabricd: %s\n", msg.c_str());
    };
    std::fprintf(stderr, "pfi_fabricd: listening on %s\n",
                 local.listener.address().c_str());
  }

  std::signal(SIGINT, handle_stop);
  std::signal(SIGTERM, handle_stop);
  sopts.should_stop = [] { return g_stop != 0; };
  // Observability plane: flight events and coordinator stage timings feed
  // the STATUS API and every campaign job's fleet metrics artifact.
  pfi::obs::Registry obs;
  sopts.flight = &local.flight;
  sopts.obs = &obs;
  fabric::ServiceStats stats;
  const int rc = fabric::run_service(&local.listener, sopts, &stats);
  local.finish(fleet.flight_out);
  if (!quiet) {
    std::fprintf(stderr,
                 "pfi_fabricd: %d job(s) accepted, %d completed, %d "
                 "rejected; %d worker join(s), %d lost\n",
                 stats.jobs_accepted, stats.jobs_completed,
                 stats.jobs_rejected, stats.fabric.workers_joined,
                 stats.fabric.workers_lost);
  }
  return rc;
}
