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
#include <cstdlib>
#include <string>

#include "campaign/report.hpp"
#include "fabric/service.hpp"
#include "fabric/socket.hpp"
#include "fabric/worker.hpp"
#include "obs/metrics.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

extern "C" void handle_stop(int) { g_stop = 1; }

int usage(int code) {
  std::printf(
      "usage: pfi_fabricd --listen HOST:PORT|unix:PATH [options]\n"
      "  --workers N       auto-spawn N local worker processes\n"
      "  --jobs N          executor threads per auto-spawned worker\n"
      "  --isolate         auto-spawned workers fork-sandbox each cell\n"
      "  --retries N       auto-spawned workers' retry policy\n"
      "  --lease-batch N   max cells per lease grant (default 8)\n"
      "  --dead-after-ms N worker silence threshold (default 5000)\n"
      "  --reconnect-grace-ms N  how long a disconnected worker may stay\n"
      "                    away before its leases requeue (default:\n"
      "                    dead-after-ms)\n"
      "  --heartbeat-ms N  liveness beat interval, both directions (default\n"
      "                    500): auto-spawned workers beat the daemon and the\n"
      "                    daemon beats parked workers\n"
      "  --token SECRET    require this shared secret in every HELLO (or\n"
      "                    set PFI_FABRIC_TOKEN)\n"
      "  --allow ADDR      allowlist a TCP peer address (repeatable)\n"
      "  --max-active N    jobs running concurrently (default 4)\n"
      "  --flight-out FILE dump the daemon's flight recorder (connects,\n"
      "                    grants, requeues, reattaches...) as JSONL at\n"
      "                    shutdown; query it live via pfi_campaign --status\n"
      "  --quiet           no job/worker log lines on stderr\n");
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string listen;
  std::string flight_out;
  int workers = 0;
  pfi::fabric::WorkerOptions wopts;
  pfi::fabric::ServiceOptions sopts;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (a == "--listen") {
      listen = next();
    } else if (a == "--workers") {
      workers = std::atoi(next());
    } else if (a == "--jobs") {
      wopts.jobs = std::atoi(next());
    } else if (a == "--isolate") {
      wopts.isolate = true;
    } else if (a == "--retries") {
      wopts.retries = std::atoi(next());
    } else if (a == "--lease-batch") {
      sopts.lease_batch = std::atoi(next());
    } else if (a == "--dead-after-ms") {
      sopts.dead_after_ms = std::atoi(next());
    } else if (a == "--reconnect-grace-ms") {
      sopts.reconnect_grace_ms = std::atoi(next());
    } else if (a == "--heartbeat-ms") {
      wopts.heartbeat_ms = std::atoi(next());
      sopts.heartbeat_ms = wopts.heartbeat_ms;
    } else if (a == "--token") {
      sopts.token = next();
    } else if (a == "--allow") {
      sopts.allow.emplace_back(next());
    } else if (a == "--max-active") {
      sopts.max_active = std::atoi(next());
    } else if (a == "--flight-out") {
      flight_out = next();
    } else if (a == "--quiet") {
      quiet = true;
    } else if (a == "--help" || a == "-h") {
      return usage(0);
    } else {
      return usage(2);
    }
  }
  if (listen.empty()) return usage(2);
  sopts.token = pfi::fabric::token_or_env(sopts.token);
  wopts.token = sopts.token;  // the local fleet authenticates like anyone

  std::string err;
  pfi::fabric::Listener listener;
  if (!listener.open(listen, &err)) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 2;
  }
  if (!quiet) {
    sopts.on_log = [](const std::string& msg) {
      std::fprintf(stderr, "pfi_fabricd: %s\n", msg.c_str());
    };
    std::fprintf(stderr, "pfi_fabricd: listening on %s\n",
                 listener.address().c_str());
  }

  // Spawn local workers *before* the service starts any threads: the
  // children come from fork() and must not inherit a multithreaded parent.
  pfi::fabric::LocalWorkerPool pool;
  if (workers > 0) {
    wopts.connect = listener.address();
    if (!pfi::fabric::spawn_local_workers(wopts, workers, listener.fd(),
                                          &pool, &err)) {
      std::fprintf(stderr, "error: %s\n", err.c_str());
      return 2;
    }
  }

  std::signal(SIGINT, handle_stop);
  std::signal(SIGTERM, handle_stop);
  sopts.should_stop = [] { return g_stop != 0; };
  // Observability plane: flight events and coordinator stage timings feed
  // the STATUS API and every campaign job's fleet metrics artifact.
  pfi::fabric::FlightRecorder flight;
  pfi::obs::Registry obs;
  sopts.flight = &flight;
  sopts.obs = &obs;
  pfi::fabric::ServiceStats stats;
  const int rc = pfi::fabric::run_service(&listener, sopts, &stats);
  pfi::fabric::reap_local_workers(&pool);
  if (!flight_out.empty()) {
    pfi::campaign::write_file_or_stdout(flight_out, flight.to_jsonl());
  }
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
