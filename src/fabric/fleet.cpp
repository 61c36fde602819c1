#include "fabric/fleet.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "campaign/kv.hpp"
#include "campaign/report.hpp"

namespace pfi::fabric {

namespace {

constexpr unsigned kCoordinators = kCampaignBinary | kFabricdBinary;
constexpr unsigned kAllBinaries = kCoordinators | kWorkerBinary;

/// A shared flag: the binaries that accept it, the setting it writes, and
/// its usage line (a '\n' in `help` continues on an indented line).
struct SharedFlag {
  unsigned binaries;
  Flag flag;
  const char* arg;
  const char* help;
};

std::vector<SharedFlag> shared_flags(FleetSettings* f) {
  FleetOptions& c = f->coordinator;
  return {
      {kAllBinaries, {"--token", &c.token}, "SECRET",
       "fleet shared secret for HELLO auth (or set\nPFI_FABRIC_TOKEN)"},
      {kAllBinaries, {"--heartbeat-ms", &c.heartbeat_ms}, "N",
       "liveness beat interval (default 500)"},
      {kCoordinators, {"--dead-after-ms", &c.dead_after_ms}, "N",
       "worker silence threshold (default 5000)"},
      {kCoordinators, {"--reconnect-grace-ms", &c.reconnect_grace_ms}, "N",
       "how long a disconnected worker may stay away\nbefore its leases "
       "requeue (default: dead-after-ms)"},
      {kAllBinaries, {"--flight-out", &f->flight_out}, "FILE",
       "write the flight recorder (control-plane events:\nconnects, "
       "grants, results, requeues...) as JSONL"},
      {kCoordinators, {"--workers", &f->workers}, "N",
       "fork N local worker processes"},
      {kCoordinators, {"--listen", &f->listen}, "ADDR",
       "accept workers on HOST:PORT or unix:PATH"},
  };
}

/// Store a flag's value; false when a number is malformed or out of the
/// target's range.
bool store(std::string* into, const std::string& v) {
  *into = v;
  return true;
}
bool store(std::vector<std::string>* into, const std::string& v) {
  into->push_back(v);
  return true;
}
bool store(bool*, const std::string&) { return false; }  // switches take none
template <typename Int>
bool store(Int* into, const std::string& v) {
  bool ok = false;
  const std::int64_t n = campaign::kv::to_i64(v, &ok);
  if (!ok || n < std::numeric_limits<Int>::min() ||
      n > std::numeric_limits<Int>::max()) {
    return false;
  }
  *into = static_cast<Int>(n);
  return true;
}

}  // namespace

Parsed parse_flags(const std::vector<std::string>& args, Binary binary,
                   const std::vector<Flag>& own, FleetSettings* fleet,
                   std::vector<std::string>* positionals) {
  std::vector<Flag> flags = own;
  for (const SharedFlag& s : shared_flags(fleet)) {
    if ((s.binaries & binary) != 0) flags.push_back(s.flag);
  }
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--help" || a == "-h") return Parsed::kHelp;
    const auto flag = std::find_if(flags.begin(), flags.end(),
                                   [&](const Flag& f) { return f.name == a; });
    if (flag == flags.end()) {
      if (positionals == nullptr || (!a.empty() && a[0] == '-')) {
        return Parsed::kUsage;
      }
      positionals->push_back(a);
    } else if (bool* const* on = std::get_if<bool*>(&flag->into)) {
      **on = true;
    } else if (++i == args.size() ||
               !std::visit([&](auto* into) { return store(into, args[i]); },
                           flag->into)) {
      return Parsed::kUsage;
    }
  }
  FleetOptions& c = fleet->coordinator;
  if (const char* env = std::getenv("PFI_FABRIC_TOKEN");
      c.token.empty() && env != nullptr) {
    c.token = env;
  }
  fleet->worker.token = c.token;
  fleet->worker.heartbeat_ms = c.heartbeat_ms;
  return Parsed::kOk;
}

std::string fleet_usage(Binary binary) {
  constexpr std::size_t kHelpColumn = 20;
  FleetSettings unused;
  std::string out;
  for (const SharedFlag& s : shared_flags(&unused)) {
    if ((s.binaries & binary) == 0) continue;
    std::string line = "  " + std::string(s.flag.name) + " " + s.arg;
    line.resize(std::max(line.size() + 1, kHelpColumn), ' ');
    for (const char* h = s.help; *h != '\0'; ++h) {
      line += *h;
      if (*h == '\n') line.append(kHelpColumn, ' ');
    }
    out += line + "\n";
  }
  return out;
}

bool LocalFleet::start(const FleetSettings& fleet, std::string* err) {
  if (!listener.open(fleet.listen.empty() ? "127.0.0.1:0" : fleet.listen,
                     err)) {
    return false;
  }
  if (fleet.workers <= 0) return true;
  WorkerOptions w = fleet.worker;
  w.connect = listener.address();
  return spawn_local_workers(w, fleet.workers, listener.fd(), &pool, err);
}

bool LocalFleet::finish(const std::string& flight_out) {
  reap_local_workers(&pool);
  return flight_out.empty() ||
         campaign::write_file_or_stdout(flight_out, flight.to_jsonl());
}

}  // namespace pfi::fabric
