// pfi_run — the command-line face of the tool: pick a target protocol, feed
// it a filter-script file, run for a simulated duration, and get the trace
// (optionally as a message-sequence chart).
//
//   $ ./pfi_run --protocol tcp --vendor solaris --diagram
//       --script ../scripts/drop_after_30.tcl --duration 300   (one line)
//   $ ./pfi_run --protocol gmp --node 3
//       --script ../scripts/general_omission_20.tcl --duration 60
//
// This is how the paper's workflow looks operationally: the tool is compiled
// once; each test is a different script file.
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "campaign/kv.hpp"
#include "experiments/gmp_testbed.hpp"
#include "experiments/tcp_testbed.hpp"
#include "pfi/driver.hpp"
#include "pfi/script_file.hpp"
#include "trace/sequence.hpp"

using namespace pfi;
using namespace pfi::experiments;

namespace {

struct Args {
  std::string protocol = "tcp";
  std::string vendor = "sunos";
  std::string script;
  int duration_s = 300;
  int node = 3;  // which GMP node gets the script
  bool diagram = false;
  bool json = false;
  bool trace = true;
};

tcp::TcpProfile vendor_profile(const std::string& name) {
  if (name == "solaris") return tcp::profiles::solaris_2_3();
  if (name == "aix") return tcp::profiles::aix_3_2_3();
  if (name == "next") return tcp::profiles::next_mach();
  if (name == "reference") return tcp::profiles::xkernel_reference();
  return tcp::profiles::sunos_4_1_3();
}

int run_tcp(const Args& args) {
  TcpTestbed tb{vendor_profile(args.vendor)};
  if (!args.script.empty() &&
      !core::install_script_file(*tb.pfi, args.script)) {
    std::fprintf(stderr, "error: can't load script %s\n",
                 args.script.c_str());
    return 1;
  }
  tcp::TcpConnection* conn = tb.connect();
  core::TcpDriver driver{tb.sched, *conn};
  driver.start(sim::msec(500), 512, 0);
  tb.sched.run_until(sim::sec(args.duration_s));

  std::printf("vendor %s: state=%s (%s), sent=%llu rtx=%llu; "
              "pfi dropped=%llu delayed=%llu errors=%llu\n",
              tb.vendor_tcp->profile().name.c_str(),
              tcp::to_string(conn->state()).c_str(),
              tcp::to_string(conn->close_reason()).c_str(),
              static_cast<unsigned long long>(conn->stats().segments_sent),
              static_cast<unsigned long long>(conn->stats().data_retransmits),
              static_cast<unsigned long long>(tb.pfi->stats().dropped),
              static_cast<unsigned long long>(tb.pfi->stats().delayed),
              static_cast<unsigned long long>(tb.pfi->stats().script_errors));
  if (args.json) {
    std::printf("%s", tb.trace.to_json().c_str());
  } else if (args.diagram) {
    auto events = trace::events_from_trace(tb.trace, {"vendor", "xkernel"},
                                           "vendor", "tcp-");
    if (events.size() > 60) events.resize(60);
    std::printf("\n%s", trace::render_sequence({"vendor", "xkernel"}, events)
                            .c_str());
  } else if (args.trace) {
    std::printf("\n%s", tb.trace.render().c_str());
  }
  return 0;
}

int run_gmp(const Args& args) {
  GmpTestbed tb{{1, 2, 3}, gmp::GmpBugs::none()};
  tb.start_all();
  if (!args.script.empty() &&
      !core::install_script_file(tb.pfi(static_cast<net::NodeId>(args.node)),
                                 args.script)) {
    std::fprintf(stderr, "error: can't load script %s\n",
                 args.script.c_str());
    return 1;
  }
  tb.sched.run_until(sim::sec(args.duration_s));
  for (net::NodeId id : tb.ids()) {
    const auto& d = tb.gmd(id);
    std::printf("gmd-%u: %-13s %s\n", id, gmp::to_string(d.status()).c_str(),
                d.view().summary().c_str());
  }
  std::printf("views consistent: %s\n",
              tb.views_consistent() ? "yes" : "NO");
  if (args.json) {
    std::printf("%s", tb.trace.to_json().c_str());
  } else if (args.trace) {
    // Event records only; full packet logs need msg_log in the script.
    for (const auto& r : tb.trace.records()) {
      if (r.direction == "event") {
        std::printf("%10.3fs %-8s %-28s %s\n", sim::to_seconds(r.at),
                    r.node.c_str(), r.type.c_str(), r.detail.c_str());
      }
    }
  }
  return 0;
}

/// Parse a whole decimal int into `out`: "5s", "abc", "" and out-of-range
/// values are refused rather than read as a prefix or as 0.
bool parse_int(const std::string& flag, const std::string& v, int* out) {
  bool ok = false;
  const std::int64_t n = campaign::kv::to_i64(v, &ok);
  if (!ok || n < std::numeric_limits<int>::min() ||
      n > std::numeric_limits<int>::max()) {
    std::fprintf(stderr, "pfi_run: %s needs a whole number, got '%s'\n",
                 flag.c_str(), v.c_str());
    return false;
  }
  *out = static_cast<int>(n);
  return true;
}

int usage(int code) {
  std::printf(
      "usage: pfi_run [--protocol tcp|gmp] [--vendor "
      "sunos|aix|next|solaris|reference]\n"
      "               [--script file.tcl] [--duration seconds] [--node N]\n"
      "               [--diagram] [--json] [--no-trace]\n");
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (a == "--protocol") {
      args.protocol = next();
    } else if (a == "--vendor") {
      args.vendor = next();
    } else if (a == "--script") {
      args.script = next();
    } else if (a == "--duration") {
      if (!parse_int(a, next(), &args.duration_s)) return usage(2);
    } else if (a == "--node") {
      if (!parse_int(a, next(), &args.node)) return usage(2);
    } else if (a == "--diagram") {
      args.diagram = true;
    } else if (a == "--json") {
      args.json = true;
    } else if (a == "--no-trace") {
      args.trace = false;
    } else {
      return usage(a == "--help" || a == "-h" ? 0 : 1);
    }
  }
  if (args.protocol == "gmp") return run_gmp(args);
  return run_tcp(args);
}
