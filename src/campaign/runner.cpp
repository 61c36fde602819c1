#include "campaign/runner.hpp"

#include <cstdio>
#include <memory>
#include <optional>

#include <algorithm>

#include "campaign/watchdog.hpp"
#include "conformance/conformance.hpp"
#include "experiments/gmp_testbed.hpp"
#include "experiments/oracles.hpp"
#include "experiments/tcp_testbed.hpp"
#include "experiments/tpc_testbed.hpp"
#include "obs/coverage.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "pfi/driver.hpp"
#include "pfi/script_file.hpp"
#include "spec/tcp_spec.hpp"
#include "tcp/profile.hpp"

namespace pfi::campaign {

namespace {

using experiments::oracles::Verdict;

/// An empty oracle means "protocol default" (the planner always fills one
/// in, but run_cell is also a public API); anything else must be a name the
/// protocol's dispatch below actually understands — a typo must become an
/// error record, not a silent fallback to the default oracle.
bool known_oracle(const std::string& protocol, const std::string& oracle) {
  if (oracle.empty()) return true;
  const auto& known = protocol_oracles(protocol);
  return std::find(known.begin(), known.end(), oracle) != known.end();
}

/// Driver workload shapes (conformance::known_scenarios) are a tcp-only
/// axis; the empty string is the legacy 512 B / 500 ms shape everywhere.
bool known_scenario(const std::string& protocol, const std::string& scenario) {
  if (scenario.empty()) return true;
  if (protocol != "tcp") return false;
  const auto& known = conformance::known_scenarios();
  return std::find(known.begin(), known.end(), scenario) != known.end();
}

/// Advance the simulation to `deadline`. With a watchdog, advance in slices
/// so wall-clock and sim-event budgets are sampled even inside a single
/// long quiescent stretch; once expired, stop driving the simulation.
void advance(sim::Scheduler& sched, sim::TimePoint deadline, Watchdog* wd) {
  if (wd == nullptr) {
    sched.run_until(deadline);
    return;
  }
  constexpr std::size_t kSlice = 20'000;
  while (!wd->check()) {
    const std::size_t fired = sched.run_until(deadline, kSlice);
    wd->add_sim_events(fired);
    if (fired < kSlice) return;  // every event <= deadline has fired
  }
}

/// Point the PFI layer's two interpreters at the cell's watchdog, so a
/// filter script that never returns (spin loop) is cut short too.
void arm_interpreters(core::PfiLayer& pfi, Watchdog* wd) {
  if (wd == nullptr) return;
  pfi.send_interp().set_watchdog(wd->interp_hook());
  pfi.receive_interp().set_watchdog(wd->interp_hook());
}

/// Resolve the cell's fault load to installable scripts. Literal files win.
bool resolve_scripts(const RunCell& cell, core::failure::Scripts* out,
                     std::string* err) {
  if (!cell.script_file.empty()) {
    auto file = core::load_script_file(cell.script_file);
    if (!file) {
      *err = "cannot read script file " + cell.script_file;
      return false;
    }
    out->setup = file->setup;
    out->send = file->send;
    out->receive = file->receive;
    return true;
  }
  *out = cell.schedule.compile();
  return true;
}

void install(core::PfiLayer& pfi, const core::failure::Scripts& s) {
  if (!s.setup.empty()) pfi.run_setup(s.setup);
  pfi.set_send_script(s.send);
  pfi.set_receive_script(s.receive);
}

void collect_pfi(const core::PfiLayer& pfi, RunResult* r) {
  const auto& st = pfi.stats();
  r->faults_injected = st.dropped + st.delayed + st.duplicated + st.corrupted;
  r->messages_seen = st.sends_intercepted + st.recvs_intercepted;
  r->script_errors = st.script_errors;
}

/// The zero-omitting fault-action table of the target PFI layer — feeds both
/// the coverage fingerprint and the pfi.action.* metric exports.
std::vector<std::pair<std::string, std::uint64_t>> pfi_actions(
    const core::PfiStats& st) {
  return {{"dropped", st.dropped},       {"delayed", st.delayed},
          {"duplicated", st.duplicated}, {"corrupted", st.corrupted},
          {"injected", st.injected},     {"held", st.held},
          {"released", st.released}};
}

void export_interp(obs::Registry* reg, const std::string& prefix,
                   const script::Interp::Stats& st) {
  reg->set_counter(prefix + ".evals", st.evals);
  reg->set_counter(prefix + ".commands", st.commands);
  reg->set_counter(prefix + ".loop_ticks", st.loop_ticks);
  reg->set_counter(prefix + ".watchdog_probes", st.watchdog_probes);
}

/// Collect-time export + fingerprint: fold the testbed's intrinsic stats
/// structs into the cell's registry, snapshot it, compute the coverage
/// fingerprint, and (when asked) render the timeline fragment. Everything
/// here is a pure function of the simulation, so the result is byte-stable
/// across --jobs and --isolate.
void finish_observability(const RunCell& cell, obs::Registry* reg,
                          const sim::Scheduler& sched,
                          const net::Network& network,
                          const trace::TraceLog& trace, core::PfiLayer& pfi,
                          RunResult* r) {
  const sim::SchedulerStats& ss = sched.stats();
  reg->set_counter("sim.events_dispatched", ss.events_dispatched);
  reg->set_counter("sim.timers_scheduled", ss.timers_scheduled);
  reg->set_counter("sim.timers_cancelled", ss.timers_cancelled);
  reg->set_max_gauge("sim.queue_high_water", ss.queue_high_water);

  const net::NetworkStats& ns = network.stats();
  reg->set_counter("net.frames_sent", ns.frames_sent);
  reg->set_counter("net.frames_delivered", ns.frames_delivered);
  reg->set_counter("net.frames_lost", ns.frames_lost);
  reg->set_counter("net.frames_blackholed", ns.frames_blackholed);

  const core::PfiStats& ps = pfi.stats();
  reg->set_counter("pfi.sends_intercepted", ps.sends_intercepted);
  reg->set_counter("pfi.recvs_intercepted", ps.recvs_intercepted);
  reg->set_counter("pfi.script_errors", ps.script_errors);
  for (const auto& [name, value] : pfi_actions(ps)) {
    reg->set_counter("pfi.action." + name, value);
  }
  export_interp(reg, "script.send", pfi.send_interp().stats());
  export_interp(reg, "script.recv", pfi.receive_interp().stats());

  reg->set_counter("trace.records", trace.size());
  reg->set_counter("trace.dropped", trace.dropped());

  r->coverage = obs::compute_coverage(trace, *reg, pfi_actions(ps));
  r->metrics = reg->snapshot();
  if (cell.capture_timeline) {
    r->timeline =
        obs::timeline_events(trace, cell.id, cell.index, cell.duration);
  }
}

tcp::TcpProfile vendor_profile(const std::string& name) {
  if (name == "solaris") return tcp::profiles::solaris_2_3();
  if (name == "aix") return tcp::profiles::aix_3_2_3();
  if (name == "next") return tcp::profiles::next_mach();
  if (name == "reference") return tcp::profiles::xkernel_reference();
  return tcp::profiles::sunos_4_1_3();
}

void run_gmp(const RunCell& cell, const core::failure::Scripts& scripts,
             Watchdog* wd, obs::Registry* reg, RunResult* r) {
  std::vector<net::NodeId> ids;
  for (int i = 1; i <= cell.nodes; ++i) {
    ids.push_back(static_cast<net::NodeId>(i));
  }
  experiments::GmpTestbed tb{
      ids, cell.buggy ? gmp::GmpBugs::all() : gmp::GmpBugs::none(),
      cell.seed * 1000};
  tb.network.reseed(cell.seed);
  tb.network.set_metrics(reg);
  tb.network.default_link().jitter = cell.jitter;
  core::PfiLayer& target = tb.pfi(static_cast<net::NodeId>(cell.target_node));
  target.set_metrics(reg);
  arm_interpreters(target, wd);

  // Stagger daemon starts 1 s apart: a simultaneous cold start inherently
  // raises one transient suspicion during the group merge, which would make
  // the "quiet" oracle fail even with zero faults. Sequential joins give a
  // disruption-free baseline, so a quiet-oracle failure is always the
  // fault's doing. Scripts install at `warmup` (before the target daemon
  // starts when warmup is 0, so formation traffic is already filtered).
  constexpr sim::Duration kStagger = sim::sec(1);
  bool installed = false;
  auto install_at_warmup = [&] {
    advance(tb.sched, cell.warmup, wd);
    install(tb.pfi(static_cast<net::NodeId>(cell.target_node)), scripts);
    installed = true;
  };
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const sim::Duration at = static_cast<sim::Duration>(i) * kStagger;
    if (!installed && cell.warmup <= at) install_at_warmup();
    advance(tb.sched, at, wd);
    tb.start(ids[i]);
  }
  if (!installed) install_at_warmup();
  advance(tb.sched, cell.duration, wd);

  Verdict v;
  if (cell.oracle == "liveness") {
    v = experiments::oracles::gmp_liveness(tb);
  } else if (cell.oracle == "quiet") {
    v = experiments::oracles::gmp_quiet(tb);
  } else {
    v = experiments::oracles::gmp_agreement(tb);
  }
  r->pass = v.pass;
  r->reason = v.reason;
  collect_pfi(target, r);
  r->trace_records = tb.trace.records().size();

  // Protocol-level exports: per-daemon group-membership activity.
  for (net::NodeId id : ids) {
    const gmp::GmdStats& gs = tb.gmd(id).stats();
    const std::string p = "gmp.gmd-" + std::to_string(id) + ".";
    reg->set_counter(p + "heartbeats_sent", gs.heartbeats_sent);
    reg->set_counter(p + "views_committed", gs.views_committed);
    reg->set_counter(p + "suspects_raised", gs.suspects_raised);
    reg->set_counter(p + "transition_aborts", gs.transition_aborts);
  }
  finish_observability(cell, reg, tb.sched, tb.network, tb.trace, target, r);
}

void run_tcp(const RunCell& cell, const std::string& scenario,
             const conformance::Program* prog,
             const core::failure::Scripts& scripts, Watchdog* wd,
             obs::Registry* reg, RunResult* r) {
  experiments::TcpTestbed tb{vendor_profile(cell.vendor)};
  tb.network.reseed(cell.seed);
  tb.network.set_metrics(reg);
  tb.network.default_link().jitter = cell.jitter;
  tb.pfi->set_metrics(reg);
  auto checker = std::make_shared<spec::TcpSpecChecker>(tb.sched);
  tb.vendor_stack.insert_below(
      *tb.vendor_tcp, std::make_unique<spec::SpecObserverLayer>(checker));
  arm_interpreters(*tb.pfi, wd);
  install(*tb.pfi, scripts);

  tcp::TcpConnection* conn = tb.connect();
  core::TcpDriver driver{tb.sched, *conn};
  if (scenario == "bulk") {
    // Sustained one-way transfer, 10x the legacy rate.
    driver.start(sim::msec(100), 1024, 0);
  } else if (scenario == "echo") {
    // Interactive request/response: the x-Kernel side answers every chunk,
    // so tcp-data flows in BOTH filter directions.
    driver.on_chunk = [&tb](std::size_t) {
      if (tb.accepted() != nullptr) {
        tb.accepted()->send(std::string(128, 'e'));
      }
    };
    driver.start(sim::msec(500), 128, 0);
  } else if (scenario == "zero-window") {
    // The paper's Table 4 shape: let the handshake finish, stop draining
    // the x-Kernel receive buffer, then pour 10 KiB into a 4 KiB window —
    // the vendor stack must probe the closed window (persist timer).
    advance(tb.sched, std::min<sim::Duration>(sim::msec(100), cell.duration),
            wd);
    if (tb.accepted() != nullptr) tb.accepted()->set_auto_drain(false);
    driver.start(sim::msec(100), 512, 20);
  } else if (scenario == "keepalive") {
    // The paper's Table 3 shape: a short burst, then idle with keep-alive
    // armed — the vendor must probe after its keepalive_idle elapses.
    driver.start(sim::msec(100), 128, 3);
    tb.sched.schedule(sim::sec(1), [conn] { conn->set_keepalive(true); });
  } else {
    driver.start(sim::msec(500), 512, 0);
  }
  advance(tb.sched, cell.duration, wd);

  Verdict v;
  if (cell.oracle == "alive") {
    v = experiments::oracles::tcp_alive(*conn);
  } else if (cell.oracle == "conformance") {
    const conformance::Outcome oc =
        conformance::evaluate(*prog, tb.trace, cell.duration);
    v.pass = oc.pass;
    v.reason = oc.first_divergence;
    r->steps.reserve(oc.steps.size());
    for (const conformance::StepResult& s : oc.steps) {
      r->steps.push_back(conformance::step_line(s));
    }
  } else {
    v = experiments::oracles::tcp_spec(*checker);
  }
  r->pass = v.pass;
  r->reason = v.reason;
  if (cell.oracle.empty() || cell.oracle == "spec") {
    // Satellite of ROADMAP "TCP campaign depth": the spec checker's full
    // violation text travels with the record, not just a pass/fail bit.
    for (const spec::Violation& viol : checker->violations()) {
      if (r->violations.size() >= RunResult::kMaxViolations) {
        r->violations.push_back(
            "+" +
            std::to_string(checker->violations().size() -
                           RunResult::kMaxViolations) +
            " more");
        break;
      }
      char at[32];
      std::snprintf(at, sizeof at, "%.3f", sim::to_seconds(viol.at));
      r->violations.push_back(viol.rule + " @" + at + "s: " + viol.detail);
    }
  }
  collect_pfi(*tb.pfi, r);
  r->trace_records = tb.trace.records().size();

  // Protocol-level exports: both endpoints' TCP machinery, prefixed by side.
  const auto export_tcp = [&](const std::string& side,
                              const tcp::TcpStats& ts) {
    reg->set_counter("tcp." + side + ".segments_sent", ts.segments_sent);
    reg->set_counter("tcp." + side + ".segments_received",
                     ts.segments_received);
    reg->set_counter("tcp." + side + ".data_retransmits", ts.data_retransmits);
    reg->set_counter("tcp." + side + ".fast_retransmits", ts.fast_retransmits);
    reg->set_counter("tcp." + side + ".keepalive_probes",
                     ts.keepalive_probes_sent);
    reg->set_counter("tcp." + side + ".persist_probes",
                     ts.persist_probes_sent);
    reg->set_counter("tcp." + side + ".rsts_sent", ts.rsts_sent);
  };
  export_tcp("vendor", conn->stats());
  if (tb.accepted() != nullptr) export_tcp("xk", tb.accepted()->stats());
  finish_observability(cell, reg, tb.sched, tb.network, tb.trace, *tb.pfi, r);
}

void run_tpc(const RunCell& cell, const core::failure::Scripts& scripts,
             Watchdog* wd, obs::Registry* reg, RunResult* r) {
  std::vector<net::NodeId> ids;
  for (int i = 1; i <= cell.nodes; ++i) {
    ids.push_back(static_cast<net::NodeId>(i));
  }
  experiments::TpcTestbed tb{ids, cell.seed * 1000};
  tb.network.reseed(cell.seed);
  tb.network.set_metrics(reg);
  tb.network.default_link().jitter = cell.jitter;
  core::PfiLayer& target = tb.pfi(static_cast<net::NodeId>(cell.target_node));
  target.set_metrics(reg);
  arm_interpreters(target, wd);
  install(target, scripts);

  // Three transactions spread across the run, all coordinated by the lowest
  // node with everyone participating — the blocking window lives between
  // PREPARED and the decision, which the faulted node's filters can stretch.
  const std::vector<std::uint32_t> txids{1, 2, 3};
  advance(tb.sched, cell.warmup, wd);
  sim::Duration slice = (cell.duration - cell.warmup) /
                        static_cast<sim::Duration>(txids.size());
  if (slice <= 0) slice = sim::sec(1);
  for (std::size_t k = 0; k < txids.size(); ++k) {
    tb.tpc(ids.front()).begin(txids[k], ids);
    advance(tb.sched,
            cell.warmup + static_cast<sim::Duration>(k + 1) * slice, wd);
  }
  advance(tb.sched, cell.duration, wd);

  const Verdict v = experiments::oracles::tpc_atomic(tb, txids);
  r->pass = v.pass;
  r->reason = v.reason;
  collect_pfi(target, r);
  r->trace_records = tb.trace.records().size();
  finish_observability(cell, reg, tb.sched, tb.network, tb.trace, target, r);
}

}  // namespace

RunResult run_cell(const RunCell& cell) {
  RunResult r;
  r.index = cell.index;
  r.id = cell.id;
  r.oracle = cell.oracle;
  r.seed = cell.seed;
  r.sim_seconds = sim::to_seconds(cell.duration);

  if (!known_oracle(cell.protocol, cell.oracle)) {
    r.error = "unknown oracle '" + cell.oracle + "' for protocol " +
              cell.protocol;
    return r;
  }

  // Conformance cells: the .pdt timeline is both the fault load (compiled
  // windows) and, under the "conformance" oracle, the expectation to check.
  std::optional<conformance::Program> prog;
  core::failure::Scripts scripts;
  if (!cell.conform_file.empty()) {
    if (cell.protocol != "tcp") {
      r.error = "conformance timelines require protocol tcp";
      return r;
    }
    std::vector<lint::Diagnostic> diags;
    prog = conformance::load_file(cell.conform_file, &diags);
    if (!prog) {
      lint::sort_diagnostics(&diags);
      r.error = "conformance: " + cell.conform_file;
      if (!diags.empty()) {
        r.error += " [" + diags[0].rule + "] line " +
                   std::to_string(diags[0].line) + ": " + diags[0].message;
      }
      return r;
    }
    scripts = conformance::compile(*prog);
  } else if (cell.oracle == "conformance") {
    r.error = "conformance oracle requires a .pdt timeline (conform_file)";
    return r;
  } else if (!resolve_scripts(cell, &scripts, &r.error)) {
    return r;
  }

  const std::string scenario = !cell.scenario.empty() ? cell.scenario
                               : prog ? prog->scenario
                                      : std::string{};
  if (!known_scenario(cell.protocol, scenario)) {
    r.error =
        "unknown scenario '" + scenario + "' for protocol " + cell.protocol;
    return r;
  }

  std::optional<Watchdog> wd;
  if (cell.timeout_ms > 0 || cell.max_sim_events > 0) {
    wd.emplace(cell.timeout_ms, cell.max_sim_events);
  }
  Watchdog* wdp = wd ? &*wd : nullptr;

  // One private registry per cell: testbed components count into it live,
  // finish_observability folds intrinsic stats in and snapshots it.
  obs::Registry reg;

  try {
    if (cell.protocol == "gmp") {
      run_gmp(cell, scripts, wdp, &reg, &r);
    } else if (cell.protocol == "tcp") {
      run_tcp(cell, scenario, prog ? &*prog : nullptr, scripts, wdp, &reg,
              &r);
    } else if (cell.protocol == "tpc") {
      run_tpc(cell, scripts, wdp, &reg, &r);
    } else {
      r.error = "unknown protocol " + cell.protocol;
    }
  } catch (const std::exception& e) {
    r.error = std::string("exception: ") + e.what();
    r.pass = false;
  }

  if (wdp != nullptr && wdp->expired()) {
    // Deterministic timeout record: how far the run got before a wall-clock
    // watchdog fired varies run to run, so every volatile stat is dropped —
    // the record is a pure function of the cell and its budgets again.
    RunResult t;
    t.index = r.index;
    t.id = r.id;
    t.oracle = r.oracle;
    t.seed = r.seed;
    t.sim_seconds = r.sim_seconds;
    t.error = wdp->reason();
    return t;
  }
  return r;
}

std::string record_json(const RunResult& r) {
  json::Writer w;
  w.begin_object();
  w.kv("index", r.index);
  w.kv("id", r.id);
  w.kv("verdict", r.errored() ? "error" : (r.pass ? "pass" : "fail"));
  w.kv("oracle", r.oracle);
  if (!r.reason.empty()) w.kv("reason", r.reason);
  if (!r.violations.empty()) {
    w.key("violations").begin_array();
    for (const std::string& v : r.violations) w.value(v);
    w.end_array();
  }
  if (!r.steps.empty()) {
    w.key("steps").begin_array();
    for (const std::string& s : r.steps) w.value(s);
    w.end_array();
  }
  if (!r.error.empty()) w.kv("error", r.error);
  w.kv("seed", r.seed);
  w.kv("faults_injected", r.faults_injected);
  w.kv("messages_seen", r.messages_seen);
  w.kv("script_errors", r.script_errors);
  w.kv("trace_records", r.trace_records);
  if (!r.coverage.empty()) {
    w.key("coverage");
    r.coverage.to_json(w);
  }
  w.kv("sim_seconds", r.sim_seconds);
  w.end_object();
  return w.str();
}

}  // namespace pfi::campaign
