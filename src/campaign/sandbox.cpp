#include "campaign/sandbox.hpp"

#include <cerrno>
#include <cstring>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign/kv.hpp"
#include "campaign/watchdog.hpp"

namespace pfi::campaign {

namespace {

std::string signal_name(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGILL: return "SIGILL";
    case SIGFPE: return "SIGFPE";
    case SIGKILL: return "SIGKILL";
    case SIGTERM: return "SIGTERM";
    default: return "signal " + std::to_string(sig);
  }
}

/// Base of every synthesised (timeout / crash) record: identity fields
/// only, volatile stats zeroed, so the bytes are deterministic.
RunResult skeleton(const RunCell& cell) {
  RunResult r;
  r.index = cell.index;
  r.id = cell.id;
  r.oracle = cell.oracle;
  r.seed = cell.seed;
  r.sim_seconds = sim::to_seconds(cell.duration);
  return r;
}

}  // namespace

std::string wire_encode(const RunResult& r) {
  std::string out;
  // Room for the fixed fields plus ~48 bytes per set entry, so a result
  // (2 KB for a 2PC cell, mostly metric entries) grows at most once.
  out.reserve(256 + r.reason.size() + r.error.size() + r.timeline.size() +
              48 * (r.metrics.size() + r.violations.size() + r.steps.size() +
                    r.coverage.msg_types.size() + r.coverage.actions.size() +
                    r.coverage.transitions.size()));
  kv::put_i64(&out, "index", r.index);
  kv::put(&out, "id", r.id);
  kv::put(&out, "pass", r.pass ? "1" : "0");
  kv::put(&out, "reason", r.reason);
  kv::put(&out, "oracle", r.oracle);
  kv::put_u64(&out, "seed", r.seed);
  kv::put_u64(&out, "faults", r.faults_injected);
  kv::put_u64(&out, "msgs", r.messages_seen);
  kv::put_u64(&out, "serr", r.script_errors);
  kv::put_u64(&out, "trace", r.trace_records);
  kv::put_double(&out, "sim", r.sim_seconds);
  kv::put(&out, "error", r.error);
  kv::put_u64(&out, "nviol", r.violations.size());
  for (const std::string& v : r.violations) kv::put(&out, "viol", v);
  for (const std::string& s : r.steps) kv::put(&out, "step", s);
  // Coverage fingerprint: digest + the three sets. Counted pairs travel as
  // "<count> <name>" so names may contain spaces. Composite values are
  // written in place, never built as a string first.
  char buf[24];
  if (!r.coverage.empty()) {
    kv::put(&out, "cvd", r.coverage.digest);
    for (const auto& [type, n] : r.coverage.msg_types) {
      kv::put_parts(&out, "cvt", {kv::digits(buf, n), " ", type});
    }
    for (const auto& [action, n] : r.coverage.actions) {
      kv::put_parts(&out, "cva", {kv::digits(buf, n), " ", action});
    }
    for (const std::string& t : r.coverage.transitions) kv::put(&out, "cvx", t);
  }
  // Metric snapshot: "<kind> <value> <name>".
  for (const obs::MetricSample& m : r.metrics) {
    kv::put_parts(&out, "met", {std::string_view(&m.kind, 1), " ",
                                kv::digits(buf, m.value), " ", m.name});
  }
  if (!r.timeline.empty()) kv::put(&out, "tl", r.timeline);
  kv::put(&out, "end", "");
  return out;
}

bool wire_decode(std::string_view bytes, RunResult* out) {
  kv::Scan scan{bytes};
  kv::Num num;
  RunResult r;
  std::string_view key, value;
  bool complete = false;
  // Fields are built as std::string(view): exact-size, where assigning the
  // view into an empty string rounds a short value up to a doubled capacity.
  while (scan.next(&key, &value)) {
    if (key == "index") {
      r.index = static_cast<int>(num.i64(value));
    } else if (key == "id") {
      r.id = std::string(value);
    } else if (key == "pass") {
      r.pass = value == "1";
    } else if (key == "reason") {
      r.reason = std::string(value);
    } else if (key == "oracle") {
      r.oracle = std::string(value);
    } else if (key == "seed") {
      r.seed = num.u64(value);
    } else if (key == "faults") {
      r.faults_injected = num.u64(value);
    } else if (key == "msgs") {
      r.messages_seen = num.u64(value);
    } else if (key == "serr") {
      r.script_errors = num.u64(value);
    } else if (key == "trace") {
      r.trace_records = num.u64(value);
    } else if (key == "sim") {
      r.sim_seconds = num.f64(value);
    } else if (key == "error") {
      r.error = std::string(value);
    } else if (key == "viol") {
      r.violations.emplace_back(value);
    } else if (key == "step") {
      r.steps.emplace_back(value);
    } else if (key == "cvd") {
      r.coverage.digest = std::string(value);
    } else if (key == "cvt" || key == "cva") {
      // "<count> <name>"
      const std::size_t sp = value.find(' ');
      if (sp == std::string_view::npos) return false;
      auto& dst = key == "cvt" ? r.coverage.msg_types : r.coverage.actions;
      dst.emplace_back(std::string(value.substr(sp + 1)),
                       num.u64(value.substr(0, sp)));
    } else if (key == "cvx") {
      r.coverage.transitions.emplace_back(value);
    } else if (key == "met") {
      // "<kind> <value> <name>"
      const std::size_t sp2 =
          value.size() > 2 && value[1] == ' ' ? value.find(' ', 2)
                                              : std::string_view::npos;
      if (sp2 == std::string_view::npos) return false;
      obs::MetricSample m;
      m.kind = value[0];
      m.value = num.u64(value.substr(2, sp2 - 2));
      m.name = std::string(value.substr(sp2 + 1));
      r.metrics.push_back(std::move(m));
    } else if (key == "tl") {
      r.timeline = std::string(value);
    } else if (key == "end") {
      complete = true;
    }
    // Unknown keys (incl. "nviol") are skipped: forward compatibility.
  }
  if (!complete || !num.ok) return false;
  *out = std::move(r);
  return true;
}

bool sandbox_spawn(const RunCell& cell, SandboxChild* child,
                   std::string* err) {
  int fds[2];
  if (pipe(fds) != 0) {
    *err = std::string("sandbox: pipe failed: ") + std::strerror(errno);
    return false;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    *err = std::string("sandbox: fork failed: ") + std::strerror(errno);
    return false;
  }
  if (pid == 0) {
    // Child: run the cell, stream the result, die without running parent
    // teardown (atexit, stream flushes) — the parent owns those.
    close(fds[0]);
    const RunResult r = run_cell(cell);
    const std::string wire = wire_encode(r);
    std::size_t off = 0;
    while (off < wire.size()) {
      const ssize_t n = write(fds[1], wire.data() + off, wire.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        _exit(3);
      }
      off += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  child->pid = pid;
  child->fd = fds[0];
  return true;
}

RunResult sandbox_finish(const RunCell& cell, int wait_status,
                         const std::string& bytes, bool killed_on_timeout) {
  if (killed_on_timeout) {
    RunResult r = skeleton(cell);
    // Identical text to the in-process watchdog: whether the child's
    // cooperative watchdog reported the overrun or the parent had to
    // SIGKILL it, the record bytes agree.
    r.error = Watchdog::wall_reason(cell.timeout_ms);
    return r;
  }
  if (WIFSIGNALED(wait_status)) {
    RunResult r = skeleton(cell);
    const int sig = WTERMSIG(wait_status);
    r.error = "signal " + signal_name(sig) + " (" + std::to_string(sig) + ")";
    return r;
  }
  if (WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == 0) {
    RunResult r;
    if (wire_decode(bytes, &r)) return r;
    RunResult bad = skeleton(cell);
    bad.error = "sandbox: child produced an unreadable result";
    return bad;
  }
  RunResult r = skeleton(cell);
  r.error = "sandbox: child exited with status " +
            std::to_string(WIFEXITED(wait_status) ? WEXITSTATUS(wait_status)
                                                  : wait_status);
  return r;
}

}  // namespace pfi::campaign
