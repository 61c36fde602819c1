// pfi_campaign — plan, execute and report a fault-injection campaign.
//
//   $ ./pfi_campaign ../scripts/campaign_gmp_omission.spec --jobs 4
//   $ ./pfi_campaign spec.file --filter gmp-commit --minimize --out out.json
//   $ ./pfi_campaign spec.file --isolate --timeout-ms 5000 --retries 2
//   $ ./pfi_campaign spec.file --resume        # skip journaled cells
//   $ ./pfi_campaign spec.file --explore=64 --seed 7 --emit-scripts out/
//
// Reads a campaign spec (docs/CAMPAIGN.md), expands the run matrix, executes
// every cell on a worker pool, and writes one JSON document: per-run records
// (byte-identical whatever --jobs was), a summary, and — with --minimize —
// a 1-minimal reproduction schedule for each failing cell.
//
// Resilience: --timeout-ms / --max-events arm a per-cell watchdog (overruns
// become deterministic `timeout` error records), --isolate forks each cell
// into a child process (crashes become `signal ...` error records),
// --retries re-runs errored cells with backoff, and --resume + the journal
// (an append-only JSONL checkpoint next to the spec) survive SIGINT: the
// first Ctrl-C stops gracefully and flushes completed records, a second
// kills immediately, and the next --resume run executes only the cells the
// journal doesn't already hold. --explore spends the budget on a
// coverage-guided search instead of the static matrix (docs/SEARCH.md).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <cerrno>

#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <fstream>
#include <sstream>

#include "campaign/executor.hpp"
#include "campaign/journal.hpp"
#include "campaign/json.hpp"
#include "campaign/minimize.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "campaign/suite.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/fleet.hpp"
#include "fabric/socket.hpp"
#include "fabric/wire.hpp"
#include "lint/canonical.hpp"
#include "lint/lint.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "pfi/script_file.hpp"
#include "search/jsonv.hpp"
#include "search/search.hpp"

using namespace pfi::campaign;
namespace fabric = pfi::fabric;

namespace {

volatile std::sig_atomic_t g_interrupted = 0;

extern "C" void handle_sigint(int) {
  if (g_interrupted != 0) _exit(130);  // second Ctrl-C: die now
  g_interrupted = 1;                   // first: finish in-flight cells, flush
}

struct Args {
  std::string spec_path;
  std::string suite;        // conformance-suite directory (replaces the spec)
  std::string filter;
  std::string out;          // empty = stdout
  std::string journal;      // "" = off; --resume defaults it to <spec>.journal
  std::string metrics_out;  // merged metrics JSON (empty = off)
  std::string timeline;     // Chrome trace-event JSON (empty = off)
  std::string status;       // daemon address: print its STATUS JSON, exit
  int jobs = 1;             // in-process pool; local fabric workers run 1
  int max_minimize = 8;     // cap on cells minimised per campaign
  int timeout_ms = -1;      // -1 = keep the spec's value
  std::int64_t max_events = -1;
  int retries = -1;         // -1 = the spec's value
  int lint = 0;  // 0 = off, 1 = --lint (errors), 2 = --lint=strict
  int explore = 0;          // > 0: coverage-guided search with this budget
  std::int64_t seed = 0;    // --explore: search PRNG seed; 0 = spec's first
  std::string corpus_out;   // --explore: write the corpus JSONL here
  std::string corpus_in;    // --explore: resume from this corpus JSONL
  std::string emit_scripts;  // --explore: corpus schedules as .tcl files
  /// The shared fleet flags: --workers, --listen, --token, --heartbeat-ms,
  /// --dead-after-ms, --reconnect-grace-ms, --flight-out.
  pfi::fabric::FleetSettings fleet;
  int max_workers = 0;      // --submit: per-job distinct-worker quota
  std::string submit;       // daemon address: run the spec as a fabric job
  bool merge_journals = false;  // positional args are journal files to merge
  bool workers_kill_one = false;  // test hook: SIGKILL one worker mid-run
  int workers_flap = 0;     // test hook: sever a worker link every N results
  bool isolate = false;
  bool resume = false;
  bool minimize = false;
  bool list = false;
  bool quiet = false;
};

int usage(int code) {
  std::printf(
      "usage: pfi_campaign <spec-file> [options]\n"
      "       pfi_campaign --suite DIR [options]\n"
      "  --jobs N          worker threads / child processes (default 1)\n"
      "  --suite DIR       run DIR's *.pdt conformance timelines instead of\n"
      "                    a spec: each timeline x each vendor TcpProfile is\n"
      "                    one cell under the `conformance` oracle\n"
      "                    (docs/CONFORMANCE.md)\n"
      "  --filter SUBSTR   run only cells whose id contains SUBSTR\n"
      "  --timeout-ms N    per-cell wall-clock budget; overruns become\n"
      "                    deterministic `timeout` error records\n"
      "  --max-events N    per-cell simulation-event budget (same reporting)\n"
      "  --isolate         fork each cell into a child process: crashes\n"
      "                    (SIGSEGV, aborts) become `signal` error records\n"
      "  --retries N       re-run errored cells (never oracle failures) up\n"
      "                    to N extra times with capped backoff\n"
      "  --resume          skip cells whose record is already journaled;\n"
      "                    implies journaling to <spec>.journal\n"
      "  --journal FILE    journal path (enables journaling)\n"
      "  --lint            statically check each cell's schedule/script\n"
      "                    before running; violations become deterministic\n"
      "                    `lint` error records and the cell is skipped.\n"
      "                    Also reports groups of planned cells whose\n"
      "                    canonical schedules are provably equivalent\n"
      "  --lint=strict     as --lint, but warnings also reject a cell\n"
      "  --explore=N       coverage-guided search instead of the static\n"
      "                    matrix: spend N cell executions mutating fault\n"
      "                    schedules toward unseen coverage digests; the\n"
      "                    search report replaces the campaign report\n"
      "  --seed N          (--explore) search PRNG seed (default: the spec's\n"
      "                    first seed)\n"
      "  --corpus-out FILE (--explore) write the final corpus as JSONL\n"
      "  --corpus-in FILE  (--explore) resume from a corpus JSONL\n"
      "  --emit-scripts DIR  (--explore) write each corpus schedule as a\n"
      "                    sectioned .tcl file (lintable, re-runnable via\n"
      "                    script mode)\n"
      "  --minimize        delta-debug each failing schedule to a minimal\n"
      "                    reproduction (schedule-mode cells only)\n"
      "  --max-minimize N  minimise at most N failing cells (default 8)\n"
      "  --out FILE        write the JSON report to FILE (default stdout)\n"
      "  --metrics-out FILE  write campaign-merged metrics (counters sum,\n"
      "                    gauges max across cells) as one JSON document\n"
      "  --timeline FILE   write a Chrome trace-event timeline of the\n"
      "                    executed cells (open in about:tracing / Perfetto);\n"
      "                    with --workers, fabric flight events splice in as\n"
      "                    their own process lane\n"
      "  --submit ADDR     send the spec to a pfi_fabricd daemon at ADDR\n"
      "                    (HOST:PORT or unix:PATH) instead of executing\n"
      "                    locally; streams progress and live journal\n"
      "                    chunks, writes the returned artifacts to\n"
      "                    --out/--journal/--metrics-out; with --resume,\n"
      "                    sends journaled keys so only the rest execute\n"
      "  --max-workers N   (--submit) cap the distinct workers serving this\n"
      "                    job so concurrent jobs share the pool\n"
      "  --status ADDR     query a pfi_fabricd daemon's STATUS API and print\n"
      "                    the JSON reply (queue depth, jobs, workers, fleet\n"
      "                    metrics) to --out or stdout; no spec needed\n"
      "  --merge-journals  treat the positional arguments as journal JSONL\n"
      "                    files: dedupe by content key, sort, write one\n"
      "                    byte-deterministic journal to --out (or stdout)\n"
      "  --list            print the planned cell ids and exit\n"
      "  --quiet           no progress output on stderr\n"
      "Fleet (docs/FABRIC.md): --workers and --listen distribute the static\n"
      "matrix over worker processes, byte-identical to --jobs 1; --token is\n"
      "also presented to a daemon (--submit, --status).\n"
      "%s"
      "Numbers are whole integers; a malformed one is a usage error.\n",
      fabric::fleet_usage(fabric::kCampaignBinary).c_str());
  return code;
}

/// Print `error: <msg>`; returns 2, the usage/spec/setup exit code.
int fail(const std::string& msg) {
  std::fprintf(stderr, "error: %s\n", msg.c_str());
  return 2;
}

/// A client connection to a pfi_fabricd daemon (--status, --submit).
class DaemonLink {
 public:
  DaemonLink() = default;
  ~DaemonLink() {
    if (fd_ >= 0) close(fd_);
  }
  DaemonLink(const DaemonLink&) = delete;
  DaemonLink& operator=(const DaemonLink&) = delete;

  /// Dial `addr` and HELLO as client `name`. On failure prints why and
  /// returns false.
  bool open(const std::string& addr, const std::string& name,
            const std::string& token) {
    std::string err;
    fd_ = fabric::dial(addr, &err);
    if (fd_ >= 0) {
      fabric::Hello hello;
      hello.role = "client";
      hello.name = name;
      hello.token = token;
      fabric::Frame f;
      if (!send(fabric::FrameType::kHello, fabric::encode_hello(hello)) ||
          !read(&f)) {
        err = "daemon handshake failed";
      } else if (f.type == fabric::FrameType::kBye) {
        err = "daemon refused: " + fabric::decode_bye(f.payload);
      } else {
        return true;
      }
    }
    fail(err);
    return false;
  }

  bool send(fabric::FrameType type, const std::string& payload) {
    const std::string bytes = fabric::encode_frame(type, payload);
    return fabric::send_all(fd_, bytes.data(), bytes.size());
  }

  /// Blocking read of the next frame; false on EOF, error or corruption.
  bool read(fabric::Frame* out) {
    char buf[65536];
    while (!reader_.next(out)) {
      if (reader_.corrupt()) return false;
      const ssize_t n = recv(fd_, buf, sizeof buf, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      reader_.feed(buf, static_cast<std::size_t>(n));
    }
    return true;
  }

 private:
  int fd_ = -1;
  fabric::FrameReader reader_;
};

/// --status: one round trip to a pfi_fabricd daemon — HELLO as a client,
/// send an empty STATUS frame, print the JSON reply. No spec.
int run_status(const Args& args) {
  DaemonLink link;
  if (!link.open(args.status,
                 "pfi_campaign-status-" + std::to_string(getpid()),
                 args.fleet.coordinator.token)) {
    return 2;
  }
  if (!link.send(fabric::FrameType::kStatus, "")) {
    return fail("status request failed");
  }
  fabric::Frame f;
  while (link.read(&f)) {
    if (f.type == fabric::FrameType::kStatus) {
      write_file_or_stdout(args.out,
                           fabric::decode_json_line(f.payload) + "\n");
      return 0;
    }
    if (f.type == fabric::FrameType::kBye) break;
  }
  return fail("no STATUS reply (daemon too old?)");
}

/// --merge-journals: offline recovery. Workers' (or interrupted runs')
/// journals merge into one byte-deterministic normal form — dedupe by
/// content key, sort.
int run_merge(const Args& args, const std::vector<std::string>& journals) {
  int conflicts = 0;
  const auto merged = merge_journals(journals, &conflicts);
  if (!write_file_or_stdout(args.out, journal_jsonl(merged))) return 2;
  if (!args.quiet) {
    std::fprintf(stderr, "merged %zu journal(s): %zu record(s)%s\n",
                 journals.size(), merged.size(),
                 conflicts > 0 ? (", " + std::to_string(conflicts) +
                                  " conflicting record(s) dropped")
                                     .c_str()
                               : "");
  }
  return conflicts > 0 ? 1 : 0;
}

/// --submit: the daemon parses, plans and executes; we stream its progress
/// and write the returned artifacts where the local flags would have put
/// them.
int run_submit(const Args& args) {
  std::ostringstream text;
  text << std::ifstream(args.spec_path).rdbuf();

  DaemonLink link;
  if (!link.open(args.submit, "pfi_campaign-" + std::to_string(getpid()),
                 args.fleet.coordinator.token)) {
    return 2;
  }

  fabric::Submit s;
  s.spec_text = text.str();
  s.filter = args.filter;
  s.timeout_ms = args.timeout_ms;
  s.max_events = args.max_events;
  s.retries = args.retries;
  s.explore = args.explore;
  s.max_workers = args.max_workers;
  if (args.resume) {
    // Hand the daemon what we already hold: it executes only the rest.
    // (A previous submit killed mid-stream left its delivered records in
    // the journal — exactly the chunks the daemon streamed to us.)
    for (const auto& entry : load_journal(args.journal)) {
      s.have.push_back(entry.first);
    }
  }
  if (!link.send(fabric::FrameType::kSubmit, fabric::encode_submit(s))) {
    return fail("submit failed");
  }

  // Live journal stream: each chunk is one flushed record line, so a
  // client killed mid-run already holds every record that reached it and
  // the next --resume submit skips those cells. Opened lazily (first
  // chunk or the final artifact); --resume appends to the prior journal,
  // a fresh run truncates it.
  FILE* jf = nullptr;
  auto journal_write = [&](const std::string& bytes) {
    if (args.journal.empty()) return;
    if (jf == nullptr) {
      jf = std::fopen(args.journal.c_str(), args.resume ? "a" : "w");
      if (jf == nullptr) {
        fail("cannot write " + args.journal);
        return;
      }
    }
    std::fwrite(bytes.data(), 1, bytes.size(), jf);
    std::fflush(jf);
  };

  int rc = 2;  // no DONE = daemon died on us
  fabric::Frame f;
  while (link.read(&f)) {
    if (f.type == fabric::FrameType::kProgress) {
      if (!args.quiet) {
        std::fprintf(stderr, "  %s\n",
                     fabric::decode_json_line(f.payload).c_str());
      }
    } else if (f.type == fabric::FrameType::kArtifact) {
      std::string name, bytes, chunk;
      if (!fabric::decode_artifact(f.payload, &name, &bytes, &chunk)) {
        continue;
      }
      if (name == "report") {
        if (!write_file_or_stdout(args.out, bytes)) rc = 2;
      } else if (name == "journal") {
        // Chunk or final document alike: append, dedupe on close. The
        // final artifact re-sends this job's records, so a run whose
        // chunks were lost still ends up with a complete journal.
        journal_write(bytes);
      } else if (name == "metrics" && !args.metrics_out.empty()) {
        write_file_or_stdout(args.metrics_out, bytes);
      } else if (name == "corpus" && !args.corpus_out.empty()) {
        write_file_or_stdout(args.corpus_out, bytes);
      }
    } else if (f.type == fabric::FrameType::kDone) {
      const std::string done = fabric::decode_json_line(f.payload);
      const std::string status =
          json::probe_string_field(done, "status").value_or("error");
      if (!args.quiet) {
        std::fprintf(stderr, "%s\n", done.c_str());
      }
      if (status == "error") {
        const auto msg = json::probe_string_field(done, "error");
        if (msg) std::fprintf(stderr, "error: %s\n", msg->c_str());
        rc = 2;
      } else if (status == "interrupted") {
        rc = 130;
      } else {
        // A campaign DONE counts fail + error, a search DONE violations.
        const auto doc = pfi::search::jsonv::parse(done);
        rc = doc && doc->int_or("fail", 0) + doc->int_or("error", 0) +
                            doc->int_or("violations", 0) >
                        0;
      }
      break;
    } else if (f.type == fabric::FrameType::kBye) {
      break;
    }
  }
  if (jf != nullptr) {
    std::fclose(jf);
    // The file now holds overlapping sets (prior records on --resume,
    // streamed chunks, the final artifact). Rewrite as the sorted,
    // deduped normal form every other journal consumer emits.
    write_file_or_stdout(args.journal,
                         journal_jsonl(load_journal(args.journal)));
  }
  return rc;
}

/// --emit-scripts: each corpus schedule as a sectioned .tcl file, lintable
/// with `pfi_lint --strict` and re-runnable through a literal-script spec.
bool emit_scripts(const Args& args, const pfi::search::Corpus& corpus) {
  mkdir(args.emit_scripts.c_str(), 0777);  // best effort: writes report errors
  int emitted = 0;
  for (std::size_t i = 0; i < corpus.entries().size(); ++i) {
    const pfi::search::CorpusEntry& e = corpus.entries()[i];
    if (e.schedule.empty()) continue;
    const pfi::core::failure::Scripts s = e.schedule.compile();
    const std::string path = args.emit_scripts + "/corpus_" +
                             std::to_string(i) + "_" + e.digest.substr(0, 8) +
                             ".tcl";
    if (!write_file_or_stdout(path, pfi::core::render_script_sections(
                                        {s.setup, s.send, s.receive}))) {
      return false;
    }
    ++emitted;
  }
  if (!args.quiet) {
    std::fprintf(stderr, "emitted %d corpus script(s) to %s\n", emitted,
                 args.emit_scripts.c_str());
  }
  return true;
}

/// --explore: the budget buys mutated schedules chasing unseen coverage
/// digests instead of the planner's fixed matrix.
int run_explore(const Args& args, const CampaignSpec& spec) {
  pfi::search::SearchOptions sopts;
  sopts.budget = args.explore;
  sopts.seed = static_cast<std::uint64_t>(args.seed);
  sopts.jobs = args.jobs;
  sopts.isolate = args.isolate;
  sopts.retries = args.retries;
  sopts.max_minimize = args.max_minimize;
  sopts.corpus_in = args.corpus_in;
  sopts.journal_path = args.journal;
  if (!args.quiet) {
    sopts.on_progress = [](const std::string& line) {
      std::fprintf(stderr, "  %s\n", line.c_str());
    };
  }
  sopts.should_stop = [] { return g_interrupted != 0; };
  std::signal(SIGINT, handle_sigint);
  const auto t0 = std::chrono::steady_clock::now();
  const pfi::search::SearchResult sres = pfi::search::explore(spec, sopts);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  std::signal(SIGINT, SIG_DFL);
  if (!sres.error.empty()) {
    std::fprintf(stderr, "error: %s\n", sres.error.c_str());
    if (sres.executed == 0) return 2;
  }
  if (!args.corpus_out.empty() &&
      !write_file_or_stdout(args.corpus_out, sres.corpus.to_jsonl())) {
    return 2;
  }
  if (!args.emit_scripts.empty() && !emit_scripts(args, sres.corpus)) {
    return 2;
  }
  if (!write_file_or_stdout(
          args.out, pfi::search::report_json(spec, sopts, sres) + "\n")) {
    return 2;
  }
  if (!args.quiet) {
    std::fprintf(stderr,
                 "explore %s: %d executed -> %zu digests, %zu violation(s) "
                 "in %.0f ms\n",
                 spec.name.c_str(), sres.executed, sres.corpus.size(),
                 sres.violations.size(), wall_ms);
  }
  if (sres.interrupted) return 130;
  return sres.violations.empty() ? 0 : 1;
}

/// Pre-fill `report` before execution: journaled records (--resume, keyed
/// by `keys`) and lint-rejected cells' error records (--lint), reporting
/// groups of provably equivalent cells.
void prefill(const Args& args, const std::vector<RunCell>& cells,
             const std::vector<std::string>& keys, CampaignReport* report) {
  std::map<std::string, std::string> prior;
  if (args.resume) prior = load_journal(args.journal);
  // Group key -> ids of planned schedule-mode cells in that class; groups
  // of 2+ are provably equivalent *runs*: cell_key over the canonicalized
  // schedule folds in every run parameter (seed, warmup, duration, jitter,
  // oracle, ...), so two cells only collide when nothing observable
  // distinguishes them. The simulation seed is dropped from the key only
  // when it is provably inert: the sim PRNG feeds jitter draws and corrupt
  // actions' byte draws, so with jitter 0 and no kCorrupt event the seed
  // cannot reach behaviour (the same fact behind the planner matrix
  // collapsing to a handful of digests — docs/SEARCH.md).
  const auto equiv_group_key = [](const RunCell& cell) {
    RunCell canon = cell;
    canon.schedule =
        pfi::lint::canonicalize(canon.schedule, canon.protocol);
    const bool seed_inert =
        canon.jitter == 0 &&
        std::none_of(canon.schedule.events.begin(),
                     canon.schedule.events.end(), [](const auto& e) {
                       return e.kind ==
                              pfi::core::scriptgen::FaultKind::kCorrupt;
                     });
    if (seed_inert) canon.seed = 0;
    return cell_key(canon);
  };
  std::map<std::string, std::vector<std::string>> equiv_groups;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto hit = prior.empty() ? prior.end() : prior.find(keys[i]);
    if (hit != prior.end()) {
      report->resume(i, rewrite_index(hit->second, cells[i].index));
      continue;
    }
    if (args.lint > 0) {
      // Lint runs sequentially over the plan, before the worker pool, so
      // rejected cells produce records that are byte-identical whatever
      // --jobs or --isolate was — the timeout-record discipline.
      const auto diags = pfi::lint::check_cell(cells[i]);
      const bool reject = pfi::lint::has_errors(diags) ||
                          (args.lint == 2 && !diags.empty());
      if (reject) {
        report->reject(
            i, record_json(pfi::lint::lint_error_result(cells[i], diags)));
        if (!args.quiet) {
          std::fprintf(stderr, "  lint %-40s %s\n", cells[i].id.c_str(),
                       pfi::lint::format_text(diags.front()).c_str());
        }
        continue;
      }
      if (cells[i].script_file.empty() && cells[i].conform_file.empty()) {
        equiv_groups[equiv_group_key(cells[i])].push_back(cells[i].id);
      }
    }
  }
  if (args.lint > 0) {
    int equiv_cells = 0;
    for (const auto& [key, ids] : equiv_groups) {
      if (ids.size() < 2) continue;
      equiv_cells += static_cast<int>(ids.size()) - 1;
      if (!args.quiet) {
        std::string list = ids.front();
        for (std::size_t i = 1; i < ids.size(); ++i) list += ", " + ids[i];
        std::fprintf(stderr,
                     "  lint %zu cells are provably equivalent "
                     "(identical canonical schedule and run parameters): "
                     "%s\n",
                     ids.size(), list.c_str());
      }
    }
    report->set_equiv_cells(equiv_cells);
  }
}

/// --minimize: delta-debug freshly-executed failures (todo[k] ran as
/// results[k]) to 1-minimal reproductions; returns the report's "minimized"
/// array. A journaled failure was (or can be) minimised by the run that
/// produced it.
std::string minimize_failures(const Args& args,
                              const std::vector<RunCell>& todo,
                              const std::vector<RunResult>& results,
                              bool interrupted, Journal* journal) {
  // When journaling, warm ddmin's probe cache from the journal file (it
  // already holds this run's flushed records plus any prior runs') and
  // keep appending fresh probe records, so re-minimising after --resume
  // answers repeated subsets without re-executing them.
  std::map<std::string, std::string> mincache;
  if (!args.journal.empty()) mincache = load_journal(args.journal);
  MinimizeOptions mopts;
  mopts.cache = &mincache;
  if (journal->is_open()) mopts.journal = journal;
  int count = 0;
  json::Writer w;
  w.begin_array();
  for (std::size_t k = 0; k < results.size(); ++k) {
    if (interrupted || count >= args.max_minimize) break;
    const RunResult& r = results[k];
    // Not run, passing, or an infrastructure error: nothing to reproduce.
    if (r.index < 0 || r.pass || r.errored()) continue;
    const RunCell& cell = todo[k];
    if (cell.schedule.empty()) continue;  // literal .tcl: nothing to cut
    if (!args.quiet) {
      std::fprintf(stderr, "  minimizing %s (%zu events)...\n",
                   cell.id.c_str(), cell.schedule.size());
    }
    const MinimizeResult m = minimize_schedule(cell, mopts);
    ++count;
    w.begin_object();
    w.kv("id", cell.id);
    w.kv("original_events", static_cast<std::uint64_t>(m.original_events));
    w.kv("minimal_events", static_cast<std::uint64_t>(m.minimal_events));
    w.kv("probe_runs", m.runs);
    w.kv("probe_cache_hits", m.cache_hits);
    w.kv("reproduced", m.reproduced);
    w.kv("schedule_summary", m.schedule.summary());
    w.key("schedule");
    m.schedule.to_json(w);
    if (!m.verification.reason.empty()) {
      w.kv("failure", m.verification.reason);
    }
    w.end_object();
    if (!args.quiet) {
      std::fprintf(stderr, "    -> %zu event(s), reproduced=%s: %s\n",
                   m.minimal_events, m.reproduced ? "yes" : "NO",
                   m.schedule.summary().c_str());
    }
  }
  w.end_array();
  return w.str();
}

/// The static matrix: plan, pre-fill journaled and lint-rejected slots,
/// execute the rest in-process or over the fabric, write the documents.
int run_matrix(const Args& args, const CampaignSpec& spec) {
  std::string err;
  auto planned = args.suite.empty() ? std::optional(plan(spec))
                                    : plan_suite(args.suite, &err);
  if (!planned) return fail(err);
  const auto cells = filter_cells(std::move(*planned), args.filter);
  if (args.list) {
    for (const auto& c : cells) std::printf("%s\n", c.id.c_str());
    return 0;
  }
  if (cells.empty()) return fail("no cells match");

  // ---- journal keys, pre-filled slots, the todo subset --------------------
  std::vector<std::string> keys;
  if (!args.journal.empty()) {
    keys.reserve(cells.size());
    for (const auto& c : cells) keys.push_back(cell_key(c));
  }
  // Slot i is plan cell i; journaled and lint-rejected cells are pre-filled,
  // the rest execute below.
  CampaignReport report(cells.size());
  prefill(args, cells, keys, &report);
  // The executors return results[k] for todo[k]. Only freshly-executed
  // cells can contribute timeline fragments; journaled records carry none.
  std::vector<RunCell> todo = report.pending(cells);
  for (RunCell& c : todo) c.capture_timeline = !args.timeline.empty();

  if (!args.quiet) {
    std::fprintf(stderr, "campaign %s: %zu cells, %d job(s)%s%s\n",
                 spec.name.c_str(), cells.size(), std::max(1, args.jobs),
                 args.isolate ? ", isolated" : "",
                 args.resume ? (", " +
                                std::to_string(report.summary().resumed) +
                                " journaled, " + std::to_string(todo.size()) +
                                " to run")
                                   .c_str()
                             : "");
  }

  Journal journal;
  if (!args.journal.empty() && !todo.empty() && !journal.open(args.journal)) {
    return fail("cannot append to journal " + args.journal);
  }

  const bool use_fabric =
      args.fleet.workers > 0 || !args.fleet.listen.empty();
  int done = 0;
  // Live telemetry (stderr only — wall-clock never reaches a record). On a
  // tty the line redraws in place; otherwise a full line every 50 cells.
  // Under --workers the line grows per-worker cells/s cells (a worker at
  // less than half the fleet's best rate is flagged `!` as a straggler).
  int live_pass = 0, live_fail = 0, live_err = 0;
  std::map<std::string, int> fleet_done;  // worker id -> results delivered
  const bool tty = isatty(2) != 0;
  const auto progress_t0 = std::chrono::steady_clock::now();
  auto progress_line = [&]() -> std::string {
    const double el = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - progress_t0)
                          .count();
    const double rate = el > 0 ? done / el : 0.0;
    const long eta =
        rate > 0
            ? std::lround((static_cast<double>(todo.size()) - done) / rate)
            : 0;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "  [%d/%zu] pass %d | fail %d | error %d | %.1f cells/s | "
                  "ETA %lds",
                  done, todo.size(), live_pass, live_fail, live_err, rate,
                  eta);
    std::string line = buf;
    if (use_fabric && !fleet_done.empty() && el > 0) {
      double best = 0.0;
      for (const auto& [id, n] : fleet_done) best = std::max(best, n / el);
      line += " |";
      int shown = 0;
      for (const auto& [id, n] : fleet_done) {
        if (++shown > 4) {
          line += " +" + std::to_string(fleet_done.size() - 4) + " more";
          break;
        }
        const double wr = n / el;
        std::snprintf(buf, sizeof buf, " %s%s %.1f/s", id.c_str(),
                      wr < 0.5 * best ? "!" : "", wr);
        line += buf;
      }
    }
    return line;
  };
  ExecutorOptions opts;
  opts.jobs = args.jobs;
  opts.isolate = args.isolate;
  opts.retries = args.retries;
  opts.should_stop = [] { return g_interrupted != 0; };
  opts.on_result = [&](const RunResult& r) {
    ++done;
    ++(r.errored() ? live_err : r.pass ? live_pass : live_fail);
    if (journal.is_open()) {
      // A cell's plan index is its slot (plan, plan_suite and filter_cells
      // number cells by position), and the fabric refuses foreign indices.
      journal.append(keys[static_cast<std::size_t>(r.index)], record_json(r));
    }
    if (args.quiet) return;
    if (!r.pass || r.errored()) {
      std::fprintf(stderr, "%s  %-40s %s%s\n", tty ? "\r\x1b[K" : "",
                   r.id.c_str(), r.errored() ? "ERROR" : "FAIL",
                   r.attempts > 1
                       ? (" (attempt " + std::to_string(r.attempts) + ")")
                             .c_str()
                       : "");
    }
    if (tty) {
      std::fprintf(stderr, "\r\x1b[K%s", progress_line().c_str());
      if (done == static_cast<int>(todo.size())) std::fputc('\n', stderr);
    } else if (done % 50 == 0 || done == static_cast<int>(todo.size())) {
      std::fprintf(stderr, "%s\n", progress_line().c_str());
    }
  };
  if (!args.quiet) {
    opts.on_retry = [&](const RunResult& r, int attempt, int max_attempts) {
      std::fprintf(stderr, "  retry %-40s attempt %d/%d failed: %s\n",
                   r.id.c_str(), attempt, max_attempts, r.error.c_str());
    };
  }

  // ---- execution: in-process pool, or the distributed fabric --------------
  // Either way `results` comes back slot-ordered, so everything downstream
  // (records, journal, metrics, summary) is byte-identical.
  fabric::LocalFleet local;
  if (use_fabric) {
    // --listen publishes a real address for external pfi_worker processes;
    // plain --workers keeps the fabric on an ephemeral loopback port. The
    // local workers fork before any thread exists (the poll-loop
    // coordinator never spawns its own).
    std::string ferr;
    if (!local.start(args.fleet, &ferr)) return fail(ferr);
    if (!args.quiet && !args.fleet.listen.empty()) {
      std::fprintf(stderr, "fabric: listening on %s\n",
                   local.listener.address().c_str());
    }
  }

  std::signal(SIGINT, handle_sigint);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<RunResult> results;
  // Fleet observability state (side channel only — feeds --flight-out,
  // --metrics-out's fabric/fleet sections and the --timeline flight lane,
  // never the report or journal).
  pfi::obs::Registry fabric_obs;
  FleetMetrics fleet;
  if (use_fabric) {
    fabric::FabricOptions fopts;
    static_cast<fabric::FleetOptions&>(fopts) = args.fleet.coordinator;
    fopts.no_worker_timeout_ms = 60000;
    fopts.flap_every = args.workers_flap;
    fopts.should_stop = opts.should_stop;
    fopts.on_result = opts.on_result;
    fopts.flight = &local.flight;
    fopts.obs = &fabric_obs;
    if (!args.metrics_out.empty()) fopts.worker_stats_out = &fleet.workers;
    fopts.on_result_worker = [&](const std::string& id) {
      ++fleet_done[id];
    };
    if (args.workers_kill_one) {
      // `killed` lives in the callback: run_fabric calls it after this
      // block has ended.
      fopts.on_result = [&, inner = opts.on_result,
                         killed = false](const RunResult& r) mutable {
        if (!killed && !local.pool.pids.empty()) {
          killed = true;
          kill(local.pool.pids.front(), SIGKILL);
        }
        if (inner) inner(r);
      };
    }
    if (!args.quiet) {
      fopts.on_log = [&](const std::string& msg) {
        std::fprintf(stderr, "%s  fabric: %s\n", tty ? "\r\x1b[K" : "",
                     msg.c_str());
      };
    }
    fabric::FabricStats fstats;
    results = fabric::run_fabric(&local.listener, todo, fopts, &fstats);
    fleet.fabric = fstats.to_json();
    fleet.coordinator = fabric_obs.snapshot();
    if (!args.quiet) std::fprintf(stderr, "fabric: %s\n", fleet.fabric.c_str());
  } else {
    results = run_cells(todo, opts);
  }
  // Written in-process too (empty ring = just the flight-meta line) so
  // consumers can treat the file's existence as unconditional.
  if (!local.finish(args.fleet.flight_out)) return 2;
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  std::signal(SIGINT, SIG_DFL);
  if (!args.quiet && tty && done != static_cast<int>(todo.size())) {
    std::fputc('\n', stderr);  // leave the partial progress line intact
  }

  report.splice(results);
  if (g_interrupted != 0) report.mark_interrupted();
  const ReportSummary sum = report.summary();

  // ---- observability outputs ----------------------------------------------
  // Results come back in cell order, so both documents are deterministic
  // whatever --jobs or --isolate was.
  if (!args.metrics_out.empty() &&
      !write_file_or_stdout(
          args.metrics_out,
          report.metrics_json(spec.name, use_fabric ? &fleet : nullptr))) {
    return 2;
  }
  if (!args.timeline.empty()) {
    std::vector<std::string> fragments;
    for (const RunResult& r : results) {
      if (r.index >= 0 && !r.timeline.empty()) fragments.push_back(r.timeline);
    }
    if (use_fabric) {
      // The flight lane rides above the per-cell lanes: pid = cells.size()
      // can't collide with any cell's pid (those are plan indices).
      const std::string ft = local.flight.to_trace_events(
          "fabric", static_cast<int>(cells.size()));
      if (!ft.empty()) fragments.push_back(ft);
    }
    if (!write_file_or_stdout(
            args.timeline, pfi::obs::timeline_document(fragments) + "\n")) {
      return 2;
    }
  }

  const std::string minimized =
      args.minimize ? minimize_failures(args, todo, results, sum.interrupted,
                                        &journal)
                    : "";
  journal.close();

  const HostFields host{std::max(1, args.jobs), wall_ms};
  if (!write_file_or_stdout(args.out,
                            report.report_json(spec, &host, minimized))) {
    return 2;
  }
  if (!args.quiet) {
    std::fprintf(stderr, "%d/%zu pass, %d fail, %d error%s in %.0f ms\n",
                 sum.pass, cells.size(), sum.fail, sum.error,
                 sum.skipped > 0
                     ? (", " + std::to_string(sum.skipped) + " skipped")
                           .c_str()
                     : "",
                 wall_ms);
  }
  if (sum.interrupted) return 130;
  return sum.fail + sum.error > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool lint = false;
  bool lint_strict = false;
  // --workers-kill-one and --workers-flap are test hooks for the CI smokes:
  // SIGKILL one auto-spawned worker after the first result, or sever one
  // worker's link every N results; the report must not change either way.
  const std::vector<fabric::Flag> own = {
      {"--suite", &args.suite},         {"--filter", &args.filter},
      {"--out", &args.out},             {"--journal", &args.journal},
      {"--metrics-out", &args.metrics_out},
      {"--timeline", &args.timeline},   {"--status", &args.status},
      {"--corpus-out", &args.corpus_out},
      {"--corpus-in", &args.corpus_in},
      {"--emit-scripts", &args.emit_scripts},
      {"--submit", &args.submit},       {"--jobs", &args.jobs},
      {"--timeout-ms", &args.timeout_ms},
      {"--max-events", &args.max_events},
      {"--retries", &args.retries},     {"--explore", &args.explore},
      {"--seed", &args.seed},           {"--max-minimize", &args.max_minimize},
      {"--max-workers", &args.max_workers},
      {"--workers-flap", &args.workers_flap},
      {"--isolate", &args.isolate},     {"--resume", &args.resume},
      {"--minimize", &args.minimize},   {"--list", &args.list},
      {"--quiet", &args.quiet},         {"--lint", &lint},
      {"--lint=strict", &lint_strict},
      {"--merge-journals", &args.merge_journals},
      {"--workers-kill-one", &args.workers_kill_one}};
  // `--explore=N` is the documented spelling of `--explore N`.
  std::vector<std::string> argl;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool explore = a.rfind("--explore=", 0) == 0;
    argl.push_back(explore ? "--explore" : a);
    if (explore) argl.push_back(a.substr(std::strlen("--explore=")));
  }
  std::vector<std::string> positionals;
  const fabric::Parsed parsed = fabric::parse_flags(
      argl, fabric::kCampaignBinary, own, &args.fleet, &positionals);
  if (parsed != fabric::Parsed::kOk) {
    return usage(parsed == fabric::Parsed::kHelp ? 0 : 2);
  }
  args.lint = lint_strict ? 2 : lint ? 1 : 0;

  if (!args.status.empty()) return run_status(args);

  if (args.merge_journals) {
    return positionals.empty() ? usage(2) : run_merge(args, positionals);
  }

  if (!positionals.empty()) args.spec_path = positionals.front();
  if (args.spec_path.empty() && args.suite.empty()) return usage(2);
  if (!args.suite.empty() &&
      (!args.spec_path.empty() || !args.submit.empty() || args.explore > 0)) {
    return fail(
        "--suite replaces the spec and runs locally; it combines with "
        "neither a spec file, --submit nor --explore");
  }
  if ((args.seed != 0 || !args.emit_scripts.empty()) &&
      (args.explore <= 0 || !args.submit.empty())) {
    return fail("--seed and --emit-scripts apply to a local --explore");
  }

  std::string err;
  auto spec = args.suite.empty() ? load_spec_file(args.spec_path, &err)
                                 : std::optional(suite_spec(args.suite));
  if (!spec) return fail(err);
  // CLI overrides win over the spec's own resilience knobs.
  if (args.timeout_ms >= 0) spec->timeout_ms = args.timeout_ms;
  if (args.max_events >= 0) {
    spec->max_sim_events = static_cast<std::uint64_t>(args.max_events);
  }
  // --resume implies journaling to <spec>.journal (or <suite>.journal).
  if (args.resume && args.journal.empty()) {
    args.journal =
        (args.suite.empty() ? args.spec_path : args.suite) + ".journal";
  }

  if (!args.submit.empty()) return run_submit(args);
  if (args.retries < 0) args.retries = spec->retries;

  if ((args.fleet.workers > 0 || !args.fleet.listen.empty()) &&
      args.explore > 0) {
    return fail(
        "--workers applies to the static matrix; distribute --explore "
        "through pfi_fabricd + --submit instead");
  }
  // Local fabric workers run cells the way this process would: --isolate
  // and the retry policy carry over; each stays at one job.
  args.fleet.worker.isolate = args.isolate;
  args.fleet.worker.retries = args.retries;

  if (args.explore > 0) return run_explore(args, *spec);

  return run_matrix(args, *spec);
}
