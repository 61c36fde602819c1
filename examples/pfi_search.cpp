// pfi_search — coverage-guided exploration of a campaign's fault space.
//
//   $ ./pfi_search ../scripts/campaign_gmp_omission.spec --budget 128 --jobs 4
//   $ ./pfi_search spec.file --budget 64 --corpus-out corpus.jsonl
//   $ ./pfi_search spec.file --corpus-in corpus.jsonl --budget 64   # resume
//   $ ./pfi_search spec.file --emit-scripts out/        # corpus as .tcl
//
// Reads a schedule-mode campaign spec, seeds a corpus from the planner's
// schedules plus the unfaulted baseline, then mutates toward unseen coverage
// digests (docs/SEARCH.md). The JSON report — corpus, new-coverage curve,
// violations with minimized reproductions — is byte-identical at any --jobs
// and in-process vs --isolate; wall-clock goes to stderr only.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <string>

#include <sys/stat.h>
#include <unistd.h>

#include "campaign/report.hpp"
#include "campaign/spec.hpp"
#include "pfi/script_file.hpp"
#include "search/search.hpp"

using namespace pfi;

namespace {

volatile std::sig_atomic_t g_interrupted = 0;

extern "C" void handle_sigint(int) {
  if (g_interrupted != 0) _exit(130);
  g_interrupted = 1;
}

int usage(int code) {
  std::printf(
      "usage: pfi_search <spec-file> [options]\n"
      "  --budget N        fresh cell executions to spend (default 256)\n"
      "  --batch N         mutants per generation (default 16; independent\n"
      "                    of --jobs so the corpus evolves identically)\n"
      "  --seed N          search PRNG seed (default: the spec's first seed)\n"
      "  --jobs N          worker threads / child processes (default 1)\n"
      "  --isolate         fork each cell into a child process\n"
      "  --retries N       re-run errored cells up to N extra times\n"
      "  --timeout-ms N    per-cell wall-clock watchdog\n"
      "  --max-events N    per-cell simulation-event watchdog\n"
      "  --corpus-in FILE  preload a corpus JSONL (resume a search)\n"
      "  --corpus-out FILE write the final corpus as JSONL\n"
      "  --emit-scripts DIR  write each corpus schedule as a sectioned .tcl\n"
      "                    file (lintable, re-runnable via script mode)\n"
      "  --journal FILE    record cache: executed mutants append here and\n"
      "                    journaled schedules cost nothing to re-discover\n"
      "  --max-minimize N  minimise at most N violations (default 8)\n"
      "  --no-prune        simulate mutants even when lint::canonical_key\n"
      "                    proves them equivalent to an executed schedule\n"
      "                    (default: answer them from that record)\n"
      "  --out FILE        write the JSON report to FILE (default stdout)\n"
      "  --quiet           no progress output on stderr\n");
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path, out, corpus_out, emit_scripts;
  search::SearchOptions opts;
  int timeout_ms = -1;
  long long max_events = -1;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (a == "--budget") {
      opts.budget = std::atoi(next());
    } else if (a == "--batch") {
      opts.batch = std::atoi(next());
    } else if (a == "--seed") {
      opts.seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (a == "--jobs") {
      opts.jobs = std::atoi(next());
    } else if (a == "--isolate") {
      opts.isolate = true;
    } else if (a == "--retries") {
      opts.retries = std::atoi(next());
    } else if (a == "--timeout-ms") {
      timeout_ms = std::atoi(next());
    } else if (a == "--max-events") {
      max_events = std::atoll(next());
    } else if (a == "--corpus-in") {
      opts.corpus_in = next();
    } else if (a == "--corpus-out") {
      corpus_out = next();
    } else if (a == "--emit-scripts") {
      emit_scripts = next();
    } else if (a == "--journal") {
      opts.journal_path = next();
    } else if (a == "--max-minimize") {
      opts.max_minimize = std::atoi(next());
    } else if (a == "--no-prune") {
      opts.prune_equivalent = false;
    } else if (a == "--out") {
      out = next();
    } else if (a == "--quiet") {
      quiet = true;
    } else if (a == "--help" || a == "-h") {
      return usage(0);
    } else if (!a.empty() && a[0] == '-') {
      return usage(2);
    } else {
      spec_path = a;
    }
  }
  if (spec_path.empty() || opts.budget < 1 || opts.batch < 1) return usage(2);

  std::string err;
  auto spec = campaign::load_spec_file(spec_path, &err);
  if (!spec) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 2;
  }
  if (timeout_ms >= 0) spec->timeout_ms = timeout_ms;
  if (max_events >= 0) {
    spec->max_sim_events = static_cast<std::uint64_t>(max_events);
  }

  if (!quiet) {
    opts.on_progress = [](const std::string& line) {
      std::fprintf(stderr, "  %s\n", line.c_str());
    };
  }
  opts.should_stop = [] { return g_interrupted != 0; };

  std::signal(SIGINT, handle_sigint);
  const auto t0 = std::chrono::steady_clock::now();
  const search::SearchResult res = search::explore(*spec, opts);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  std::signal(SIGINT, SIG_DFL);
  if (!res.error.empty()) {
    std::fprintf(stderr, "error: %s\n", res.error.c_str());
    if (res.executed == 0) return 2;
  }

  if (!corpus_out.empty() &&
      !campaign::write_file_or_stdout(corpus_out, res.corpus.to_jsonl())) {
    return 2;
  }
  if (!emit_scripts.empty()) {
    // Each corpus schedule as a sectioned .tcl file: lintable with
    // `pfi_lint --strict` and re-runnable through a literal-script spec.
    mkdir(emit_scripts.c_str(), 0777);  // best effort: writes report errors
    int emitted = 0;
    for (std::size_t i = 0; i < res.corpus.entries().size(); ++i) {
      const search::CorpusEntry& e = res.corpus.entries()[i];
      if (e.schedule.empty()) continue;
      const core::failure::Scripts s = e.schedule.compile();
      core::ScriptFile file;
      file.setup = s.setup;
      file.send = s.send;
      file.receive = s.receive;
      const std::string path = emit_scripts + "/corpus_" +
                               std::to_string(i) + "_" +
                               e.digest.substr(0, 8) + ".tcl";
      if (!campaign::write_file_or_stdout(
              path, core::render_script_sections(file))) {
        return 2;
      }
      ++emitted;
    }
    if (!quiet) {
      std::fprintf(stderr, "emitted %d corpus script(s) to %s\n", emitted,
                   emit_scripts.c_str());
    }
  }

  if (!campaign::write_file_or_stdout(
          out, search::report_json(*spec, opts, res) + "\n")) {
    return 2;
  }
  if (!quiet) {
    std::fprintf(stderr,
                 "search %s: %d executed (%d cached, %d dup, %d lint-skipped)"
                 " -> %zu digests, %zu violation(s) in %.0f ms\n",
                 spec->name.c_str(), res.executed, res.journal_hits,
                 res.duplicates, res.lint_skipped, res.corpus.size(),
                 res.violations.size(), wall_ms);
  }
  if (res.interrupted) return 130;
  return res.violations.empty() ? 0 : 1;
}
