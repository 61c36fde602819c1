// Conformance-suite throughput: the shipped suites/tcp corpus (the paper's
// Tables 1-4 as .pdt timelines x the four vendor profiles) end to end —
// plan, compile, simulate, evaluate — at increasing worker counts, with the
// byte-determinism cross-check the golden suite test pins. The t3 keepalive
// cells each cover 7400 simulated seconds, so this is also the "simulated
// hours per wall second" number for idle-heavy conformance timelines.
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/report.hpp"
#include "campaign/executor.hpp"
#include "campaign/runner.hpp"
#include "campaign/suite.hpp"

using namespace pfi;
using namespace pfi::campaign;

namespace {

std::vector<std::string> records_of(const std::vector<RunResult>& results) {
  std::vector<std::string> out;
  out.reserve(results.size());
  for (const auto& r : results) out.push_back(record_json(r));
  return out;
}

}  // namespace

int main() {
  bench::title("Conformance suite throughput (suites/tcp x 4 vendors)");

  std::string err;
  const auto cells = plan_suite(PFI_SUITES_DIR "/tcp", &err);
  if (!cells) {
    std::fprintf(stderr, "plan_suite: %s\n", err.c_str());
    return 1;
  }
  double sim_seconds = 0;
  for (const RunCell& c : *cells) sim_seconds += sim::to_seconds(c.duration);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("suite: %zu cells (%zu timelines x %zu vendors), %.0f s "
              "simulated total; host has %u core(s)\n\n",
              cells->size(), cells->size() / suite_vendors().size(),
              suite_vendors().size(), sim_seconds, hw);

  std::printf("%8s %12s %12s %16s %14s\n", "jobs", "wall ms", "cells/sec",
              "sim s/wall s", "records");
  bench::rule(68);

  std::vector<std::string> baseline;
  for (int jobs : bench::job_counts(hw)) {
    ExecutorOptions opts;
    opts.jobs = jobs;
    const auto t0 = std::chrono::steady_clock::now();
    const auto results = run_cells(*cells, opts);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    const auto records = records_of(results);
    if (baseline.empty()) baseline = records;
    const bool identical = records == baseline;
    std::printf("%8d %12.1f %12.0f %16.0f %14s\n", jobs, ms,
                1000.0 * static_cast<double>(cells->size()) / ms,
                sim_seconds / (ms / 1000.0),
                identical ? "identical" : "DIVERGED");
    bench::json_row("conformance_suite",
                    {{"jobs", std::to_string(jobs)},
                     {"wall_ms", std::to_string(ms)},
                     {"cells", std::to_string(cells->size())},
                     {"records_identical", identical ? "true" : "false"}});
  }

  std::printf(
      "\nReading: each cell compiles its .pdt to filter scripts, runs the\n"
      "full two-stack TCP testbed under the scripted faults, and checks\n"
      "the observed packet timeline against the step sequence. Records\n"
      "must always read 'identical' — the per-step matrix is a pure\n"
      "function of the timeline and the vendor profile.\n");
  return 0;
}
