// Campaign executor scaling: runs/sec for the same GMP fault campaign at
// increasing worker counts, plus the determinism cross-check (per-run JSON
// records must be byte-identical whatever the thread count). On a single-core
// host the speedup column flatlines by construction; the bench prints the
// detected hardware concurrency so the numbers read honestly.
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/report.hpp"
#include "campaign/executor.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"

using namespace pfi;
using namespace pfi::campaign;

namespace {

std::vector<RunCell> make_cells() {
  CampaignSpec spec;
  spec.name = "throughput";
  spec.protocol = "gmp";
  spec.oracle = "quiet";
  spec.types = {"gmp-heartbeat", "gmp-mc", "gmp-ack", "gmp-commit"};
  spec.faults = {core::scriptgen::FaultKind::kDrop,
                 core::scriptgen::FaultKind::kDelay};
  spec.seeds.clear();
  for (std::uint64_t s = 2000; s < 2010; ++s) spec.seeds.push_back(s);
  spec.burst = 2;
  spec.on_send_side = false;
  spec.warmup = 0;
  spec.duration = sim::sec(60);
  return plan(spec);
}

std::vector<std::string> records_of(const std::vector<RunResult>& results) {
  std::vector<std::string> out;
  out.reserve(results.size());
  for (const auto& r : results) out.push_back(record_json(r));
  return out;
}

}  // namespace

int main() {
  bench::title("Campaign executor scaling (runs/sec by worker count)");

  const auto cells = make_cells();
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("campaign: %zu cells (4 types x 2 faults x 10 seeds), "
              "60 s simulated each; host has %u core(s)\n\n",
              cells.size(), hw);

  std::printf("%8s %12s %12s %10s %14s\n", "jobs", "wall ms", "runs/sec",
              "speedup", "records");
  bench::rule(62);

  std::vector<std::string> baseline;
  double base_ms = 0;
  for (int jobs : bench::job_counts(hw)) {
    ExecutorOptions opts;
    opts.jobs = jobs;
    const auto t0 = std::chrono::steady_clock::now();
    const auto results = run_cells(cells, opts);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    const auto records = records_of(results);
    if (baseline.empty()) {
      baseline = records;
      base_ms = ms;
    }
    const bool identical = records == baseline;
    std::printf("%8d %12.1f %12.0f %9.2fx %14s\n", jobs, ms,
                1000.0 * static_cast<double>(cells.size()) / ms,
                base_ms / ms, identical ? "identical" : "DIVERGED");
    bench::json_row("campaign_throughput",
                    {{"jobs", std::to_string(jobs)},
                     {"wall_ms", std::to_string(ms)},
                     {"records_identical", identical ? "true" : "false"}});
  }

  std::printf(
      "\nReading: each worker owns a full simulation (scheduler, network,\n"
      "stacks, PFI interpreters), so scaling is embarrassing by design and\n"
      "the records column must always read 'identical' — the per-run JSON\n"
      "is a pure function of the cell, never of the thread that ran it.\n");

  // Resilience overhead: the same campaign with a (never-firing) watchdog
  // armed — scheduler advancement runs sliced and both filter interpreters
  // sample the budget from their loop guards — and again under the fork
  // sandbox. Quantifies what --timeout-ms and --isolate cost when nothing
  // goes wrong.
  std::printf("\n");
  bench::title("Resilience overhead (jobs=1, same campaign)");
  std::printf("%16s %12s %12s %14s\n", "mode", "wall ms", "runs/sec",
              "records");
  bench::rule(58);
  auto watched = cells;
  for (auto& c : watched) {
    c.timeout_ms = 600'000;  // generous: measures the checks, not the kill
    c.max_sim_events = 4'000'000'000ull;
  }
  struct Mode {
    const char* name;
    const std::vector<RunCell>* cells;
    bool isolate;
  };
  const Mode modes[] = {{"inline", &cells, false},
                        {"watchdog", &watched, false},
                        {"isolate", &cells, true}};
  for (const Mode& m : modes) {
    ExecutorOptions opts;
    opts.jobs = 1;
    opts.isolate = m.isolate;
    const auto t0 = std::chrono::steady_clock::now();
    const auto results = run_cells(*m.cells, opts);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    const bool identical = records_of(results) == baseline;
    std::printf("%16s %12.1f %12.0f %14s\n", m.name, ms,
                1000.0 * static_cast<double>(m.cells->size()) / ms,
                identical ? "identical" : "DIVERGED");
    bench::json_row("campaign_resilience_overhead",
                    {{"mode", m.name},
                     {"wall_ms", std::to_string(ms)},
                     {"records_identical", identical ? "true" : "false"}});
  }
  std::printf(
      "\nReading: a generous watchdog and the fork sandbox must both leave\n"
      "every record byte-identical to the inline run — the budgets change\n"
      "when a run is cut short, never what a healthy run computes.\n");
  return 0;
}
