// Resilience-layer tests: the per-cell watchdog (wall-clock and sim-event
// budgets turning hangs into deterministic `timeout` records), the fork
// sandbox (crashes contained as `signal` records, byte-identical results
// for healthy cells), the retry policy (errored cells only, records
// unchanged), the checkpoint journal (content keys, torn-line tolerance,
// index splicing), reorder schedule compilation, and executor error paths.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "campaign/executor.hpp"
#include "campaign/journal.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/sandbox.hpp"
#include "campaign/schedule.hpp"
#include "campaign/spec.hpp"
#include "campaign/watchdog.hpp"

namespace pfi::campaign {
namespace {

using core::scriptgen::FaultKind;

std::string scripts_dir() { return PFI_SCRIPTS_DIR; }

/// A fast, clean, passing GMP cell.
RunCell clean_cell(int index = 0, std::uint64_t seed = 1000) {
  RunCell cell;
  cell.index = index;
  cell.id = "resilience/clean/s" + std::to_string(seed);
  cell.protocol = "gmp";
  cell.oracle = "quiet";
  cell.seed = seed;
  cell.warmup = 0;
  cell.duration = sim::sec(20);
  return cell;
}

RunCell script_cell(const char* script, int index = 0) {
  RunCell cell = clean_cell(index);
  cell.id = std::string("resilience/") + script;
  cell.script_file = scripts_dir() + "/" + script;
  return cell;
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

TEST(ResilienceWatchdog, HangingScriptBecomesDeterministicTimeout) {
  RunCell cell = script_cell("spin_forever.tcl");
  cell.timeout_ms = 300;

  const RunResult r1 = run_cell(cell);
  EXPECT_TRUE(r1.errored());
  EXPECT_TRUE(r1.timed_out()) << r1.error;
  EXPECT_EQ(r1.error, Watchdog::wall_reason(300));
  // Volatile stats are zeroed: how far the run got before the wall clock
  // fired must not leak into the record.
  EXPECT_EQ(r1.messages_seen, 0u);
  EXPECT_EQ(r1.faults_injected, 0u);
  EXPECT_EQ(r1.trace_records, 0u);

  const RunResult r2 = run_cell(cell);
  EXPECT_EQ(record_json(r1), record_json(r2));
  EXPECT_NE(record_json(r1).find("\"verdict\":\"error\""), std::string::npos);
}

TEST(ResilienceWatchdog, SimEventBudgetIsDeterministic) {
  RunCell cell = clean_cell();
  cell.max_sim_events = 50;  // a 20 s GMP run fires far more events
  const RunResult r1 = run_cell(cell);
  const RunResult r2 = run_cell(cell);
  EXPECT_TRUE(r1.timed_out()) << r1.error;
  EXPECT_EQ(r1.error, Watchdog::events_reason(50));
  EXPECT_EQ(record_json(r1), record_json(r2));
}

TEST(ResilienceWatchdog, GenerousBudgetLeavesRecordUntouched) {
  // Arming the watchdog slices scheduler advancement; the simulation and
  // its record must come out byte-identical to an unwatched run.
  const RunResult bare = run_cell(clean_cell());
  RunCell watched = clean_cell();
  watched.timeout_ms = 60'000;
  watched.max_sim_events = 500'000'000;
  const RunResult r = run_cell(watched);
  EXPECT_TRUE(r.pass) << r.reason << r.error;
  EXPECT_EQ(record_json(bare), record_json(r));
}

// ---------------------------------------------------------------------------
// Sandbox
// ---------------------------------------------------------------------------

/// One cell through the executor path `--isolate` runs.
RunResult run_isolated(const RunCell& cell) {
  ExecutorOptions opts;
  opts.isolate = true;
  return run_cells({cell}, opts).at(0);
}

TEST(ResilienceSandbox, CrashBecomesSignalRecord) {
  const RunCell cell = script_cell("crash_process.tcl");
  const RunResult r = run_isolated(cell);
  EXPECT_TRUE(r.errored());
  EXPECT_EQ(r.error, "signal SIGABRT (6)") << r.error;
  EXPECT_EQ(r.id, cell.id);
  EXPECT_NE(record_json(r).find("\"verdict\":\"error\""), std::string::npos);
}

TEST(ResilienceSandbox, HealthyCellMatchesInlineBytes) {
  const RunCell cell = clean_cell();
  const RunResult inline_r = run_cell(cell);
  const RunResult boxed_r = run_isolated(cell);
  EXPECT_EQ(record_json(inline_r), record_json(boxed_r));
}

TEST(ResilienceSandbox, WireRoundTripIsExact) {
  RunResult r;
  r.index = 7;
  r.id = "wire/\"quoted\"\nnewline";
  r.pass = false;
  r.reason = "tab\there";
  r.oracle = "spec";
  r.seed = 0xFFFFFFFFFFFFFFFFull;
  r.faults_injected = 3;
  r.messages_seen = 12345;
  r.script_errors = 1;
  r.trace_records = 99;
  r.sim_seconds = 70.0 / 3.0;  // not exactly representable in decimal
  r.violations = {"rule-a @1.000s: detail", "rule-b @2.500s: more"};
  r.error = "signal SIGSEGV (11)";

  RunResult back;
  ASSERT_TRUE(wire_decode(wire_encode(r), &back));
  EXPECT_EQ(back.index, r.index);
  EXPECT_EQ(back.id, r.id);
  EXPECT_EQ(back.pass, r.pass);
  EXPECT_EQ(back.reason, r.reason);
  EXPECT_EQ(back.oracle, r.oracle);
  EXPECT_EQ(back.seed, r.seed);
  EXPECT_EQ(back.violations, r.violations);
  EXPECT_EQ(back.error, r.error);
  EXPECT_EQ(back.sim_seconds, r.sim_seconds);  // %a hex floats: exact
  EXPECT_EQ(record_json(back), record_json(r));

  RunResult junk;
  EXPECT_FALSE(wire_decode("", &junk));                  // no terminator
  EXPECT_FALSE(wire_decode("index 1\n7\n", &junk));      // truncated
  // A "-1" length must not wrap into re-parsing the value bytes as entries.
  EXPECT_FALSE(wire_decode("id -1\nend 0\n\n", &junk));
  // A malformed number fails the decode instead of reading as 0 or wrapping.
  EXPECT_FALSE(wire_decode("index 2\nzz\nend 0\n\n", &junk));
  EXPECT_FALSE(wire_decode("seed 3\n-12\nend 0\n\n", &junk));
}

// The acceptance scenario: a campaign containing one hanging and one
// crashing cell completes under --isolate, reports both as error records
// with timeout/signal reasons, and every other record is byte-identical to
// a clean run at any --jobs.
TEST(ResilienceExecutor, IsolatedCampaignSurvivesHangAndCrash) {
  std::vector<RunCell> cells;
  cells.push_back(clean_cell(0, 1000));
  RunCell hang = script_cell("spin_forever.tcl", 1);
  hang.timeout_ms = 400;
  cells.push_back(hang);
  cells.push_back(script_cell("crash_process.tcl", 2));
  cells.push_back(clean_cell(3, 1001));

  ExecutorOptions serial;
  serial.jobs = 1;
  serial.isolate = true;
  ExecutorOptions parallel;
  parallel.jobs = 4;
  parallel.isolate = true;
  const auto r1 = run_cells(cells, serial);
  const auto r4 = run_cells(cells, parallel);
  ASSERT_EQ(r1.size(), 4u);
  ASSERT_EQ(r4.size(), 4u);

  EXPECT_EQ(r1[1].error, Watchdog::wall_reason(400));
  EXPECT_EQ(r1[2].error, "signal SIGABRT (6)");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(record_json(r1[i]), record_json(r4[i])) << cells[i].id;
  }
  // The bad cells did not perturb their neighbours: clean records match an
  // un-isolated, un-faulted execution byte for byte.
  EXPECT_EQ(record_json(r1[0]), record_json(run_cell(cells[0])));
  EXPECT_EQ(record_json(r1[3]), record_json(run_cell(cells[3])));

  CampaignReport report(r1.size());
  report.splice(r1);
  const ReportSummary sum = report.summary();
  EXPECT_EQ(sum.pass, 2);
  EXPECT_EQ(sum.error, 2);
}

// ---------------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------------

TEST(ResilienceExecutor, RetriesReRunOnlyErroredCells) {
  std::vector<RunCell> cells;
  RunCell broken = clean_cell(0);
  broken.id = "resilience/broken";
  broken.script_file = "/nonexistent/script.tcl";
  cells.push_back(broken);

  ExecutorOptions opts;
  opts.retries = 2;
  opts.retry_backoff_ms = 1;  // keep the test fast
  int retry_calls = 0;
  opts.on_retry = [&](const RunResult& r, int attempt, int max_attempts) {
    ++retry_calls;
    EXPECT_TRUE(r.errored());
    EXPECT_EQ(max_attempts, 3);
    EXPECT_LT(attempt, max_attempts);
  };
  const auto results = run_cells(cells, opts);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].attempts, 3);
  EXPECT_EQ(retry_calls, 2);
  // Retry bookkeeping never leaks into the deterministic record.
  ExecutorOptions once;
  const auto plain = run_cells(cells, once);
  EXPECT_EQ(record_json(results[0]), record_json(plain[0]));
}

TEST(ResilienceExecutor, OracleFailuresAreNeverRetried) {
  // Two dropped MC rounds make the quiet oracle fail — a real verdict, not
  // an infrastructure error, so the retry policy must leave it alone.
  RunCell cell = clean_cell(0);
  cell.id = "resilience/oracle-fail";
  cell.duration = sim::sec(40);
  cell.schedule.events.push_back({"gmp-mc", FaultKind::kDrop, 1, false});
  cell.schedule.events.push_back({"gmp-mc", FaultKind::kDrop, 2, false});

  ExecutorOptions opts;
  opts.retries = 3;
  opts.retry_backoff_ms = 1;
  int retry_calls = 0;
  opts.on_retry = [&](const RunResult&, int, int) { ++retry_calls; };
  const auto results = run_cells({cell}, opts);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].pass);
  EXPECT_FALSE(results[0].errored());
  EXPECT_EQ(results[0].attempts, 1);
  EXPECT_EQ(retry_calls, 0);
}

// ---------------------------------------------------------------------------
// Executor error paths
// ---------------------------------------------------------------------------

TEST(ResilienceRunner, UnknownOracleIsErrorRecord) {
  RunCell cell = clean_cell();
  cell.oracle = "frobnicate";
  const RunResult r = run_cell(cell);
  EXPECT_TRUE(r.errored());
  EXPECT_NE(r.error.find("unknown oracle"), std::string::npos) << r.error;
  EXPECT_NE(record_json(r).find("\"verdict\":\"error\""), std::string::npos);
}

TEST(ResilienceRunner, UnreadableScriptFileIsErrorRecord) {
  RunCell cell = clean_cell();
  cell.script_file = "/nonexistent/script.tcl";
  const RunResult r = run_cell(cell);
  EXPECT_TRUE(r.errored());
  EXPECT_NE(r.error.find("cannot read"), std::string::npos) << r.error;
}

TEST(ResilienceExecutor, OnResultFiresExactlyOncePerCellAtJobs8) {
  std::vector<RunCell> cells;
  for (int i = 0; i < 12; ++i) {
    cells.push_back(clean_cell(i, 1000 + static_cast<std::uint64_t>(i)));
    cells.back().duration = sim::sec(10);
  }
  std::map<int, int> calls;  // on_result is serialised by the executor
  ExecutorOptions opts;
  opts.jobs = 8;
  opts.on_result = [&](const RunResult& r) { ++calls[r.index]; };
  const auto results = run_cells(cells, opts);
  ASSERT_EQ(results.size(), cells.size());
  EXPECT_EQ(calls.size(), cells.size());
  for (const auto& [index, n] : calls) {
    EXPECT_EQ(n, 1) << "cell " << index;
  }
}

TEST(ResilienceExecutor, ShouldStopSkipsRemainingCells) {
  std::vector<RunCell> cells;
  for (int i = 0; i < 6; ++i) {
    cells.push_back(clean_cell(i, 2000 + static_cast<std::uint64_t>(i)));
    cells.back().duration = sim::sec(5);
  }
  bool stop = false;
  ExecutorOptions opts;
  opts.jobs = 1;
  opts.on_result = [&](const RunResult&) { stop = true; };
  opts.should_stop = [&] { return stop; };
  const auto results = run_cells(cells, opts);
  CampaignReport report(results.size());
  report.splice(results);
  const ReportSummary sum = report.summary();
  EXPECT_EQ(sum.pass, 1);
  EXPECT_EQ(sum.skipped, 5);
  EXPECT_TRUE(sum.interrupted);
  EXPECT_EQ(results[5].index, -1);  // never claimed
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

TEST(ResilienceJournal, CellKeyIsContentBased) {
  const RunCell a = clean_cell(0, 1000);
  EXPECT_EQ(cell_key(a).size(), 16u);
  EXPECT_EQ(cell_key(a), cell_key(clean_cell(0, 1000)));

  // The key ignores presentation (index, id) and tracks content.
  RunCell renamed = a;
  renamed.index = 42;
  renamed.id = "totally/different";
  EXPECT_EQ(cell_key(a), cell_key(renamed));

  RunCell other_seed = a;
  other_seed.seed = 1001;
  EXPECT_NE(cell_key(a), cell_key(other_seed));

  RunCell other_budget = a;
  other_budget.timeout_ms = 500;
  EXPECT_NE(cell_key(a), cell_key(other_budget));

  RunCell faulted = a;
  faulted.schedule.events.push_back({"gmp-mc", FaultKind::kDrop, 1, false});
  EXPECT_NE(cell_key(a), cell_key(faulted));

  // Literal-script cells key on the file's *contents*.
  const RunCell s1 = script_cell("log_everything.tcl");
  const RunCell s2 = script_cell("crash_process.tcl");
  EXPECT_NE(cell_key(s1), cell_key(s2));
  EXPECT_EQ(cell_key(s1), cell_key(script_cell("log_everything.tcl")));
}

TEST(ResilienceJournal, AppendLoadRoundTripSurvivesTornLines) {
  const std::string path =
      testing::TempDir() + "pfi_resilience_journal.jsonl";
  std::remove(path.c_str());

  const std::string rec1 = "{\"index\":0,\"id\":\"a\",\"verdict\":\"pass\"}";
  const std::string rec2 = "{\"index\":1,\"id\":\"b\",\"verdict\":\"fail\"}";
  const std::string rec1b = "{\"index\":0,\"id\":\"a\",\"verdict\":\"error\"}";
  {
    Journal j;
    ASSERT_TRUE(j.open(path));
    j.append("00000000000000aa", rec1);
    j.append("00000000000000bb", rec2);
    j.append("00000000000000aa", rec1b);  // later lines win
  }
  {
    // A kill -9 mid-append leaves a torn trailing line; it must be skipped.
    std::ofstream torn(path, std::ios::app);
    torn << "{\"key\":\"00000000000000cc\",\"record\":{\"index\":2,\"id";
  }
  const auto loaded = load_journal(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.at("00000000000000aa"), rec1b);
  EXPECT_EQ(loaded.at("00000000000000bb"), rec2);
  EXPECT_TRUE(load_journal(path + ".missing").empty());
  std::remove(path.c_str());
}

TEST(ResilienceJournal, RewriteIndexSplicesLeadingField) {
  EXPECT_EQ(rewrite_index("{\"index\":5,\"id\":\"x\"}", 12),
            "{\"index\":12,\"id\":\"x\"}");
  EXPECT_EQ(rewrite_index("{\"index\":-1,\"id\":\"x\"}", 0),
            "{\"index\":0,\"id\":\"x\"}");
  // Anything not shaped like our records passes through unchanged.
  EXPECT_EQ(rewrite_index("{\"id\":\"x\"}", 3), "{\"id\":\"x\"}");
  EXPECT_EQ(rewrite_index("", 3), "");
}

/// End to end: run, interrupt-shaped subset, resume from the journal.
TEST(ResilienceJournal, ResumeSkipsJournaledCells) {
  const std::string path = testing::TempDir() + "pfi_resume_journal.jsonl";
  std::remove(path.c_str());
  std::vector<RunCell> cells;
  for (int i = 0; i < 4; ++i) {
    cells.push_back(clean_cell(i, 3000 + static_cast<std::uint64_t>(i)));
    cells.back().duration = sim::sec(10);
  }

  // "First run" completes only half the campaign before an interrupt.
  {
    Journal j;
    ASSERT_TRUE(j.open(path));
    for (int i = 0; i < 2; ++i) {
      j.append(cell_key(cells[static_cast<std::size_t>(i)]),
               record_json(run_cell(cells[static_cast<std::size_t>(i)])));
    }
  }
  // "Resume": only the cells the journal lacks are executed.
  const auto prior = load_journal(path);
  int executed = 0;
  std::vector<std::string> records;
  for (const RunCell& cell : cells) {
    const auto hit = prior.find(cell_key(cell));
    if (hit != prior.end()) {
      records.push_back(rewrite_index(hit->second, cell.index));
    } else {
      ++executed;
      records.push_back(record_json(run_cell(cell)));
    }
  }
  EXPECT_EQ(executed, 2);
  // The merged report equals a from-scratch run, byte for byte.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(records[i], record_json(run_cell(cells[i])));
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Reorder schedules (previously silently degraded to drop)
// ---------------------------------------------------------------------------

TEST(ResilienceSchedule, ReorderCompilesToHoldQueue) {
  const FaultSchedule s = burst("gmp-heartbeat", FaultKind::kReorder, 2, 3,
                                /*on_send=*/false);
  ASSERT_EQ(s.size(), 1u);  // one window, not N degraded drops
  EXPECT_EQ(s.events[0].batch, 3);
  EXPECT_EQ(s.events[0].occurrence, 2);
  const auto scripts = s.compile();
  EXPECT_NE(scripts.receive.find("xHold"), std::string::npos);
  EXPECT_NE(scripts.receive.find("xHeldCount"), std::string::npos);
  EXPECT_NE(scripts.receive.find("xReleaseReversed"), std::string::npos);
  EXPECT_EQ(scripts.receive.find("xDrop"), std::string::npos)
      << "reorder must not degrade to drop:\n"
      << scripts.receive;
  EXPECT_NE(s.summary().find("reorder"), std::string::npos);
}

TEST(ResilienceSchedule, ReorderExecutesWithoutScriptErrors) {
  RunCell cell = clean_cell();
  cell.id = "resilience/reorder";
  cell.oracle = "agreement";
  cell.schedule.events.push_back(
      {"gmp-heartbeat", FaultKind::kReorder, 2, false, sim::msec(1500), 1, 0,
       /*batch=*/3});
  const RunResult r1 = run_cell(cell);
  EXPECT_TRUE(r1.error.empty()) << r1.error;
  EXPECT_EQ(r1.script_errors, 0u);
  EXPECT_GT(r1.messages_seen, 0u);
  const RunResult r2 = run_cell(cell);
  EXPECT_EQ(record_json(r1), record_json(r2));
}

TEST(ResilienceSpec, ParsesReorderAndResilienceKnobs) {
  std::string err;
  const auto spec = parse_spec(
      "protocol gmp\n"
      "oracle quiet\n"
      "types gmp-heartbeat\n"
      "faults reorder\n"
      "seeds 7\n"
      "burst 4\n"
      "timeout_ms 2500\n"
      "max_events 900000\n"
      "retries 2\n",
      &err);
  ASSERT_TRUE(spec.has_value()) << err;
  EXPECT_EQ(spec->timeout_ms, 2500);
  EXPECT_EQ(spec->max_sim_events, 900000u);
  EXPECT_EQ(spec->retries, 2);
  const auto cells = plan(*spec);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].timeout_ms, 2500);
  EXPECT_EQ(cells[0].max_sim_events, 900000u);
  ASSERT_EQ(cells[0].schedule.size(), 1u);  // one reorder window
  EXPECT_EQ(cells[0].schedule.events[0].kind, FaultKind::kReorder);
  EXPECT_EQ(cells[0].schedule.events[0].batch, 4);
}

// ---------------------------------------------------------------------------
// TCP spec oracle violation text (satellite of ROADMAP "TCP campaign depth")
// ---------------------------------------------------------------------------

TEST(ResilienceRunner, TcpSpecViolationsTravelWithTheRecord) {
  RunCell cell;
  cell.index = 0;
  cell.id = "resilience/tcp-spec";
  cell.protocol = "tcp";
  cell.oracle = "spec";
  cell.vendor = "solaris";  // the paper's violating vendor
  cell.seed = 1;
  cell.duration = sim::sec(30);
  // Force retransmission behaviour, where Solaris departs from the spec.
  cell.schedule.events.push_back({"tcp-data", FaultKind::kDrop, 2, false});
  cell.schedule.events.push_back({"tcp-data", FaultKind::kDrop, 5, false});
  const RunResult r = run_cell(cell);
  EXPECT_TRUE(r.error.empty()) << r.error;
  if (!r.pass) {
    ASSERT_FALSE(r.violations.empty());
    EXPECT_FALSE(r.reason.empty());
    // Structured entries: "rule @t.tts: detail".
    EXPECT_NE(r.violations[0].find(" @"), std::string::npos);
    EXPECT_NE(record_json(r).find("\"violations\":["), std::string::npos);
  }
  const RunResult again = run_cell(cell);
  EXPECT_EQ(record_json(r), record_json(again));
}

}  // namespace
}  // namespace pfi::campaign
