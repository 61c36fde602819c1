// Campaign engine tests: spec parsing, matrix planning, schedule
// compilation, the determinism-under-parallelism invariant (identical
// per-run JSON records at --jobs 1 and --jobs 4), failing-schedule
// minimisation down to a verified 1-minimal reproduction, and the report
// assembly (plan-slot splicing, summary, report and metrics documents).
#include <gtest/gtest.h>

#include <set>

#include "campaign/executor.hpp"
#include "campaign/minimize.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/schedule.hpp"
#include "campaign/spec.hpp"

namespace pfi::campaign {
namespace {

using core::scriptgen::FaultKind;

CampaignSpec small_gmp_spec() {
  CampaignSpec spec;
  spec.name = "unit";
  spec.protocol = "gmp";
  spec.oracle = "quiet";
  spec.types = {"gmp-heartbeat", "gmp-commit"};
  spec.faults = {FaultKind::kDrop};
  spec.seeds = {1000, 1001, 1002};
  spec.burst = 2;
  spec.on_send_side = false;
  spec.warmup = 0;
  spec.duration = sim::sec(40);
  return spec;
}

TEST(CampaignSpec, ParsesTextFormat) {
  std::string err;
  const auto spec = parse_spec(
      "# comment\n"
      "name omission\n"
      "protocol gmp\n"
      "oracle quiet\n"
      "types gmp-heartbeat gmp-commit\n"
      "faults drop delay\n"
      "seeds 5 10..12\n"
      "burst 3\n"
      "side receive\n"
      "warmup_s 2\n"
      "duration_s 50\n",
      &err);
  ASSERT_TRUE(spec.has_value()) << err;
  EXPECT_EQ(spec->name, "omission");
  EXPECT_EQ(spec->types.size(), 2u);
  EXPECT_EQ(spec->faults.size(), 2u);
  EXPECT_EQ(spec->seeds, (std::vector<std::uint64_t>{5, 10, 11, 12}));
  EXPECT_EQ(spec->burst, 3);
  EXPECT_FALSE(spec->on_send_side);
  EXPECT_EQ(spec->warmup, sim::sec(2));
  EXPECT_EQ(spec->duration, sim::sec(50));
}

TEST(CampaignSpec, RejectsGarbage) {
  std::string err;
  EXPECT_FALSE(parse_spec("protocol smtp\n", &err).has_value());
  EXPECT_NE(err.find("protocol"), std::string::npos);
  EXPECT_FALSE(parse_spec("types a\nfaults explode\n", &err).has_value());
  EXPECT_FALSE(parse_spec("types a\nseeds 9..5\n", &err).has_value());
  EXPECT_FALSE(parse_spec("bogus_key 1\n", &err).has_value());
  // No fault axis at all.
  EXPECT_FALSE(parse_spec("protocol gmp\n", &err).has_value());
}

TEST(CampaignPlan, ExpandsCrossProductDeterministically) {
  const auto spec = small_gmp_spec();
  const auto cells = plan(spec);
  ASSERT_EQ(cells.size(), 2u * 1u * 3u);
  std::set<std::string> ids;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, static_cast<int>(i));
    EXPECT_EQ(cells[i].schedule.size(), 2u);  // burst
    ids.insert(cells[i].id);
  }
  EXPECT_EQ(ids.size(), cells.size());  // unique ids
  EXPECT_EQ(cells[0].id, "gmp/gmp-heartbeat/drop/s1000");
  // Planning twice yields the same matrix.
  const auto again = plan(spec);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].id, again[i].id);
    EXPECT_EQ(cells[i].schedule, again[i].schedule);
  }
}

TEST(CampaignPlan, FilterKeepsMatchingAndReindexes) {
  auto cells = filter_cells(plan(small_gmp_spec()), "gmp-commit");
  ASSERT_EQ(cells.size(), 3u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, static_cast<int>(i));
    EXPECT_NE(cells[i].id.find("gmp-commit"), std::string::npos);
  }
}

TEST(FaultSchedule, CompilesToCleanScripts) {
  FaultSchedule s;
  s.events.push_back({"gmp-commit", FaultKind::kDrop, 1, false});
  s.events.push_back({"gmp-heartbeat", FaultKind::kDelay, 3, false,
                      sim::msec(200)});
  s.events.push_back({"gmp-heartbeat", FaultKind::kDuplicate, 5, true});
  const auto scripts = s.compile();
  EXPECT_NE(scripts.setup.find("set sched_n_gmp_commit 0"),
            std::string::npos);
  EXPECT_NE(scripts.receive.find("xDrop cur_msg"), std::string::npos);
  EXPECT_NE(scripts.receive.find("xDelay cur_msg 200"), std::string::npos);
  EXPECT_NE(scripts.send.find("xDuplicate 1"), std::string::npos);

  // Run it for real: a faulted GMP cell must execute without interpreter
  // errors (messages_seen > 0 proves the filters actually ran).
  RunCell cell;
  cell.protocol = "gmp";
  cell.oracle = "agreement";
  cell.id = "unit/compile";
  cell.schedule = s;
  cell.warmup = 0;
  cell.duration = sim::sec(30);
  const RunResult r = run_cell(cell);
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.script_errors, 0u);
  EXPECT_GT(r.messages_seen, 0u);
}

TEST(FaultSchedule, EmptyScheduleIsCleanBaseline) {
  // The quiet oracle must pass an unfaulted run — otherwise every fault
  // verdict would be noise.
  RunCell cell;
  cell.protocol = "gmp";
  cell.oracle = "quiet";
  cell.id = "unit/baseline";
  cell.warmup = 0;
  cell.duration = sim::sec(40);
  const RunResult r = run_cell(cell);
  EXPECT_TRUE(r.pass) << r.reason;
  EXPECT_EQ(r.faults_injected, 0u);
}

// Satellite: the determinism-under-parallelism invariant. The same campaign
// at --jobs 1 and --jobs 4 must produce byte-identical per-run JSON records;
// this is what guards the "each worker owns its whole simulation" rule.
TEST(CampaignExecutor, RecordsIdenticalAcrossJobCounts) {
  const auto cells = plan(small_gmp_spec());
  ExecutorOptions serial;
  serial.jobs = 1;
  ExecutorOptions parallel;
  parallel.jobs = 4;
  const auto r1 = run_cells(cells, serial);
  const auto r4 = run_cells(cells, parallel);
  ASSERT_EQ(r1.size(), cells.size());
  ASSERT_EQ(r4.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(record_json(r1[i]), record_json(r4[i])) << cells[i].id;
  }
}

TEST(CampaignExecutor, CallbackSeesEveryCell) {
  const auto cells = plan(small_gmp_spec());
  std::set<int> seen;
  ExecutorOptions opts;
  opts.jobs = 3;
  opts.on_result = [&](const RunResult& r) { seen.insert(r.index); };
  const auto results = run_cells(cells, opts);
  EXPECT_EQ(seen.size(), cells.size());
  CampaignReport report(results.size());
  report.splice(results);
  const ReportSummary sum = report.summary();
  EXPECT_EQ(sum.pass + sum.fail + sum.error, static_cast<int>(cells.size()));
}

TEST(CampaignRunner, LiteralScriptFileCellReportsMissingFile) {
  RunCell cell;
  cell.protocol = "gmp";
  cell.id = "unit/missing";
  cell.script_file = "/nonexistent/script.tcl";
  const RunResult r = run_cell(cell);
  EXPECT_TRUE(r.errored());
  EXPECT_NE(record_json(r).find("\"verdict\":\"error\""), std::string::npos);
}

// The acceptance-shaped minimisation case: a storm of 12 scheduled faults
// where two dropped MC rounds are the real culprit (the victim misses a
// membership-change plus its retry, so a peer raises a suspicion). ddmin
// must cut the schedule to <= half its size and the minimal schedule must
// still reproduce the failure deterministically.
TEST(CampaignMinimize, ReducesStormToCulprit) {
  RunCell cell;
  cell.protocol = "gmp";
  cell.oracle = "quiet";
  cell.id = "unit/storm";
  cell.warmup = 0;
  cell.duration = sim::sec(40);

  FaultSchedule storm;
  // The culprit: node 2 misses the first MC and its retry.
  storm.events.push_back({"gmp-mc", FaultKind::kDrop, 1, false});
  storm.events.push_back({"gmp-mc", FaultKind::kDrop, 2, false});
  // Decoys the cluster absorbs: tiny delays and duplicates.
  for (int occ = 1; occ <= 4; ++occ) {
    storm.events.push_back({"gmp-heartbeat", FaultKind::kDuplicate, occ * 2,
                            false});
    storm.events.push_back({"gmp-heartbeat", FaultKind::kDelay, occ * 2 + 1,
                            false, sim::msec(50)});
  }
  storm.events.push_back({"gmp-proclaim", FaultKind::kDuplicate, 1, false});
  storm.events.push_back({"gmp-join", FaultKind::kDuplicate, 1, true});
  cell.schedule = storm;
  ASSERT_EQ(cell.schedule.size(), 12u);

  // Sanity: the storm fails, and dropping a single MC does not -- so the
  // minimiser genuinely has to keep a two-event core, not a singleton.
  const MinimizeResult m = minimize_schedule(cell);
  EXPECT_TRUE(m.failed_originally);
  EXPECT_TRUE(m.reproduced) << m.verification.reason;
  EXPECT_LE(m.minimal_events, m.original_events / 2);
  ASSERT_GE(m.minimal_events, 1u);
  // The culprit survived minimisation.
  std::size_t mc_drops = 0;
  for (const auto& e : m.schedule.events) {
    if (e.type == "gmp-mc" && e.kind == FaultKind::kDrop) ++mc_drops;
  }
  EXPECT_EQ(mc_drops, 2u) << m.schedule.summary();
}

TEST(CampaignMinimize, PassingCellIsNotMinimised) {
  RunCell cell;
  cell.protocol = "gmp";
  cell.oracle = "quiet";
  cell.id = "unit/passing";
  cell.warmup = 0;
  cell.duration = sim::sec(40);
  // A duplicate heartbeat is absorbed; the quiet oracle passes.
  cell.schedule.events.push_back({"gmp-heartbeat", FaultKind::kDuplicate, 2,
                                  false});
  const MinimizeResult m = minimize_schedule(cell);
  EXPECT_FALSE(m.failed_originally);
  EXPECT_EQ(m.minimal_events, m.original_events);
}

TEST(CampaignRunner, TcpAndTpcProtocolsExecute) {
  RunCell tcp_cell;
  tcp_cell.protocol = "tcp";
  tcp_cell.oracle = "alive";
  tcp_cell.vendor = "sunos";
  tcp_cell.id = "unit/tcp";
  tcp_cell.duration = sim::sec(30);
  tcp_cell.schedule.events.push_back({"tcp-data", FaultKind::kDrop, 2,
                                      false});
  const RunResult tr = run_cell(tcp_cell);
  EXPECT_TRUE(tr.error.empty()) << tr.error;
  EXPECT_GT(tr.messages_seen, 0u);

  RunCell tpc_cell;
  tpc_cell.protocol = "tpc";
  tpc_cell.oracle = "atomic";
  tpc_cell.id = "unit/tpc";
  tpc_cell.warmup = sim::sec(1);
  tpc_cell.duration = sim::sec(30);
  const RunResult pr = run_cell(tpc_cell);
  EXPECT_TRUE(pr.error.empty()) << pr.error;
  EXPECT_TRUE(pr.pass) << pr.reason;  // unfaulted 2PC commits atomically
}

// --- report assembly ---------------------------------------------------------

RunResult verdict(int index, const std::string& id, bool pass,
                  const std::string& error = "") {
  RunResult r;
  r.index = index;
  r.id = id;
  r.oracle = "quiet";
  r.pass = pass;
  r.error = error;
  return r;
}

TEST(CampaignReport, PrefilledSlotsKeepPlanOrderAndCountAsResumed) {
  CampaignReport report(3);
  report.resume(1, record_json(verdict(1, "b", true)));
  std::vector<RunCell> cells(3);
  for (int i = 0; i < 3; ++i) cells[i].index = i;
  const auto todo = report.pending(cells);
  ASSERT_EQ(todo.size(), 2u);
  EXPECT_EQ(todo[0].index, 0);
  EXPECT_EQ(todo[1].index, 2);
  // Spliced by position: results[k] fills todo[k]'s slot, whatever r.index
  // says.
  report.splice({verdict(7, "a", true), verdict(7, "c", true)});
  const std::string doc = report.report_json(small_gmp_spec());
  const auto a = doc.find("\"id\":\"a\"");
  const auto b = doc.find("\"id\":\"b\"");
  const auto c = doc.find("\"id\":\"c\"");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  ASSERT_NE(c, std::string::npos);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  const ReportSummary sum = report.summary();
  EXPECT_EQ(sum.pass, 3);
  EXPECT_EQ(sum.resumed, 1);
  EXPECT_NE(doc.find("\"resumed\":1"), std::string::npos) << doc;
}

TEST(CampaignReport, HeldSlotCountsAsResumedButEmitsNoRun) {
  CampaignReport report(2);
  report.resume(0);
  report.splice({verdict(1, "b", true)});
  const ReportSummary sum = report.summary();
  EXPECT_EQ(sum.resumed, 1);
  EXPECT_EQ(sum.pass, 1);
  EXPECT_EQ(sum.skipped, 0);
  EXPECT_FALSE(sum.interrupted);
  const std::string doc = report.report_json(small_gmp_spec());
  EXPECT_NE(doc.find("\"cells\":2,\"runs\":[{\"index\":1,"),
            std::string::npos)
      << doc;
  EXPECT_EQ(doc.find("\"index\":0"), std::string::npos) << doc;
}

TEST(CampaignReport, InterruptedBatchYieldsSkippedAndInterrupted) {
  CampaignReport report(3);
  RunResult never_ran;  // index == -1: the executor never claimed it
  report.splice({verdict(0, "a", true), never_ran, verdict(2, "c", true)});
  const ReportSummary sum = report.summary();
  EXPECT_EQ(sum.pass, 2);
  EXPECT_EQ(sum.skipped, 1);
  EXPECT_TRUE(sum.interrupted);
  const std::string doc = report.report_json(small_gmp_spec());
  EXPECT_NE(doc.find("\"skipped\":1,\"interrupted\":true"),
            std::string::npos)
      << doc;
}

TEST(CampaignReport, FailingIdsSitInsideSummaryInPlanOrder) {
  CampaignReport report(4);
  report.reject(2, record_json(verdict(2, "lint", false, "lint: bad")));
  report.splice({verdict(0, "x", false), verdict(1, "y", true),
                 verdict(3, "z", false, "boom")});
  const std::string doc = report.report_json(small_gmp_spec());
  EXPECT_NE(doc.find("\"summary\":{\"pass\":1,\"fail\":1,\"error\":2,"
                     "\"lint_rejected\":1,"
                     "\"failing_ids\":[\"x\",\"lint\",\"z\"]}}"),
            std::string::npos)
      << doc;
}

TEST(CampaignReport, HostFieldsOnlyWhenAskedFor) {
  CampaignReport report(1);
  report.splice({verdict(0, "a", true)});
  const std::string service = report.report_json(small_gmp_spec());
  EXPECT_EQ(service.find("\"jobs\""), std::string::npos) << service;
  EXPECT_EQ(service.find("\"wall_ms\""), std::string::npos) << service;
  const HostFields host{4, 12.5};
  const std::string local = report.report_json(small_gmp_spec(), &host);
  EXPECT_NE(local.find("\"jobs\":4,\"wall_ms\":12.500,\"failing_ids\""),
            std::string::npos)
      << local;

  // Likewise the metrics document grows fabric/fleet only when given them.
  EXPECT_EQ(report.metrics_json("unit"),
            "{\"campaign\":\"unit\",\"cells\":1,\"cells_measured\":0,"
            "\"metrics\":{}}\n");
  FleetMetrics fleet;
  fleet.fabric = "{}";
  const std::string fm = report.metrics_json("unit", &fleet);
  EXPECT_NE(
      fm.find("\"fabric\":{},\"fleet\":{\"merged\":{},\"workers\":{}}"),
      std::string::npos)
      << fm;
}

}  // namespace
}  // namespace pfi::campaign
