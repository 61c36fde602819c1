// Golden regression for the shipped conformance suite (suites/tcp/):
// the per-step pass/fail matrix of all five .pdt timelines x all four
// vendor profiles is pinned in tests/golden/conformance_suite.matrix.
// The vendor-split cells FAIL on purpose — each narrow window passes
// exactly the vendor whose timing the paper measured — so the pinned
// artifact is the split itself, not an all-green checkmark. The suite
// must also produce byte-identical per-run records at any --jobs level
// and under process isolation.
//
// To regenerate after an intentional behaviour change:
//   PFI_UPDATE_GOLDEN=1 ./build/tests/conformance_suite_test
// then review the diff like any other source change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/executor.hpp"
#include "campaign/report.hpp"
#include "campaign/suite.hpp"
#include "lint/lint.hpp"

namespace pfi::campaign {
namespace {

constexpr const char* kSuiteDir = PFI_SUITES_DIR "/tcp";
constexpr const char* kGoldenPath =
    PFI_GOLDEN_DIR "/conformance_suite.matrix";

std::vector<RunCell> planned_suite() {
  std::string err;
  const auto cells = plan_suite(kSuiteDir, &err);
  EXPECT_TRUE(cells.has_value()) << err;
  return cells.value_or(std::vector<RunCell>{});
}

/// The pinned artifact: one block per cell — "<id> <verdict>" then the
/// rendered per-step lines, indented. Pure function of the records.
std::string matrix_of(const std::vector<RunResult>& results) {
  std::string m;
  for (const RunResult& r : results) {
    m += r.id + ' ' +
         (r.errored() ? "error" : r.pass ? "pass" : "fail") + '\n';
    for (const std::string& s : r.steps) m += "  " + s + '\n';
  }
  return m;
}

TEST(ConformanceSuite, PlansFileMajorAcrossAllVendors) {
  const auto cells = planned_suite();
  ASSERT_EQ(cells.size(), 20u);  // 5 timelines x 4 vendors
  const auto& vendors = suite_vendors();
  ASSERT_EQ(vendors.size(), 4u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const RunCell& c = cells[i];
    EXPECT_EQ(c.index, static_cast<int>(i));
    EXPECT_EQ(c.protocol, "tcp");
    EXPECT_EQ(c.oracle, "conformance");
    EXPECT_EQ(c.vendor, vendors[i % vendors.size()]);
    EXPECT_FALSE(c.conform_file.empty());
    EXPECT_EQ(c.warmup, 0);
    EXPECT_EQ(c.id.rfind("tcp/" + c.vendor + '/', 0), 0u) << c.id;
    const std::string tail = "/s" + std::to_string(c.seed);
    ASSERT_GE(c.id.size(), tail.size());
    EXPECT_EQ(c.id.substr(c.id.size() - tail.size()), tail) << c.id;
  }
  // File-major: the first four cells are the same timeline.
  EXPECT_EQ(cells[0].conform_file, cells[3].conform_file);
  EXPECT_NE(cells[0].conform_file, cells[4].conform_file);
}

// Satellite: every shipped timeline is strict-lint clean — errors and
// warnings both. The suite is a test corpus; a warning in it is a bug.
TEST(ConformanceSuite, ShippedTimelinesAreStrictLintClean) {
  const auto cells = planned_suite();
  ASSERT_FALSE(cells.empty());
  for (std::size_t i = 0; i < cells.size(); i += suite_vendors().size()) {
    std::ifstream in(cells[i].conform_file);
    ASSERT_TRUE(in.good()) << cells[i].conform_file;
    std::ostringstream ss;
    ss << in.rdbuf();
    const auto diags = lint::check_conformance(ss.str(), cells[i].conform_file);
    EXPECT_TRUE(diags.empty())
        << cells[i].conform_file << ": " << lint::format_text(diags.front());
  }
}

TEST(ConformanceSuite, MatrixMatchesGoldenAndRecordsAreJobInvariant) {
  const auto cells = planned_suite();
  ASSERT_EQ(cells.size(), 20u);

  ExecutorOptions serial;
  serial.jobs = 1;
  const std::vector<RunResult> r1 = run_cells(cells, serial);

  ExecutorOptions wide;
  wide.jobs = 8;
  const std::vector<RunResult> r8 = run_cells(cells, wide);

  ExecutorOptions isolated;
  isolated.jobs = 4;
  isolated.isolate = true;
  const std::vector<RunResult> riso = run_cells(cells, isolated);

  ASSERT_EQ(r1.size(), cells.size());
  ASSERT_EQ(r8.size(), cells.size());
  ASSERT_EQ(riso.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string rec = record_json(r1[i]);
    EXPECT_EQ(rec, record_json(r8[i])) << cells[i].id;
    EXPECT_EQ(rec, record_json(riso[i])) << cells[i].id << " (--isolate)";
    EXPECT_TRUE(r1[i].error.empty()) << cells[i].id << ": " << r1[i].error;
    EXPECT_FALSE(r1[i].steps.empty()) << cells[i].id;
  }

  const std::string matrix = matrix_of(r1);
  if (std::getenv("PFI_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath);
    ASSERT_TRUE(out.good()) << kGoldenPath;
    out << matrix;
    GTEST_SKIP() << "golden matrix regenerated at " << kGoldenPath;
  }
  std::ifstream gf(kGoldenPath);
  ASSERT_TRUE(gf.good())
      << kGoldenPath << " missing; regenerate with PFI_UPDATE_GOLDEN=1";
  std::ostringstream gs;
  gs << gf.rdbuf();
  EXPECT_EQ(gs.str(), matrix)
      << "per-step conformance matrix drifted from tests/golden/"
         "conformance_suite.matrix; if the change is intentional, "
         "regenerate with PFI_UPDATE_GOLDEN=1 and review the diff";

  // The paper's tables are vendor-difference tables: the pinned matrix
  // must actually split vendors, not degenerate to all-pass or all-fail.
  CampaignReport report(r1.size());
  report.splice(r1);
  const ReportSummary s = report.summary();
  EXPECT_GT(s.pass, 0);
  EXPECT_GT(s.fail, 0);
}

}  // namespace
}  // namespace pfi::campaign
