// Golden records for two shipped plans: the GMP omission spec
// (scripts/campaign_gmp_omission.spec) and the suites/tcp conformance suite.
//
// Each plan pins two files under tests/golden/records/:
//
//   <plan>.runs     the report's `runs`, one record per line, plan order;
//   <plan>.metrics  the `metrics` object of the merged --metrics-out
//                   document, one `"name":value` per line. It carries the
//                   interpreters' work counts (script.{send,recv}.evals,
//                   commands, loop_ticks, watchdog_probes), so a change that
//                   makes the filters do more or less work shows here even
//                   when every record stays the same.
//
// Both are produced through run_cells + CampaignReport, at --jobs 1 and at
// --jobs 4, and each must equal the files byte for byte. A mismatch names
// the first differing cell and key.
//
// To regenerate after an intentional behaviour change:
//   PFI_UPDATE_GOLDEN=1 ./build/tests/records_golden_test
// then review the diff and say in CHANGES.md why the records changed.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/executor.hpp"
#include "campaign/report.hpp"
#include "campaign/spec.hpp"
#include "campaign/suite.hpp"

namespace pfi::campaign {
namespace {

/// The members of the JSON object or array that starts at `text[0]`, as
/// raw text: split at the commas outside strings and nested brackets.
std::vector<std::string_view> members(std::string_view text) {
  std::vector<std::string_view> out;
  int depth = 0;
  bool in_string = false;
  std::size_t start = 1;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if ((c == ',' && depth == 1) ||
               ((c == '}' || c == ']') && --depth == 0)) {
      std::string_view m = text.substr(start, i - start);
      while (!m.empty() && m.front() == ' ') m.remove_prefix(1);
      if (!m.empty()) out.push_back(m);
      if (depth == 0) break;
      start = i + 1;
    }
  }
  return out;
}

/// The key of an object member `"key":value`.
std::string_view key_of(std::string_view member) {
  const std::size_t end = member.find('"', 1);
  return end == std::string_view::npos ? member : member.substr(1, end - 1);
}

/// The raw value of `key` in the JSON object `object`, or "".
std::string_view value_of(std::string_view object, std::string_view key) {
  for (std::string_view m : members(object)) {
    if (key_of(m) != key) continue;
    m.remove_prefix(key.size() + 3);  // `"key":`
    while (!m.empty() && m.front() == ' ') m.remove_prefix(1);
    return m;
  }
  return {};
}

std::string lines_of(std::string_view container) {
  std::string out;
  for (std::string_view m : members(container)) {
    out.append(m);
    out += '\n';
  }
  return out;
}

struct Artifacts {
  std::string runs;
  std::string metrics;
};

Artifacts produce(const CampaignSpec& spec, const std::vector<RunCell>& cells,
                  int jobs) {
  ExecutorOptions opts;
  opts.jobs = jobs;
  CampaignReport report(cells.size());
  report.splice(run_cells(cells, opts));
  const std::string doc = report.report_json(spec);
  const std::string metrics = report.metrics_json(spec.name);
  return {lines_of(value_of(doc, "runs")),
          lines_of(value_of(metrics, "metrics"))};
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

/// Where `got` first departs from `want`: a record's cell id and first
/// differing key, or the differing metric; "" when they are equal.
std::string first_difference(const std::string& want, const std::string& got,
                             bool records) {
  const std::vector<std::string> a = split_lines(want);
  const std::vector<std::string> b = split_lines(got);
  for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
    if (i >= a.size() || i >= b.size()) {
      return "line " + std::to_string(i + 1) + ": " +
             (i >= a.size() ? "extra line " + b[i]
                            : "missing line " + a[i]);
    }
    if (a[i] == b[i]) continue;
    if (!records) {
      return "metric " + std::string(key_of(a[i])) + ": want " + a[i] +
             ", got " + b[i];
    }
    const std::vector<std::string_view> ma = members(a[i]);
    const std::vector<std::string_view> mb = members(b[i]);
    std::string where = "cell " + std::string(value_of(a[i], "id"));
    for (std::size_t k = 0; k < std::max(ma.size(), mb.size()); ++k) {
      if (k < ma.size() && k < mb.size() && ma[k] == mb[k]) continue;
      const std::string_view key = key_of(k < ma.size() ? ma[k] : mb[k]);
      return where + ", key " + std::string(key) + ": want " +
             std::string(k < ma.size() ? ma[k] : "(none)") + ", got " +
             std::string(k < mb.size() ? mb[k] : "(none)");
    }
    return where;
  }
  return {};
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

/// Compare one plan's artifacts, at --jobs 1 and --jobs 4, with its golden
/// files (or rewrite them under PFI_UPDATE_GOLDEN).
void check_plan(const std::string& name, const CampaignSpec& spec,
                const std::vector<RunCell>& cells) {
  ASSERT_FALSE(cells.empty());
  const std::string base = PFI_GOLDEN_DIR "/records/" + name;
  const Artifacts serial = produce(spec, cells, 1);
  const Artifacts parallel = produce(spec, cells, 4);
  if (std::getenv("PFI_UPDATE_GOLDEN") != nullptr) {
    std::ofstream(base + ".runs") << serial.runs;
    std::ofstream(base + ".metrics") << serial.metrics;
  }
  const std::string want_runs = read_file(base + ".runs");
  const std::string want_metrics = read_file(base + ".metrics");
  ASSERT_FALSE(want_runs.empty())
      << base << ".runs missing; regenerate with PFI_UPDATE_GOLDEN=1";
  for (const auto& [jobs, got] :
       {std::pair{1, &serial}, std::pair{4, &parallel}}) {
    EXPECT_EQ(first_difference(want_runs, got->runs, true), "")
        << name << ".runs at --jobs " << jobs;
    EXPECT_EQ(first_difference(want_metrics, got->metrics, false), "")
        << name << ".metrics at --jobs " << jobs;
  }
}

TEST(RecordsGolden, GmpOmissionSpec) {
  std::string err;
  const auto spec = load_spec_file(
      PFI_SCRIPTS_DIR "/campaign_gmp_omission.spec", &err);
  ASSERT_TRUE(spec.has_value()) << err;
  check_plan("gmp_omission", *spec, plan(*spec));
}

TEST(RecordsGolden, TcpSuite) {
  std::string err;
  const auto cells = plan_suite(PFI_SUITES_DIR "/tcp", &err);
  ASSERT_TRUE(cells.has_value()) << err;
  check_plan("tcp_suite", suite_spec(PFI_SUITES_DIR "/tcp"), *cells);
}

}  // namespace
}  // namespace pfi::campaign
