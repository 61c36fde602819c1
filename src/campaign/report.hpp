// Campaign report assembly: the one place a campaign's documents are built.
//
// A CampaignReport holds one slot per planned cell (slot i is plan cell i).
// Before execution the caller pre-fills what it already knows: journaled
// records (--resume), lint-rejected cells' error records (--lint), or cells
// a daemon client already holds (Submit.have: resumed, but no record, so
// no run is emitted). After execution splice() drops each result into its
// slot *by position* — run_cells/run_fabric return results[i] for todo[i] —
// never by the result's own index field.
//
// `pfi_campaign` and the `pfi_fabricd` daemon both write their report and
// metrics documents from here, so a service run produces the same document
// as a local one, minus the host fields (jobs, wall_ms).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "obs/metrics.hpp"

namespace pfi::campaign {

/// Counts over a report's slots; journaled and fresh records count alike.
struct ReportSummary {
  int pass = 0;
  int fail = 0;
  int error = 0;
  int skipped = 0;  // slots no record reached (interrupted before running)
  int resumed = 0;
  int lint_rejected = 0;
  int equiv_cells = 0;
  bool interrupted = false;
  std::vector<std::string> failing_ids;  // fail + error, plan order
};

/// Wall-clock facts of a local run. Never part of a service's report.
struct HostFields {
  int jobs = 1;
  double wall_ms = 0;
};

/// The fabric side channel of the metrics document.
struct FleetMetrics {
  std::string fabric;  // FabricStats::to_json()
  std::map<std::string, std::vector<obs::MetricSample>> workers;
  std::vector<obs::MetricSample> coordinator;  // the coordinator's registry

  /// Every worker's snapshot folded with the coordinator's (merge_samples).
  [[nodiscard]] std::map<std::string, obs::MetricSample> merged() const;
};

/// Write `bytes` to `path` ("" or "-" = stdout). On I/O failure prints
/// the error and returns false.
bool write_file_or_stdout(const std::string& path, const std::string& bytes);

class CampaignReport {
 public:
  explicit CampaignReport(std::size_t slots)
      : fill_(slots, Fill::kPending), records_(slots) {}

  /// Pre-fill `slot` as resumed: a journaled record, or none when the
  /// client already holds it.
  void resume(std::size_t slot, std::string record = {});
  /// Pre-fill `slot` with a lint-rejected cell's error record.
  void reject(std::size_t slot, std::string record);
  /// The cells still to execute: plan order, pre-filled slots skipped.
  [[nodiscard]] std::vector<RunCell> pending(
      const std::vector<RunCell>& cells) const;
  /// results[k] is the outcome of pending(cells)[k]. A result with
  /// index == -1 never ran: its slot stays empty and the report counts as
  /// interrupted.
  void splice(const std::vector<RunResult>& results);

  void set_equiv_cells(int n) { equiv_cells_ = n; }
  void mark_interrupted() { interrupted_ = true; }
  [[nodiscard]] ReportSummary summary() const;

  /// The report document, newline-terminated. `minimized`, when non-empty,
  /// is a JSON array spliced in verbatim after the summary.
  [[nodiscard]] std::string report_json(const CampaignSpec& spec,
                                        const HostFields* host = nullptr,
                                        std::string_view minimized = {}) const;
  /// The metrics document, newline-terminated: the merge of every spliced
  /// result's metric snapshot, plus the fabric/fleet sections when given.
  [[nodiscard]] std::string metrics_json(
      const std::string& campaign, const FleetMetrics* fleet = nullptr) const;

 private:
  enum class Fill : char { kPending, kResumed, kRejected, kRan };

  std::vector<Fill> fill_;
  std::vector<std::string> records_;
  std::map<std::string, obs::MetricSample> metrics_;
  int measured_ = 0;
  int equiv_cells_ = 0;
  bool interrupted_ = false;
};

}  // namespace pfi::campaign
