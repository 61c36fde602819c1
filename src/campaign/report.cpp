#include "campaign/report.hpp"

#include <cstdio>
#include <utility>

#include "campaign/json.hpp"

namespace pfi::campaign {

namespace {

void write_samples(json::Writer& w,
                   const std::map<std::string, obs::MetricSample>& samples) {
  w.begin_object();
  for (const auto& [name, m] : samples) w.kv(name, m.value);
  w.end_object();
}

}  // namespace

std::map<std::string, obs::MetricSample> FleetMetrics::merged() const {
  std::map<std::string, obs::MetricSample> out;
  for (const auto& [id, samples] : workers) obs::merge_samples(&out, samples);
  obs::merge_samples(&out, coordinator);
  return out;
}

bool write_file_or_stdout(const std::string& path, const std::string& bytes) {
  if (path.empty() || path == "-") {
    std::fwrite(bytes.data(), 1, bytes.size(), stdout);
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  return true;
}

void CampaignReport::resume(std::size_t slot, std::string record) {
  fill_[slot] = Fill::kResumed;
  records_[slot] = std::move(record);
}

void CampaignReport::reject(std::size_t slot, std::string record) {
  fill_[slot] = Fill::kRejected;
  records_[slot] = std::move(record);
}

std::vector<RunCell> CampaignReport::pending(
    const std::vector<RunCell>& cells) const {
  std::vector<RunCell> out;
  for (std::size_t i = 0; i < fill_.size(); ++i) {
    if (fill_[i] == Fill::kPending) out.push_back(cells[i]);
  }
  return out;
}

void CampaignReport::splice(const std::vector<RunResult>& results) {
  std::size_t k = 0;
  for (std::size_t i = 0; i < fill_.size() && k < results.size(); ++i) {
    if (fill_[i] != Fill::kPending) continue;
    const RunResult& r = results[k++];
    if (r.index < 0) {
      interrupted_ = true;
      continue;
    }
    fill_[i] = Fill::kRan;
    records_[i] = record_json(r);
    if (!r.metrics.empty()) {
      ++measured_;
      obs::merge_samples(&metrics_, r.metrics);
    }
  }
}

ReportSummary CampaignReport::summary() const {
  ReportSummary s;
  s.equiv_cells = equiv_cells_;
  s.interrupted = interrupted_;
  for (std::size_t i = 0; i < fill_.size(); ++i) {
    const std::string& rec = records_[i];
    s.skipped += fill_[i] == Fill::kPending ? 1 : 0;
    s.resumed += fill_[i] == Fill::kResumed ? 1 : 0;
    s.lint_rejected += fill_[i] == Fill::kRejected ? 1 : 0;
    if (rec.empty()) continue;
    const std::string verdict =
        json::probe_string_field(rec, "verdict").value_or("error");
    if (verdict == "pass") {
      ++s.pass;
      continue;
    }
    ++(verdict == "error" ? s.error : s.fail);
    s.failing_ids.push_back(json::probe_string_field(rec, "id").value_or(""));
  }
  return s;
}

std::string CampaignReport::report_json(const CampaignSpec& spec,
                                        const HostFields* host,
                                        std::string_view minimized) const {
  const ReportSummary s = summary();
  json::Writer w;
  w.begin_object();
  w.kv("campaign", spec.name);
  w.kv("protocol", spec.protocol);
  w.kv("oracle", spec.oracle);
  w.kv("cells", static_cast<int>(fill_.size()));
  w.key("runs").begin_array();
  for (const std::string& rec : records_) {
    if (!rec.empty()) w.value_raw(rec);
  }
  w.end_array();
  w.key("summary").begin_object();
  w.kv("pass", s.pass);
  w.kv("fail", s.fail);
  w.kv("error", s.error);
  if (s.skipped > 0) w.kv("skipped", s.skipped);
  if (s.lint_rejected > 0) w.kv("lint_rejected", s.lint_rejected);
  if (s.equiv_cells > 0) w.kv("equiv_cells", s.equiv_cells);
  if (s.resumed > 0) w.kv("resumed", s.resumed);
  if (s.interrupted) w.kv("interrupted", true);
  if (host != nullptr) {
    w.kv("jobs", host->jobs);
    w.kv("wall_ms", host->wall_ms);
  }
  w.key("failing_ids").begin_array();
  for (const std::string& id : s.failing_ids) w.value(id);
  w.end_array();
  w.end_object();
  if (!minimized.empty()) w.key("minimized").value_raw(minimized);
  w.end_object();
  return w.str() + "\n";
}

std::string CampaignReport::metrics_json(const std::string& campaign,
                                         const FleetMetrics* fleet) const {
  json::Writer w;
  w.begin_object();
  w.kv("campaign", campaign);
  w.kv("cells", static_cast<int>(fill_.size()));
  w.kv("cells_measured", measured_);
  // Built solely from per-result snapshots, so its bytes match a --jobs 1
  // run whatever the worker count; the fleet sections are side channel.
  w.key("metrics");
  write_samples(w, metrics_);
  if (fleet != nullptr) {
    w.key("fabric").value_raw(fleet->fabric);
    w.key("fleet").begin_object().key("merged");
    write_samples(w, fleet->merged());
    w.key("workers").begin_object();
    for (const auto& [id, samples] : fleet->workers) {
      w.key(id).begin_object();
      for (const auto& m : samples) w.kv(m.name, m.value);
      w.end_object();
    }
    w.end_object().end_object();
  }
  w.end_object();
  return w.str() + "\n";
}

}  // namespace pfi::campaign
