// Small table/series formatting helpers shared by the per-table bench
// binaries. Each binary prints the rows of one table (or the series of one
// figure) from the paper, regenerated by the experiments library.
//
// Setting BENCH_JSON=1 (or calling set_json_rows(true)) additionally emits
// each row as one JSON object per line through campaign/json.hpp — the same
// writer the campaign engine uses — so paper-table benches and campaign
// results share one machine-readable format.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "campaign/json.hpp"

namespace pfi::bench {

inline bool& json_rows_flag() {
  static bool on = [] {
    const char* e = std::getenv("BENCH_JSON");
    return e != nullptr && *e != '\0' && *e != '0';
  }();
  return on;
}

inline void set_json_rows(bool on) { json_rows_flag() = on; }

/// Emit one structured row as a JSON line (no-op unless JSON mode is on).
inline void json_row(
    const std::string& bench,
    std::initializer_list<std::pair<const char*, std::string>> fields) {
  if (!json_rows_flag()) return;
  campaign::json::Writer w;
  w.begin_object().kv("bench", bench);
  for (const auto& [k, v] : fields) w.kv(k, v);
  w.end_object();
  std::printf("%s\n", w.str().c_str());
}

inline void title(const std::string& t) {
  std::printf("\n=== %s ===\n\n", t.c_str());
}

inline void rule(int width = 100) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline void row(const std::string& label, const std::string& value) {
  std::printf("  %-14s | %s\n", label.c_str(), value.c_str());
  json_row("row", {{"label", label}, {"value", value}});
}

inline std::string series(const std::vector<double>& xs, int max_items = 16) {
  std::string out;
  char buf[32];
  int n = 0;
  for (double x : xs) {
    if (n++ == max_items) {
      out += " ...";
      break;
    }
    std::snprintf(buf, sizeof buf, "%.2f", x);
    if (!out.empty()) out += ", ";
    out += buf;
  }
  return out;
}

inline std::string yesno(bool b) { return b ? "yes" : "no"; }

}  // namespace pfi::bench
