// Deterministic metrics registry.
//
// The paper's evaluation method is observation — every experiment reads its
// result off logged, timestamped behaviour. This registry is the numeric
// half of that instrument: named counters, high-water gauges and fixed-bucket
// histograms that components bump on their hot paths and campaigns export as
// machine-readable JSON.
//
// Design constraints, in order:
//
//   * Deterministic: a snapshot is a pure function of the simulation that
//     produced it. No wall-clock values, no addresses, no hash-order
//     iteration — snapshots list metrics sorted by name, so two runs of the
//     same cell produce byte-identical output whatever --jobs was.
//   * Zero heap on the hot path: registration (find-or-create by name)
//     allocates once; after that, callers hold a stable Counter*/Histogram*
//     and an update is a single integer add (histograms: a bit-scan + add).
//   * One build: hot-path update sites go through PFI_OBS_INC /
//     PFI_OBS_OBSERVE, a null-guarded update (a detached registry costs one
//     branch). There is no compile-out switch: campaign records read the
//     per-type counters (coverage digests), so they must not depend on
//     how the library was built.
//
// One Registry per campaign cell; the campaign CLI merges cell snapshots
// (counters add, gauges max) into the --metrics-out document.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace pfi::obs {

/// Monotonic counter (merge policy: sum).
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_ += n; }
  [[nodiscard]] std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

/// High-water gauge (merge policy: max) — e.g. scheduler queue depth.
class MaxGauge {
 public:
  void track(std::uint64_t v) {
    if (v > v_) v_ = v;
  }
  [[nodiscard]] std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

/// Fixed geometric-bucket histogram: bucket i counts samples in
/// (2^(i-1), 2^i], bucket 0 counts {0, 1}. 32 buckets cover every uint32
/// sample (message sizes, queue depths); larger samples land in the last
/// bucket. No allocation after construction.
class Histogram {
 public:
  static constexpr int kBuckets = 32;

  void observe(std::uint64_t sample);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t bucket(int i) const { return buckets_[i]; }
  /// Inclusive upper bound of bucket i (2^i; bucket 0 is <= 1).
  [[nodiscard]] static std::uint64_t bucket_bound(int i) {
    return std::uint64_t{1} << i;
  }

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
};

/// One named value in a registry snapshot. `kind` selects the merge policy
/// when the campaign folds per-cell snapshots together: 'c' = sum, 'g' = max.
/// Histograms are flattened into one 'c' sample per non-empty bucket
/// ("name.le_256") plus a "name.count" total, so a snapshot is always a flat,
/// sorted list of (name, kind, value).
struct MetricSample {
  std::string name;
  char kind = 'c';
  std::uint64_t value = 0;

  bool operator==(const MetricSample&) const = default;
};

/// Find-or-create registry with stable object addresses and sorted
/// iteration. Not thread-safe by design: each campaign cell owns a private
/// registry (the executor's parallelism story is share-nothing).
class Registry {
 public:
  Counter& counter(std::string_view name);
  MaxGauge& max_gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Set a counter to an absolute value (collect-time export of stats
  /// structs that were counted elsewhere).
  void set_counter(std::string_view name, std::uint64_t value);
  void set_max_gauge(std::string_view name, std::uint64_t value);

  /// Flat snapshot, sorted by name, histograms flattened. Deterministic.
  [[nodiscard]] std::vector<MetricSample> snapshot() const;

  /// Counters whose name starts with `prefix`, with the prefix stripped.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  counters_with_prefix(std::string_view prefix) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  /// A map node never moves, so a counter or gauge lives in its entry; a
  /// histogram's 256 bytes stay behind a pointer, out of other kinds' nodes.
  struct Entry {
    char kind = 'c';  // 'c' counter, 'g' gauge, 'h' histogram
    Counter counter;
    MaxGauge gauge;
    std::unique_ptr<Histogram> histogram;
  };
  /// The entry for `name`, made with `kind` if it is new.
  Entry& entry(std::string_view name, char kind);

  std::map<std::string, Entry, std::less<>> entries_;
};

/// Fold `fresh` into `merged` (counters add, gauges max) — the campaign-wide
/// merge over per-cell snapshots. Order-independent, so the merged registry
/// is identical whatever order cells finished in.
void merge_samples(std::map<std::string, MetricSample>* merged,
                   const std::vector<MetricSample>& fresh);

}  // namespace pfi::obs

// Hot-path instrumentation sites: a null-guarded update. `p` is a
// Counter*/Histogram* cached at attach time (null = detached).
#define PFI_OBS_INC(p) \
  do {                 \
    if ((p) != nullptr) (p)->inc(); \
  } while (0)
#define PFI_OBS_ADD(p, n) \
  do {                    \
    if ((p) != nullptr) (p)->inc(n); \
  } while (0)
#define PFI_OBS_OBSERVE(p, v) \
  do {                        \
    if ((p) != nullptr) (p)->observe(v); \
  } while (0)
