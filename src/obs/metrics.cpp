#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>

namespace pfi::obs {

void Histogram::observe(std::uint64_t sample) {
  // Bucket index = position of the highest set bit: 0..1 -> 0, 2 -> 1,
  // 3..4 -> 2, ... (sample s lands in the first bucket with bound >= s).
  int idx = 0;
  if (sample > 1) {
    idx = 64 - std::countl_zero(sample - 1);
    if (idx >= kBuckets) idx = kBuckets - 1;
  }
  ++buckets_[idx];
  ++count_;
}

Registry::Entry& Registry::entry(std::string_view name, char kind) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    it = entries_.emplace(std::string(name), Entry{}).first;
    it->second.kind = kind;
    if (kind == 'h') it->second.histogram = std::make_unique<Histogram>();
  }
  return it->second;
}

Counter& Registry::counter(std::string_view name) {
  return entry(name, 'c').counter;
}

MaxGauge& Registry::max_gauge(std::string_view name) {
  return entry(name, 'g').gauge;
}

Histogram& Registry::histogram(std::string_view name) {
  return *entry(name, 'h').histogram;
}

void Registry::set_counter(std::string_view name, std::uint64_t value) {
  Counter& c = counter(name);
  c.inc(value - c.value());
}

void Registry::set_max_gauge(std::string_view name, std::uint64_t value) {
  max_gauge(name).track(value);
}

std::vector<MetricSample> Registry::snapshot() const {
  // entries_ iterates sorted by name; flattened histogram bucket names sort
  // within their own prefix, so one pass stays globally sorted as long as
  // the flattened names are emitted in order — they are not (le_16 < le_2
  // lexicographically), so collect then sort once.
  std::vector<MetricSample> out;
  out.reserve(entries_.size() + 8);
  for (const auto& [name, e] : entries_) {
    switch (e.kind) {
      case 'c':
        out.push_back({name, 'c', e.counter.value()});
        break;
      case 'g':
        out.push_back({name, 'g', e.gauge.value()});
        break;
      case 'h': {
        out.push_back({name + ".count", 'c', e.histogram->count()});
        for (int i = 0; i < Histogram::kBuckets; ++i) {
          const std::uint64_t n = e.histogram->bucket(i);
          if (n == 0) continue;
          out.push_back({name + ".le_" +
                             std::to_string(Histogram::bucket_bound(i)),
                         'c', n});
        }
        break;
      }
      default:
        break;
    }
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return out;
}

std::vector<std::pair<std::string, std::uint64_t>>
Registry::counters_with_prefix(std::string_view prefix) const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (auto it = entries_.lower_bound(prefix); it != entries_.end(); ++it) {
    const std::string& name = it->first;
    if (name.compare(0, prefix.size(), prefix) != 0) break;
    if (it->second.kind != 'c') continue;
    out.emplace_back(name.substr(prefix.size()), it->second.counter.value());
  }
  return out;
}

void merge_samples(std::map<std::string, MetricSample>* merged,
                   const std::vector<MetricSample>& fresh) {
  for (const MetricSample& s : fresh) {
    auto [it, inserted] = merged->try_emplace(s.name, s);
    if (inserted) continue;
    if (s.kind == 'g') {
      if (s.value > it->second.value) it->second.value = s.value;
    } else {
      it->second.value += s.value;
    }
  }
}

}  // namespace pfi::obs
