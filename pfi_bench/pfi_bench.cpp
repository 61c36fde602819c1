// pfi_bench — the repository benchmark.
//
// One process runs one workload: a closed loop of kJobs workers over cells
// the benchmark generates itself from --seed (a worker takes its next cell
// only when its previous one finished). libpfi only ever receives RunCells
// or specs, and every layer is measured from outside, by timing calls into
// its public functions and by reading the per-cell counters every
// RunResult carries.
//
//   pfi_bench --workload W --seed S [--seconds N] [--out FILE] [--tmp DIR]
//             [--quick]
//   pfi_bench_trace ... [--trace FILE] [--untraced-cps X]
//
// A run is one untimed warm-up rep, then reps of fixed work until --seconds
// have passed (at least kMinReps). Outputs are checked on every rep; any
// failed check makes the run exit 1. End-to-end metrics are medians across
// reps, cell latency is pooled over all of them. pfi_bench_trace is the
// same source built with -DPFI_BENCH_TRACE: in-process cells run through
// the benchmark's own loop around run_cell/record_json, a counting
// operator new is linked in, spans are kept and written as Chrome trace
// events, and unit-cost rigs run after the workload to give the per-layer
// metrics. README.md has the metric catalog and why each workload exists.
#include <malloc.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "campaign/executor.hpp"
#include "campaign/journal.hpp"
#include "campaign/json.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "campaign/suite.hpp"
#include "conformance/conformance.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/socket.hpp"
#include "fabric/wire.hpp"
#include "fabric/worker.hpp"
#include "lint/canonical.hpp"
#include "lint/lint.hpp"
#include "obs/metrics.hpp"
#include "pfi/gmp_stub.hpp"
#include "pfi/pfi_layer.hpp"
#include "pfi/stub.hpp"
#include "pfi/tcp_stub.hpp"
#include "pfi/tpc_stub.hpp"
#include "search/prng.hpp"
#include "search/search.hpp"
#include "sim/scheduler.hpp"
#include "xk/layer.hpp"

#ifdef PFI_BENCH_TRACE
// Counting allocator, linked into the traced build only: each operator new
// bumps its thread's counters, so the traced loop can charge allocations to
// the cell that thread is running. The aligned forms keep the library's own
// definitions, which pair with its own deletes.
namespace {
thread_local std::uint64_t t_allocs = 0;
thread_local std::uint64_t t_alloc_bytes = 0;

void* counted_alloc(std::size_t n) noexcept {
  ++t_allocs;
  t_alloc_bytes += n;
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_alloc_or_throw(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new[](std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
#endif

// Host-speed reference. The vCPUs of a shared host change speed by up to 2x
// over seconds to minutes as other tenants load the cores, far more than any
// bound worth gating on, and each vCPU changes on its own. So the benchmark
// times a fixed unit of its own work on the thread that has just finished a
// cell, once per millisecond of cell time, and scales its timings to a host
// on which that unit takes kRefNominalUs. The unit is a miniature event
// scheduler (std::function callbacks through a priority queue), the kind of
// work a cell spends its time on; of the kernels tried it tracked cell cost
// best. run_cell is wrapped at link time (--wrap, see CMakeLists.txt), so
// the unit runs inside every path that executes cells: run_cells threads,
// search batches and minimizer probes, and the fabric's forked worker
// processes, whose totals land in shared memory.
namespace {

constexpr double kRefNominalUs = 10.0;
constexpr std::int64_t kRefEveryNs = 1'000'000;

struct RefTotals {
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> units{0};
};

/// Shared with every process forked after the first call.
RefTotals& ref_totals() {
  static RefTotals* totals = [] {
    void* p = mmap(nullptr, sizeof(RefTotals), PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
      std::perror("pfi_bench: mmap");
      std::abort();
    }
    return new (p) RefTotals;
  }();
  return *totals;
}

std::atomic<std::uint64_t> g_ref_sink{0};  // keeps the work observable

/// One pass of the reference work.
void reference_pass() {
  struct Event {
    std::int64_t at, seq;
    std::function<void()> fn;
    bool operator>(const Event& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::uint64_t acc = 0;
  for (std::int64_t i = 0; i < 150; ++i) {
    const std::int64_t at = (i * 7919) % 1009;
    queue.push({at, i, [&acc, at] { acc += static_cast<std::uint64_t>(at); }});
  }
  while (!queue.empty()) {
    queue.top().fn();
    queue.pop();
  }
  g_ref_sink.fetch_add(acc, std::memory_order_relaxed);
}

/// The reference unit's wall time in ns. The first pass only warms the
/// caches: run cold, right after a cell, it would mostly time how much of
/// the cache that cell evicted, which depends on the code under test.
std::int64_t reference_unit_ns() {
  reference_pass();
  const auto t0 = std::chrono::steady_clock::now();
  reference_pass();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

pfi::campaign::RunResult real_run_cell(const pfi::campaign::RunCell& cell) asm(
    "__real__ZN3pfi8campaign8run_cellERKNS0_7RunCellE");
pfi::campaign::RunResult wrapped_run_cell(const pfi::campaign::RunCell& cell) asm(
    "__wrap__ZN3pfi8campaign8run_cellERKNS0_7RunCellE");

namespace {

/// This thread's recent unit time (a moving average), 0 before its first.
thread_local double t_unit_ns = 0;

/// Run one unit on this thread and fold it into the thread's average and
/// the shared totals.
void note_reference_unit() {
#ifdef PFI_BENCH_TRACE
  // The unit's allocations are not the cell's.
  const std::uint64_t allocs = t_allocs, bytes = t_alloc_bytes;
#endif
  const std::int64_t ns = reference_unit_ns();
#ifdef PFI_BENCH_TRACE
  t_allocs = allocs;
  t_alloc_bytes = bytes;
#endif
  t_unit_ns = t_unit_ns == 0 ? static_cast<double>(ns)
                             : 0.7 * t_unit_ns + 0.3 * static_cast<double>(ns);
  RefTotals& totals = ref_totals();
  totals.ns.fetch_add(static_cast<std::uint64_t>(ns));
  totals.units.fetch_add(1);
}

}  // namespace

pfi::campaign::RunResult wrapped_run_cell(const pfi::campaign::RunCell& cell) {
  thread_local std::int64_t cell_ns = 0;  // since this thread's last unit
  const auto t0 = std::chrono::steady_clock::now();
  pfi::campaign::RunResult r = real_run_cell(cell);
  cell_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now() - t0)
                 .count();
  if (cell_ns >= kRefEveryNs) {
    cell_ns = 0;
    note_reference_unit();
  }
  return r;
}

namespace {

using namespace pfi;
using campaign::RunCell;
using campaign::RunResult;
using Clock = std::chrono::steady_clock;

#ifdef PFI_BENCH_TRACE
constexpr bool kTraced = true;
std::uint64_t thread_allocs() { return t_allocs; }
std::uint64_t thread_alloc_bytes() { return t_alloc_bytes; }
#else
constexpr bool kTraced = false;
std::uint64_t thread_allocs() { return 0; }
std::uint64_t thread_alloc_bytes() { return 0; }
#endif

/// Closed-loop workers (threads, or fabric worker processes) per workload.
/// Two on a 4-vCPU host, so the load never competes with the benchmark's
/// own thread or the fabric coordinator for a core.
constexpr int kJobs = 2;
/// Measured reps at least, however short --seconds is.
constexpr int kMinReps = 3;

const std::string kRepo = PFI_BENCH_REPO_DIR;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Linearly interpolated quantile, q in [0, 1] (the "inclusive" method).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + (pos - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

std::size_t this_worker() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 24;
  bool quick = false;      // one short rep per workload, every check kept
  std::string out;         // result JSON
  std::string tmp = ".";   // parent of the run's scratch directory
  std::string trace;       // Chrome trace file (traced build)
  double untraced_cps = 0; // cells_per_s of an untraced run (traced build)
};

void usage() {
  std::fprintf(stderr,
               "usage: pfi_bench --workload "
               "gmp_campaign|tcp_suite|search_gmp|fabric_tpc --seed S\n"
               "                 [--seconds N] [--out FILE] [--tmp DIR] "
               "[--quick]\n"
               "                 [--trace FILE] [--untraced-cps X]  "
               "(pfi_bench_trace)\n");
}

bool parse_args(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    auto value = [&] { return std::string(argv[++i]); };
    if (a == "--quick") {
      o->quick = true;
    } else if (!has_value) {
      return false;
    } else if (a == "--workload") {
      o->workload = value();
    } else if (a == "--seed") {
      const std::string v = value();
      char* end = nullptr;
      errno = 0;
      o->seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || v[0] == '-' || errno != 0) {
        return false;
      }
    } else if (a == "--seconds") {
      o->seconds = std::atof(value().c_str());
      if (!(o->seconds > 0)) return false;
    } else if (a == "--out") {
      o->out = value();
    } else if (a == "--tmp") {
      o->tmp = value();
    } else if (a == "--trace") {
      o->trace = value();
    } else if (a == "--untraced-cps") {
      o->untraced_cps = std::atof(value().c_str());
    } else {
      return false;
    }
  }
  return !o->workload.empty();
}

// ---------------------------------------------------------------------------
// Recording: checks, spans, latency
// ---------------------------------------------------------------------------

class Checks {
 public:
  void fail(const std::string& what) {
    if (failures_.size() < 20) failures_.push_back(what);
    ++count_;
  }
  [[nodiscard]] bool ok() const { return count_ == 0; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::vector<std::string> failures_;
  long count_ = 0;
};

int thread_slot() {
  static std::atomic<int> next{0};
  thread_local const int slot = next.fetch_add(1);
  return slot;
}

/// Spans kept in memory and written as Chrome trace events at exit. Each has
/// a name, start, end and parent; `req` (the cell's request number) is the
/// id all spans of one cell share. The untraced build records nothing.
class SpanLog {
 public:
  static constexpr std::size_t kMaxSpans = 300'000;

  int add(const char* name, Clock::time_point start, Clock::time_point end,
          int parent, long req = -1) {
    if constexpr (!kTraced) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return -1;
    }
    spans_.push_back({name, start, end, parent, req, thread_slot()});
    return static_cast<int>(spans_.size() - 1);
  }
  int open(const char* name, int parent) {
    return add(name, Clock::now(), Clock::time_point{}, parent);
  }
  void close(int id) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = Clock::now();
  }

  bool write(const std::string& path, const std::string& workload) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    std::fprintf(f, "{\"traceEvents\":[");
    bool first = true;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end == Clock::time_point{}) continue;  // never closed
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                   "\"parent\":%d,\"req\":%ld}}",
                   first ? "" : ",", s.name, s.tid, micros(s.start - origin_),
                   micros(s.end - s.start), i, s.parent, s.req);
      first = false;
    }
    std::fprintf(f,
                 "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":"
                 "\"%s\",\"spans\":%zu,\"dropped\":%llu}}\n",
                 workload.c_str(), spans_.size(),
                 static_cast<unsigned long long>(dropped_));
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    Clock::time_point start, end;
    int parent;
    long req;
    int tid;
  };
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
  const Clock::time_point origin_ = Clock::now();
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, int parent)
      : log_(log), id_(log.open(name, parent)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

/// Cell latency: the time since the same worker's previous completion, or
/// since the batch started for a worker's first cell of the batch. Each
/// sample keeps the slowdown its worker thread measured last (0 when the
/// completion is seen off the worker thread, as on the fabric).
class LatencyLog {
 public:
  struct Sample {
    double ms;
    double slowdown;
  };

  void begin_batch() {
    std::lock_guard<std::mutex> lock(mu_);
    batch_start_ = Clock::now();
    last_.clear();
  }
  void done(std::size_t worker, double slowdown) {
    const Clock::time_point t = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = last_.try_emplace(worker, batch_start_).first;
    samples_.push_back({micros(t - it->second) / 1000.0, slowdown});
    it->second = t;
  }
  std::vector<Sample> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(samples_, {});
  }

 private:
  std::mutex mu_;
  Clock::time_point batch_start_ = Clock::now();
  std::map<std::size_t, Clock::time_point> last_;
  std::vector<Sample> samples_;
};

// ---------------------------------------------------------------------------
// Per-layer accounting (traced build)
// ---------------------------------------------------------------------------

std::uint64_t metric_of(const RunResult& r, std::string_view name) {
  const auto it = std::lower_bound(
      r.metrics.begin(), r.metrics.end(), name,
      [](const obs::MetricSample& s, std::string_view n) { return s.name < n; });
  return it != r.metrics.end() && it->name == name ? it->value : 0;
}

/// Deterministic work counts, summed over the cells of one rep.
struct Counts {
  double cells = 0, evals = 0, commands = 0, events = 0, timers = 0;
  double frames = 0, msgs = 0, trace_records = 0;
  double allocs = 0, alloc_bytes = 0;

  void add(const RunResult& r) {
    cells += 1;
    evals += static_cast<double>(metric_of(r, "script.send.evals") +
                                 metric_of(r, "script.recv.evals"));
    commands += static_cast<double>(metric_of(r, "script.send.commands") +
                                    metric_of(r, "script.recv.commands"));
    events += static_cast<double>(metric_of(r, "sim.events_dispatched"));
    timers += static_cast<double>(metric_of(r, "sim.timers_scheduled"));
    frames += static_cast<double>(metric_of(r, "net.frames_sent"));
    msgs += static_cast<double>(metric_of(r, "pfi.sends_intercepted") +
                                metric_of(r, "pfi.recvs_intercepted"));
    trace_records += static_cast<double>(metric_of(r, "trace.records"));
  }
  [[nodiscard]] double per_cell(double v) const { return ratio(v, cells); }
};

/// What the traced loop accumulates. Timings pool over every measured rep;
/// counts come from one fixed set of cells (the first measured rep, or the
/// fabric workload's in-process reference) so they repeat exactly.
struct Layers {
  enum class Mode { kOff, kTimes, kAll };
  Mode mode = Mode::kOff;
  std::vector<double> run_cell_us, record_json_us;
  double cpu_s = 0;          // worker-thread CPU inside the loop
  double worker_wall_s = 0;  // loop wall time x workers
  Counts counts;
  // The first measured rep's cells and results, input to the rigs.
  std::vector<RunCell> sample_cells;
  std::vector<RunResult> sample_results;
};

/// Fabric layer numbers: from the fabric workload itself, or from a probe
/// run of a slice of another workload's cells.
struct FabricNumbers {
  double spawn_ms = 0;
  double wall_s = 0;         // run_fabric over `cells`
  double inproc_wall_s = 0;  // the same cells in-process, kJobs threads
  double cells = 0;
  std::map<std::string, obs::MetricSample> stats;  // workers + coordinator
};

// ---------------------------------------------------------------------------
// The shared run context and in-process execution
// ---------------------------------------------------------------------------

/// A point in the reference totals, to average the units run since.
struct RefMark {
  std::uint64_t ns = 0, units = 0;
};

RefMark ref_mark() {
  const RefTotals& t = ref_totals();
  return {t.ns.load(), t.units.load()};
}

/// How much slower than nominal the host ran since `m`: the mean reference
/// unit time over kRefNominalUs. Rates are multiplied by it and times
/// divided by it to read as on the nominal host.
double slowdown_since(const RefMark& m) {
  const RefMark now = ref_mark();
  if (now.units == m.units) return 1;
  return static_cast<double>(now.ns - m.ns) /
         static_cast<double>(now.units - m.units) / 1000.0 / kRefNominalUs;
}

/// The calling thread's slowdown from its recent units; 0 if it ran none.
double thread_slowdown() { return t_unit_ns / 1000.0 / kRefNominalUs; }

/// The slowdown one unit measures on the calling thread right now, for
/// timings taken outside any cell.
double unit_slowdown() {
  return static_cast<double>(reference_unit_ns()) / 1000.0 / kRefNominalUs;
}

struct Executed {
  std::vector<RunResult> results;
  std::vector<std::string> records;  // record_json, cell order
};

struct RepOut {
  double wall_s = 0;
  double cells = 0;
  double errored = 0;
  double digests = 0;  // distinct coverage digests the rep produced
};

class Bench {
 public:
  explicit Bench(Options o) : opt(std::move(o)) {}

  const Options opt;
  std::string tmp_dir;  // scratch directory of this run
  int rep = 0;          // 0 = warm-up
  int rep_span = -1;
  Checks checks;
  SpanLog spans;
  LatencyLog lat;
  Layers layers;
  std::vector<double> plan_ms;  // one per measured setup
  std::optional<FabricNumbers> fabric;

  void note_plan(Clock::time_point t0) {
    plan_ms.push_back(seconds_since(t0) * 1000.0);
  }

  /// Run cells in-process with kJobs workers. The untraced build calls
  /// run_cells, as pfi_campaign does; the traced build runs its own loop.
  Executed execute(const std::vector<RunCell>& cells, int parent,
                   bool with_records) {
    lat.begin_batch();
    Executed ex;
    if constexpr (kTraced) {
      ex = execute_traced(cells, parent);
    } else {
      campaign::ExecutorOptions eo;
      eo.jobs = kJobs;
      eo.on_result = [this](const RunResult&) {
        lat.done(this_worker(), thread_slowdown());
      };
      ex.results = campaign::run_cells(cells, eo);
      if (with_records) {
        ex.records.reserve(ex.results.size());
        for (const RunResult& r : ex.results) {
          ex.records.push_back(campaign::record_json(r));
        }
      }
    }
    if (layers.mode == Layers::Mode::kAll) {
      for (const RunResult& r : ex.results) layers.counts.add(r);
    }
    return ex;
  }

  /// Keep the first measured rep's cells and results for the rigs.
  void keep(const std::vector<RunCell>& cells,
            const std::vector<RunResult>& results) {
    if (!kTraced || layers.mode != Layers::Mode::kAll) return;
    layers.sample_cells.insert(layers.sample_cells.end(), cells.begin(),
                               cells.end());
    layers.sample_results.insert(layers.sample_results.end(),
                                 results.begin(), results.end());
  }

 private:
  Executed execute_traced(const std::vector<RunCell>& cells, int parent) {
    Executed ex;
    ex.results.resize(cells.size());
    ex.records.resize(cells.size());
    std::atomic<std::size_t> next{0};
    std::mutex mu;  // guards `layers` while the workers fold in
    const bool timing = layers.mode != Layers::Mode::kOff;
    const bool counting = layers.mode == Layers::Mode::kAll;
    const Clock::time_point t0 = Clock::now();
    auto worker = [&] {
      note_reference_unit();  // so the first cell's timing is normalized too
      const double cpu0 = thread_cpu_s();
      std::vector<double> cell_us, json_us;
      double allocs = 0, bytes = 0;
      for (std::size_t i; (i = next.fetch_add(1)) < cells.size();) {
        const long req = next_req_.fetch_add(1);
        const std::uint64_t a0 = thread_allocs();
        const std::uint64_t b0 = thread_alloc_bytes();
        const Clock::time_point c0 = Clock::now();
        RunResult r = campaign::run_cell(cells[i]);
        const Clock::time_point c1 = Clock::now();
        allocs += static_cast<double>(thread_allocs() - a0);
        bytes += static_cast<double>(thread_alloc_bytes() - b0);
        ex.records[i] = campaign::record_json(r);
        const Clock::time_point c2 = Clock::now();
        lat.done(this_worker(), thread_slowdown());
        const int cell = spans.add("cell", c0, c2, parent, req);
        spans.add("run_cell", c0, c1, cell, req);
        spans.add("record_json", c1, c2, cell, req);
        cell_us.push_back(micros(c1 - c0) / thread_slowdown());
        json_us.push_back(micros(c2 - c1) / thread_slowdown());
        ex.results[i] = std::move(r);
      }
      const double cpu = thread_cpu_s() - cpu0;
      std::lock_guard<std::mutex> lock(mu);
      if (timing) {
        layers.run_cell_us.insert(layers.run_cell_us.end(), cell_us.begin(),
                                  cell_us.end());
        layers.record_json_us.insert(layers.record_json_us.end(),
                                     json_us.begin(), json_us.end());
        layers.cpu_s += cpu;
      }
      if (counting) {
        layers.counts.allocs += allocs;
        layers.counts.alloc_bytes += bytes;
      }
    };
    std::vector<std::thread> pool;
    for (int k = 0; k < kJobs; ++k) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
    if (timing) layers.worker_wall_s += seconds_since(t0) * kJobs;
    return ex;
  }

  std::atomic<long> next_req_{0};
};

double distinct_digests(const std::vector<RunResult>& results) {
  std::set<std::string> d;
  for (const RunResult& r : results) {
    if (!r.coverage.empty()) d.insert(r.coverage.digest);
  }
  return static_cast<double>(d.size());
}

RepOut rep_out(const std::vector<RunResult>& results, double wall_s) {
  RepOut out;
  out.wall_s = wall_s;
  out.cells = static_cast<double>(results.size());
  for (const RunResult& r : results) out.errored += r.errored() ? 1 : 0;
  out.digests = distinct_digests(results);
  return out;
}

/// Fork kJobs loopback workers against a fresh listener.
struct LocalFleet {
  fabric::Listener listener;
  fabric::LocalWorkerPool pool;
  double spawn_ms = 0;

  bool start(bool ship_stats, std::string* err) {
    if (!listener.open("127.0.0.1:0", err)) return false;
    fabric::WorkerOptions wopts;
    wopts.connect = listener.address();
    wopts.ship_stats = ship_stats;
    const Clock::time_point t0 = Clock::now();
    const bool ok = fabric::spawn_local_workers(wopts, kJobs, listener.fd(),
                                                &pool, err);
    spawn_ms = seconds_since(t0) * 1000.0;
    return ok;
  }
  void stop() { fabric::reap_local_workers(&pool); }
};

fabric::FabricOptions fabric_options() {
  fabric::FabricOptions f;
  f.no_worker_timeout_ms = 60000;
  return f;
}

void fold_fabric_stats(
    const std::map<std::string, std::vector<obs::MetricSample>>& workers,
    const obs::Registry& coord, FabricNumbers* out) {
  out->stats.clear();
  for (const auto& [id, samples] : workers) {
    obs::merge_samples(&out->stats, samples);
  }
  obs::merge_samples(&out->stats, coord.snapshot());
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

class Report;

class Workload {
 public:
  explicit Workload(Bench& b) : b_(b) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  [[nodiscard]] virtual const char* protocol() const = 0;
  /// Parse and plan the rep's inputs, and start whatever serves them:
  /// timed as set-up.
  virtual bool setup(std::string* err) = 0;
  /// The rep's fixed work. Rep 0 is the untimed warm-up, which also makes
  /// the checks that need a reference.
  virtual RepOut run() = 0;
  /// Undo setup(), outside the timed region.
  virtual void teardown() {}
  /// Set-up samples per rep: setup() is repeated (the last one serves the
  /// rep) where it is cheap and idempotent, so its median steadies.
  [[nodiscard]] virtual int setups_per_rep() const { return 5; }
  /// A cell whose compiled filter scripts stand for the workload's.
  [[nodiscard]] virtual RunCell representative() const = 0;
  /// Workload-specific per-layer metrics (traced build).
  virtual void layer_metrics(Report&) const {}

 protected:
  Bench& b_;
};

std::optional<campaign::CampaignSpec> shipped_gmp_spec(std::string* err) {
  return campaign::load_spec_file(kRepo + "/scripts/campaign_gmp_omission.spec",
                                  err);
}

/// The flagship user campaign: the shipped GMP omission spec, widened from
/// 34 to 340 seeds (2040 cells a rep).
class GmpCampaign : public Workload {
 public:
  using Workload::Workload;
  const char* protocol() const override { return "gmp"; }

  bool setup(std::string* err) override {
    const Clock::time_point t0 = Clock::now();
    auto spec = shipped_gmp_spec(err);
    if (!spec) return false;
    const std::uint64_t n = b_.opt.quick ? 34 : 340;
    spec->seeds.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      spec->seeds.push_back(1000 * b_.opt.seed + i);
    }
    cells_ = campaign::plan(*spec);
    b_.note_plan(t0);
    return true;
  }

  RepOut run() override {
    const Clock::time_point t0 = Clock::now();
    Executed ex = b_.execute(cells_, b_.rep_span, true);
    const RepOut out = rep_out(ex.results, seconds_since(t0));
    if (b_.rep == 0) {
      check_verdicts(ex.results);
      reference_ = std::move(ex.records);
    } else if (ex.records != reference_) {
      b_.checks.fail("gmp_campaign: rep " + std::to_string(b_.rep) +
                     " records differ from the warm-up's");
    }
    b_.keep(cells_, ex.results);
    return out;
  }

  RunCell representative() const override { return cells_.front(); }

 private:
  /// Dropping MC announcements or leader PROCLAIMs at the victim raises a
  /// suspicion (fail); the other four types are absorbed by retries (pass).
  void check_verdicts(const std::vector<RunResult>& results) {
    int pass = 0, fail = 0;
    for (const RunResult& r : results) {
      const bool should_fail = r.id.find("/gmp-mc/") != std::string::npos ||
                               r.id.find("/gmp-proclaim/") != std::string::npos;
      if (r.errored()) {
        b_.checks.fail("gmp_campaign: " + r.id + " errored: " + r.error);
      } else if (r.pass == should_fail) {
        b_.checks.fail("gmp_campaign: " + r.id + " expected " +
                       (should_fail ? "fail" : "pass"));
      }
      (r.pass ? pass : fail) += 1;
    }
    std::fprintf(stderr, "gmp_campaign: %d pass / %d fail\n", pass, fail);
  }

  std::vector<RunCell> cells_;
  std::vector<std::string> reference_;
};

/// The most interpreter-heavy load: the suites/tcp plan (20 cells) replicated
/// 100x a rep in a seed-shuffled order. run_cell re-loads and re-compiles the
/// .pdt for every cell; 2-3.4 ms cells mix with 0.15 ms ones, so the tail
/// and stragglers show.
class TcpSuite : public Workload {
 public:
  explicit TcpSuite(Bench& b) : Workload(b) { load_golden(); }
  const char* protocol() const override { return "tcp"; }

  bool setup(std::string* err) override {
    const Clock::time_point t0 = Clock::now();
    const auto base = campaign::plan_suite(kRepo + "/suites/tcp", err);
    if (!base) return false;
    base_ = *base;
    const int copies = b_.opt.quick ? 2 : 100;
    cells_.clear();
    for (int k = 0; k < copies; ++k) {
      cells_.insert(cells_.end(), base->begin(), base->end());
    }
    search::SplitMix64 rng(b_.opt.seed);
    for (std::size_t i = cells_.size(); i > 1; --i) {
      std::swap(cells_[i - 1], cells_[rng.below(i)]);
    }
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      cells_[i].index = static_cast<int>(i);
    }
    b_.note_plan(t0);
    return true;
  }

  RepOut run() override {
    const Clock::time_point t0 = Clock::now();
    const Executed ex = b_.execute(cells_, b_.rep_span, true);
    const RepOut out = rep_out(ex.results, seconds_since(t0));
    for (const RunResult& r : ex.results) {
      const auto it = golden_.find(r.id);
      if (it == golden_.end() || it->second != block_of(r)) {
        b_.checks.fail("tcp_suite: " + r.id +
                       " steps differ from tests/golden/"
                       "conformance_suite.matrix");
      }
    }
    b_.keep(cells_, ex.results);
    return out;
  }

  RunCell representative() const override { return base_.front(); }

 private:
  /// One block of the golden matrix: "<id> <verdict>", then each step line
  /// indented by two spaces.
  static std::string block_of(const RunResult& r) {
    std::string m = r.id + ' ' +
                    (r.errored() ? "error" : r.pass ? "pass" : "fail") + '\n';
    for (const std::string& s : r.steps) m += "  " + s + '\n';
    return m;
  }

  void load_golden() {
    std::ifstream in(kRepo + "/tests/golden/conformance_suite.matrix");
    std::string line, id;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      if (line[0] != ' ') id = line.substr(0, line.find(' '));
      golden_[id] += line + '\n';
    }
  }

  std::map<std::string, std::string> golden_;
  std::vector<RunCell> base_, cells_;
};

/// The only load on search, lint and the journal: explore() on the shipped
/// GMP spec, a cold pass on a fresh journal then a warm pass over it.
class SearchGmp : public Workload {
 public:
  using Workload::Workload;
  const char* protocol() const override { return "gmp"; }

  bool setup(std::string* err) override {
    const Clock::time_point t0 = Clock::now();
    spec_ = shipped_gmp_spec(err);
    if (!spec_) return false;
    seeds_ = campaign::plan(*spec_);
    journal_ = b_.tmp_dir + "/search-rep" + std::to_string(b_.rep) + ".journal";
    std::filesystem::remove(journal_);
    b_.note_plan(t0);
    return true;
  }

  RepOut run() override {
    RepOut out;
    if (b_.rep == 0) {
      // The golden corpus: seed 7, budget 24 must rediscover every digest
      // in tests/golden/search_gmp_omission.digests.
      const search::SearchResult r = pass(24, 7, "", &out);
      std::set<std::string> found;
      for (const auto& e : r.corpus.entries()) found.insert(e.digest);
      std::ifstream in(kRepo + "/tests/golden/search_gmp_omission.digests");
      std::string line;
      int golden = 0;
      while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        ++golden;
        if (found.count(line) == 0) {
          b_.checks.fail("search_gmp: golden digest lost: " + line);
        }
      }
      if (golden == 0) b_.checks.fail("search_gmp: no golden digests read");
      return out;
    }
    const int budget = b_.opt.quick ? 64 : 512;
    const std::uint64_t seed = 100 * b_.opt.seed + static_cast<std::uint64_t>(b_.rep);
    const search::SearchResult cold = pass(budget, seed, journal_, &out);
    if (b_.layers.mode == Layers::Mode::kAll) {
      const Clock::time_point t0 = Clock::now();
      (void)campaign::load_journal(journal_);
      journal_load_ms_ = seconds_since(t0) * 1000.0 / unit_slowdown();
    }
    const search::SearchResult warm = pass(budget, seed, journal_, &out);
    if (b_.layers.mode == Layers::Mode::kAll) {
      for (const search::SearchResult* r : {&cold, &warm}) {
        counted_.executed += r->executed;
        counted_.equiv_skipped += r->equiv_skipped;
        counted_.journal_hits += r->journal_hits;
        counted_.duplicates += r->duplicates;
        counted_.lint_skipped += r->lint_skipped;
        counted_digests_ += static_cast<double>(r->corpus.size());
      }
    }
    return out;
  }

  void teardown() override { std::filesystem::remove(journal_); }

  RunCell representative() const override { return seeds_.front(); }

  void layer_metrics(Report& rep) const override;

 private:
  /// One explore() pass; every batch runs through Bench::execute so the
  /// latency and (traced) the per-cell layers are measured as elsewhere.
  search::SearchResult pass(int budget, std::uint64_t seed,
                            const std::string& journal, RepOut* out) {
    ScopedSpan span(b_.spans, "explore", b_.rep_span);
    double batch_s = 0;
    search::SearchOptions o;
    o.budget = budget;
    o.batch = 16;
    o.seed = seed;
    o.jobs = kJobs;
    o.journal_path = journal;
    o.run_batch = [&](const std::vector<RunCell>& cells,
                      const campaign::ExecutorOptions&) {
      const Clock::time_point t0 = Clock::now();
      ScopedSpan gen(b_.spans, "run_batch", span.id());
      Executed ex = b_.execute(cells, gen.id(), false);
      b_.keep(cells, ex.results);
      batch_s += seconds_since(t0);
      return std::move(ex.results);
    };
    const Clock::time_point t0 = Clock::now();
    search::SearchResult r = search::explore(*spec_, o);
    const double wall = seconds_since(t0);
    out->wall_s += wall;
    out->cells += r.executed;
    out->errored += r.errors;
    out->digests += static_cast<double>(r.corpus.size());
    if (b_.rep > 0) {
      explore_s_ += wall;
      own_s_ += wall - batch_s;
    }
    if (!r.error.empty()) b_.checks.fail("search_gmp: " + r.error);
    if (r.errors != 0) {
      b_.checks.fail("search_gmp: " + std::to_string(r.errors) +
                     " errored cell(s)");
    }
    return r;
  }

  struct Tally {
    double executed = 0, equiv_skipped = 0, journal_hits = 0;
    double duplicates = 0, lint_skipped = 0;
  };

  std::optional<campaign::CampaignSpec> spec_;
  std::vector<RunCell> seeds_;  // the planner's cells explore() seeds from
  std::string journal_;
  double explore_s_ = 0, own_s_ = 0;
  double journal_load_ms_ = 0;
  Tally counted_;
  double counted_digests_ = 0;
};

/// The fabric layer under a short-cell load: 8000 generated 2PC cells a rep
/// through run_fabric with kJobs forked workers over loopback (not a real
/// link). At ~130 us a cell, framing and the fixed per-cell cost dominate.
class FabricTpc : public Workload {
 public:
  using Workload::Workload;
  const char* protocol() const override { return "tpc"; }

  bool setup(std::string* err) override {
    const Clock::time_point t0 = Clock::now();
    campaign::CampaignSpec spec;
    spec.name = "fabric-tpc";
    spec.protocol = "tpc";
    spec.oracle = "atomic";
    spec.types = {"tpc-vote-req", "tpc-vote-yes", "tpc-decision", "tpc-ack"};
    spec.faults = {core::scriptgen::FaultKind::kDrop,
                   core::scriptgen::FaultKind::kDelay};
    const std::uint64_t n = b_.opt.quick ? 25 : 1000;
    spec.seeds.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      spec.seeds.push_back(1000 * b_.opt.seed + i);
    }
    spec.on_send_side = false;
    spec.duration = sim::sec(30);
    cells_ = campaign::plan(spec);
    b_.note_plan(t0);
    fleet_.emplace();
    if (!fleet_->start(kTraced, err)) return false;
    if (b_.rep > 0) spawn_ms_.push_back(fleet_->spawn_ms);
    return true;
  }

  RepOut run() override {
    if (b_.rep == 0) {
      // The untimed in-process reference every fabric rep must equal; in
      // the traced build it is also where the per-cell layers are counted.
      // It runs in slices so that its results never all live at once: the
      // peak RSS is the coordinator's, not the reference's.
      const Layers::Mode mode = b_.layers.mode;
      b_.layers.mode = Layers::Mode::kAll;
      reference_.clear();
      inproc_wall_s_ = 0;
      for (std::size_t at = 0; at < cells_.size(); at += kSlice) {
        const std::vector<RunCell> slice(
            cells_.begin() + static_cast<std::ptrdiff_t>(at),
            cells_.begin() + static_cast<std::ptrdiff_t>(
                                 std::min(at + kSlice, cells_.size())));
        const Clock::time_point t0 = Clock::now();
        Executed ex = b_.execute(slice, b_.rep_span, true);
        inproc_wall_s_ += seconds_since(t0);
        b_.keep(slice, ex.results);
        for (std::string& r : ex.records) reference_.push_back(std::move(r));
      }
      b_.layers.mode = mode;
    }
    fabric::FabricOptions fopts = fabric_options();
    fopts.on_result_worker = [this](const std::string& worker) {
      b_.lat.done(std::hash<std::string>{}(worker), 0);
    };
    std::map<std::string, std::vector<obs::MetricSample>> wstats;
    obs::Registry coord;
    if (kTraced) {
      fopts.obs = &coord;
      fopts.worker_stats_out = &wstats;
    }
    b_.lat.begin_batch();
    const Clock::time_point t0 = Clock::now();
    const int run_span = b_.spans.open("run_fabric", b_.rep_span);
    const std::vector<RunResult> results =
        fabric::run_fabric(&fleet_->listener, cells_, fopts);
    b_.spans.close(run_span);
    std::vector<std::string> records;
    records.reserve(results.size());
    for (const RunResult& r : results) {
      records.push_back(campaign::record_json(r));
    }
    const RepOut out = rep_out(results, seconds_since(t0));
    if (b_.rep > 0) walls_.push_back(out.wall_s);
    if (b_.layers.mode == Layers::Mode::kAll) {
      fold_fabric_stats(wstats, coord, &stats_);
    }

    for (const RunResult& r : results) {
      if (r.index < 0 || r.errored() || !r.pass) {
        b_.checks.fail("fabric_tpc: " + r.id + " did not pass" +
                       (r.errored() ? ": " + r.error : ""));
        break;
      }
    }
    if (records != reference_) {
      b_.checks.fail("fabric_tpc: rep " + std::to_string(b_.rep) +
                     " records differ from the in-process run's");
    }
    return out;
  }

  void teardown() override {
    if (fleet_) fleet_->stop();
    fleet_.reset();
  }
  int setups_per_rep() const override { return 1; }  // forks workers

  RunCell representative() const override { return cells_.front(); }

  /// The fabric numbers of this workload's own reps.
  FabricNumbers numbers() const {
    FabricNumbers f = stats_;
    f.spawn_ms = median(spawn_ms_);
    f.wall_s = median(walls_);
    f.inproc_wall_s = inproc_wall_s_;
    f.cells = static_cast<double>(cells_.size());
    return f;
  }

 private:
  static constexpr std::size_t kSlice = 500;

  std::vector<RunCell> cells_;
  std::optional<LocalFleet> fleet_;
  std::vector<std::string> reference_;
  std::vector<double> spawn_ms_, walls_;
  double inproc_wall_s_ = 0;
  FabricNumbers stats_;
};

std::unique_ptr<Workload> make_workload(const std::string& name, Bench& b) {
  if (name == "gmp_campaign") return std::make_unique<GmpCampaign>(b);
  if (name == "tcp_suite") return std::make_unique<TcpSuite>(b);
  if (name == "search_gmp") return std::make_unique<SearchGmp>(b);
  if (name == "fabric_tpc") return std::make_unique<FabricTpc>(b);
  return nullptr;
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value = 0, q1 = 0, q3 = 0;
  int n = 0;
  std::vector<double> samples;  // per rep, when sampled per rep
};

class Report {
 public:
  /// A value sampled once per rep, reported as the median of the samples.
  void per_rep(const std::string& name, const std::string& unit,
               const std::vector<double>& samples) {
    set({name, unit, median(samples), quantile(samples, 0.25),
         quantile(samples, 0.75), static_cast<int>(samples.size()), samples});
  }
  /// One value (pooled or derived); `spread` gives its per-rep quartiles.
  void value(const std::string& name, const std::string& unit, double v,
             int n = 1, const std::vector<double>& spread = {}) {
    set({name, unit, v, spread.empty() ? v : quantile(spread, 0.25),
         spread.empty() ? v : quantile(spread, 0.75), n, spread});
  }
  [[nodiscard]] const std::vector<Metric>& metrics() const { return m_; }

 private:
  void set(Metric m) {
    if (!std::isfinite(m.value)) m.value = 0;
    for (Metric& e : m_) {
      if (e.name == m.name) {
        e = std::move(m);
        return;
      }
    }
    m_.push_back(std::move(m));
  }
  std::vector<Metric> m_;
};

void SearchGmp::layer_metrics(Report& rep) const {
  const Tally& t = counted_;
  const double candidates = t.executed + t.equiv_skipped + t.journal_hits;
  const double draws = candidates + t.duplicates + t.lint_skipped;
  rep.value("search.own_share", "ratio", ratio(own_s_, explore_s_));
  rep.value("search.digest_yield", "ratio",
            ratio(counted_digests_, t.executed));
  rep.value("search.journal_hit_ratio", "ratio",
            ratio(t.journal_hits, candidates));
  rep.value("search.equiv_skip_ratio", "ratio",
            ratio(t.equiv_skipped, candidates));
  rep.value("search.lint_skip_ratio", "ratio", ratio(t.lint_skipped, draws));
  rep.value("search.duplicate_ratio", "ratio", ratio(t.duplicates, draws));
  rep.value("campaign.journal_load_ms", "ms", journal_load_ms_);
}

// ---------------------------------------------------------------------------
// Unit-cost rigs (traced build): each layer's cost per operation, on the
// workload's own scripts, stub, cells and results
// ---------------------------------------------------------------------------

struct Sink : xk::Layer {
  Sink() : Layer("sink") {}
  std::size_t count = 0;
  void push(xk::Message) override { ++count; }
  void pop(xk::Message) override { ++count; }
};

/// Median over rounds of `body`'s cost per iteration, in ns.
template <class F>
double ns_per_iter(int iters, F&& body) {
  std::vector<double> per;
  for (int r = 0; r < 5; ++r) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < iters; ++i) body(i);
    per.push_back(micros(Clock::now() - t0) * 1000.0 / iters);
  }
  return median(per);
}

std::shared_ptr<core::PacketStub> stub_for(const std::string& protocol) {
  if (protocol == "tcp") return std::make_shared<core::TcpStub>();
  if (protocol == "tpc") return std::make_shared<core::TpcStub>();
  return std::make_shared<core::GmpStub>();
}

xk::Message message_for(const std::string& protocol,
                        const core::PacketStub& stub) {
  std::map<std::string, std::string> params;
  if (protocol == "tcp") {
    params = {{"flags", "ack"}, {"payload", std::string(512, 'x')}};
  } else if (protocol == "tpc") {
    params = {{"type", "tpc-vote-req"}};
  } else {
    params = {{"type", "gmp-heartbeat"}};
  }
  return stub.generate(params).value_or(xk::Message{});
}

std::optional<conformance::Program> load_pdt(const std::string& path) {
  std::vector<lint::Diagnostic> diags;
  return conformance::load_file(path, &diags);
}

core::failure::Scripts scripts_of(const RunCell& cell) {
  if (cell.conform_file.empty()) return cell.schedule.compile();
  const auto prog = load_pdt(cell.conform_file);
  return prog ? conformance::compile(*prog) : core::failure::Scripts{};
}

/// ns per interpreter eval: the workload's compiled receive filter run on
/// every message popped through a PfiLayer (ToyStub) between two sinks.
double rig_ns_per_eval(const core::failure::Scripts& s) {
  sim::Scheduler sched;
  xk::Stack stack;
  stack.add(std::make_unique<Sink>());
  core::PfiConfig cfg;
  cfg.stub = std::make_shared<core::ToyStub>();
  auto* pfi = static_cast<core::PfiLayer*>(
      stack.add(std::make_unique<core::PfiLayer>(sched, cfg)));
  stack.add(std::make_unique<Sink>());
  if (!s.setup.empty()) pfi->run_setup(s.setup);
  pfi->set_receive_script(s.receive);
  const xk::Message msg =
      core::ToyStub::make(core::ToyStub::kData, 42, "payload-bytes");
  std::vector<double> per;
  for (int round = 0; round < 5; ++round) {
    const std::uint64_t e0 = pfi->receive_interp().stats().evals;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < 20000; ++i) pfi->pop(msg);
    const double ns = micros(Clock::now() - t0) * 1000.0;
    per.push_back(ratio(ns, static_cast<double>(
                                pfi->receive_interp().stats().evals - e0)));
  }
  return median(per);
}

/// Push `msg` through App -> [middle] -> Sink; ns per message.
double rig_stack_ns(const xk::Message& msg,
                    std::unique_ptr<xk::Layer> middle) {
  xk::Stack stack;
  auto* app =
      static_cast<xk::AppLayer*>(stack.add(std::make_unique<xk::AppLayer>()));
  if (middle) stack.add(std::move(middle));
  stack.add(std::make_unique<Sink>());
  return ns_per_iter(200000, [&](int) { app->send(msg); });
}

/// Per-call cost in us of `fn` over `n` inputs, median of rounds.
template <class F>
double us_per_call(std::size_t n, F&& fn, int rounds = 3) {
  if (n == 0) return 0;
  std::vector<double> per;
  for (int r = 0; r < rounds; ++r) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) fn(i);
    per.push_back(micros(Clock::now() - t0) / static_cast<double>(n));
  }
  return median(per);
}

volatile std::size_t g_sink = 0;  // keeps rig results observable

/// Run `cells` over kJobs loopback workers with the STATS plane on, and
/// in-process, for the fabric numbers of a non-fabric workload.
std::optional<FabricNumbers> probe_fabric(const std::vector<RunCell>& cells,
                                          std::string* err) {
  FabricNumbers f;
  f.cells = static_cast<double>(cells.size());
  Clock::time_point t0 = Clock::now();
  campaign::ExecutorOptions eo;
  eo.jobs = kJobs;
  (void)campaign::run_cells(cells, eo);
  f.inproc_wall_s = seconds_since(t0);

  LocalFleet fleet;
  if (!fleet.start(true, err)) {
    fleet.stop();
    return std::nullopt;
  }
  f.spawn_ms = fleet.spawn_ms;
  fabric::FabricOptions fopts = fabric_options();
  obs::Registry coord;
  std::map<std::string, std::vector<obs::MetricSample>> wstats;
  fopts.obs = &coord;
  fopts.worker_stats_out = &wstats;
  t0 = Clock::now();
  (void)fabric::run_fabric(&fleet.listener, cells, fopts);
  f.wall_s = seconds_since(t0);
  fleet.stop();
  fold_fabric_stats(wstats, coord, &f);
  return f;
}

/// p50 of a flattened obs::Histogram ("name.le_<bound>" buckets), linearly
/// interpolated inside the bucket that holds the median.
double histogram_p50(const std::map<std::string, obs::MetricSample>& stats,
                     const std::string& name) {
  std::vector<std::pair<double, double>> buckets;  // (upper bound, count)
  const std::string prefix = name + ".le_";
  for (auto it = stats.lower_bound(prefix);
       it != stats.end() && it->first.rfind(prefix, 0) == 0; ++it) {
    buckets.emplace_back(std::atof(it->first.c_str() + prefix.size()),
                         static_cast<double>(it->second.value));
  }
  std::sort(buckets.begin(), buckets.end());
  double total = 0;
  for (const auto& b : buckets) total += b.second;
  double cum = 0;
  for (const auto& [hi, n] : buckets) {
    if (n > 0 && cum + n >= total / 2) {
      const double lo = hi <= 1 ? 0 : hi / 2;
      return lo + (hi - lo) * (total / 2 - cum) / n;
    }
    cum += n;
  }
  return 0;
}

void layer_report(Bench& b, const Workload& w, double traced_cps,
                  Report& rep) {
  const Layers& L = b.layers;
  const Counts& c = L.counts;
  const std::string protocol = w.protocol();
  const std::size_t n_sample = std::min<std::size_t>(L.sample_cells.size(), 512);

  // Rigs first: they time calls on the workload's own inputs, on this
  // thread, and are scaled to the nominal host like every other timing.
  std::vector<double> units;
  for (int i = 0; i < 9; ++i) units.push_back(unit_slowdown());
  const double slow = median(units);
  const double ns_eval = rig_ns_per_eval(scripts_of(w.representative()));
  sim::Scheduler sched;
  const double ns_event = ns_per_iter(200000, [&](int) {
    sched.schedule(1, [] {});
    sched.step();
  });
  const xk::Message toy =
      core::ToyStub::make(core::ToyStub::kData, 42, "payload-bytes");
  const double ns_xk = rig_stack_ns(toy, nullptr);
  xk::Message hdr_msg{std::string(512, 'x')};
  const std::vector<std::uint8_t> hdr(17, 0xAB);
  const double ns_hdr = ns_per_iter(200000, [&](int) {
    hdr_msg.push_header(hdr);
    g_sink = g_sink + hdr_msg.pop_header(17).size();
  });
  const auto stub = stub_for(protocol);
  const xk::Message proto_msg = message_for(protocol, *stub);
  sim::Scheduler pfi_sched;
  core::PfiConfig cfg;
  cfg.stub = stub;
  const double ns_pfi = rig_stack_ns(
      proto_msg, std::make_unique<core::PfiLayer>(pfi_sched, cfg));
  const double ns_type = ns_per_iter(200000, [&](int) {
    g_sink = g_sink + stub->type_of(proto_msg).size();
  });

  const auto& cells = L.sample_cells;
  const double us_check = us_per_call(n_sample, [&](std::size_t i) {
    g_sink = g_sink +
             lint::check_schedule(cells[i].schedule, protocol, cells[i].id).size();
  });
  const double us_canon = us_per_call(n_sample, [&](std::size_t i) {
    g_sink = g_sink + lint::canonical_key(cells[i].schedule, protocol).size();
  });

  std::vector<std::string> pdts;
  for (const auto& e :
       std::filesystem::directory_iterator(kRepo + "/suites/tcp")) {
    if (e.path().extension() == ".pdt") pdts.push_back(e.path().string());
  }
  std::sort(pdts.begin(), pdts.end());
  std::vector<conformance::Program> progs;
  const double us_load = us_per_call(pdts.size(), [&](std::size_t i) {
    auto p = load_pdt(pdts[i]);
    if (progs.size() < pdts.size() && p) progs.push_back(std::move(*p));
  }, 5);
  const double us_compile = us_per_call(progs.size(), [&](std::size_t i) {
    g_sink = g_sink + conformance::compile(progs[i]).receive.size();
  }, 5);
  std::map<std::string, double> pdt_bytes;
  double script_bytes = 0;
  for (const RunCell& cell : cells) {
    if (cell.conform_file.empty()) continue;
    auto [it, fresh] = pdt_bytes.try_emplace(cell.conform_file, 0);
    if (fresh) {
      const core::failure::Scripts s = scripts_of(cell);
      it->second = static_cast<double>(s.setup.size() + s.send.size() +
                                       s.receive.size());
    }
    script_bytes += it->second;
  }

  std::vector<std::string> cell_wire(n_sample), result_wire(n_sample);
  const double us_enc_cell = us_per_call(n_sample, [&](std::size_t i) {
    cell_wire[i] = fabric::encode_cell(cells[i]);
  });
  const double us_dec_cell = us_per_call(n_sample, [&](std::size_t i) {
    RunCell out;
    g_sink = g_sink + fabric::decode_cell(cell_wire[i], &out);
  });
  const double us_enc_res = us_per_call(n_sample, [&](std::size_t i) {
    result_wire[i] = fabric::encode_result(0, static_cast<int>(i), 1,
                                           L.sample_results[i]);
  });
  const double us_dec_res = us_per_call(n_sample, [&](std::size_t i) {
    int job = 0, slot = 0;
    std::int64_t epoch = 0;
    RunResult out;
    g_sink = g_sink +
             fabric::decode_result(result_wire[i], &job, &slot, &epoch, &out);
  });

  // The journal a resumed run of this rep would load.
  const std::string journal = b.tmp_dir + "/rig.journal";
  {
    campaign::Journal j;
    if (j.open(journal)) {
      for (std::size_t i = 0; i < cells.size(); ++i) {
        j.append(campaign::cell_key(cells[i]),
                 campaign::record_json(L.sample_results[i]));
      }
    }
  }
  std::vector<double> loads;
  for (int r = 0; r < 5; ++r) {
    const Clock::time_point t0 = Clock::now();
    g_sink = g_sink + campaign::load_journal(journal).size();
    loads.push_back(seconds_since(t0) * 1000.0);
  }
  std::error_code ec;
  const auto journal_bytes = std::filesystem::file_size(journal, ec);

  if (!b.fabric) {
    std::string err;
    const std::vector<RunCell> slice(cells.begin(), cells.begin() + n_sample);
    b.fabric = probe_fabric(slice, &err);
    if (!b.fabric) b.checks.fail("fabric probe: " + err);
  }
  const FabricNumbers f = b.fabric.value_or(FabricNumbers{});

  const double cell_ns = mean(L.run_cell_us) * 1000.0;
  rep.value("campaign.plan_ms", "ms", median(b.plan_ms),
            static_cast<int>(b.plan_ms.size()));
  rep.value("campaign.run_cell_us.p50", "us", quantile(L.run_cell_us, 0.5),
            static_cast<int>(L.run_cell_us.size()));
  rep.value("campaign.run_cell_us.p99", "us", quantile(L.run_cell_us, 0.99),
            static_cast<int>(L.run_cell_us.size()));
  rep.value("campaign.busy_ratio", "ratio", ratio(L.cpu_s, L.worker_wall_s));
  rep.value("campaign.record_json_us", "us", mean(L.record_json_us),
            static_cast<int>(L.record_json_us.size()));
  rep.value("campaign.allocs_per_cell", "count", c.per_cell(c.allocs));
  rep.value("campaign.alloc_bytes_per_cell", "bytes",
            c.per_cell(c.alloc_bytes));
  rep.value("campaign.journal_load_ms", "ms", median(loads) / slow, 5);
  rep.value("campaign.journal_bytes", "bytes",
            static_cast<double>(ec ? 0 : journal_bytes));
  rep.value("conformance.load_us", "us", us_load / slow);
  rep.value("conformance.compile_us", "us", us_compile / slow);
  rep.value("conformance.script_bytes", "bytes",
            ratio(script_bytes, static_cast<double>(cells.size())));
  rep.value("script.evals_per_cell", "count", c.per_cell(c.evals));
  rep.value("script.commands_per_cell", "count", c.per_cell(c.commands));
  rep.value("script.ns_per_eval", "ns", ns_eval / slow);
  rep.value("script.est_share", "ratio",
            ratio(c.per_cell(c.evals) * ns_eval / slow, cell_ns));
  rep.value("sim.events_per_cell", "count", c.per_cell(c.events));
  rep.value("sim.timers_per_cell", "count", c.per_cell(c.timers));
  rep.value("sim.ns_per_event", "ns", ns_event / slow);
  rep.value("sim.est_share", "ratio",
            ratio(c.per_cell(c.events) * ns_event / slow, cell_ns));
  rep.value("net.frames_per_cell", "count", c.per_cell(c.frames));
  rep.value("pfi.msgs_per_cell", "count", c.per_cell(c.msgs));
  rep.value("xk.ns_per_msg", "ns", ns_xk / slow);
  rep.value("xk.ns_per_header_pushpop", "ns", ns_hdr / slow);
  rep.value("pfi.ns_per_msg", "ns", ns_pfi / slow);
  rep.value("pfi.ns_per_type_of", "ns", ns_type / slow);
  rep.value("trace.records_per_cell", "count", c.per_cell(c.trace_records));
  for (const char* name :
       {"search.own_share", "search.digest_yield", "search.journal_hit_ratio",
        "search.equiv_skip_ratio", "search.lint_skip_ratio",
        "search.duplicate_ratio"}) {
    rep.value(name, "ratio", 0);
  }
  rep.value("lint.check_schedule_us", "us", us_check / slow);
  rep.value("lint.canonical_key_us", "us", us_canon / slow);
  rep.value("fabric.spawn_ms", "ms", f.spawn_ms);
  rep.value("fabric.tax_us_per_cell", "us",
            ratio((f.wall_s - f.inproc_wall_s) * kJobs * 1e6, f.cells));
  rep.value("fabric.encode_cell_us", "us", us_enc_cell / slow);
  rep.value("fabric.decode_cell_us", "us", us_dec_cell / slow);
  rep.value("fabric.encode_result_us", "us", us_enc_res / slow);
  rep.value("fabric.decode_result_us", "us", us_dec_res / slow);
  for (const char* h :
       {"fabric.worker.lease_rtt_us", "fabric.worker.execute_us",
        "fabric.worker.serialize_us", "fabric.coord.queue_wait_us"}) {
    rep.value(std::string(h) + ".p50", "us", histogram_p50(f.stats, h));
  }
  rep.value("trace_overhead_pct", "%",
            b.opt.untraced_cps > 0
                ? 100.0 * (1.0 - traced_cps / b.opt.untraced_cps)
                : 0.0);
  w.layer_metrics(rep);
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool write_json(const std::string& path, const Options& opt, const Checks& checks,
                double attempted, double failed, int reps,
                const RepOut& per_rep, const Report& report) {
  campaign::json::Writer w;
  w.begin_object();
  w.kv("workload", opt.workload);
  w.kv("seed", opt.seed);
  w.kv("traced", kTraced);
  w.kv("correct", checks.ok());
  w.key("attempted").value_raw(fmt(attempted));
  w.key("failed").value_raw(fmt(failed));
  w.kv("reps", reps);
  w.key("failures").begin_array();
  for (const std::string& f : checks.failures()) w.value(f);
  w.end_array();
  w.key("stamp").begin_object();
  w.kv("build_type", PFI_BENCH_BUILD_TYPE);
#ifdef __clang__
  w.kv("compiler", "clang " __clang_version__);
#else
  w.kv("compiler", "g++ " __VERSION__);
#endif
  w.kv("nproc", static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)));
  w.kv("jobs", kJobs);
  w.end_object();
  // Work per rep: fixed for a workload and seed, so two runs of one commit
  // must agree on these exactly.
  w.key("counts").begin_object();
  w.key("cells_per_rep").value_raw(fmt(per_rep.cells));
  w.key("digests_per_rep").value_raw(fmt(per_rep.digests));
  w.end_object();
  w.key("metrics").begin_object();
  for (const Metric& m : report.metrics()) {
    w.key(m.name).begin_object();
    w.kv("unit", m.unit);
    w.key("value").value_raw(fmt(m.value));
    w.key("q1").value_raw(fmt(m.q1));
    w.key("q3").value_raw(fmt(m.q3));
    w.kv("n", m.n);
    if (!m.samples.empty()) {
      w.key("samples").begin_array();
      for (double v : m.samples) w.value_raw(fmt(v));
      w.end_array();
    }
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::ofstream out(path);
  out << w.str() << '\n';
  return static_cast<bool>(out);
}

double peak_rss_mb(int who) {
  rusage u{};
  getrusage(who, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

/// The run's scratch directory, removed on every exit path.
struct TmpDir {
  std::string path;
  ~TmpDir() {
    if (path.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

int run(const Options& opt) {
  Bench b(opt);
  TmpDir tmp;
  std::string templ = opt.tmp + "/pfi_bench.XXXXXX";
  if (mkdtemp(templ.data()) == nullptr) {
    std::fprintf(stderr, "pfi_bench: cannot create a directory in %s: %s\n",
                 opt.tmp.c_str(), std::strerror(errno));
    return 1;
  }
  tmp.path = b.tmp_dir = templ;

  std::unique_ptr<Workload> w = make_workload(opt.workload, b);
  if (!w) {
    usage();
    return 2;
  }

  std::vector<double> setup_s, cells_per_s, digests_per_s, p50s, p99s;
  std::vector<double> raw_cells_per_s, slowdown;
  double attempted = 0, failed = 0;
  RepOut first;
  Clock::time_point measuring{};
  int reps = 0;
  for (int rep = 0;; ++rep) {
    b.rep = rep;
    b.layers.mode = rep == 0   ? Layers::Mode::kOff
                    : rep == 1 ? Layers::Mode::kAll
                               : Layers::Mode::kTimes;
    if (rep == 1) measuring = Clock::now();
    ScopedSpan span(b.spans, rep == 0 ? "warm-up" : "rep", -1);
    b.rep_span = span.id();
    std::string err;
    std::vector<double> setups;
    for (int k = 0; k < w->setups_per_rep(); ++k) {
      const Clock::time_point t0 = Clock::now();
      if (!w->setup(&err)) {
        w->teardown();
        std::fprintf(stderr, "pfi_bench: %s set-up failed: %s\n",
                     opt.workload.c_str(), err.c_str());
        return 1;
      }
      const double raw = seconds_since(t0);
      // Set-up runs no cells: time one unit on this thread right after it.
      const double slow = unit_slowdown();
      setups.push_back(raw / slow);
      b.plan_ms.back() /= slow;
    }
    const RefMark mark = ref_mark();
    const RepOut out = w->run();
    const double slow = slowdown_since(mark);
    w->teardown();
    // Each rep starts from a trimmed heap, so peak RSS is one rep's memory
    // rather than the fragmentation the earlier reps left behind.
    malloc_trim(0);
    const std::vector<LatencyLog::Sample> samples = b.lat.take();
    if (rep == 0) {
      b.plan_ms.clear();
      continue;
    }
    ++reps;
    if (rep == 1) first = out;
    setup_s.insert(setup_s.end(), setups.begin(), setups.end());
    cells_per_s.push_back(ratio(out.cells, out.wall_s) * slow);
    raw_cells_per_s.push_back(ratio(out.cells, out.wall_s));
    slowdown.push_back(slow);
    digests_per_s.push_back(ratio(out.digests, out.wall_s) * slow);

    std::vector<double> lat;
    lat.reserve(samples.size());
    for (const LatencyLog::Sample& x : samples) {
      lat.push_back(x.ms / (x.slowdown > 0 ? x.slowdown : slow));
    }
    p50s.push_back(quantile(lat, 0.5));
    p99s.push_back(quantile(lat, 0.99));
    attempted += out.cells;
    failed += out.errored;
    if (opt.quick ||
        (reps >= kMinReps && seconds_since(measuring) >= opt.seconds)) {
      break;
    }
  }

  Report report;
  report.per_rep("setup_s", "s", setup_s);
  report.per_rep("cells_per_s", "cells/s", cells_per_s);
  report.per_rep("cell_ms_p50", "ms", p50s);
  report.per_rep("cell_ms_p99", "ms", p99s);
  report.per_rep("digests_per_s", "digests/s", digests_per_s);
  report.value("error_frac", "ratio", ratio(failed, attempted),
               static_cast<int>(attempted));
  report.value("peak_rss_mb", "MB",
               std::max(peak_rss_mb(RUSAGE_SELF), peak_rss_mb(RUSAGE_CHILDREN)));
  report.per_rep("raw_cells_per_s", "cells/s", raw_cells_per_s);
  report.per_rep("host_slowdown", "ratio", slowdown);

  if constexpr (kTraced) {
    if (auto* fab = dynamic_cast<FabricTpc*>(w.get())) b.fabric = fab->numbers();
    layer_report(b, *w, median(cells_per_s), report);
    if (!opt.trace.empty() && !b.spans.write(opt.trace, opt.workload)) {
      b.checks.fail("cannot write trace file " + opt.trace);
    }
  }

  for (const Metric& m : report.metrics()) {
    std::printf("%s %s %.6g %s\n", opt.workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  }
  for (const std::string& f : b.checks.failures()) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  if (!opt.out.empty() && !write_json(opt.out, opt, b.checks, attempted, failed,
                                      reps, first, report)) {
    std::fprintf(stderr, "pfi_bench: cannot write %s\n", opt.out.c_str());
    return 1;
  }
  return b.checks.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ref_totals();  // map the shared totals before any worker forks
  Options opt;
  if (!parse_args(argc, argv, &opt)) {
    usage();
    return 2;
  }
  return run(opt);
}
