// Observability subsystem tests: metrics registry semantics (find-or-create,
// histogram bucketing, snapshot ordering, campaign merge), trace-log
// capacity bounding, the coverage fingerprint's determinism across --jobs
// and in-process vs --isolate execution, and timeline JSON well-formedness.
#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <string>
#include <vector>

#include "campaign/executor.hpp"
#include "campaign/runner.hpp"
#include "campaign/sandbox.hpp"
#include "campaign/spec.hpp"
#include "obs/coverage.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "trace/trace.hpp"

namespace pfi {
namespace {

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON validator: enough grammar to reject the
// broken commas / unterminated strings a hand-rolled serialiser could emit.
// ---------------------------------------------------------------------------

struct JsonCheck {
  const std::string& s;
  std::size_t i = 0;

  void ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  bool lit(const char* t) {
    const std::size_t n = std::strlen(t);
    if (s.compare(i, n, t) != 0) return false;
    i += n;
    return true;
  }
  bool string() {
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') {
        ++i;
        if (i >= s.size()) return false;
      }
      ++i;
    }
    if (i >= s.size()) return false;
    ++i;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = i;
    if (i < s.size() && s[i] == '-') ++i;
    while (i < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '.' ||
            s[i] == 'e' || s[i] == 'E' || s[i] == '+' || s[i] == '-')) {
      ++i;
    }
    return i > start;
  }
  bool value() {
    ws();
    if (i >= s.size()) return false;
    switch (s[i]) {
      case '{': {
        ++i;
        ws();
        if (i < s.size() && s[i] == '}') {
          ++i;
          return true;
        }
        for (;;) {
          ws();
          if (!string()) return false;
          ws();
          if (i >= s.size() || s[i] != ':') return false;
          ++i;
          if (!value()) return false;
          ws();
          if (i < s.size() && s[i] == ',') {
            ++i;
            continue;
          }
          break;
        }
        if (i >= s.size() || s[i] != '}') return false;
        ++i;
        return true;
      }
      case '[': {
        ++i;
        ws();
        if (i < s.size() && s[i] == ']') {
          ++i;
          return true;
        }
        for (;;) {
          if (!value()) return false;
          ws();
          if (i < s.size() && s[i] == ',') {
            ++i;
            continue;
          }
          break;
        }
        if (i >= s.size() || s[i] != ']') return false;
        ++i;
        return true;
      }
      case '"':
        return string();
      case 't':
        return lit("true");
      case 'f':
        return lit("false");
      case 'n':
        return lit("null");
      default:
        return number();
    }
  }
};

bool valid_json(const std::string& doc) {
  JsonCheck c{doc};
  if (!c.value()) return false;
  c.ws();
  return c.i == doc.size();
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(Registry, FindOrCreateReturnsStableAddresses) {
  obs::Registry reg;
  obs::Counter* a = &reg.counter("x");
  a->inc();
  // Registering more names must not move existing entries.
  for (int i = 0; i < 100; ++i) reg.counter("filler." + std::to_string(i));
  EXPECT_EQ(&reg.counter("x"), a);
  EXPECT_EQ(reg.counter("x").value(), 1u);
}

TEST(Registry, SetCounterIsAbsolute) {
  obs::Registry reg;
  reg.counter("n").inc(5);
  reg.set_counter("n", 42);
  EXPECT_EQ(reg.counter("n").value(), 42u);
  reg.set_counter("fresh", 7);
  EXPECT_EQ(reg.counter("fresh").value(), 7u);
}

TEST(Registry, SnapshotIsSortedAndFlattensHistograms) {
  obs::Registry reg;
  reg.counter("z.last").inc(3);
  reg.max_gauge("a.gauge").track(9);
  obs::Histogram& h = reg.histogram("m.sizes");
  h.observe(0);
  h.observe(1);
  h.observe(2);
  h.observe(300);

  const auto snap = reg.snapshot();
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].name, snap[i].name);
  }
  auto find = [&](const std::string& name) -> const obs::MetricSample* {
    for (const auto& s : snap) {
      if (s.name == name) return &s;
    }
    return nullptr;
  };
  ASSERT_NE(find("m.sizes.count"), nullptr);
  EXPECT_EQ(find("m.sizes.count")->value, 4u);
  ASSERT_NE(find("m.sizes.le_1"), nullptr);
  EXPECT_EQ(find("m.sizes.le_1")->value, 2u);  // samples 0 and 1
  ASSERT_NE(find("m.sizes.le_2"), nullptr);
  EXPECT_EQ(find("m.sizes.le_2")->value, 1u);
  ASSERT_NE(find("m.sizes.le_512"), nullptr);  // 300 in (256, 512]
  EXPECT_EQ(find("m.sizes.le_512")->value, 1u);
  ASSERT_NE(find("a.gauge"), nullptr);
  EXPECT_EQ(find("a.gauge")->kind, 'g');
  EXPECT_EQ(find("z.last")->value, 3u);
}

TEST(Registry, CountersWithPrefixStripsPrefix) {
  obs::Registry reg;
  reg.counter("pfi.msg_type.gmp-commit").inc(2);
  reg.counter("pfi.msg_type.gmp-heartbeat").inc(5);
  reg.counter("pfi.other").inc(1);
  const auto got = reg.counters_with_prefix("pfi.msg_type.");
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (std::pair<std::string, std::uint64_t>{"gmp-commit", 2}));
  EXPECT_EQ(got[1],
            (std::pair<std::string, std::uint64_t>{"gmp-heartbeat", 5}));
}

TEST(Registry, MergeSamplesSumsCountersAndMaxesGauges) {
  std::map<std::string, obs::MetricSample> merged;
  obs::merge_samples(&merged, {{"c", 'c', 3}, {"g", 'g', 10}});
  obs::merge_samples(&merged, {{"c", 'c', 4}, {"g", 'g', 7}, {"new", 'c', 1}});
  EXPECT_EQ(merged.at("c").value, 7u);
  EXPECT_EQ(merged.at("g").value, 10u);
  EXPECT_EQ(merged.at("new").value, 1u);
}

TEST(Coverage, FnvDigestIsStableAndDiscriminates) {
  EXPECT_EQ(obs::fnv1a_hex("abc"), obs::fnv1a_hex("abc"));
  EXPECT_NE(obs::fnv1a_hex("abc"), obs::fnv1a_hex("abd"));
  EXPECT_EQ(obs::fnv1a_hex("").size(), 16u);
}

// ---------------------------------------------------------------------------
// TraceLog capacity bound (satellite: bounded memory, dropped accounting)
// ---------------------------------------------------------------------------

TEST(TraceCap, DropsOldestAndCounts) {
  trace::TraceLog log;
  log.set_capacity(16);
  for (int i = 0; i < 100; ++i) {
    log.add(i, "n", "event", "t" + std::to_string(i));
  }
  EXPECT_LE(log.size(), 16u);
  EXPECT_EQ(log.total_added(), 100u);
  EXPECT_EQ(log.dropped(), 100u - log.size());
  // Survivors are the newest records.
  EXPECT_EQ(log.records().back().type, "t99");
  EXPECT_GT(log.records().front().at, 0);
}

TEST(TraceCap, SetCapacityTrimsExistingLog) {
  trace::TraceLog log;
  for (int i = 0; i < 50; ++i) log.add(i, "n", "event", "x");
  log.set_capacity(10);
  EXPECT_EQ(log.size(), 10u);
  EXPECT_EQ(log.dropped(), 40u);
  EXPECT_EQ(log.records().front().at, 40);
  log.clear();
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_EQ(log.total_added(), 0u);
}

TEST(TraceJson, EscapesControlAndHighBytes) {
  trace::TraceLog log;
  log.add(1, "node\r\n", "send", "ty\"pe", std::string("hi\x01\xc3\xa9"));
  const std::string doc = log.to_json();
  EXPECT_TRUE(valid_json(doc)) << doc;
  EXPECT_NE(doc.find("\\r"), std::string::npos);
  EXPECT_NE(doc.find("\\u0001"), std::string::npos);
  // High (UTF-8) bytes pass through unescaped — the old escaper's signed
  // char sign-extended them into garbage ￿ffc3 sequences.
  EXPECT_EQ(doc.find("ffffff"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Coverage fingerprint
// ---------------------------------------------------------------------------

TEST(Coverage, ComputesSetsAndDigestFromTraceAndRegistry) {
  trace::TraceLog log;
  log.add(10, "gmd-1", "event", "gmp-commit");
  log.add(20, "gmd-2", "event", "gmp-suspect");
  log.add(20, "gmd-2", "event", "gmp-suspect");  // dup collapses in the set
  log.add(30, "vendor", "event", "tcp-state", "SYN_SENT -> ESTABLISHED");
  log.add(40, "xk", "send", "tcp-seg");

  obs::Registry reg;
  reg.counter("pfi.msg_type.tcp-seg").inc(4);

  const obs::Coverage cov = obs::compute_coverage(
      log, reg, {{"dropped", 2}, {"delayed", 0}, {"held", 1}});
  EXPECT_EQ(cov.msg_types.size(), 1u);
  EXPECT_EQ(cov.msg_types[0].first, "tcp-seg");
  EXPECT_EQ(cov.msg_types[0].second, 4u);
  // Zero-valued actions are dropped, survivors sorted.
  ASSERT_EQ(cov.actions.size(), 2u);
  EXPECT_EQ(cov.actions[0].first, "dropped");
  EXPECT_EQ(cov.actions[1].first, "held");
  ASSERT_EQ(cov.transitions.size(), 3u);
  EXPECT_EQ(cov.transitions[2], "vendor:SYN_SENT -> ESTABLISHED");
  EXPECT_EQ(cov.digest.size(), 16u);

  // Same inputs -> same digest; different inputs -> different digest.
  const obs::Coverage again = obs::compute_coverage(
      log, reg, {{"dropped", 2}, {"delayed", 0}, {"held", 1}});
  EXPECT_EQ(again.digest, cov.digest);
  const obs::Coverage other =
      obs::compute_coverage(log, reg, {{"dropped", 3}});
  EXPECT_NE(other.digest, cov.digest);
}

TEST(Coverage, FallsBackToTraceWhenMetricsDetached) {
  trace::TraceLog log;
  log.add(1, "n", "send", "ka-probe");
  log.add(2, "n", "recv", "ka-probe");
  log.add(3, "n", "note", "pfi-note");  // not a packet verb: excluded
  obs::Registry reg;
  const obs::Coverage cov = obs::compute_coverage(log, reg, {});
  ASSERT_EQ(cov.msg_types.size(), 1u);
  EXPECT_EQ(cov.msg_types[0],
            (std::pair<std::string, std::uint64_t>{"ka-probe", 2}));
}

// ---------------------------------------------------------------------------
// End-to-end determinism: records (now carrying coverage) must be
// byte-identical whatever --jobs was, and across in-process vs --isolate.
// ---------------------------------------------------------------------------

campaign::CampaignSpec small_gmp_spec() {
  campaign::CampaignSpec spec;
  spec.name = "obs-unit";
  spec.protocol = "gmp";
  spec.oracle = "quiet";
  spec.types = {"gmp-heartbeat", "gmp-commit"};
  spec.faults = {core::scriptgen::FaultKind::kDrop};
  spec.seeds = {1000, 1001};
  spec.burst = 2;
  spec.on_send_side = false;
  spec.warmup = 0;
  spec.duration = sim::sec(40);
  return spec;
}

TEST(CoverageDeterminism, RecordsIdenticalAcrossJobs) {
  const auto cells = campaign::plan(small_gmp_spec());
  ASSERT_GE(cells.size(), 2u);

  campaign::ExecutorOptions seq;
  seq.jobs = 1;
  campaign::ExecutorOptions par;
  par.jobs = 8;
  const auto a = campaign::run_cells(cells, seq);
  const auto b = campaign::run_cells(cells, par);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::string ra = campaign::record_json(a[i]);
    EXPECT_EQ(ra, campaign::record_json(b[i]));
    // The record carries a fingerprint with a digest.
    EXPECT_NE(ra.find("\"coverage\":{\"digest\":\""), std::string::npos)
        << ra;
    EXPECT_TRUE(valid_json(ra)) << ra;
    EXPECT_EQ(a[i].metrics, b[i].metrics);
  }
}

TEST(CoverageDeterminism, InProcessAndIsolatedAgree) {
  auto cells = campaign::plan(small_gmp_spec());
  ASSERT_FALSE(cells.empty());
  campaign::RunCell cell = cells[0];
  cell.capture_timeline = true;

  const campaign::RunResult direct = campaign::run_cell(cell);
  campaign::ExecutorOptions isolated;
  isolated.isolate = true;
  const campaign::RunResult forked =
      campaign::run_cells({cell}, isolated).at(0);
  ASSERT_TRUE(forked.error.empty()) << forked.error;
  EXPECT_EQ(campaign::record_json(direct), campaign::record_json(forked));
  EXPECT_FALSE(direct.coverage.empty());
  EXPECT_EQ(direct.coverage.digest, forked.coverage.digest);
  EXPECT_EQ(direct.coverage.msg_types, forked.coverage.msg_types);
  EXPECT_EQ(direct.coverage.actions, forked.coverage.actions);
  EXPECT_EQ(direct.coverage.transitions, forked.coverage.transitions);
  // Metrics and the timeline fragment survive the sandbox wire byte-exactly.
  EXPECT_EQ(direct.metrics, forked.metrics);
  EXPECT_FALSE(direct.metrics.empty());
  EXPECT_FALSE(direct.timeline.empty());
  EXPECT_EQ(direct.timeline, forked.timeline);
}

// ---------------------------------------------------------------------------
// Timeline export
// ---------------------------------------------------------------------------

TEST(Timeline, FragmentAndDocumentAreValidJson) {
  auto cells = campaign::plan(small_gmp_spec());
  ASSERT_FALSE(cells.empty());
  cells[0].capture_timeline = true;
  const campaign::RunResult r = campaign::run_cell(cells[0]);
  ASSERT_FALSE(r.timeline.empty());

  const std::string doc = obs::timeline_document({r.timeline, r.timeline});
  EXPECT_TRUE(valid_json(doc)) << doc.substr(0, 400);
  EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"M\""), std::string::npos);  // lane names
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);  // spans
  EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);  // instants
}

TEST(Timeline, EmptyTraceYieldsEmptyFragment) {
  trace::TraceLog log;
  EXPECT_TRUE(obs::timeline_events(log, "cell", 0, 100).empty());
  EXPECT_TRUE(valid_json(obs::timeline_document({})));
}

}  // namespace
}  // namespace pfi
