// Coverage-guided search tests: per-operator mutation properties (every
// mutant is lintable-or-counted and round-trips through the JSON and
// script-section renderers unchanged), corpus JSONL round-trips, the
// determinism-first invariant (a whole --explore run is byte-identical at
// --jobs 1 vs 8 and in-process vs --isolate), the journal-cache ddmin
// speedup, the golden-corpus regression, and the explore-vs-planner
// coverage advantage the search exists for.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/executor.hpp"
#include "campaign/json.hpp"
#include "campaign/minimize.hpp"
#include "campaign/runner.hpp"
#include "campaign/schedule.hpp"
#include "campaign/spec.hpp"
#include "lint/lint.hpp"
#include "pfi/script_file.hpp"
#include "search/corpus.hpp"
#include "search/mutate.hpp"
#include "search/prng.hpp"
#include "search/search.hpp"

namespace pfi::search {
namespace {

using campaign::FaultEvent;
using campaign::FaultSchedule;
using core::scriptgen::FaultKind;

campaign::CampaignSpec small_gmp_spec() {
  campaign::CampaignSpec spec;
  spec.name = "unit-search";
  spec.protocol = "gmp";
  spec.oracle = "quiet";
  spec.types = {"gmp-heartbeat", "gmp-mc"};
  spec.faults = {FaultKind::kDrop};
  spec.seeds = {1000, 1001};
  spec.burst = 2;
  spec.on_send_side = false;
  spec.warmup = 0;
  spec.duration = sim::sec(30);
  return spec;
}

FaultSchedule seed_schedule() {
  FaultSchedule s;
  s.events.push_back({"gmp-heartbeat", FaultKind::kDrop, 2, false});
  s.events.push_back({"gmp-mc", FaultKind::kDelay, 1, false, sim::msec(500)});
  s.events.push_back({"gmp-commit", FaultKind::kDuplicate, 3, true});
  return s;
}

std::string schedule_json(const FaultSchedule& s) {
  campaign::json::Writer w;
  s.to_json(w);
  return w.str();
}

// ---- mutation operators -------------------------------------------------

// Every operator, applied many times, must produce schedules that (a) lint
// clean or carry only warnings -- the engine pre-screen only rejects
// errors -- and (b) survive both serialisation round-trips unchanged:
// to_json -> schedule_from_json -> to_json, and compile -> sectioned .tcl
// -> parse_script_sections -> render identical sections.
TEST(SearchMutate, EveryOperatorYieldsValidRoundTrippingMutants) {
  const MutationPools pools = pools_for({"gmp-heartbeat", "gmp-mc"}, "gmp");
  ASSERT_FALSE(pools.types.empty());
  const FaultSchedule parent = seed_schedule();
  const FaultSchedule partner =
      campaign::burst("gmp-proclaim", FaultKind::kReorder, 1, 3, false);
  SplitMix64 rng(0xfeedfaceULL);

  const MutOp ops[] = {MutOp::kAdd,      MutOp::kRemove, MutOp::kRetarget,
                       MutOp::kShift,    MutOp::kFlipKind, MutOp::kSplice,
                       MutOp::kHavoc};
  for (const MutOp op : ops) {
    SCOPED_TRACE(to_string(op));
    int lint_errors = 0;
    for (int i = 0; i < 40; ++i) {
      const FaultSchedule m = mutate(parent, &partner, pools, rng, op);
      // Mutants stay within the structural bounds the pools promise.
      EXPECT_LE(m.events.size(),
                static_cast<std::size_t>(pools.max_events));
      for (const FaultEvent& e : m.events) {
        EXPECT_GE(e.occurrence, 1);
      }
      // (a) the static pre-screen: errors are *counted*, never crashes.
      const auto diags = lint::check_schedule(m, "gmp", "mutant");
      if (lint::has_errors(diags)) {
        ++lint_errors;
        continue;
      }
      // (b1) JSON round-trip.
      const std::string json = schedule_json(m);
      std::string err;
      const auto back = schedule_from_json(json, &err);
      ASSERT_TRUE(back.has_value()) << err << "\n" << json;
      EXPECT_EQ(schedule_json(*back), json);
      // (b2) script-section round-trip: compiled filter scripts survive
      // render -> parse -> render byte-identically.
      const core::failure::Scripts scripts = m.compile();
      core::ScriptFile file;
      file.setup = scripts.setup;
      file.send = scripts.send;
      file.receive = scripts.receive;
      const std::string text = core::render_script_sections(file);
      const core::ScriptFile reparsed = core::parse_script_sections(text);
      EXPECT_EQ(core::render_script_sections(reparsed), text);
    }
    // The operators are tuned to mostly produce runnable mutants; a pool
    // where most draws lint-fail would starve the search.
    EXPECT_LT(lint_errors, 20) << "operator mostly produces invalid mutants";
  }
}

TEST(SearchMutate, OperatorsRespectStructuralGuarantees) {
  const MutationPools pools = pools_for({"gmp-heartbeat"}, "gmp");
  SplitMix64 rng(7);
  const FaultSchedule parent = seed_schedule();

  // kRemove never empties a schedule entirely.
  for (int i = 0; i < 20; ++i) {
    const auto m = mutate(parent, nullptr, pools, rng, MutOp::kRemove);
    EXPECT_GE(m.events.size(), 1u);
    EXPECT_LT(m.events.size(), parent.events.size() + 1);
  }
  // kAdd grows by exactly one until the cap.
  for (int i = 0; i < 20; ++i) {
    const auto m = mutate(parent, nullptr, pools, rng, MutOp::kAdd);
    EXPECT_EQ(m.events.size(), parent.events.size() + 1);
  }
  // kSplice without a partner degrades to kAdd instead of crashing.
  const auto spliced = mutate(parent, nullptr, pools, rng, MutOp::kSplice);
  EXPECT_GE(spliced.events.size(), 1u);
  // pick_op never proposes remove/splice when they can't apply.
  FaultSchedule tiny;
  tiny.events.push_back({"gmp-heartbeat", FaultKind::kDrop, 1, false});
  for (int i = 0; i < 50; ++i) {
    const MutOp op = pick_op(rng, tiny.events.size(), /*can_splice=*/false);
    EXPECT_NE(op, MutOp::kRemove);
    EXPECT_NE(op, MutOp::kSplice);
  }
}

TEST(SearchMutate, MutationStreamIsSeedDeterministic) {
  const MutationPools pools = pools_for({"gmp-heartbeat", "gmp-mc"}, "gmp");
  const FaultSchedule parent = seed_schedule();
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 30; ++i) {
    const MutOp op = pick_op(a, parent.events.size(), true);
    const MutOp op2 = pick_op(b, parent.events.size(), true);
    ASSERT_EQ(op, op2);
    const auto ma = mutate(parent, &parent, pools, a, op);
    const auto mb = mutate(parent, &parent, pools, b, op2);
    EXPECT_EQ(schedule_json(ma), schedule_json(mb));
  }
}

// ---- corpus -------------------------------------------------------------

TEST(SearchCorpus, AdmissionIsDigestUniqueAndJsonlRoundTrips) {
  Corpus c;
  CorpusEntry e1;
  e1.schedule = seed_schedule();
  e1.digest = "aaaa";
  e1.features = {"t:gmp-heartbeat@1", "s:Stable->Suspect"};
  EXPECT_EQ(c.admit(e1), 0);
  EXPECT_EQ(c.admit(e1), -1);  // duplicate digest rejected
  CorpusEntry e2;
  e2.digest = "bbbb";
  e2.features = {"t:gmp-heartbeat@1"};
  e2.iteration = 5;
  e2.parent = 0;
  e2.op = "havoc";
  EXPECT_EQ(c.admit(e2), 1);
  EXPECT_TRUE(c.has_digest("aaaa"));
  EXPECT_FALSE(c.has_digest("cccc"));

  const std::string jsonl = c.to_jsonl();
  Corpus back;
  std::string err;
  ASSERT_TRUE(back.load_jsonl(jsonl, &err)) << err;
  EXPECT_EQ(back.to_jsonl(), jsonl);  // byte-identical round trip
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back.entries()[1].op, "havoc");
  EXPECT_EQ(back.entries()[1].parent, 0);
  EXPECT_EQ(schedule_json(back.entries()[0].schedule),
            schedule_json(e1.schedule));

  // Re-loading on top skips already-present digests instead of duplicating.
  ASSERT_TRUE(back.load_jsonl(jsonl, &err)) << err;
  EXPECT_EQ(back.size(), 2u);

  // Malformed input is a hard error, not a silent partial load.
  Corpus bad;
  EXPECT_FALSE(bad.load_jsonl("{\"digest\":\"x\",\"schedule\":[", &err));
  EXPECT_FALSE(err.empty());
}

TEST(SearchCorpus, RarityWeightingFavoursRareFeatures) {
  Corpus c;
  // Five entries share a common feature; one also holds a rare feature.
  for (int i = 0; i < 5; ++i) {
    CorpusEntry e;
    e.digest = "common" + std::to_string(i);
    e.features = {"t:gmp-heartbeat@1"};
    c.admit(e);
  }
  CorpusEntry rare;
  rare.digest = "rare";
  rare.features = {"t:gmp-heartbeat@1", "s:Stable->Down"};
  c.admit(rare);

  SplitMix64 rng(1);
  int rare_picks = 0;
  const int kDraws = 3000;
  for (int i = 0; i < kDraws; ++i) {
    if (c.pick_weighted(rng) == 5u) ++rare_picks;
  }
  // Uniform would give ~1/6 (=500); the rare-feature entry must be
  // over-represented by a clear margin.
  EXPECT_GT(rare_picks, kDraws / 4);
}

// ---- minimize probes through the record cache ---------------------------

// ddmin re-executes many schedule subsets; with a warm content-hash cache
// (the journal's in-memory form) repeated probes answer for free. The
// minimal schedule must not change -- the cache only swaps execution for
// lookup.
TEST(SearchMinimize, WarmJournalCacheCutsProbesNotResults) {
  campaign::RunCell cell;
  cell.protocol = "gmp";
  cell.oracle = "quiet";
  cell.id = "unit/cache-storm";
  cell.warmup = 0;
  cell.duration = sim::sec(40);
  FaultSchedule storm;
  storm.events.push_back({"gmp-mc", FaultKind::kDrop, 1, false});
  storm.events.push_back({"gmp-mc", FaultKind::kDrop, 2, false});
  for (int occ = 1; occ <= 3; ++occ) {
    storm.events.push_back({"gmp-heartbeat", FaultKind::kDuplicate, occ * 2,
                            false});
  }
  cell.schedule = storm;

  std::map<std::string, std::string> cache;
  campaign::MinimizeOptions opts;
  opts.cache = &cache;

  const campaign::MinimizeResult cold = campaign::minimize_schedule(cell,
                                                                    opts);
  EXPECT_TRUE(cold.reproduced);
  EXPECT_GT(cold.runs, 0);
  EXPECT_FALSE(cache.empty());  // probes populated the cache

  const campaign::MinimizeResult warm = campaign::minimize_schedule(cell,
                                                                    opts);
  EXPECT_TRUE(warm.reproduced);
  // Probe count drops: every ddmin subset was seen before, so only the
  // final re-verification (which always runs for real) costs a simulation.
  EXPECT_LT(warm.runs, cold.runs);
  EXPECT_GT(warm.cache_hits, 0);
  // The minimal schedule is byte-identical either way.
  EXPECT_EQ(schedule_json(warm.schedule), schedule_json(cold.schedule));
  EXPECT_EQ(warm.minimal_events, cold.minimal_events);
}

// ---- end-to-end explore -------------------------------------------------

SearchOptions base_opts(int budget, std::uint64_t seed) {
  SearchOptions o;
  o.budget = budget;
  o.batch = 8;
  o.seed = seed;
  return o;
}

std::string violations_json(const campaign::CampaignSpec& spec,
                            const SearchOptions& o, const SearchResult& r) {
  // The violation set serialises inside the report; comparing the whole
  // report compares it too, but keep an explicit digest list for clarity.
  std::string out;
  for (const auto& v : r.violations) out += v.digest + ":" + v.reason + "\n";
  out += report_json(spec, o, r);
  return out;
}

// The determinism suite: one full explore run -- corpus JSONL, report JSON,
// violation set -- is byte-identical at --jobs 1 vs 8 and in-process vs
// --isolate. This is the invariant everything else (golden corpora, CI
// smoke diffs, resumable searches) rests on.
TEST(SearchExplore, ByteIdenticalAcrossJobsAndIsolation) {
  const auto spec = small_gmp_spec();

  SearchOptions o1 = base_opts(16, 99);
  o1.jobs = 1;
  const SearchResult r1 = explore(spec, o1);
  ASSERT_TRUE(r1.error.empty()) << r1.error;
  // The budget charges executions plus equivalence skips; mutants answered
  // from a canonical twin's record spend their slot without a simulation.
  EXPECT_EQ(r1.executed + r1.equiv_skipped, 16);

  SearchOptions o8 = base_opts(16, 99);
  o8.jobs = 8;
  const SearchResult r8 = explore(spec, o8);

  SearchOptions oi = base_opts(16, 99);
  oi.jobs = 4;
  oi.isolate = true;
  const SearchResult ri = explore(spec, oi);

  EXPECT_EQ(r1.corpus.to_jsonl(), r8.corpus.to_jsonl());
  EXPECT_EQ(r1.corpus.to_jsonl(), ri.corpus.to_jsonl());
  EXPECT_EQ(violations_json(spec, o1, r1), violations_json(spec, o8, r8));
  EXPECT_EQ(violations_json(spec, o1, r1), violations_json(spec, oi, ri));
  // Sanity: the run discovered something beyond the seeds.
  EXPECT_GT(r1.corpus.size(), static_cast<std::size_t>(r1.seeded));
}

// Equivalence pruning (lint::canonical_key) must be pure throughput: a
// pruning run spends part of its budget answering mutants from their
// canonical twin's record, and everything observable — corpus evolution,
// the coverage curve, the violation set, even the minimizer's probe
// counters — is byte-identical to a run that simulates every mutant.
TEST(SearchExplore, EquivalencePruningPreservesTheReport) {
  const auto spec = small_gmp_spec();

  SearchOptions on = base_opts(16, 99);
  const SearchResult ron = explore(spec, on);
  ASSERT_TRUE(ron.error.empty()) << ron.error;

  SearchOptions off = base_opts(16, 99);
  off.prune_equivalent = false;
  const SearchResult roff = explore(spec, off);
  ASSERT_TRUE(roff.error.empty()) << roff.error;

  // The pruning run avoided at least one real simulation.
  EXPECT_GT(ron.equiv_skipped, 0);
  EXPECT_EQ(roff.equiv_skipped, 0);
  EXPECT_EQ(ron.executed + ron.equiv_skipped, roff.executed);

  EXPECT_EQ(ron.corpus.to_jsonl(), roff.corpus.to_jsonl());
  ASSERT_EQ(ron.curve.size(), roff.curve.size());
  for (std::size_t i = 0; i < ron.curve.size(); ++i) {
    EXPECT_EQ(ron.curve[i].executed, roff.curve[i].executed);
    EXPECT_EQ(ron.curve[i].digests, roff.curve[i].digests);
  }
  ASSERT_EQ(ron.violations.size(), roff.violations.size());
  for (std::size_t i = 0; i < ron.violations.size(); ++i) {
    const SearchViolation& a = ron.violations[i];
    const SearchViolation& b = roff.violations[i];
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.reason, b.reason);
    EXPECT_EQ(schedule_json(a.schedule), schedule_json(b.schedule));
    EXPECT_EQ(schedule_json(a.minimized), schedule_json(b.minimized));
    EXPECT_EQ(a.probe_runs, b.probe_runs);
    EXPECT_EQ(a.probe_cache_hits, b.probe_cache_hits);
  }
  EXPECT_EQ(ron.minimize_runs, roff.minimize_runs);
}

// The reason the subsystem exists: at the same cell budget the search must
// discover substantially more unique coverage digests than the static
// planner's cross product (the ISSUE floor is +25%; the margin here is far
// larger because planner seeds collapse to few digests).
TEST(SearchExplore, BeatsStaticPlannerCoverageAtEqualBudget) {
  const auto spec = small_gmp_spec();
  const auto cells = campaign::plan(spec);
  ASSERT_FALSE(cells.empty());

  campaign::ExecutorOptions eo;
  eo.jobs = 4;
  const auto results = campaign::run_cells(cells, eo);
  std::set<std::string> planner_digests;
  for (const auto& r : results) {
    if (!r.errored()) planner_digests.insert(r.coverage.digest);
  }
  ASSERT_FALSE(planner_digests.empty());

  SearchOptions o = base_opts(static_cast<int>(cells.size()), 1234);
  o.jobs = 4;
  const SearchResult r = explore(spec, o);
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.executed, static_cast<int>(cells.size()));
  EXPECT_GE(r.corpus.size() * 4, planner_digests.size() * 5)
      << "search found " << r.corpus.size() << " digests vs planner "
      << planner_digests.size();
}

// Violations found by the search arrive minimized: ddmin ran, reproduced,
// and the minimized schedule is no larger than the discovery.
TEST(SearchExplore, ViolationsAreMinimized) {
  auto spec = small_gmp_spec();
  spec.types = {"gmp-mc"};  // dropped membership changes violate "quiet"
  spec.burst = 2;
  const SearchResult r = explore(spec, base_opts(12, 5));
  ASSERT_TRUE(r.error.empty()) << r.error;
  ASSERT_FALSE(r.violations.empty());
  for (const auto& v : r.violations) {
    EXPECT_FALSE(v.digest.empty());
    EXPECT_FALSE(v.reason.empty());
    if (!v.minimize_attempted) continue;
    EXPECT_TRUE(v.reproduced) << v.reason;
    EXPECT_LE(v.minimized.events.size(), v.schedule.events.size());
    EXPECT_GE(v.minimized.events.size(), 1u);
  }
  EXPECT_GT(r.minimize_runs, 0);
}

// Script-mode specs have no schedules to mutate; explore must refuse
// loudly instead of searching nothing.
TEST(SearchExplore, RejectsScriptModeSpecs) {
  campaign::CampaignSpec spec;
  spec.name = "scripted";
  spec.protocol = "gmp";
  spec.oracle = "quiet";
  spec.script_files = {"whatever.tcl"};
  const SearchResult r = explore(spec, base_opts(4, 1));
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(r.executed, 0);
}

// ---- golden corpus regression -------------------------------------------

// A fixed-seed search over the checked-in GMP omission spec must rediscover
// every digest in tests/golden/search_gmp_omission.digests. Finding *more*
// is fine (mutation pools may widen); losing one means a behaviour the
// search used to reach became unreachable -- a regression in the engine,
// the simulator, or the coverage digest itself.
TEST(SearchGolden, FixedSeedRediscoversGoldenDigests) {
  std::string err;
  const auto spec = campaign::load_spec_file(
      PFI_SCRIPTS_DIR "/campaign_gmp_omission.spec", &err);
  ASSERT_TRUE(spec.has_value()) << err;

  std::ifstream gf(PFI_GOLDEN_DIR "/search_gmp_omission.digests");
  ASSERT_TRUE(gf.good());
  std::set<std::string> golden;
  std::string line;
  while (std::getline(gf, line)) {
    if (line.empty() || line[0] == '#') continue;
    golden.insert(line);
  }
  ASSERT_FALSE(golden.empty());

  SearchOptions o;
  o.budget = 24;
  o.batch = 16;
  o.seed = 7;
  o.jobs = 4;
  const SearchResult r = explore(*spec, o);
  ASSERT_TRUE(r.error.empty()) << r.error;
  std::set<std::string> found;
  for (const auto& e : r.corpus.entries()) found.insert(e.digest);
  for (const auto& d : golden) {
    EXPECT_TRUE(found.count(d) != 0) << "golden digest lost: " << d;
  }
}

// Golden equivalence-pruning counts on the shipped GMP spec: the canonical
// classes a fixed-seed search collapses are as deterministic as the corpus
// itself. If a canonicalizer change moves these numbers, re-run
//   pfi_campaign scripts/campaign_gmp_omission.spec --explore=96 --seed 7
// and confirm the violation set still matches a run with
// SearchOptions::prune_equivalent off (the comparison
// EquivalencePruningPreservesTheReport makes on a small spec) before
// updating them.
TEST(SearchGolden, ShippedSpecGoldenEquivSkipped) {
  std::string err;
  const auto spec = campaign::load_spec_file(
      PFI_SCRIPTS_DIR "/campaign_gmp_omission.spec", &err);
  ASSERT_TRUE(spec.has_value()) << err;

  SearchOptions o;
  o.budget = 96;
  o.batch = 16;
  o.seed = 7;
  o.jobs = 4;
  const SearchResult r = explore(*spec, o);
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.equiv_skipped, 1);
  EXPECT_EQ(r.executed, 95);
  EXPECT_EQ(r.executed + r.equiv_skipped, o.budget);
}

}  // namespace
}  // namespace pfi::search
