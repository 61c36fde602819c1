#include "campaign/spec.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>

namespace pfi::campaign {

using core::scriptgen::FaultKind;

namespace {

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

bool parse_fault(const std::string& s, FaultKind* out) {
  if (s == "drop") *out = FaultKind::kDrop;
  else if (s == "delay") *out = FaultKind::kDelay;
  else if (s == "duplicate") *out = FaultKind::kDuplicate;
  else if (s == "corrupt") *out = FaultKind::kCorrupt;
  else if (s == "reorder") *out = FaultKind::kReorder;
  else return false;
  return true;
}

/// "1000..1033" (inclusive) or a single number.
bool parse_seed_token(const std::string& tok,
                      std::vector<std::uint64_t>* seeds) {
  const auto dots = tok.find("..");
  char* end = nullptr;
  if (dots == std::string::npos) {
    const std::uint64_t v = std::strtoull(tok.c_str(), &end, 10);
    if (*end != '\0') return false;
    seeds->push_back(v);
    return true;
  }
  const std::string lo_s = tok.substr(0, dots), hi_s = tok.substr(dots + 2);
  const std::uint64_t lo = std::strtoull(lo_s.c_str(), &end, 10);
  if (*end != '\0' || lo_s.empty()) return false;
  const std::uint64_t hi = std::strtoull(hi_s.c_str(), &end, 10);
  if (*end != '\0' || hi_s.empty() || hi < lo || hi - lo > 100000) {
    return false;
  }
  for (std::uint64_t s = lo; s <= hi; ++s) seeds->push_back(s);
  return true;
}

std::string basename_no_ext(const std::string& path) {
  auto slash = path.find_last_of('/');
  std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  auto dot = base.find_last_of('.');
  if (dot != std::string::npos && dot > 0) base = base.substr(0, dot);
  return base;
}

struct ProtocolOracles {
  std::string_view protocol;
  std::string_view fallback;         // a spec without an `oracle` line
  std::vector<std::string> oracles;  // sorted
};

const std::vector<ProtocolOracles>& oracle_table() {
  static const std::vector<ProtocolOracles> table = {
      {"gmp", "agreement", {"agreement", "liveness", "quiet"}},
      {"tcp", "spec", {"alive", "conformance", "spec"}},
      {"tpc", "atomic", {"atomic"}},
  };
  return table;
}

const ProtocolOracles* find_protocol(std::string_view protocol) {
  for (const ProtocolOracles& p : oracle_table()) {
    if (p.protocol == protocol) return &p;
  }
  return nullptr;
}

/// An unknown protocol gets the default protocol's (gmp's) oracle, which
/// run_cell then rejects for it.
std::string default_oracle(std::string_view protocol) {
  const ProtocolOracles* p = find_protocol(protocol);
  return std::string{p != nullptr ? p->fallback
                                  : oracle_table().front().fallback};
}

}  // namespace

const std::vector<std::string>& protocol_oracles(std::string_view protocol) {
  static const std::vector<std::string> none;
  const ProtocolOracles* p = find_protocol(protocol);
  return p != nullptr ? p->oracles : none;
}

std::optional<CampaignSpec> parse_spec(const std::string& text,
                                       std::string* err) {
  CampaignSpec spec;
  spec.seeds.clear();
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  auto fail = [&](const std::string& msg) {
    if (err) *err = "line " + std::to_string(lineno) + ": " + msg;
    return std::nullopt;
  };

  while (std::getline(is, line)) {
    ++lineno;
    if (auto hash = line.find('#'); hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    const auto toks = split_ws(line);
    if (toks.empty()) continue;
    const std::string& key = toks[0];
    const std::vector<std::string> args(toks.begin() + 1, toks.end());
    auto one = [&]() -> const std::string& {
      static const std::string empty;
      return args.empty() ? empty : args[0];
    };

    if (key == "name") {
      spec.name = one();
    } else if (key == "protocol") {
      spec.protocol = one();
      if (spec.protocol != "gmp" && spec.protocol != "tcp" &&
          spec.protocol != "tpc") {
        return fail("unknown protocol '" + spec.protocol + "'");
      }
    } else if (key == "oracle") {
      spec.oracle = one();
    } else if (key == "types") {
      spec.types = args;
    } else if (key == "faults") {
      spec.faults.clear();
      for (const auto& a : args) {
        FaultKind k;
        if (!parse_fault(a, &k)) {
          return fail("unknown fault '" + a +
                      "' (drop|delay|duplicate|corrupt|reorder)");
        }
        spec.faults.push_back(k);
      }
    } else if (key == "seeds") {
      for (const auto& a : args) {
        if (!parse_seed_token(a, &spec.seeds)) {
          return fail("bad seed token '" + a + "' (N or LO..HI)");
        }
      }
    } else if (key == "scripts") {
      for (const auto& a : args) spec.script_files.push_back(a);
    } else if (key == "vendors") {
      spec.vendors = args;
    } else if (key == "scenario") {
      spec.scenario = one();
    } else if (key == "burst") {
      spec.burst = std::atoi(one().c_str());
      if (spec.burst < 1) return fail("burst must be >= 1");
    } else if (key == "first_occurrence") {
      spec.first_occurrence = std::atoi(one().c_str());
    } else if (key == "side") {
      if (one() == "send") spec.on_send_side = true;
      else if (one() == "receive") spec.on_send_side = false;
      else return fail("side must be send|receive");
    } else if (key == "delay_ms") {
      spec.delay = sim::msec(std::atoi(one().c_str()));
    } else if (key == "nodes") {
      spec.nodes = std::atoi(one().c_str());
      if (spec.nodes < 2) return fail("nodes must be >= 2");
    } else if (key == "target_node") {
      spec.target_node = std::atoi(one().c_str());
    } else if (key == "warmup_s") {
      spec.warmup = sim::sec(std::atoi(one().c_str()));
    } else if (key == "duration_s") {
      spec.duration = sim::sec(std::atoi(one().c_str()));
    } else if (key == "jitter_ms") {
      spec.jitter = sim::msec(std::atoi(one().c_str()));
    } else if (key == "buggy") {
      spec.buggy = one() == "true" || one() == "1";
    } else if (key == "timeout_ms") {
      spec.timeout_ms = std::atoi(one().c_str());
      if (spec.timeout_ms < 0) return fail("timeout_ms must be >= 0");
    } else if (key == "max_events") {
      char* end = nullptr;
      spec.max_sim_events = std::strtoull(one().c_str(), &end, 10);
      if (end == nullptr || *end != '\0') return fail("bad max_events");
    } else if (key == "retries") {
      spec.retries = std::atoi(one().c_str());
      if (spec.retries < 0) return fail("retries must be >= 0");
    } else {
      return fail("unknown key '" + key + "'");
    }
  }

  if (spec.seeds.empty()) spec.seeds.push_back(1);
  if (spec.oracle.empty()) spec.oracle = default_oracle(spec.protocol);
  if (spec.script_files.empty()) {
    if (spec.types.empty()) {
      lineno = 0;
      return fail("spec needs 'types' (with 'faults') or 'scripts'");
    }
    if (spec.faults.empty()) spec.faults.push_back(FaultKind::kDrop);
  }
  return spec;
}

std::optional<CampaignSpec> load_spec_file(const std::string& path,
                                           std::string* err) {
  std::ifstream f(path);
  if (!f) {
    if (err) *err = "cannot read " + path;
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  auto spec = parse_spec(buf.str(), err);
  if (!spec && err) *err = path + ": " + *err;
  return spec;
}

std::vector<RunCell> plan(const CampaignSpec& spec) {
  std::vector<RunCell> cells;
  const std::vector<std::string> vendors =
      spec.protocol == "tcp"
          ? (spec.vendors.empty() ? std::vector<std::string>{"sunos"}
                                  : spec.vendors)
          : std::vector<std::string>{""};

  auto base_cell = [&](const std::string& vendor, std::uint64_t seed) {
    RunCell c;
    c.index = static_cast<int>(cells.size());
    c.protocol = spec.protocol;
    c.oracle = spec.oracle;
    c.vendor = vendor;
    c.seed = seed;
    c.nodes = spec.nodes;
    c.target_node = spec.target_node;
    c.warmup = spec.warmup;
    c.duration = spec.duration;
    c.jitter = spec.jitter;
    c.buggy = spec.buggy;
    c.timeout_ms = spec.timeout_ms;
    c.max_sim_events = spec.max_sim_events;
    c.scenario = spec.scenario;
    return c;
  };
  auto id_prefix = [&](const std::string& vendor) {
    return vendor.empty() ? spec.protocol : spec.protocol + "/" + vendor;
  };

  for (const auto& vendor : vendors) {
    if (!spec.script_files.empty()) {
      for (const auto& file : spec.script_files) {
        for (std::uint64_t seed : spec.seeds) {
          RunCell c = base_cell(vendor, seed);
          c.script_file = file;
          c.id = id_prefix(vendor) + "/" + basename_no_ext(file) + "/s" +
                 std::to_string(seed);
          cells.push_back(std::move(c));
        }
      }
      continue;
    }
    for (const auto& type : spec.types) {
      for (FaultKind kind : spec.faults) {
        for (std::uint64_t seed : spec.seeds) {
          RunCell c = base_cell(vendor, seed);
          c.schedule = burst(type, kind, spec.first_occurrence, spec.burst,
                             spec.on_send_side, spec.delay);
          c.id = id_prefix(vendor) + "/" + type + "/" +
                 core::scriptgen::to_string(kind) + "/s" +
                 std::to_string(seed);
          cells.push_back(std::move(c));
        }
      }
    }
  }
  return cells;
}

std::vector<RunCell> filter_cells(std::vector<RunCell> cells,
                                  const std::string& substr) {
  if (substr.empty()) return cells;
  std::vector<RunCell> out;
  for (auto& c : cells) {
    if (c.id.find(substr) != std::string::npos) {
      c.index = static_cast<int>(out.size());
      out.push_back(std::move(c));
    }
  }
  return out;
}

}  // namespace pfi::campaign
