#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "campaign/json.hpp"
#include "conformance/conformance.hpp"
#include "lint/canonical.hpp"
#include "lint/cfg.hpp"
#include "lint/flow.hpp"
#include "lint/registry.hpp"
#include "pfi/script_file.hpp"
#include "pfi/scriptgen.hpp"
#include "script/interp.hpp"
#include "script/parse.hpp"
#include "sim/time.hpp"

namespace pfi::lint {

namespace {

namespace sp = script::parse;

/// Edit distance capped at 3 (enough to decide "is it within 2?").
int edit_distance(std::string_view a, std::string_view b) {
  if (a.size() > b.size() + 2 || b.size() > a.size() + 2) return 3;
  std::vector<int> prev(b.size() + 1);
  std::vector<int> cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = static_cast<int>(j);
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = static_cast<int>(i);
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const int sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return std::min(prev[b.size()], 3);
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

/// `# pfi-lint: allow <rule...>` covers the directive's own line and the
/// next non-blank, non-comment line. `# pfi-lint: allow-file <rule...>`
/// covers the whole file. Directives that never match anything are
/// themselves a diagnostic.
struct Suppressions {
  struct Directive {
    int line = 0;
    bool file_wide = false;
    std::set<std::string> rules;
    bool used = false;
  };
  std::vector<Directive> directives;
  std::map<int, std::vector<std::size_t>> line_cover;
  std::vector<std::size_t> file_wide_idx;

  static bool matches(const Directive& d, const std::string& rule) {
    return d.rules.contains(rule) || d.rules.contains("all");
  }

  /// True when some directive suppresses (rule, line); marks it used.
  bool allow(const std::string& rule, int line) {
    bool hit = false;
    for (const std::size_t i : file_wide_idx) {
      if (matches(directives[i], rule)) {
        directives[i].used = true;
        hit = true;
      }
    }
    if (const auto it = line_cover.find(line); it != line_cover.end()) {
      for (const std::size_t i : it->second) {
        if (matches(directives[i], rule)) {
          directives[i].used = true;
          hit = true;
        }
      }
    }
    return hit;
  }
};

Suppressions collect_suppressions(const std::string& contents) {
  Suppressions supp;
  std::vector<std::string> lines;
  {
    std::istringstream is{contents};
    std::string line;
    while (std::getline(is, line)) lines.push_back(line);
  }
  const auto first_nonspace = [](const std::string& l) -> std::size_t {
    std::size_t i = 0;
    while (i < l.size() &&
           std::isspace(static_cast<unsigned char>(l[i])) != 0) {
      ++i;
    }
    return i;
  };
  for (std::size_t n = 0; n < lines.size(); ++n) {
    const std::string& line = lines[n];
    const std::size_t i = first_nonspace(line);
    if (i >= line.size() || line[i] != '#') continue;
    const auto tag = line.find("pfi-lint:", i);
    if (tag == std::string::npos) continue;
    std::istringstream words{line.substr(tag + 9)};
    std::string w;
    if (!(words >> w)) continue;
    const bool file_wide = w == "allow-file";
    if (!file_wide && w != "allow") continue;
    Suppressions::Directive d;
    d.line = static_cast<int>(n) + 1;
    d.file_wide = file_wide;
    while (words >> w) d.rules.insert(w);
    const std::size_t idx = supp.directives.size();
    if (file_wide) {
      supp.file_wide_idx.push_back(idx);
    } else {
      supp.line_cover[d.line].push_back(idx);
      // ...and the next line that holds code.
      for (std::size_t m = n + 1; m < lines.size(); ++m) {
        const std::size_t j = first_nonspace(lines[m]);
        if (j >= lines[m].size()) continue;  // blank
        if (lines[m][j] == '#') continue;    // comment (maybe a directive)
        supp.line_cover[static_cast<int>(m) + 1].push_back(idx);
        break;
      }
    }
    supp.directives.push_back(std::move(d));
  }
  return supp;
}

/// Unused directives report unconditionally — a suppression cannot
/// suppress the report of its own uselessness.
void report_unused_suppressions(const Suppressions& supp,
                                const std::string& file,
                                std::vector<Diagnostic>* out) {
  for (const auto& d : supp.directives) {
    if (d.used) continue;
    std::string rules;
    for (const std::string& r : d.rules) {
      if (!rules.empty()) rules += ", ";
      rules += "\"" + r + "\"";
    }
    if (rules.empty()) rules = "no rules";
    out->push_back({Severity::kWarning, "unused-suppression", file, d.line, 0,
                    "suppression for " + rules + " matches no diagnostic" +
                        (d.file_wide ? " anywhere in the file"
                                     : " on the covered line"),
                    d.file_wide
                        ? "remove it, or narrow it to a `# pfi-lint: allow` "
                          "next to the line it should cover"
                        : "remove it, or move it directly above the line it "
                          "should cover"});
  }
}

struct ReadSite {
  std::string name;  // normalized base name
  int line = 0;
  int col = 0;
  bool required = true;  // false: info exists / unset (use, not a read)
};

struct DefSite {
  int line = 0;
  int col = 0;
  std::string section;
};

/// Flow-insensitive summary of one interpreter scope, distilled from its
/// Unit — what the cross-section resolution passes consume.
struct Scope {
  std::map<std::string, DefSite> defs;
  std::vector<ReadSite> reads;
  std::set<std::string> globals;  // proc scopes: names imported via `global`
  bool dynamic = false;  // saw `eval` or a computed var name: stop judging
};

struct ProcSig {
  int min_args = 0;
  int max_args = -1;
  std::string section;
};

struct CmdUse {
  std::string name;
  int nargs = 0;
  int line = 0;
  int col = 0;
  std::string section;
};

constexpr const char* kSetup = "setup";
constexpr const char* kSend = "send";
constexpr const char* kReceive = "receive";

/// v2 analyzer: lowers each section and proc body to a CFG (cfg.hpp), runs
/// the flow-sensitive passes (flow.hpp) per unit with cross-unit context
/// (setup's definitions seed the filters, proc may-write summaries flow to
/// call sites), then runs the v1 flow-insensitive resolution passes over
/// the unit summaries: command/arity resolution, cross-interpreter read
/// visibility, unused variables and procs.
class Analyzer {
 public:
  Analyzer(const Options& opts, std::string file, Suppressions* supp,
           std::vector<Diagnostic>* out)
      : opts_(opts), file_(std::move(file)), supp_(supp), out_(out) {}

  void analyze_section(const std::string& text, int first_line,
                       const char* section) {
    const std::size_t procs_before = proc_defs_.size();
    SectionUnit su;
    su.section = section;
    su.unit = cfg::build_unit(text, first_line, 1, section, diag_fn(),
                              &proc_defs_);
    for (std::size_t p = procs_before; p < proc_defs_.size(); ++p) {
      proc_sections_.push_back(section);
    }
    for (const cfg::CmdUse& u : su.unit.uses) {
      uses_.push_back({u.name, u.nargs, u.line, u.col, section});
    }
    units_.push_back(std::move(su));
  }

  void finish() {
    build_proc_units();
    compute_proc_writes();
    resolve_procs();  // also fills each section's proc-written globals
    run_flow();
    resolve_commands();
    resolve_reads();
    resolve_unused();
    resolve_unused_procs();
  }

 private:
  struct SectionUnit {
    std::string section;
    cfg::Unit unit;
  };

  struct ProcInfo {
    std::string name;
    std::string section;
    int line = 0;
    int col = 0;
    ProcSig sig;
    cfg::Unit unit;       // empty (entry/exit only) when the body is not
    bool has_unit = false;  // a brace — nothing static to say then
    std::vector<cfg::VarDef> params;
    Scope scope;  // summary: params + body defs, reads, globals, dynamic
  };

  // -- emission -------------------------------------------------------------

  void diag(Severity sev, const char* rule, int line, int col,
            std::string message, std::string hint = {}) {
    if (supp_ != nullptr && supp_->allow(rule, line)) return;
    out_->push_back(
        {sev, rule, file_, line, col, std::move(message), std::move(hint)});
  }

  cfg::DiagFn diag_fn() {
    return [this](Severity sev, const char* rule, int line, int col,
                  std::string message, std::string hint) {
      diag(sev, rule, line, col, std::move(message), std::move(hint));
    };
  }

  // -- units ----------------------------------------------------------------

  /// Build a Unit per braced proc body. Bodies can define further procs;
  /// the worklist keeps going until every definition has been seen.
  void build_proc_units() {
    for (std::size_t i = 0; i < proc_defs_.size(); ++i) {
      const cfg::ProcDef def = proc_defs_[i];  // copy: vector may grow
      const std::string section = proc_sections_[i];

      ProcInfo info;
      info.name = def.name;
      info.section = section;
      info.line = def.line;
      info.col = def.col;
      info.sig = {def.min_args, def.max_args, section};
      info.params = def.params;
      for (const cfg::VarDef& p : def.params) {
        info.scope.defs.try_emplace(p.name, DefSite{p.line, p.col, section});
      }

      if (def.body_braced) {
        // Pre-parse for the v1-shaped error message; build only when ok.
        const sp::Script body =
            sp::parse_script(def.body, def.body_line, def.body_col);
        if (!body.ok()) {
          diag(Severity::kError, "parse-error", body.error_line,
               body.error_col,
               body.error + " (in proc \"" + def.name + "\")");
        } else {
          const std::size_t procs_before = proc_defs_.size();
          info.unit = cfg::build_unit(def.body, def.body_line, def.body_col,
                                      "proc " + def.name, diag_fn(),
                                      &proc_defs_);
          info.has_unit = true;
          for (std::size_t p = procs_before; p < proc_defs_.size(); ++p) {
            proc_sections_.push_back(section);
          }
          for (const cfg::CmdUse& u : info.unit.uses) {
            uses_.push_back({u.name, u.nargs, u.line, u.col, section});
          }
          for (const cfg::VarDef& d : cfg::all_defs(info.unit)) {
            info.scope.defs.try_emplace(d.name,
                                        DefSite{d.line, d.col, section});
          }
          for (const cfg::VarUse& r : cfg::all_reads(info.unit)) {
            info.scope.reads.push_back({r.name, r.line, r.col, r.required});
          }
          info.scope.globals = info.unit.globals;
          info.scope.dynamic = info.unit.dynamic;
        }
      }
      procs_.try_emplace(info.name, info.sig);
      proc_infos_.push_back(std::move(info));
    }
  }

  /// Globals each proc may write (through `global` aliases), closed over
  /// the call graph. A dynamic proc body (eval / computed names) writes
  /// the wildcard "*" — callers treat the whole environment as clobbered.
  void compute_proc_writes() {
    for (const ProcInfo& p : proc_infos_) {
      std::set<std::string>& w = proc_writes_[p.name];
      if (p.scope.dynamic) w.insert("*");
      for (const auto& [name, site] : p.scope.defs) {
        if (p.scope.globals.contains(name)) w.insert(name);
      }
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (const ProcInfo& p : proc_infos_) {
        if (!p.has_unit) continue;
        std::set<std::string>& w = proc_writes_[p.name];
        for (const cfg::CmdUse& u : p.unit.uses) {
          const auto it = proc_writes_.find(u.name);
          if (it == proc_writes_.end() || it->first == p.name) continue;
          for (const std::string& n : it->second) {
            changed = w.insert(n).second || changed;
          }
        }
      }
    }
    // Only keep entries for real procs — a builtin sharing a name with
    // nothing should not perturb the flow passes.
  }

  Scope& section_scope_by_name(const std::string& s) {
    if (s == kSetup) return setup_;
    if (s == kSend) return send_;
    return receive_;
  }

  const cfg::Unit* section_unit(const char* section) const {
    for (const SectionUnit& su : units_) {
      if (su.section == section) return &su.unit;
    }
    return nullptr;
  }

  /// Run the flow-sensitive passes on every unit. Filters see setup's
  /// definitions (and proc-written globals) as maybe-assigned entry state;
  /// their own state persists across invocations, so a missed assignment
  /// is only a first-invocation hazard there (warning, not error).
  void run_flow() {
    flow::Env base;
    base.loop_budget = opts_.loop_budget;
    base.folder = &folder_;
    base.proc_writes = &proc_writes_;

    std::set<std::string> setup_defs;
    const cfg::Unit* setup_u = section_unit(kSetup);
    bool setup_dynamic = false;
    if (setup_u != nullptr) {
      for (const cfg::VarDef& d : cfg::all_defs(*setup_u)) {
        setup_defs.insert(d.name);
      }
      setup_dynamic = setup_u->dynamic;
    }
    for (const auto& [proc, writes] : proc_writes_) {
      for (const std::string& n : writes) {
        if (n != "*") setup_defs.insert(n);
      }
    }

    for (const SectionUnit& su : units_) {
      flow::Env env = base;
      if (su.section != kSetup) {
        env.entry_defs = setup_defs;
        env.persistent = true;
        env.check_use_before_def = !setup_dynamic;
      }
      flow::analyze(su.unit, env, diag_fn());
    }
    for (const ProcInfo& p : proc_infos_) {
      if (!p.has_unit) continue;
      flow::Env env = base;
      for (const cfg::VarDef& d : p.params) env.entry_defs.insert(d.name);
      flow::analyze(p.unit, env, diag_fn());
    }
  }

  // -- resolution (v1 semantics, over unit summaries) ------------------------

  void resolve_procs() {
    for (const ProcInfo& p : proc_infos_) {
      for (const auto& [name, site] : p.scope.defs) {
        if (p.scope.globals.contains(name)) {
          // Writes through a `global` alias define the interp's global.
          section_scope_by_name(site.section).defs.try_emplace(name, site);
        }
      }
      for (const ReadSite& r : p.scope.reads) {
        if (p.scope.defs.contains(r.name)) continue;
        if (p.scope.globals.contains(r.name)) {
          global_reads_.push_back(r);
          continue;
        }
        if (p.scope.dynamic) continue;
        if (!r.required) continue;
        diag(Severity::kError, "undefined-var", r.line, r.col,
             "\"" + r.name + "\" is read but never set in this proc",
             "add `global " + r.name + "` or set it first");
      }
    }
  }

  void resolve_commands() {
    for (const CmdUse& u : uses_) {
      // Script-defined procs win over builtins, and a proc defined in any
      // section is accepted everywhere: setup runs in both interpreters
      // and flow-insensitivity can't order cross-section definitions.
      if (const auto p = procs_.find(u.name); p != procs_.end()) {
        check_arity(u, p->second.min_args, p->second.max_args,
                    "proc \"" + u.name + "\"");
        continue;
      }
      const RegisteredCommand* sig = find_command(u.name);
      const bool allowed =
          sig != nullptr &&
          (sig->origin == Origin::kCore ||
           (sig->origin == Origin::kFilter && opts_.filter_commands) ||
           (sig->origin == Origin::kDriver && opts_.driver_commands));
      if (!allowed) {
        diag(Severity::kError, "unknown-command", u.line, u.col,
             "invalid command name \"" + u.name + "\"", suggest(u.name));
        continue;
      }
      check_arity(u, sig->min_args, sig->max_args,
                  "usage: " + std::string{sig->usage});
    }
  }

  void check_arity(const CmdUse& u, int min_args, int max_args,
                   const std::string& hint) {
    if (u.nargs < min_args || (max_args >= 0 && u.nargs > max_args)) {
      diag(Severity::kError, "bad-arity", u.line, u.col,
           "wrong # args for \"" + u.name + "\" (got " +
               std::to_string(u.nargs) + ")",
           hint);
    }
  }

  std::string suggest(const std::string& name) {
    std::string best;
    int best_d = 3;
    for (const RegisteredCommand& sig : builtin_registry()) {
      const int d = edit_distance(name, sig.name);
      if (d < best_d) {
        best_d = d;
        best = sig.name;
      }
    }
    for (const auto& [pname, _] : procs_) {
      const int d = edit_distance(name, pname);
      if (d < best_d) {
        best_d = d;
        best = pname;
      }
    }
    return best.empty() ? std::string{} : "did you mean \"" + best + "\"?";
  }

  Scope summarize(const char* section) {
    Scope s;
    const cfg::Unit* u = section_unit(section);
    if (u == nullptr) return s;
    for (const cfg::VarDef& d : cfg::all_defs(*u)) {
      s.defs.try_emplace(d.name, DefSite{d.line, d.col, section});
    }
    for (const cfg::VarUse& r : cfg::all_reads(*u)) {
      s.reads.push_back({r.name, r.line, r.col, r.required});
    }
    s.dynamic = u->dynamic;
    return s;
  }

  void resolve_reads() {
    // Interpreter visibility: setup is evaluated in both the send and the
    // receive interpreter, then each filter runs in its own. Reads are
    // checked against what their interpreter could ever hold.
    const auto check = [this](const Scope& scope,
                              std::initializer_list<const Scope*> visible,
                              bool suppressed) {
      if (suppressed) return;
      for (const ReadSite& r : scope.reads) {
        if (!r.required) continue;
        bool found = false;
        for (const Scope* v : visible) {
          if (v->defs.contains(r.name)) {
            found = true;
            break;
          }
        }
        if (!found) {
          diag(Severity::kError, "undefined-var", r.line, r.col,
               "\"" + r.name + "\" is read but never set",
               "set it in #%setup (it runs in both interpreters)");
        }
      }
    };
    check(setup_, {&setup_}, setup_.dynamic);
    check(send_, {&setup_, &send_}, setup_.dynamic || send_.dynamic);
    check(receive_, {&setup_, &receive_},
          setup_.dynamic || receive_.dynamic);

    const bool any_dynamic =
        setup_.dynamic || send_.dynamic || receive_.dynamic;
    for (const ReadSite& r : global_reads_) {
      if (any_dynamic) break;
      if (!r.required) continue;
      if (setup_.defs.contains(r.name) || send_.defs.contains(r.name) ||
          receive_.defs.contains(r.name)) {
        continue;
      }
      diag(Severity::kError, "undefined-var", r.line, r.col,
           "global \"" + r.name + "\" is read but never set in any section");
    }
  }

  void resolve_unused() {
    if (setup_.dynamic || send_.dynamic || receive_.dynamic) return;
    std::set<std::string> used;
    const auto collect = [&used](const Scope& s) {
      for (const ReadSite& r : s.reads) used.insert(r.name);
    };
    collect(setup_);
    collect(send_);
    collect(receive_);
    for (const ProcInfo& p : proc_infos_) {
      collect(p.scope);
      for (const std::string& g : p.scope.globals) used.insert(g);
    }
    for (const ReadSite& r : global_reads_) used.insert(r.name);

    // One report per name: a variable defined in several scopes (set in
    // setup, incr'd in receive) is still one unused variable.
    std::map<std::string, DefSite> unused;
    const auto sweep = [&](const Scope& s) {
      for (const auto& [name, site] : s.defs) {
        if (!used.contains(name)) unused.try_emplace(name, site);
      }
    };
    sweep(setup_);
    sweep(send_);
    sweep(receive_);
    for (const auto& [name, site] : unused) {
      diag(Severity::kWarning, "unused-var", site.line, site.col,
           "\"" + name + "\" is set but never read");
    }
  }

  /// A proc nothing ever calls. A dynamic scope anywhere could call it
  /// through a computed name, so the check stands down entirely then.
  void resolve_unused_procs() {
    if (setup_.dynamic || send_.dynamic || receive_.dynamic) return;
    for (const ProcInfo& p : proc_infos_) {
      if (p.scope.dynamic) return;
    }
    std::set<std::string> called;
    for (const CmdUse& u : uses_) called.insert(u.name);
    std::set<std::string> reported;
    for (const ProcInfo& p : proc_infos_) {
      if (called.contains(p.name)) continue;
      if (!reported.insert(p.name).second) continue;
      diag(Severity::kWarning, "unused-proc", p.line, p.col,
           "proc \"" + p.name + "\" is defined but never called");
    }
  }

  // NOTE: `uses_` includes the proc's own body, so a self-recursive proc
  // counts as called; docs/LINT.md documents the limitation.

  const Options& opts_;
  std::string file_;
  Suppressions* supp_;
  std::vector<Diagnostic>* out_;

  std::vector<SectionUnit> units_;
  std::vector<cfg::ProcDef> proc_defs_;
  std::vector<std::string> proc_sections_;  // parallel to proc_defs_
  std::vector<ProcInfo> proc_infos_;
  std::map<std::string, std::set<std::string>> proc_writes_;

  Scope setup_;
  Scope send_;
  Scope receive_;
  std::vector<ReadSite> global_reads_;
  std::map<std::string, ProcSig> procs_;
  std::vector<CmdUse> uses_;
  script::Interp folder_;  // private engine for constant-folding guards

 public:
  void summarize_sections() {
    setup_ = summarize(kSetup);
    send_ = summarize(kSend);
    receive_ = summarize(kReceive);
  }
};

// ---------------------------------------------------------------------------
// Spec / schedule helpers
// ---------------------------------------------------------------------------

/// 1-based line of the first line containing `token`; 0 when absent.
int line_of_token(const std::string& text, const std::string& token) {
  if (text.empty() || token.empty()) return 0;
  std::istringstream is{text};
  std::string line;
  int n = 0;
  while (std::getline(is, line)) {
    ++n;
    if (line.find(token) != std::string::npos) return n;
  }
  return 0;
}

bool file_readable(const std::string& path) {
  std::ifstream in{path};
  return static_cast<bool>(in);
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string dirname_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string{} : path.substr(0, slash);
}

void emit(std::vector<Diagnostic>* out, Suppressions* supp, Severity sev,
          const char* rule, const std::string& file, int line,
          std::string message, std::string hint = {}) {
  if (supp != nullptr && supp->allow(rule, line)) return;
  out->push_back(
      {sev, rule, file, line, 0, std::move(message), std::move(hint)});
}

void check_schedule_into(const campaign::FaultSchedule& sched,
                         const std::string& protocol,
                         const std::string& context, Suppressions* supp,
                         std::vector<Diagnostic>* out) {
  using core::scriptgen::FaultKind;
  if (sched.empty()) {
    emit(out, supp, Severity::kWarning, "empty-schedule", context, 0,
         "fault schedule has no events; the cell is a plain baseline run");
    return;
  }
  const auto& types = protocol_message_types(protocol);

  for (const campaign::FaultEvent& e : sched.events) {
    const std::string what = e.summary();
    if (!types.empty() &&
        std::find(types.begin(), types.end(), e.type) == types.end()) {
      emit(out, supp, Severity::kWarning, "unknown-message-type", context, 0,
           "message type \"" + e.type + "\" is not produced by the " +
               protocol + " stub; the fault can never fire");
    }
    if (e.occurrence < 1) {
      emit(out, supp, Severity::kError, "bad-occurrence", context, 0,
           "occurrence " + std::to_string(e.occurrence) + " of \"" + e.type +
               "\" can never match (occurrences are 1-based)");
    }
    if (e.kind == FaultKind::kDelay && e.delay <= 0) {
      emit(out, supp, Severity::kWarning, "no-op-fault", context, 0,
           "delay fault on \"" + e.type + "\" has a non-positive delay");
    }
    if (e.kind == FaultKind::kDuplicate && e.copies < 1) {
      emit(out, supp, Severity::kWarning, "no-op-fault", context, 0,
           "duplicate fault on \"" + e.type + "\" makes " +
               std::to_string(e.copies) + " copies");
    }
    if (e.kind == FaultKind::kReorder && e.batch < 2) {
      emit(out, supp, Severity::kWarning, "degenerate-reorder", context, 0,
           "reorder window on \"" + e.type + "\" holds fewer than 2 "
           "messages; releasing it reversed is the identity");
    }
  }

  // Cross-event conflicts on the same (type, side).
  for (std::size_t i = 0; i < sched.events.size(); ++i) {
    const auto& a = sched.events[i];
    for (std::size_t j = i + 1; j < sched.events.size(); ++j) {
      const auto& b = sched.events[j];
      if (a.type != b.type || a.on_send != b.on_send) continue;
      const bool same_occ = a.occurrence == b.occurrence &&
                            a.kind != FaultKind::kReorder &&
                            b.kind != FaultKind::kReorder;
      if (same_occ && a.kind == b.kind) {
        emit(out, supp, Severity::kWarning, "duplicate-event", context, 0,
             "events " + std::to_string(i) + " and " + std::to_string(j) +
                 " are identical (" + a.summary() + ")");
        continue;
      }
      if (same_occ &&
          (a.kind == FaultKind::kDrop || b.kind == FaultKind::kDrop)) {
        const auto& other = a.kind == FaultKind::kDrop ? b : a;
        emit(out, supp, Severity::kError, "conflicting-faults", context, 0,
             "occurrence " + std::to_string(a.occurrence) + " of \"" +
                 a.type + "\" is dropped and also targeted by `" +
                 other.summary() + "`; a dropped message cannot be faulted "
                 "again");
      }
      // Reorder windows hold [occurrence, occurrence + batch - 1].
      const auto window = [](const campaign::FaultEvent& e) {
        return std::pair<int, int>{e.occurrence,
                                   e.occurrence + std::max(e.batch, 2) - 1};
      };
      if (a.kind == FaultKind::kReorder && b.kind == FaultKind::kReorder) {
        const auto [a0, a1] = window(a);
        const auto [b0, b1] = window(b);
        if (a0 <= b1 && b0 <= a1) {
          emit(out, supp, Severity::kError, "overlapping-windows", context, 0,
               "reorder windows [" + std::to_string(a0) + "," +
                   std::to_string(a1) + "] and [" + std::to_string(b0) + "," +
                   std::to_string(b1) + "] on \"" + a.type +
                   "\" overlap; a message cannot sit in two hold queues");
        }
      } else if (a.kind == FaultKind::kReorder ||
                 b.kind == FaultKind::kReorder) {
        const auto& re = a.kind == FaultKind::kReorder ? a : b;
        const auto& other = a.kind == FaultKind::kReorder ? b : a;
        const auto [w0, w1] = window(re);
        if (other.occurrence >= w0 && other.occurrence <= w1) {
          emit(out, supp, Severity::kError, "conflicting-faults", context, 0,
               "occurrence " + std::to_string(other.occurrence) + " of \"" +
                   other.type + "\" (" + other.summary() +
                   ") falls inside the reorder hold window [" +
                   std::to_string(w0) + "," + std::to_string(w1) + "]");
        }
      }
    }
  }

  // Cross-side shadowing: the interval solver over the schedule's windows.
  for (const Diagnostic& d : shadowed_faults(sched, context)) {
    emit(out, supp, d.severity, d.rule.c_str(), d.file, d.line, d.message,
         d.hint);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

std::vector<Diagnostic> check_script(const std::string& contents,
                                     const std::string& file,
                                     const Options& opts) {
  std::vector<Diagnostic> out;
  Suppressions supp = collect_suppressions(contents);
  Analyzer an{opts, file, &supp, &out};
  const core::ScriptFile sections = core::parse_script_sections(contents);
  if (!sections.setup.empty()) {
    an.analyze_section(sections.setup, sections.setup_line, kSetup);
  }
  if (!sections.send.empty()) {
    an.analyze_section(sections.send, sections.send_line, kSend);
  }
  if (!sections.receive.empty()) {
    an.analyze_section(sections.receive, sections.receive_line, kReceive);
  }
  an.summarize_sections();
  an.finish();
  report_unused_suppressions(supp, file, &out);
  sort_diagnostics(&out);
  return out;
}

std::vector<Diagnostic> check_schedule(const campaign::FaultSchedule& sched,
                                       const std::string& protocol,
                                       const std::string& context) {
  std::vector<Diagnostic> out;
  check_schedule_into(sched, protocol, context, nullptr, &out);
  sort_diagnostics(&out);
  return out;
}

std::vector<Diagnostic> check_spec(const campaign::CampaignSpec& spec,
                                   const std::string& file,
                                   const std::string& text,
                                   const Options& opts) {
  using core::scriptgen::FaultKind;
  std::vector<Diagnostic> out;
  Suppressions supp = collect_suppressions(text);

  const auto& oracles = protocol_oracles(spec.protocol);
  if (oracles.empty()) {
    emit(&out, &supp, Severity::kError, "bad-protocol", file,
         line_of_token(text, "protocol"),
         "unknown protocol \"" + spec.protocol + "\"");
  } else if (!spec.oracle.empty() &&
             std::find(oracles.begin(), oracles.end(), spec.oracle) ==
                 oracles.end()) {
    std::string known;
    for (const auto& o : oracles) {
      if (!known.empty()) known += " | ";
      known += o;
    }
    emit(&out, &supp, Severity::kError, "bad-oracle", file,
         line_of_token(text, "oracle"),
         "oracle \"" + spec.oracle + "\" is not valid for protocol " +
             spec.protocol,
         "valid: " + known);
  }

  if (!spec.scenario.empty()) {
    // Mirrors known_scenario() in src/campaign/runner.cpp: scenarios are a
    // tcp driver axis; other protocols only run their fixed workload.
    const auto& scen = conformance::known_scenarios();
    if (spec.protocol != "tcp" ||
        std::find(scen.begin(), scen.end(), spec.scenario) == scen.end()) {
      std::string known;
      for (const auto& s : scen) {
        if (!known.empty()) known += " | ";
        known += s;
      }
      emit(&out, &supp, Severity::kError, "bad-scenario", file,
           line_of_token(text, "scenario"),
           "scenario \"" + spec.scenario + "\" is not valid for protocol " +
               spec.protocol,
           "valid (tcp only): " + known);
    }
  }

  const auto& types = protocol_message_types(spec.protocol);
  for (const std::string& t : spec.types) {
    if (!types.empty() &&
        std::find(types.begin(), types.end(), t) == types.end()) {
      emit(&out, &supp, Severity::kWarning, "unknown-message-type", file,
           line_of_token(text, t),
           "message type \"" + t + "\" is not produced by the " +
               spec.protocol + " stub; its cells can never inject");
    }
  }

  if (spec.duration > 0 && spec.warmup >= spec.duration) {
    emit(&out, &supp, Severity::kError, "empty-fault-window", file,
         line_of_token(text, "warmup"),
         "faults install after warmup (" +
             std::to_string(sim::to_seconds(spec.warmup)) +
             "s) but the run ends at " +
             std::to_string(sim::to_seconds(spec.duration)) +
             "s; no fault can ever fire");
  }
  if (spec.first_occurrence < 1) {
    emit(&out, &supp, Severity::kError, "bad-occurrence", file,
         line_of_token(text, "first_occurrence"),
         "first_occurrence " + std::to_string(spec.first_occurrence) +
             " can never match (occurrences are 1-based)");
  }
  if (spec.burst < 1) {
    emit(&out, &supp, Severity::kError, "bad-occurrence", file,
         line_of_token(text, "burst"),
         "burst " + std::to_string(spec.burst) + " plans zero fault events");
  }
  if (spec.nodes < 1 || spec.target_node < 0 ||
      spec.target_node >= spec.nodes) {
    emit(&out, &supp, Severity::kError, "bad-target", file,
         line_of_token(text, "target_node"),
         "target_node " + std::to_string(spec.target_node) +
             " is outside the cluster (nodes=" + std::to_string(spec.nodes) +
             ")");
  }
  if (std::find(spec.faults.begin(), spec.faults.end(), FaultKind::kDelay) !=
          spec.faults.end() &&
      spec.delay <= 0) {
    emit(&out, &supp, Severity::kWarning, "no-op-fault", file,
         line_of_token(text, "delay"),
         "delay faults are planned with a non-positive delay");
  }

  // Script-mode: resolve each referenced script (as the runner would —
  // relative to the process CWD — falling back to the spec's directory)
  // and lint it.
  const std::string spec_dir = dirname_of(file);
  for (const std::string& s : spec.script_files) {
    std::string resolved = s;
    if (!file_readable(resolved)) {
      const std::string alt =
          spec_dir.empty() ? s : spec_dir + "/" + s;
      if (!spec_dir.empty() && file_readable(alt)) {
        emit(&out, &supp, Severity::kWarning, "script-path", file,
             line_of_token(text, s),
             "script \"" + s + "\" resolves relative to the process working "
             "directory, not the spec file; found it next to the spec",
             "run the campaign from the directory the path expects");
        resolved = alt;
      } else {
        emit(&out, &supp, Severity::kError, "missing-script", file,
             line_of_token(text, s), "script \"" + s + "\" not found");
        continue;
      }
    }
    if (const auto contents = read_file(resolved)) {
      auto sub = check_script(*contents, s, opts);
      out.insert(out.end(), sub.begin(), sub.end());
    }
  }

  report_unused_suppressions(supp, file, &out);
  sort_diagnostics(&out);
  return out;
}

std::vector<Diagnostic> check_spec_text(const std::string& text,
                                        const std::string& file,
                                        const Options& opts) {
  std::string err;
  const auto spec = campaign::parse_spec(text, &err);
  if (!spec) {
    // parse_spec errors read "line N: message".
    int line = 0;
    if (err.rfind("line ", 0) == 0) line = std::atoi(err.c_str() + 5);
    return {{Severity::kError, "parse-error", file, line, 0, err, {}}};
  }
  return check_spec(*spec, file, text, opts);
}

std::vector<Diagnostic> check_conformance(const std::string& text,
                                          const std::string& file,
                                          const Options& /*opts*/) {
  std::vector<Diagnostic> out;
  const auto prog = conformance::parse(text, file, &out);
  if (!prog) {
    sort_diagnostics(&out);
    return out;
  }
  Suppressions supp = collect_suppressions(text);

  const auto& types = protocol_message_types(prog->protocol);
  if (types.empty()) {
    emit(&out, &supp, Severity::kError, "bad-protocol", file,
         line_of_token(text, "protocol"),
         "unknown protocol \"" + prog->protocol + "\"");
  }

  const auto fmt_s = [](sim::TimePoint t) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", sim::to_seconds(t));
    return std::string(buf);
  };
  const auto collides = [](const std::string& a, const std::string& b) {
    return a == "*" || b == "*" || a == b;
  };

  for (const conformance::Step& s : prog->steps) {
    if (!types.empty() && s.pattern != "*" &&
        std::find(types.begin(), types.end(), s.pattern) == types.end()) {
      emit(&out, &supp, Severity::kWarning, "unknown-message-type", file,
           s.line,
           "message type \"" + s.pattern + "\" is not produced by the " +
               prog->protocol + " stub; the step can never match");
    }
    if (s.kind == conformance::StepKind::kInject) {
      if (s.at >= prog->duration) {
        emit(&out, &supp, Severity::kError, "dead-timeline", file, s.line,
             "inject window opens at " + fmt_s(s.at) +
                 "s but the run ends at " + fmt_s(prog->duration) +
                 "s; the fault can never fire");
      } else if (s.window >= 0 &&
                 (s.at + s.window) / sim::kMillisecond <=
                     s.at / sim::kMillisecond) {
        // The compiled guards are over now_ms, so a window narrower than
        // the 1 ms guard granularity is open for zero whole milliseconds.
        emit(&out, &supp, Severity::kError, "dead-timeline", file, s.line,
             "inject window is narrower than the 1 ms guard granularity; "
             "the fault can never fire",
             "widen `for` to at least 1ms");
      }
      continue;
    }
    // expect / expect-no
    if (s.at > prog->duration) {
      emit(&out, &supp, Severity::kError, "unreachable-expect", file, s.line,
           std::string(conformance::to_string(s.kind)) +
               " window opens at " + fmt_s(s.at) + "s but the run ends at " +
               fmt_s(prog->duration) + "s; it can never observe anything");
      continue;
    }
    if (s.kind == conformance::StepKind::kExpect) {
      // A .pdt reads top-down in time, packetdrill-style. An expect
      // written AFTER an inject of a colliding type — so the author tied
      // it to the fault — whose window nevertheless closes before every
      // such inject opens is mis-ordered: it can only observe pre-fault
      // traffic. (Baseline expects written before their injects are fine.)
      bool any_collision = false;
      bool reachable = false;
      for (const conformance::Step& j : prog->steps) {
        if (j.kind != conformance::StepKind::kInject) continue;
        if (j.line >= s.line) break;  // only injects earlier in the file
        if (!collides(s.pattern, j.pattern)) continue;
        any_collision = true;
        if (j.at <= s.window_end(prog->duration)) reachable = true;
      }
      if (any_collision && !reachable) {
        emit(&out, &supp, Severity::kWarning, "expect-before-inject", file,
             s.line,
             "expect of a faulted type completes before any colliding "
             "inject window opens; it can only observe pre-fault traffic",
             "move the expect after the inject opens, or re-time it");
      }
    }
  }

  report_unused_suppressions(supp, file, &out);
  sort_diagnostics(&out);
  return out;
}

std::vector<Diagnostic> check_cell(const campaign::RunCell& cell,
                                   const Options& opts) {
  std::vector<Diagnostic> out;

  if (protocol_oracles(cell.protocol).empty()) {
    emit(&out, nullptr, Severity::kError, "bad-protocol", cell.id, 0,
         "unknown protocol \"" + cell.protocol + "\"");
  } else if (!cell.oracle.empty()) {
    const auto& oracles = protocol_oracles(cell.protocol);
    if (std::find(oracles.begin(), oracles.end(), cell.oracle) ==
        oracles.end()) {
      emit(&out, nullptr, Severity::kError, "bad-oracle", cell.id, 0,
           "oracle \"" + cell.oracle + "\" is not valid for protocol " +
               cell.protocol);
    }
  }
  if (!cell.scenario.empty()) {
    const auto& scen = conformance::known_scenarios();
    if (cell.protocol != "tcp" ||
        std::find(scen.begin(), scen.end(), cell.scenario) == scen.end()) {
      emit(&out, nullptr, Severity::kError, "bad-scenario", cell.id, 0,
           "scenario \"" + cell.scenario + "\" is not valid for protocol " +
               cell.protocol);
    }
  }
  if (cell.duration > 0 && cell.warmup >= cell.duration) {
    emit(&out, nullptr, Severity::kError, "empty-fault-window", cell.id, 0,
         "faults install after warmup (" +
             std::to_string(sim::to_seconds(cell.warmup)) +
             "s) but the run ends at " +
             std::to_string(sim::to_seconds(cell.duration)) + "s");
  }

  if (!cell.conform_file.empty()) {
    // Conformance cells compile their scripts from the .pdt, so the
    // timeline is the thing to lint; script_file/schedule are ignored by
    // the runner for these cells.
    if (const auto contents = read_file(cell.conform_file)) {
      auto sub = check_conformance(*contents, cell.conform_file, opts);
      out.insert(out.end(), sub.begin(), sub.end());
    } else {
      emit(&out, nullptr, Severity::kError, "missing-script", cell.id, 0,
           "conformance timeline \"" + cell.conform_file + "\" not found");
    }
  } else if (cell.oracle == "conformance") {
    emit(&out, nullptr, Severity::kError, "bad-oracle", cell.id, 0,
         "conformance oracle requires a .pdt timeline (conform_file)");
  } else if (!cell.script_file.empty()) {
    if (const auto contents = read_file(cell.script_file)) {
      auto sub = check_script(*contents, cell.script_file, opts);
      out.insert(out.end(), sub.begin(), sub.end());
    } else {
      emit(&out, nullptr, Severity::kError, "missing-script", cell.id, 0,
           "script \"" + cell.script_file + "\" not found");
    }
  } else {
    check_schedule_into(cell.schedule, cell.protocol, cell.id, nullptr, &out);
  }

  sort_diagnostics(&out);
  return out;
}

campaign::RunResult lint_error_result(
    const campaign::RunCell& cell, const std::vector<Diagnostic>& diags) {
  // Same skeleton as the runner's timeout records: a pure function of the
  // cell and its (deterministic, sorted) diagnostics — byte-identical
  // whatever --jobs or --isolate was.
  campaign::RunResult r;
  r.index = cell.index;
  r.id = cell.id;
  r.oracle = cell.oracle;
  r.seed = cell.seed;
  r.sim_seconds = sim::to_seconds(cell.duration);

  const Diagnostic* pick = nullptr;
  for (const Diagnostic& d : diags) {
    if (d.severity == Severity::kError) {
      pick = &d;
      break;
    }
  }
  if (pick == nullptr && !diags.empty()) pick = &diags.front();

  std::string msg = "lint: ";
  if (pick != nullptr) {
    msg += "[" + pick->rule + "] ";
    if (pick->line > 0) msg += "line " + std::to_string(pick->line) + ": ";
    msg += pick->message;
    if (diags.size() > 1) {
      msg += " (+" + std::to_string(diags.size() - 1) + " more)";
    }
  } else {
    msg += "failed";
  }
  r.error = std::move(msg);
  return r;
}

std::string diagnostics_json(const std::vector<Diagnostic>& diags) {
  campaign::json::Writer w;
  int errors = 0;
  int warnings = 0;
  w.begin_object();
  w.key("diagnostics").begin_array();
  for (const Diagnostic& d : diags) {
    (d.severity == Severity::kError ? errors : warnings) += 1;
    w.begin_object();
    w.kv("file", d.file);
    w.kv("line", d.line);
    w.kv("col", d.col);
    w.kv("severity", to_string(d.severity));
    w.kv("rule", d.rule);
    w.kv("message", d.message);
    if (!d.hint.empty()) w.kv("hint", d.hint);
    w.end_object();
  }
  w.end_array();
  w.kv("errors", errors);
  w.kv("warnings", warnings);
  w.end_object();
  return w.str();
}

}  // namespace pfi::lint
