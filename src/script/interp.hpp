// A from-scratch interpreter for a Tcl subset.
//
// The paper argues (§2.3) that the right scripting vehicle is "a popular
// interpreted language with a collection of predefined libraries" and picks
// Tcl: the PFI tool evaluates a *send filter* script and a *receive filter*
// script inside persistent interpreter objects, and C-coded commands are
// linked into the interpreter for message operations. This module
// reproduces that surface without an external Tcl dependency:
//
//   * Tcl syntax: command words; `$var`/`${var}` substitution; `[...]`
//     command substitution; `{...}` literal braces; `"..."` quoting;
//     backslash escapes; `#` comments; `;`/newline separators.
//   * Core commands: set/unset/incr/append, expr, if/elseif/else, while,
//     for, foreach, break/continue/return, proc+global, catch/error, eval,
//     puts, string ops (incl. glob `string match`), list ops, format, info.
//   * Host commands: a host's static table (the PFI layer's, the driver's),
//     given at construction — the paper's "user-defined procedures written
//     in C and linked into the tool".
//
// Every command, core, host or proc, carries its signature (CommandSig).
// The interpreter enforces the argument count before the command runs, and
// pfi_lint reads the same signatures, so the two agree on every argument
// count.
//
// Interpreter state (variables, procs) persists across eval() calls, so a
// filter script can keep counters across messages, exactly as §3 describes.
//
// Evaluation model: a script text is compiled once per interpreter and the
// compiled form is evaluated on every call. compile() parses the text with
// the one Tcl parser (parse.hpp) and keeps the result in a cache by text,
// bounded by kParseCacheCapacity; eval(text) looks the text up there, and a
// host that runs one text often (PfiLayer's filters) holds the Program
// instead, so a message costs no hashing of the text. The compiled form
// fills in on first use and is then only read:
//   * a command whose name is literal resolves it once; the resolution is
//     re-checked against a generation that every register_command bumps;
//   * every literal body and condition that `if`, `while`, `for`,
//     `foreach`, `catch` and `expr` evaluate keeps its parse or its compiled
//     expression (expr.hpp) on its word, so running it copies and hashes no
//     text. Texts built at run time (`eval`, `expr $a + 1`) are compiled
//     each time into reused storage, not cached as expressions.
// A name resolves through the registered commands (procs, register_command)
// first, then the host table, then the core table; the two tables are
// static, so building an interpreter registers nothing. Every evaluation
// still reads variables and commands afresh. A syntax error surfaces at the
// failing command: the commands before it, and the `[...]` substitutions
// the text reaches before it, run first.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "script/parse.hpp"

namespace pfi::script {

/// Tcl-style result codes. Error carries the message in `value`.
enum class Code { kOk, kError, kReturn, kBreak, kContinue };

struct Result {
  Code code = Code::kOk;
  std::string value;
  /// For errors: 1-based line of the top-level command (within the script
  /// text handed to the outermost eval()) that raised or propagated the
  /// error. 0 = unknown (e.g. results built outside eval). Each eval()
  /// level re-stamps, so the surviving value is relative to the script the
  /// caller actually passed in — a filter file, a setup section — which is
  /// what error reporting wants.
  int line = 0;

  static Result ok(std::string v = {}) { return {Code::kOk, std::move(v)}; }
  static Result error(std::string msg) {
    return {Code::kError, std::move(msg)};
  }
  [[nodiscard]] bool is_ok() const { return code == Code::kOk; }
  [[nodiscard]] bool is_error() const { return code == Code::kError; }
};

/// Tcl-style glob match (`*`, `?`, `[a-z]`).
bool glob_match(std::string_view pattern, std::string_view text);

/// A command's signature, declared once where the command is registered.
/// Builtin and host signatures are static data: views over string literals,
/// so registering copies no strings.
struct CommandSig {
  std::string_view name;
  int min_args = 0;        // arguments after the command word
  int max_args = -1;       // -1 = unbounded
  std::string_view usage;  // the text of wrong_args()
};

/// The one arity error: `wrong # args: should be "<usage>"`.
Result wrong_args(std::string_view usage);

/// What `proc name params body` registers, for `params` as parse_list
/// splits the parameter list. Follows Tcl: `args` is variadic only as the
/// last parameter, and every parameter up to the last one without a
/// default is required. pfi_lint computes proc arity with this too.
struct ProcSignature {
  int min_args = 0;
  int max_args = -1;  // -1 = a trailing `args`
  std::string usage;  // "name params"
};
ProcSignature proc_signature(std::string_view name,
                             const std::vector<std::string>& params);

/// Numeric/string value used by the expression engine; exposed for tests.
struct ExprValue {
  enum class Kind { kInt, kDouble, kString } kind = Kind::kInt;
  std::int64_t i = 0;
  double d = 0.0;
  std::string s;

  static ExprValue from_int(std::int64_t v);
  static ExprValue from_double(double v);
  static ExprValue from_string(std::string v);
  static ExprValue from_bool(bool b) { return from_int(b ? 1 : 0); }

  [[nodiscard]] bool is_numeric() const { return kind != Kind::kString; }
  [[nodiscard]] double as_double() const;
  [[nodiscard]] bool truthy() const;
  [[nodiscard]] std::string str() const;

  /// Parse a string into int/double/string (Tcl numeric rules, 0x hex ok).
  static ExprValue parse(std::string_view text);
  /// parse() into this value, reusing its string's storage.
  void set_parsed(std::string_view text);
};

class Interp;
class Expr;

/// The words of a table command's call, borrowed: a literal word's value
/// from its parse, a substituted one's from the word storage of the call's
/// depth. Valid for the call, across nested evaluations too.
class CallArgs {
 public:
  CallArgs(const std::string* const* words, std::size_t n,
           const parse::Command* cmd)
      : words_(words), n_(n), cmd_(cmd) {}

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] const std::string& operator[](std::size_t i) const {
    return *words_[i];
  }
  [[nodiscard]] const std::string& back() const { return *words_[n_ - 1]; }
  /// Copies of words [from, size()).
  [[nodiscard]] std::vector<std::string> tail(std::size_t from) const;
  /// Word i's parse when its value is literal (the place its compiled
  /// forms are kept), else null.
  [[nodiscard]] const parse::Word* literal_word(std::size_t i) const {
    return cmd_ != nullptr && cmd_->words[i].literal() ? &cmd_->words[i]
                                                       : nullptr;
  }

 private:
  const std::string* const* words_;
  std::size_t n_;
  const parse::Command* cmd_;
};

/// What a command name is bound to: a core or host command from a static
/// table, or a registered command or proc.
struct Binding {
  using Builtin = Result (*)(Interp&, const CallArgs&);
  using Command =
      std::function<Result(Interp&, const std::vector<std::string>&)>;

  CommandSig sig;
  Builtin builtin = nullptr;
  Command fn;  // when builtin is null
};

/// One row of a static command table.
struct CommandDef {
  CommandSig sig;
  Binding::Builtin fn;
};

/// `defs` as bindings sorted by name: a table's owner builds it once, into
/// a function-local static.
std::vector<Binding> command_table(std::span<const CommandDef> defs);

/// The core commands, sorted by name: one static table that every
/// interpreter falls back to for a name it resolves nowhere else.
std::span<const Binding> core_commands();

class Interp {
 public:
  using Command = Binding::Command;
  /// A compiled script text; see compile().
  using Program = std::shared_ptr<const parse::Script>;

  /// Intrinsic execution counters, always on (each is one integer add on an
  /// already-expensive path). A campaign exports them per cell into the
  /// metrics registry: eval volume and loop-guard ticks are the observable
  /// "how hard did the filter scripts work" signal.
  struct Stats {
    std::uint64_t evals = 0;             // eval() entries (incl. nested)
    std::uint64_t commands = 0;          // command dispatches
    std::uint64_t loop_ticks = 0;        // while/for/foreach iterations
    std::uint64_t watchdog_probes = 0;   // watchdog_tripped() samples
  };

  /// `host_commands` is a host's static table, sorted by name (see
  /// command_table); `host` is what its commands read back through host().
  explicit Interp(std::span<const Binding> host_commands = {},
                  void* host = nullptr);
  ~Interp();
  Interp(const Interp&) = delete;
  Interp& operator=(const Interp&) = delete;

  /// Evaluate a script (sequence of commands). Break/Continue escaping a
  /// top-level script are reported as errors by callers that care.
  Result eval(std::string_view script);
  /// The compiled form of `script`, from the parse cache. Holding it keeps
  /// it alive past the cache's eviction; eval(program) runs it without
  /// looking the text up.
  [[nodiscard]] Program compile(std::string_view script);
  /// Evaluate a compiled script. The caller keeps `program` alive.
  Result eval(const Program& program) { return eval_script(*program); }

  /// Evaluate an expression string (the `expr` engine). Performs its own
  /// `$`/`[...]` substitution, like Tcl's expr on braced arguments.
  Result eval_expr(std::string_view expr);

  /// Bind `fn` to sig.name in this interpreter, in front of any binding of
  /// that name (a host or core command's included). The interpreter fails
  /// a call whose argument count is outside [sig.min_args, sig.max_args]
  /// with wrong_args(sig.usage) before `fn` runs, so `fn` checks only what
  /// a count cannot express. The signature's views must outlive the
  /// binding. For procs and embedders; a host's commands are its table.
  void register_command(const CommandSig& sig, Command fn);
  [[nodiscard]] std::vector<std::string> command_names() const;
  /// Each name's signature as a call resolves it, sorted by name.
  [[nodiscard]] std::vector<CommandSig> signatures() const;

  /// The host pointer given at construction (null for a bare interpreter).
  [[nodiscard]] void* host() const { return host_; }

  /// Variable access in the *current* frame (global frame between evals).
  [[nodiscard]] std::optional<std::string> get_var(
      const std::string& name) const;
  void set_var(const std::string& name, std::string value);
  bool unset_var(const std::string& name);
  /// All variable names visible in the current frame (array elements are
  /// stored as "name(key)" entries).
  [[nodiscard]] std::vector<std::string> var_names() const;

  /// Variable access that always targets the global frame — used by the PFI
  /// layer's cross-interpreter state sharing (send filter pokes a variable
  /// in the receive filter's interpreter and vice versa, §3).
  [[nodiscard]] std::optional<std::string> get_global(
      const std::string& name) const;
  void set_global(const std::string& name, std::string value);

  /// Everything `puts` wrote since the last take_output().
  [[nodiscard]] const std::string& output() const { return output_; }
  std::string take_output();

  /// Recursion / runaway-loop guards.
  void set_max_depth(int depth) { max_depth_ = depth; }
  void set_max_loop_iterations(std::uint64_t n) { max_loop_iters_ = n; }
  [[nodiscard]] std::uint64_t max_loop_iterations() const {
    return max_loop_iters_;
  }

  /// External execution watchdog. The callback is sampled during command
  /// dispatch and on every loop iteration (at a stride, so the common case
  /// costs one counter increment); once it returns true the interpreter
  /// aborts every evaluation with a "watchdog" error until the callback is
  /// replaced. This is how a campaign wall-clock budget reaches a script
  /// that spins inside one filter invocation and therefore never returns
  /// to the scheduler.
  void set_watchdog(std::function<bool()> cb) {
    watchdog_ = std::move(cb);
    watchdog_tripped_cache_ = false;
  }
  /// True once the watchdog has fired (sampled; sticky until reset).
  [[nodiscard]] bool watchdog_tripped() {
    if (watchdog_tripped_cache_) return true;
    if (!watchdog_) return false;
    if ((++watchdog_probe_ & 0xFFu) != 0) return false;
    ++stats_.watchdog_probes;
    watchdog_tripped_cache_ = watchdog_();
    return watchdog_tripped_cache_;
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Distinct script texts whose compiled form is kept; reaching it empties
  /// the cache, so generated texts (`eval "set x $i"` in a loop) stay
  /// bounded.
  static constexpr std::size_t kParseCacheCapacity = 256;
  [[nodiscard]] std::size_t parse_cache_size() const {
    return parse_cache_.size();
  }

  /// Loop builtins report each iteration (one add; the guard check already
  /// pays a comparison there).
  void note_loop_tick() { ++stats_.loop_ticks; }

  // --- internals shared with builtins (public for the command library) ---
  struct Frame {
    std::map<std::string, std::string> vars;
    std::set<std::string> globals;  // names aliased to the global frame
  };
  /// Append the value of a word's `parts` to `out`, reading variables and
  /// running `[...]` bodies (positions in `nested`). Returns only errors.
  Result substitute(const std::vector<parse::Part>& parts,
                    const std::vector<parse::Script>& nested,
                    std::string& out);
  /// Word i of a table command's call as a script: a literal word's body
  /// parsed once and kept on the word, any other word through the cache.
  [[nodiscard]] Program word_program(const CallArgs& a, std::size_t i);
  Result eval_word(const CallArgs& a, std::size_t i);
  /// Word i as an `expr` argument / as an if, while or for condition: a
  /// literal word through the expression compiled once and kept on it.
  Result eval_expr_word(const CallArgs& a, std::size_t i);
  Result eval_condition(const CallArgs& a, std::size_t i, bool& truthy);
  void push_frame() { frames_.emplace_back(); }
  void pop_frame() {
    if (frames_.size() > 1) frames_.pop_back();
  }
  void mark_global(const std::string& name);
  void append_output(std::string_view text) { output_ += text; }

 private:
  struct TextHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view text) const {
      return std::hash<std::string_view>{}(text);
    }
  };
  /// One evaluation depth's words, reused by every command at that depth.
  struct WordFrame {
    std::vector<std::string> values;  // substituted words; procs: all
    std::vector<const std::string*> args;  // each word's value
  };

  Result eval_script(const parse::Script& script);
  Result run_command(const parse::Command& cmd, WordFrame& wf);
  Result substitute_words(const parse::Command& cmd, WordFrame& wf);
  [[nodiscard]] const Binding* resolve(std::string_view name) const;
  [[nodiscard]] const std::string* find_var(const std::string& name) const;
  /// Run compiled expression `e`. On success `*value` is its result, valid
  /// until the interpreter next evaluates anything.
  Result run_expr(const Expr& e, const ExprValue** value);
  void exec_expr(const Expr& e, std::size_t base);
  /// Compile a run-time text into reused storage and run it.
  Result run_expr_text(std::string_view text, const ExprValue** value);
  /// Run word i of a call as an expression: a literal word through the
  /// expression compiled once and kept on it.
  Result run_expr_word(const CallArgs& a, std::size_t i,
                       const ExprValue** value);

  std::map<std::string_view, Binding, std::less<>> commands_;  // by sig.name
  std::span<const Binding> host_commands_;
  void* host_;
  /// Bumped by register_command; command resolutions cached on a parse
  /// hold the generation they were made in.
  std::uint64_t generation_;
  std::vector<Frame> frames_;  // frames_[0] is the global frame
  std::deque<WordFrame> word_frames_;  // by depth_
  std::vector<ExprValue> expr_stack_;
  std::size_t expr_top_ = 0;
  std::vector<std::unique_ptr<Expr>> expr_scratch_;  // run-time texts
  std::size_t expr_scratch_used_ = 0;
  std::string output_;
  int depth_ = 0;
  int max_depth_ = 200;
  std::uint64_t max_loop_iters_ = 10'000'000;
  std::function<bool()> watchdog_;
  std::uint64_t watchdog_probe_ = 0;
  bool watchdog_tripped_cache_ = false;
  Stats stats_;
  std::unordered_map<std::string, Program, TextHash, std::equal_to<>>
      parse_cache_;
};

}  // namespace pfi::script
