// The parser for the Tcl subset: the only place its grammar is written down.
//
// A script is parsed once, without evaluating anything, into an immutable
// command form. Both consumers read that form:
//
//   * the interpreter (interp.cpp) caches it per script text and evaluates
//     it, substituting each word from its pre-split `parts`;
//   * the static analyzer (src/lint/) walks it with source positions.
//
// The grammar: word separators, `{...}` / `"..."` words, `$var` and
// `${var}` and `$arr(index)` references, `[...]` command substitution,
// backslash escapes, `#` comments, `;`/newline command separators. What the
// parser records:
//
//   * each command knows its words and its line:col;
//   * each bare/quoted word knows its value as ordered Parts (literal runs
//     with escapes applied, variable reads, command substitutions), every
//     `$name` it reads (VarRef), and every `[...]` it contains as a
//     recursively parsed Script;
//   * braced words keep their raw body — the interpreter hands it to the
//     command, and the analyzer decides whether a given brace is a script
//     body, an expression, or data, re-parsing it with the recorded line
//     offset so positions stay file-absolute;
//   * a script that fails to parse keeps the commands before the error and
//     the failing command's words up to it, so evaluation runs everything
//     the text asked for before the syntax error, in order.
//
// `expr` (expr.cpp) lexes its `$` references and `[...]` bodies with the
// same scanners (lex_var_ref, match_bracket), and Tcl lists are split here
// too (parse_list).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace pfi::script::parse {

struct Script;

/// One `$name` / `${name}` / `$arr(index)` read site. `name` is the base
/// variable name (array references are normalized to the array name; reads
/// inside the index are recorded as their own VarRefs).
struct VarRef {
  std::string name;
  int line = 1;
  int col = 1;
};

/// One piece of a bare or quoted word's value, in source order.
struct Part {
  enum class Kind { kLiteral, kVar, kCommand };
  Kind kind = Kind::kLiteral;
  /// kLiteral: the characters, backslash escapes applied. kVar: the name
  /// read (for `$a(index)`, the array name `a`).
  std::string text;
  /// kVar `$a(index)`: the element read is `text(index)`, the index being
  /// substituted from its own parts.
  bool array = false;
  std::vector<Part> index;
  /// kCommand: the `[...]` body, as a position in the word's `nested`.
  std::size_t nested = 0;
};

/// One word of a command, unsubstituted.
struct Word {
  enum class Kind { kBare, kQuoted, kBraced };
  Kind kind = Kind::kBare;
  /// Raw source content: braces/quotes stripped, substitutions unresolved.
  std::string text;
  int line = 1;
  int col = 1;
  bool has_var = false;  // contains $-substitution (bare/quoted only)
  bool has_cmd = false;  // contains [...] substitution (bare/quoted only)
  std::vector<VarRef> vars;    // every read inside a bare/quoted word
  std::vector<Script> nested;  // every [...] inside a bare/quoted word
  std::vector<Part> parts;     // the value of a bare/quoted word

  /// True when the runtime value of this word is known statically: braced,
  /// or bare/quoted with no $/[] substitution.
  [[nodiscard]] bool literal() const {
    return kind == Kind::kBraced || (!has_var && !has_cmd);
  }
};

struct Command {
  std::vector<Word> words;
  int line = 1;
  int col = 1;
};

struct Script {
  std::vector<Command> commands;
  std::string error;  // parse error message; empty on success
  int error_line = 0;
  int error_col = 0;
  /// When !ok(): the command the error cut short — its words up to the
  /// error, the last one partial. Evaluating them runs any `[...]` the text
  /// reached before the error is raised.
  Command failed;

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Parse a script without evaluating anything. `line`/`col` anchor the
/// first character, so bodies cut out of a larger file keep absolute
/// positions.
Script parse_script(std::string_view text, int line = 1, int col = 1);

/// Result of scanning expression text (an `expr` argument or an if/while
/// guard) for reads and command substitutions.
struct ExprScan {
  std::vector<VarRef> vars;
  std::vector<Script> nested;
};
ExprScan scan_expr(std::string_view text, int line = 1, int col = 1);

/// The runtime value of a literal() word: braced bodies verbatim,
/// bare/quoted words with backslash escapes applied.
std::string literal_value(const Word& w);

/// End of the `$name` characters ([A-Za-z0-9_]) that start at `pos`.
std::size_t name_end(std::string_view text, std::size_t pos);

/// Position of the `]` that closes the `[` at `text[open]` (backslash pairs
/// skipped, nested brackets counted), or npos when there is none.
std::size_t match_bracket(std::string_view text, std::size_t open);

/// Lexes the `$` reference at `text[pos]` as a word would: its value goes to
/// `parts` (a lone `$` is the literal "$"), any `[...]` in an array index to
/// `nested`. Returns the position after the reference, or npos with the
/// message in `error`.
std::size_t lex_var_ref(std::string_view text, std::size_t pos,
                        std::vector<Part>& parts, std::vector<Script>& nested,
                        std::string& error);

}  // namespace pfi::script::parse

namespace pfi::script {

/// Parse a string as a Tcl list (whitespace-separated, braces group).
std::vector<std::string> parse_list(std::string_view text);

/// Join elements into a canonical Tcl list (bracing elements as needed).
std::string make_list(const std::vector<std::string>& elems);

}  // namespace pfi::script
