#include "script/parse.hpp"

#include <cctype>

namespace pfi::script {

namespace parse {

namespace {

bool is_word_sep(char c) { return c == ' ' || c == '\t'; }
bool is_cmd_sep(char c) { return c == '\n' || c == '\r' || c == ';'; }
bool is_name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

char backslash_subst(char c) {
  switch (c) {
    case 'n': return '\n';
    case 't': return '\t';
    case 'r': return '\r';
    case 'a': return '\a';
    case '0': return '\0';
    default: return c;  // \$ \[ \] \" \\ \{ \} ... -> literal
  }
}

/// Cursor over the source text that keeps line:col in step with pos.
class Cursor {
 public:
  Cursor(std::string_view text, int line, int col, std::size_t pos = 0)
      : text_(text), pos_(pos), line_(line), col_(col) {}

  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }
  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] int line() const { return line_; }
  [[nodiscard]] int col() const { return col_; }
  [[nodiscard]] std::string_view text() const { return text_; }

  char advance() {
    const char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

 private:
  std::string_view text_;
  std::size_t pos_;
  int line_;
  int col_;
};

struct Error {
  std::string msg;
  int line = 0;
  int col = 0;
};

/// Where the scanners record what they see; a null member is not recorded.
struct Sink {
  std::string* raw = nullptr;           // the source characters consumed
  std::vector<VarRef>* vars = nullptr;  // read sites
  std::vector<Script>* nested = nullptr;  // parsed `[...]` bodies
  std::vector<Part>* parts = nullptr;   // the substituted value

  char take(Cursor& cur) const {
    const char c = cur.advance();
    if (raw != nullptr) *raw += c;
    return c;
  }

  void literal(char c) const {
    if (parts == nullptr) return;
    if (parts->empty() || parts->back().kind != Part::Kind::kLiteral) {
      parts->emplace_back();
    }
    parts->back().text += c;
  }
};

bool scan_one(Cursor& cur, const Sink& s, Error& err);

/// A backslash group: `\c` is c's escape, backslash-newline a space, and a
/// trailing backslash itself.
void scan_backslash(Cursor& cur, const Sink& s) {
  s.take(cur);  // '\'
  if (cur.at_end()) {
    s.literal('\\');
    return;
  }
  const char c = s.take(cur);
  s.literal(c == '\n' ? ' ' : backslash_subst(c));
}

/// A balanced `[...]` at the cursor (on the '['): the body is parsed as a
/// Script anchored at its own position. Like every unterminated construct,
/// a missing `]` is reported where it opens.
bool scan_cmd_subst(Cursor& cur, const Sink& s, Error& err) {
  const std::size_t open = cur.pos();
  const std::size_t close = match_bracket(cur.text(), open);
  if (close == std::string_view::npos) {
    err = {"missing close-bracket", cur.line(), cur.col()};
    return false;
  }
  s.take(cur);  // '['
  const int inner_line = cur.line();
  const int inner_col = cur.col();
  while (cur.pos() < close) s.take(cur);
  s.take(cur);  // ']'
  if (s.nested == nullptr) return true;
  s.nested->push_back(parse_script(
      cur.text().substr(open + 1, close - open - 1), inner_line, inner_col));
  if (s.parts != nullptr) {
    Part& p = s.parts->emplace_back();
    p.kind = Part::Kind::kCommand;
    p.nested = s.nested->size() - 1;
  }
  const Script& body = s.nested->back();
  if (!body.ok()) {
    err = {body.error, body.error_line, body.error_col};
    return false;
  }
  return true;
}

/// A `$` reference at the cursor (on the '$'). Records the base-name read
/// after any reads/commands inside an array index.
bool scan_var_ref(Cursor& cur, const Sink& s, Error& err) {
  const int ref_line = cur.line();
  const int ref_col = cur.col();
  s.take(cur);  // '$'
  std::string name;
  std::vector<Part> index;
  bool array = false;
  if (!cur.at_end() && cur.peek() == '{') {
    s.take(cur);
    while (!cur.at_end() && cur.peek() != '}') name += s.take(cur);
    if (cur.at_end()) {
      err = {"missing close-brace for ${name}", ref_line, ref_col};
      return false;
    }
    s.take(cur);  // '}'
  } else {
    while (!cur.at_end() && is_name_char(cur.peek())) name += s.take(cur);
    // Array element: $a(index); the index may itself contain $var / [cmd].
    if (!name.empty() && !cur.at_end() && cur.peek() == '(') {
      array = true;
      s.take(cur);  // '('
      Sink in = s;
      if (s.parts != nullptr) in.parts = &index;
      bool ok = true;
      while (ok && !cur.at_end() && cur.peek() != ')') {
        ok = scan_one(cur, in, err);
      }
      if (ok && cur.at_end()) {
        err = {"missing ')' in array reference", ref_line, ref_col};
        ok = false;
      }
      if (!ok) {
        // The index was substituted up to the error; nothing is read.
        if (s.parts != nullptr) {
          s.parts->insert(s.parts->end(), index.begin(), index.end());
        }
        return false;
      }
      s.take(cur);  // ')'
    }
  }
  if (name.empty()) {  // lone '$' is literal
    s.literal('$');
    return true;
  }
  if (s.vars != nullptr) s.vars->push_back({name, ref_line, ref_col});
  if (s.parts != nullptr) {
    Part& p = s.parts->emplace_back();
    p.kind = Part::Kind::kVar;
    p.text = std::move(name);
    p.array = array;
    p.index = std::move(index);
  }
  return true;
}

/// One character, backslash group, `$` reference or `[...]` of a bare or
/// quoted word or of an array index.
bool scan_one(Cursor& cur, const Sink& s, Error& err) {
  switch (cur.peek()) {
    case '\\': scan_backslash(cur, s); return true;
    case '$': return scan_var_ref(cur, s, err);
    case '[': return scan_cmd_subst(cur, s, err);
    default: s.literal(s.take(cur)); return true;
  }
}

class StaticParser {
 public:
  StaticParser(std::string_view text, int line, int col)
      : cur_(text, line, col) {}

  Script run() {
    Script out;
    while (skip_to_command()) {
      Command cmd;
      cmd.line = cur_.line();
      cmd.col = cur_.col();
      if (!parse_command(cmd, &out)) {
        out.failed = std::move(cmd);
        return out;
      }
      if (!cmd.words.empty()) out.commands.push_back(std::move(cmd));
    }
    return out;
  }

 private:
  bool skip_to_command() {
    while (!cur_.at_end()) {
      const char c = cur_.peek();
      if (is_word_sep(c) || is_cmd_sep(c)) {
        cur_.advance();
      } else if (c == '#') {
        while (!cur_.at_end() && cur_.peek() != '\n') cur_.advance();
      } else {
        return true;
      }
    }
    return false;
  }

  static bool fail(Script* out, Error err) {
    out->error = std::move(err.msg);
    out->error_line = err.line;
    out->error_col = err.col;
    return false;
  }

  /// The words of one command; a failing word is kept, cut at the error.
  bool parse_command(Command& cmd, Script* out) {
    while (true) {
      while (!cur_.at_end() && is_word_sep(cur_.peek())) cur_.advance();
      if (cur_.at_end() || is_cmd_sep(cur_.peek())) {
        if (!cur_.at_end()) cur_.advance();
        return true;
      }
      Word& w = cmd.words.emplace_back();
      w.line = cur_.line();
      w.col = cur_.col();
      bool ok = false;
      if (cur_.peek() == '{') {
        w.kind = Word::Kind::kBraced;
        ok = parse_braced(w, out);
      } else if (cur_.peek() == '"') {
        w.kind = Word::Kind::kQuoted;
        ok = parse_quoted(w, out);
      } else {
        w.kind = Word::Kind::kBare;
        ok = parse_bare(w, out);
      }
      if (!ok) return false;
    }
  }

  bool parse_braced(Word& w, Script* out) {
    cur_.advance();  // '{'
    int depth = 1;
    while (!cur_.at_end()) {
      const char c = cur_.peek();
      if (c == '\\' && cur_.pos() + 1 < cur_.text().size()) {
        w.text += cur_.advance();
        w.text += cur_.advance();
        continue;
      }
      if (c == '{') ++depth;
      if (c == '}') {
        --depth;
        if (depth == 0) {
          cur_.advance();
          if (!cur_.at_end() && !is_word_sep(cur_.peek()) &&
              !is_cmd_sep(cur_.peek())) {
            return fail(out, {"extra characters after close-brace",
                              cur_.line(), cur_.col()});
          }
          return true;
        }
      }
      w.text += cur_.advance();
    }
    return fail(out, {"missing close-brace", w.line, w.col});
  }

  bool parse_quoted(Word& w, Script* out) {
    cur_.advance();  // '"'
    while (!cur_.at_end()) {
      if (cur_.peek() == '"') {
        cur_.advance();
        return true;
      }
      if (!scan_word_char(w, out)) return false;
    }
    return fail(out, {"missing closing quote", w.line, w.col});
  }

  bool parse_bare(Word& w, Script* out) {
    while (!cur_.at_end() && !is_word_sep(cur_.peek()) &&
           !is_cmd_sep(cur_.peek())) {
      if (!scan_word_char(w, out)) return false;
    }
    return true;
  }

  bool scan_word_char(Word& w, Script* out) {
    const char c = cur_.peek();
    const std::size_t reads = w.vars.size();
    Error err;
    if (!scan_one(cur_, Sink{&w.text, &w.vars, &w.nested, &w.parts}, err)) {
      return fail(out, std::move(err));
    }
    if (c == '$' && w.vars.size() > reads) w.has_var = true;
    if (c == '[') w.has_cmd = true;
    return true;
  }

  Cursor cur_;
};

}  // namespace

Script parse_script(std::string_view text, int line, int col) {
  return StaticParser{text, line, col}.run();
}

ExprScan scan_expr(std::string_view text, int line, int col) {
  ExprScan out;
  Cursor cur{text, line, col};
  const Sink sink{nullptr, &out.vars, &out.nested, nullptr};
  Error err;
  while (!cur.at_end()) {
    // A malformed reference is left for the expr engine to report.
    if (!scan_one(cur, sink, err)) break;
  }
  return out;
}

std::string literal_value(const Word& w) {
  if (w.kind == Word::Kind::kBraced) return w.text;
  std::string out;
  out.reserve(w.text.size());
  for (std::size_t i = 0; i < w.text.size(); ++i) {
    if (w.text[i] == '\\' && i + 1 < w.text.size()) {
      const char next = w.text[i + 1];
      out += next == '\n' ? ' ' : backslash_subst(next);
      ++i;
    } else {
      out += w.text[i];
    }
  }
  return out;
}

std::size_t name_end(std::string_view text, std::size_t pos) {
  while (pos < text.size() && is_name_char(text[pos])) ++pos;
  return pos;
}

std::size_t match_bracket(std::string_view text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '\\' && i + 1 < text.size()) {
      ++i;
    } else if (c == '[') {
      ++depth;
    } else if (c == ']' && --depth == 0) {
      return i;
    }
  }
  return std::string_view::npos;
}

std::size_t lex_var_ref(std::string_view text, std::size_t pos,
                        std::vector<Part>& parts, std::vector<Script>& nested,
                        std::string& error) {
  Cursor cur{text, 1, 1, pos};
  Error err;
  if (!scan_var_ref(cur, Sink{nullptr, nullptr, &nested, &parts}, err)) {
    error = std::move(err.msg);
    return std::string_view::npos;
  }
  return cur.pos();
}

}  // namespace parse

// ---------------------------------------------------------------------------
// Lists
// ---------------------------------------------------------------------------

std::vector<std::string> parse_list(std::string_view text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])) != 0) {
      ++i;
    }
    if (i >= text.size()) break;
    std::string elem;
    if (text[i] == '{') {
      int depth = 1;
      ++i;
      while (i < text.size() && depth > 0) {
        if (text[i] == '{') ++depth;
        if (text[i] == '}') {
          --depth;
          if (depth == 0) break;
        }
        elem += text[i++];
      }
      if (i < text.size()) ++i;  // consume '}'
    } else if (text[i] == '"') {
      ++i;
      while (i < text.size() && text[i] != '"') {
        if (text[i] == '\\' && i + 1 < text.size()) {
          elem += parse::backslash_subst(text[i + 1]);
          i += 2;
          continue;
        }
        elem += text[i++];
      }
      if (i < text.size()) ++i;  // consume '"'
    } else {
      while (i < text.size() &&
             std::isspace(static_cast<unsigned char>(text[i])) == 0) {
        elem += text[i++];
      }
    }
    out.push_back(std::move(elem));
  }
  return out;
}

std::string make_list(const std::vector<std::string>& elems) {
  std::string out;
  for (const auto& e : elems) {
    if (!out.empty()) out += ' ';
    const bool needs_brace =
        e.empty() ||
        e.find_first_of(" \t\n{}\"") != std::string::npos;
    if (needs_brace) {
      out += '{';
      out += e;
      out += '}';
    } else {
      out += e;
    }
  }
  return out;
}

}  // namespace pfi::script
