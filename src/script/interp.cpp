#include "script/interp.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <utility>

namespace pfi::script {

// ---------------------------------------------------------------------------
// Interp
// ---------------------------------------------------------------------------

Interp::Interp() {
  frames_.emplace_back();  // global frame
  install_builtins();
}

Result Interp::eval(std::string_view script) {
  auto it = parse_cache_.find(script);
  if (it == parse_cache_.end()) {
    if (parse_cache_.size() >= kParseCacheCapacity) parse_cache_.clear();
    it = parse_cache_
             .emplace(std::string{script},
                      std::make_shared<const parse::Script>(
                          parse::parse_script(script)))
             .first;
  }
  // Hold a reference: a nested eval may clear the cache under this one.
  const std::shared_ptr<const parse::Script> parsed = it->second;
  return eval_script(*parsed);
}

Result Interp::eval_script(const parse::Script& script) {
  ++stats_.evals;
  if (++depth_ > max_depth_) {
    --depth_;
    return Result::error("too many nested evaluations (infinite recursion?)");
  }
  Result last = Result::ok();
  std::vector<std::string> words;
  for (const parse::Command& cmd : script.commands) {
    last = substitute_words(cmd, words);
    if (last.is_ok()) last = invoke(words);
    if (last.code != Code::kOk) {
      // Re-stamp even when an inner eval already set a line: the innermost
      // number is relative to a body string the caller never saw, while
      // this one locates the failing top-level command in `script`.
      if (last.code == Code::kError) last.line = cmd.line;
      --depth_;
      return last;
    }
  }
  if (!script.ok()) {
    last = substitute_words(script.failed, words);
    if (last.is_ok()) last = Result::error(script.error);
    last.line = script.failed.line;
  }
  --depth_;
  return last;
}

Result Interp::substitute_words(const parse::Command& cmd,
                                std::vector<std::string>& words) {
  words.resize(cmd.words.size());
  for (std::size_t i = 0; i < cmd.words.size(); ++i) {
    const parse::Word& w = cmd.words[i];
    if (w.kind == parse::Word::Kind::kBraced) {
      words[i] = w.text;
      continue;
    }
    words[i].clear();
    Result r = substitute(w.parts, w.nested, words[i]);
    if (!r.is_ok()) return r;
  }
  return Result::ok();
}

Result Interp::substitute(const std::vector<parse::Part>& parts,
                          const std::vector<parse::Script>& nested,
                          std::string& out) {
  for (const parse::Part& p : parts) {
    switch (p.kind) {
      case parse::Part::Kind::kLiteral:
        out += p.text;
        break;
      case parse::Part::Kind::kVar: {
        std::string element;
        if (p.array) {
          element = p.text + '(';
          Result r = substitute(p.index, nested, element);
          if (!r.is_ok()) return r;
          element += ')';
        }
        const std::string& name = p.array ? element : p.text;
        const std::string* value = find_var(name);
        if (value == nullptr) {
          return Result::error("can't read \"" + name +
                               "\": no such variable");
        }
        out += *value;
        break;
      }
      case parse::Part::Kind::kCommand: {
        Result r = eval_script(nested[p.nested]);
        if (r.code == Code::kError) return r;
        out += r.value;
        break;
      }
    }
  }
  return Result::ok();
}

Result Interp::invoke(const std::vector<std::string>& words) {
  ++stats_.commands;
  if (watchdog_tripped()) {
    return Result::error("watchdog: execution budget exceeded");
  }
  auto it = commands_.find(words[0]);
  if (it == commands_.end()) {
    return Result::error("invalid command name \"" + words[0] + "\"");
  }
  return it->second(*this, words);
}

void Interp::register_command(std::string name, Command fn) {
  commands_[std::move(name)] = std::move(fn);
}

void Interp::unregister_command(const std::string& name) {
  commands_.erase(name);
}

bool Interp::has_command(const std::string& name) const {
  return commands_.contains(name);
}

std::vector<std::string> Interp::command_names() const {
  std::vector<std::string> out;
  out.reserve(commands_.size());
  for (const auto& [name, _] : commands_) out.push_back(name);
  return out;
}

namespace {
/// For an array element "a(k)", the name that `global` would have aliased.
std::string global_alias_base(const std::string& name) {
  const auto paren = name.find('(');
  return paren == std::string::npos ? name : name.substr(0, paren);
}
}  // namespace

const std::string* Interp::find_var(const std::string& name) const {
  const Frame& frame = frames_.back();
  const Frame& owner =
      frames_.size() > 1 && (frame.globals.contains(name) ||
                             frame.globals.contains(global_alias_base(name)))
          ? frames_.front()
          : frame;
  auto it = owner.vars.find(name);
  return it == owner.vars.end() ? nullptr : &it->second;
}

std::optional<std::string> Interp::get_var(const std::string& name) const {
  if (const std::string* value = find_var(name)) return *value;
  return std::nullopt;
}

void Interp::set_var(const std::string& name, std::string value) {
  Frame& frame = frames_.back();
  if (frames_.size() > 1 && (frame.globals.contains(name) ||
                             frame.globals.contains(global_alias_base(name)))) {
    set_global(name, std::move(value));
    return;
  }
  frame.vars[name] = std::move(value);
}

bool Interp::unset_var(const std::string& name) {
  Frame& frame = frames_.back();
  if (frames_.size() > 1 && (frame.globals.contains(name) ||
                             frame.globals.contains(global_alias_base(name)))) {
    return frames_.front().vars.erase(name) > 0;
  }
  return frame.vars.erase(name) > 0;
}

std::optional<std::string> Interp::get_global(const std::string& name) const {
  const Frame& global = frames_.front();
  if (auto it = global.vars.find(name); it != global.vars.end()) {
    return it->second;
  }
  return std::nullopt;
}

void Interp::set_global(const std::string& name, std::string value) {
  frames_.front().vars[name] = std::move(value);
}

void Interp::mark_global(const std::string& name) {
  frames_.back().globals.insert(name);
}

std::vector<std::string> Interp::var_names() const {
  std::vector<std::string> out;
  const Frame& frame = frames_.back();
  for (const auto& [name, value] : frame.vars) out.push_back(name);
  if (frames_.size() > 1) {
    for (const auto& name : frame.globals) {
      if (get_global(name)) out.push_back(name);
      // A `global a` alias covers every element of array a.
      const std::string prefix = name + "(";
      for (const auto& [gname, gvalue] : frames_.front().vars) {
        if (gname.rfind(prefix, 0) == 0) out.push_back(gname);
      }
    }
  }
  return out;
}

std::string Interp::take_output() { return std::exchange(output_, {}); }

// ---------------------------------------------------------------------------
// Glob matching
// ---------------------------------------------------------------------------

bool glob_match(std::string_view pattern, std::string_view text) {
  std::size_t p = 0;
  std::size_t t = 0;
  std::size_t star_p = std::string_view::npos;
  std::size_t star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '[') {
      // character class, possibly with ranges
      std::size_t q = p + 1;
      bool matched = false;
      bool negate = false;
      if (q < pattern.size() && pattern[q] == '^') {
        negate = true;
        ++q;
      }
      while (q < pattern.size() && pattern[q] != ']') {
        if (q + 2 < pattern.size() && pattern[q + 1] == '-' &&
            pattern[q + 2] != ']') {
          if (pattern[q] <= text[t] && text[t] <= pattern[q + 2]) {
            matched = true;
          }
          q += 3;
        } else {
          if (pattern[q] == text[t]) matched = true;
          ++q;
        }
      }
      if (q >= pattern.size()) return false;  // unterminated class
      if (matched == negate) {
        // fall through to star backtrack below
        if (star_p == std::string_view::npos) return false;
        p = star_p + 1;
        t = ++star_t;
        continue;
      }
      p = q + 1;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

// ---------------------------------------------------------------------------
// ExprValue
// ---------------------------------------------------------------------------

ExprValue ExprValue::from_int(std::int64_t v) {
  ExprValue e;
  e.kind = Kind::kInt;
  e.i = v;
  return e;
}

ExprValue ExprValue::from_double(double v) {
  ExprValue e;
  e.kind = Kind::kDouble;
  e.d = v;
  return e;
}

ExprValue ExprValue::from_string(std::string v) {
  ExprValue e;
  e.kind = Kind::kString;
  e.s = std::move(v);
  return e;
}

double ExprValue::as_double() const {
  switch (kind) {
    case Kind::kInt: return static_cast<double>(i);
    case Kind::kDouble: return d;
    case Kind::kString: return 0.0;
  }
  return 0.0;
}

bool ExprValue::truthy() const {
  switch (kind) {
    case Kind::kInt: return i != 0;
    case Kind::kDouble: return d != 0.0;
    case Kind::kString: return !s.empty() && s != "0" && s != "false";
  }
  return false;
}

std::string ExprValue::str() const {
  switch (kind) {
    case Kind::kInt: return std::to_string(i);
    case Kind::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.12g", d);
      std::string out = buf;
      // Keep doubles visually distinct from ints (Tcl prints 2.0, not 2).
      if (out.find_first_of(".eEnN") == std::string::npos) out += ".0";
      return out;
    }
    case Kind::kString: return s;
  }
  return {};
}

ExprValue ExprValue::parse(std::string_view text) {
  // Trim surrounding whitespace.
  std::size_t b = 0;
  std::size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1])) != 0) {
    --e;
  }
  const std::string_view t = text.substr(b, e - b);
  if (t.empty()) return from_string(std::string{text});

  // Try integer (decimal or 0x hex).
  {
    std::int64_t v = 0;
    const char* first = t.data();
    const char* last = t.data() + t.size();
    std::from_chars_result r{};
    if (t.size() > 2 && (t.substr(0, 2) == "0x" || t.substr(0, 2) == "0X")) {
      r = std::from_chars(first + 2, last, v, 16);
    } else if (t.size() > 3 && t[0] == '-' &&
               (t.substr(1, 2) == "0x" || t.substr(1, 2) == "0X")) {
      r = std::from_chars(first + 3, last, v, 16);
      v = -v;
    } else {
      r = std::from_chars(first, last, v, 10);
    }
    if (r.ec == std::errc{} && r.ptr == last) return from_int(v);
  }
  // Try double.
  {
    double v = 0.0;
    const char* first = t.data();
    const char* last = t.data() + t.size();
    auto r = std::from_chars(first, last, v);
    if (r.ec == std::errc{} && r.ptr == last) return from_double(v);
  }
  return from_string(std::string{text});
}

}  // namespace pfi::script
