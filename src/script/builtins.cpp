// Core Tcl command set: one static table of {signature, function} that
// every Interp shares. The interpreter enforces each signature's argument
// count, so a command here checks only what a count cannot express (the
// `if` and `puts` grammars, subcommands). A command reads its words through
// CallArgs, and runs a body or a condition through the interpreter's
// eval_word / eval_condition, which use the compiled form kept on a literal
// word.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "script/interp.hpp"

namespace pfi::script {

namespace {

using Args = CallArgs;

Result cmd_set(Interp& in, const Args& a) {
  if (a.size() == 3) {
    in.set_var(a[1], a[2]);
    return Result::ok(a[2]);
  }
  auto v = in.get_var(a[1]);
  if (!v) {
    return Result::error("can't read \"" + a[1] + "\": no such variable");
  }
  return Result::ok(*v);
}

Result cmd_unset(Interp& in, const Args& a) {
  for (std::size_t i = 1; i < a.size(); ++i) in.unset_var(a[i]);
  return Result::ok();
}

Result cmd_incr(Interp& in, const Args& a) {
  std::int64_t delta = 1;
  if (a.size() == 3) {
    ExprValue d = ExprValue::parse(a[2]);
    if (d.kind != ExprValue::Kind::kInt) {
      return Result::error("expected integer but got \"" + a[2] + "\"");
    }
    delta = d.i;
  }
  auto cur = in.get_var(a[1]);
  std::int64_t value = 0;
  if (cur) {
    ExprValue v = ExprValue::parse(*cur);
    if (v.kind != ExprValue::Kind::kInt) {
      return Result::error("expected integer but got \"" + *cur + "\"");
    }
    value = v.i;
  }
  // Two's complement: an increment past INT64_MAX wraps.
  value = static_cast<std::int64_t>(static_cast<std::uint64_t>(value) +
                                    static_cast<std::uint64_t>(delta));
  std::string out = std::to_string(value);
  in.set_var(a[1], out);
  return Result::ok(std::move(out));
}

Result cmd_append(Interp& in, const Args& a) {
  std::string value = in.get_var(a[1]).value_or("");
  for (std::size_t i = 2; i < a.size(); ++i) value += a[i];
  in.set_var(a[1], value);
  return Result::ok(std::move(value));
}

Result cmd_expr(Interp& in, const Args& a) {
  if (a.size() == 2) return in.eval_expr_word(a, 1);
  std::string joined;
  for (std::size_t i = 1; i < a.size(); ++i) {
    if (i > 1) joined += ' ';
    joined += a[i];
  }
  return in.eval_expr(joined);
}

Result cmd_puts(Interp& in, const Args& a) {
  bool newline = true;
  std::size_t i = 1;
  if (i < a.size() && a[i] == "-nonewline") {
    newline = false;
    ++i;
  }
  if (i + 1 != a.size()) return wrong_args("puts ?-nonewline? string");
  in.append_output(a[i]);
  if (newline) in.append_output("\n");
  return Result::ok();
}

Result cmd_if(Interp& in, const Args& a) {
  // if cond ?then? body ?elseif cond ?then? body ...? ?else? ?body?
  std::size_t i = 1;
  while (true) {
    if (i >= a.size()) return wrong_args("if cond body ...");
    const std::size_t cond = i++;
    if (i < a.size() && a[i] == "then") ++i;
    if (i >= a.size()) return wrong_args("if cond body ...");
    const std::size_t body = i++;
    bool truthy = false;
    Result c = in.eval_condition(a, cond, truthy);
    if (!c.is_ok()) return c;
    if (truthy) return in.eval_word(a, body);
    if (i >= a.size()) return Result::ok();
    if (a[i] == "elseif") {
      ++i;
      continue;
    }
    if (a[i] == "else") ++i;
    if (i >= a.size()) return wrong_args("if ... else body");
    return in.eval_word(a, i);
  }
}

Result cmd_while(Interp& in, const Args& a) {
  std::uint64_t iters = 0;
  while (true) {
    in.note_loop_tick();
    if (++iters > in.max_loop_iterations()) {
      return Result::error("while loop exceeded iteration budget");
    }
    if (in.watchdog_tripped()) {
      return Result::error("watchdog: execution budget exceeded");
    }
    bool truthy = false;
    Result c = in.eval_condition(a, 1, truthy);
    if (!c.is_ok()) return c;
    if (!truthy) break;
    Result r = in.eval_word(a, 2);
    if (r.code == Code::kBreak) break;
    if (r.code == Code::kContinue || r.code == Code::kOk) continue;
    return r;  // error or return
  }
  return Result::ok();
}

Result cmd_for(Interp& in, const Args& a) {
  Result init = in.eval_word(a, 1);
  if (!init.is_ok()) return init;
  std::uint64_t iters = 0;
  while (true) {
    in.note_loop_tick();
    if (++iters > in.max_loop_iterations()) {
      return Result::error("for loop exceeded iteration budget");
    }
    if (in.watchdog_tripped()) {
      return Result::error("watchdog: execution budget exceeded");
    }
    bool truthy = false;
    Result c = in.eval_condition(a, 2, truthy);
    if (!c.is_ok()) return c;
    if (!truthy) break;
    Result r = in.eval_word(a, 4);
    if (r.code == Code::kBreak) break;
    if (r.code != Code::kContinue && r.code != Code::kOk) return r;
    Result next = in.eval_word(a, 3);
    if (!next.is_ok()) return next;
  }
  return Result::ok();
}

Result cmd_foreach(Interp& in, const Args& a) {
  const auto items = parse_list(a[2]);
  for (const auto& item : items) {
    in.note_loop_tick();
    in.set_var(a[1], item);
    Result r = in.eval_word(a, 3);
    if (r.code == Code::kBreak) break;
    if (r.code != Code::kContinue && r.code != Code::kOk) return r;
  }
  return Result::ok();
}

Result cmd_break(Interp&, const Args&) { return {Code::kBreak, {}}; }

Result cmd_continue(Interp&, const Args&) { return {Code::kContinue, {}}; }

Result cmd_return(Interp&, const Args& a) {
  return {Code::kReturn, a.size() == 2 ? a[1] : std::string{}};
}

/// A script-defined procedure. The signature registered for it views
/// `name` and `sig.usage`, so the definition lives as long as the binding.
struct ProcDef {
  struct Param {
    std::string name;
    std::string fallback;  // default value; unused for required params
  };
  std::string name;
  ProcSignature sig;          // max_args < 0: the list ends in `args`
  std::vector<Param> params;  // without that trailing `args`
  Interp::Program body;
};

Result call_proc(const ProcDef& def, Interp& interp,
                 const std::vector<std::string>& args) {
  interp.push_frame();
  struct FrameGuard {
    Interp& in;
    ~FrameGuard() { in.pop_frame(); }
  } guard{interp};
  // The interpreter checked the count: every parameter without an argument
  // has a default.
  for (std::size_t i = 0; i < def.params.size(); ++i) {
    interp.set_var(def.params[i].name,
                   i + 1 < args.size() ? args[i + 1] : def.params[i].fallback);
  }
  if (def.sig.max_args < 0) {
    const std::size_t first = std::min(def.params.size() + 1, args.size());
    interp.set_var("args",
                   make_list({args.begin() + static_cast<long>(first),
                              args.end()}));
  }
  Result r = interp.eval(def.body);
  if (r.code == Code::kReturn) return Result::ok(std::move(r.value));
  if (r.code == Code::kBreak || r.code == Code::kContinue) {
    return Result::error("invoked \"break\"/\"continue\" outside loop");
  }
  return r;
}

Result cmd_proc(Interp& in, const Args& a) {
  auto def = std::make_shared<ProcDef>();
  def->name = a[1];
  const std::vector<std::string> params = parse_list(a[2]);
  def->sig = proc_signature(def->name, params);
  const std::size_t fixed = params.size() - (def->sig.max_args < 0 ? 1 : 0);
  for (std::size_t i = 0; i < fixed; ++i) {
    const auto spec = parse_list(params[i]);
    def->params.push_back({spec.empty() ? params[i] : spec[0],
                           spec.size() >= 2 ? spec[1] : std::string{}});
  }
  def->body = in.word_program(a, 3);
  const CommandSig sig{def->name, def->sig.min_args, def->sig.max_args,
                       def->sig.usage};
  in.register_command(sig, [def = std::shared_ptr<const ProcDef>(
                                std::move(def))](
                               Interp& interp,
                               const std::vector<std::string>& args) {
    // Hold the definition: the body may redefine this proc, dropping the
    // binding that owns this closure.
    const std::shared_ptr<const ProcDef> keep = def;
    return call_proc(*keep, interp, args);
  });
  return Result::ok();
}

Result cmd_global(Interp& in, const Args& a) {
  for (std::size_t i = 1; i < a.size(); ++i) in.mark_global(a[i]);
  return Result::ok();
}

Result cmd_catch(Interp& in, const Args& a) {
  Result r = in.eval_word(a, 1);
  if (a.size() == 3) in.set_var(a[2], r.value);
  return Result::ok(std::to_string(static_cast<int>(r.code)));
}

Result cmd_error(Interp&, const Args& a) { return Result::error(a[1]); }

Result cmd_eval(Interp& in, const Args& a) {
  std::string joined;
  for (std::size_t i = 1; i < a.size(); ++i) {
    if (i > 1) joined += ' ';
    joined += a[i];
  }
  return in.eval(joined);
}

Result cmd_string_map(const Args& a, const std::string& s);

Result cmd_string(Interp&, const Args& a) {
  const std::string& opt = a[1];
  const std::string& s = a[2];
  auto to_index = [&](const std::string& t, std::int64_t& out) {
    if (t == "end") {
      out = static_cast<std::int64_t>(s.size()) - 1;
      return true;
    }
    if (t.rfind("end-", 0) == 0) {
      ExprValue v = ExprValue::parse(t.substr(4));
      if (v.kind != ExprValue::Kind::kInt) return false;
      out = static_cast<std::int64_t>(s.size()) - 1 - v.i;
      return true;
    }
    ExprValue v = ExprValue::parse(t);
    if (v.kind != ExprValue::Kind::kInt) return false;
    out = v.i;
    return true;
  };
  if (opt == "length") {
    return Result::ok(std::to_string(s.size()));
  }
  if (opt == "index") {
    if (a.size() != 4) return wrong_args("string index string charIndex");
    std::int64_t i = 0;
    if (!to_index(a[3], i)) return Result::error("bad index \"" + a[3] + "\"");
    if (i < 0 || i >= static_cast<std::int64_t>(s.size())) {
      return Result::ok("");
    }
    return Result::ok(std::string(1, s[static_cast<std::size_t>(i)]));
  }
  if (opt == "range") {
    if (a.size() != 5) return wrong_args("string range string first last");
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    if (!to_index(a[3], lo) || !to_index(a[4], hi)) {
      return Result::error("bad index");
    }
    lo = std::max<std::int64_t>(lo, 0);
    hi = std::min<std::int64_t>(hi, static_cast<std::int64_t>(s.size()) - 1);
    if (lo > hi) return Result::ok("");
    return Result::ok(s.substr(static_cast<std::size_t>(lo),
                               static_cast<std::size_t>(hi - lo + 1)));
  }
  if (opt == "tolower" || opt == "toupper") {
    std::string out = s;
    std::transform(out.begin(), out.end(), out.begin(), [&](unsigned char c) {
      return opt == "tolower" ? std::tolower(c) : std::toupper(c);
    });
    return Result::ok(std::move(out));
  }
  if (opt == "trim") {
    const char* ws = " \t\n\r";
    const auto b = s.find_first_not_of(ws);
    if (b == std::string::npos) return Result::ok("");
    const auto e = s.find_last_not_of(ws);
    return Result::ok(s.substr(b, e - b + 1));
  }
  if (opt == "first") {
    if (a.size() != 4) return wrong_args("string first needle haystack");
    const auto pos = a[3].find(s);
    return Result::ok(
        std::to_string(pos == std::string::npos
                           ? -1
                           : static_cast<std::int64_t>(pos)));
  }
  if (opt == "compare") {
    if (a.size() != 4) return wrong_args("string compare string1 string2");
    const int c = s.compare(a[3]);
    return Result::ok(std::to_string(c < 0 ? -1 : (c > 0 ? 1 : 0)));
  }
  if (opt == "equal") {
    if (a.size() != 4) return wrong_args("string equal string1 string2");
    return Result::ok(s == a[3] ? "1" : "0");
  }
  if (opt == "match") {
    if (a.size() != 4) return wrong_args("string match pattern string");
    return Result::ok(glob_match(s, a[3]) ? "1" : "0");
  }
  if (opt == "map") {
    // string map {from to ...} string
    if (a.size() != 4) return wrong_args("string map mapping string");
    return cmd_string_map(a, a[3]);
  }
  if (opt == "repeat") {
    if (a.size() != 4) return wrong_args("string repeat string count");
    ExprValue n = ExprValue::parse(a[3]);
    if (n.kind != ExprValue::Kind::kInt || n.i < 0) {
      return Result::error("bad count \"" + a[3] + "\"");
    }
    std::string out;
    for (std::int64_t i = 0; i < n.i; ++i) out += s;
    return Result::ok(std::move(out));
  }
  return Result::error("bad string option \"" + opt + "\"");
}

Result cmd_list(Interp&, const Args& a) {
  return Result::ok(make_list(a.tail(1)));
}

Result cmd_lindex(Interp&, const Args& a) {
  const auto items = parse_list(a[1]);
  std::int64_t i = 0;
  if (a[2] == "end") {
    i = static_cast<std::int64_t>(items.size()) - 1;
  } else {
    ExprValue v = ExprValue::parse(a[2]);
    if (v.kind != ExprValue::Kind::kInt) {
      return Result::error("bad index \"" + a[2] + "\"");
    }
    i = v.i;
  }
  if (i < 0 || i >= static_cast<std::int64_t>(items.size())) {
    return Result::ok("");
  }
  return Result::ok(items[static_cast<std::size_t>(i)]);
}

Result cmd_llength(Interp&, const Args& a) {
  return Result::ok(std::to_string(parse_list(a[1]).size()));
}

Result cmd_lappend(Interp& in, const Args& a) {
  auto items = parse_list(in.get_var(a[1]).value_or(""));
  for (std::size_t i = 2; i < a.size(); ++i) items.push_back(a[i]);
  std::string out = make_list(items);
  in.set_var(a[1], out);
  return Result::ok(std::move(out));
}

Result cmd_lrange(Interp&, const Args& a) {
  const auto items = parse_list(a[1]);
  const auto last = static_cast<std::int64_t>(items.size()) - 1;
  // An integer, `end` or `end-<integer>`; anything else is not an index.
  auto to_index = [&](const std::string& t, std::int64_t& out) {
    if (t == "end") {
      out = last;
      return true;
    }
    const bool from_end = t.rfind("end-", 0) == 0;
    const ExprValue v =
        ExprValue::parse(std::string_view{t}.substr(from_end ? 4 : 0));
    if (v.kind != ExprValue::Kind::kInt) return false;
    out = from_end ? static_cast<std::int64_t>(static_cast<std::uint64_t>(
                         last) - static_cast<std::uint64_t>(v.i))
                   : v.i;
    return true;
  };
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  if (!to_index(a[2], lo)) return Result::error("bad index \"" + a[2] + "\"");
  if (!to_index(a[3], hi)) return Result::error("bad index \"" + a[3] + "\"");
  lo = std::max<std::int64_t>(lo, 0);
  hi = std::min<std::int64_t>(hi, last);
  std::vector<std::string> out;
  for (std::int64_t i = lo; i <= hi; ++i) {
    out.push_back(items[static_cast<std::size_t>(i)]);
  }
  return Result::ok(make_list(out));
}

Result cmd_lsearch(Interp&, const Args& a) {
  const auto items = parse_list(a[1]);
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (glob_match(a[2], items[i])) return Result::ok(std::to_string(i));
  }
  return Result::ok("-1");
}

Result cmd_switch(Interp& in, const Args& a) {
  // switch ?-exact|-glob? string {pattern body ?pattern body ...?}
  // or:     switch ?-exact|-glob? string pattern body ?pattern body ...?
  std::size_t i = 1;
  bool glob = false;
  if (i < a.size() && (a[i] == "-exact" || a[i] == "-glob")) {
    glob = a[i] == "-glob";
    ++i;
  }
  const std::string& subject = a[i++];
  std::vector<std::string> arms;
  if (a.size() - i == 1) {
    arms = parse_list(a[i]);  // braced pattern/body list
  } else {
    arms = a.tail(i);
  }
  if (arms.size() < 2 || arms.size() % 2 != 0) {
    return Result::error("extra switch pattern with no body");
  }
  for (std::size_t k = 0; k < arms.size(); k += 2) {
    const std::string& pattern = arms[k];
    const bool is_default = pattern == "default" && k + 2 == arms.size();
    const bool hit = is_default ||
                     (glob ? glob_match(pattern, subject)
                           : pattern == subject);
    if (!hit) continue;
    // "-" bodies fall through to the next arm's body.
    std::size_t body = k + 1;
    while (body < arms.size() && arms[body] == "-") body += 2;
    if (body >= arms.size()) {
      return Result::error("no body specified for pattern \"" + pattern +
                           "\"");
    }
    return in.eval(arms[body]);
  }
  return Result::ok();
}

Result cmd_string_map(const Args& a, const std::string& s) {
  // invoked from cmd_string: string map {from to ...} string
  const auto pairs = parse_list(a[2]);
  if (pairs.size() % 2 != 0) {
    return Result::error("char map list unbalanced");
  }
  std::string out;
  std::size_t i = 0;
  const std::string& text = s;
  while (i < text.size()) {
    bool replaced = false;
    for (std::size_t k = 0; k < pairs.size(); k += 2) {
      const std::string& from = pairs[k];
      if (!from.empty() && text.compare(i, from.size(), from) == 0) {
        out += pairs[k + 1];
        i += from.size();
        replaced = true;
        break;
      }
    }
    if (!replaced) out += text[i++];
  }
  return Result::ok(std::move(out));
}

Result cmd_lsort(Interp&, const Args& a) {
  const bool numeric = a.size() == 3;
  if (numeric && a[1] != "-integer") {
    return Result::error("bad lsort option \"" + a[1] + "\"");
  }
  auto items = parse_list(a.back());
  if (numeric) {
    std::sort(items.begin(), items.end(),
              [](const std::string& x, const std::string& y) {
                const ExprValue vx = ExprValue::parse(x);
                const ExprValue vy = ExprValue::parse(y);
                if (vx.is_numeric() && vy.is_numeric()) {
                  return vx.as_double() < vy.as_double();
                }
                return x < y;
              });
  } else {
    std::sort(items.begin(), items.end());
  }
  return Result::ok(make_list(items));
}

Result cmd_lreverse(Interp&, const Args& a) {
  auto items = parse_list(a[1]);
  std::reverse(items.begin(), items.end());
  return Result::ok(make_list(items));
}

Result cmd_split(Interp&, const Args& a) {
  const std::string& s = a[1];
  const std::string seps = a.size() == 3 ? a[2] : " \t\n\r";
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (seps.find(c) != std::string::npos) {
      out.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(std::move(cur));
  return Result::ok(make_list(out));
}

Result cmd_join(Interp&, const Args& a) {
  const auto items = parse_list(a[1]);
  const std::string sep = a.size() == 3 ? a[2] : " ";
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += sep;
    out += items[i];
  }
  return Result::ok(std::move(out));
}

Result cmd_concat(Interp&, const Args& a) {
  std::string out;
  for (std::size_t i = 1; i < a.size(); ++i) {
    if (!out.empty()) out += ' ';
    out += a[i];
  }
  return Result::ok(std::move(out));
}

Result cmd_format(Interp&, const Args& a) {
  const std::string& fmt = a[1];
  std::string out;
  std::size_t arg = 2;
  for (std::size_t i = 0; i < fmt.size(); ++i) {
    if (fmt[i] != '%') {
      out += fmt[i];
      continue;
    }
    ++i;
    if (i >= fmt.size()) break;
    if (fmt[i] == '%') {
      out += '%';
      continue;
    }
    // Collect a conversion spec: flags, width, precision, conversion char.
    std::string spec = "%";
    while (i < fmt.size() &&
           std::string("-+ 0#123456789.").find(fmt[i]) != std::string::npos) {
      spec += fmt[i++];
    }
    if (i >= fmt.size()) return Result::error("bad format string");
    const char conv = fmt[i];
    if (arg >= a.size()) {
      return Result::error("not enough arguments for all format specifiers");
    }
    char buf[256];
    const std::string& v = a[arg++];
    switch (conv) {
      case 'd': case 'i': case 'x': case 'X': case 'o': case 'u': {
        ExprValue ev = ExprValue::parse(v);
        const auto n = ev.kind == ExprValue::Kind::kDouble
                           ? static_cast<std::int64_t>(ev.d)
                           : ev.i;
        spec += "ll";
        spec += conv;
        std::snprintf(buf, sizeof buf, spec.c_str(),
                      static_cast<long long>(n));
        out += buf;
        break;
      }
      case 'f': case 'g': case 'e': case 'G': case 'E': {
        ExprValue ev = ExprValue::parse(v);
        spec += conv;
        std::snprintf(buf, sizeof buf, spec.c_str(), ev.as_double());
        out += buf;
        break;
      }
      case 's': {
        spec += conv;
        std::snprintf(buf, sizeof buf, spec.c_str(), v.c_str());
        out += buf;
        break;
      }
      case 'c': {
        ExprValue ev = ExprValue::parse(v);
        out += static_cast<char>(ev.i);
        break;
      }
      default:
        return Result::error(std::string("bad format conversion '%") + conv +
                             "'");
    }
  }
  return Result::ok(std::move(out));
}

Result cmd_array(Interp& in, const Args& a) {
  // array exists|names|size|get|set|unset arrayName ?...?
  const std::string& opt = a[1];
  const std::string prefix = a[2] + "(";
  auto elements = [&in, &prefix]() {
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto& name : in.var_names()) {
      if (name.rfind(prefix, 0) == 0 && name.back() == ')') {
        const std::string key =
            name.substr(prefix.size(), name.size() - prefix.size() - 1);
        out.emplace_back(key, in.get_var(name).value_or(""));
      }
    }
    return out;
  };
  if (opt == "exists") {
    return Result::ok(elements().empty() ? "0" : "1");
  }
  if (opt == "size") {
    return Result::ok(std::to_string(elements().size()));
  }
  if (opt == "names") {
    std::vector<std::string> names;
    for (auto& [k, v] : elements()) names.push_back(k);
    return Result::ok(make_list(names));
  }
  if (opt == "get") {
    std::vector<std::string> flat;
    for (auto& [k, v] : elements()) {
      flat.push_back(k);
      flat.push_back(v);
    }
    return Result::ok(make_list(flat));
  }
  if (opt == "set") {
    if (a.size() != 4) return wrong_args("array set arrayName list");
    const auto items = parse_list(a[3]);
    if (items.size() % 2 != 0) {
      return Result::error("list must have an even number of elements");
    }
    for (std::size_t i = 0; i + 1 < items.size(); i += 2) {
      in.set_var(a[2] + "(" + items[i] + ")", items[i + 1]);
    }
    return Result::ok();
  }
  if (opt == "unset") {
    for (auto& [k, v] : elements()) in.unset_var(a[2] + "(" + k + ")");
    return Result::ok();
  }
  return Result::error("bad array option \"" + opt + "\"");
}

Result cmd_info(Interp& in, const Args& a) {
  if (a[1] == "exists") {
    if (a.size() != 3) return wrong_args("info exists varName");
    return Result::ok(in.get_var(a[2]) ? "1" : "0");
  }
  if (a[1] == "commands") {
    auto names = in.command_names();
    if (a.size() == 3) {
      std::erase_if(names, [&](const std::string& n) {
        return !glob_match(a[2], n);
      });
    }
    return Result::ok(make_list(names));
  }
  return Result::error("bad info option \"" + a[1] + "\"");
}

}  // namespace

ProcSignature proc_signature(std::string_view name,
                             const std::vector<std::string>& params) {
  ProcSignature sig;
  const bool variadic = !params.empty() && params.back() == "args";
  const std::size_t fixed = params.size() - (variadic ? 1 : 0);
  for (std::size_t i = 0; i < fixed; ++i) {
    const bool has_default = parse_list(params[i]).size() >= 2;
    if (!has_default) sig.min_args = static_cast<int>(i) + 1;
  }
  sig.max_args = variadic ? -1 : static_cast<int>(fixed);
  sig.usage.assign(name);
  sig.usage += ' ';
  sig.usage += make_list(params);
  return sig;
}

namespace {

constexpr CommandDef kBuiltins[] = {
    {{"append", 1, -1, "append varName ?value ...?"}, cmd_append},
    {{"array", 2, 3, "array option arrayName ?arg?"}, cmd_array},
    {{"break", 0, 0, "break"}, cmd_break},
    {{"catch", 1, 2, "catch script ?resultVarName?"}, cmd_catch},
    {{"concat", 0, -1, "concat ?arg ...?"}, cmd_concat},
    {{"continue", 0, 0, "continue"}, cmd_continue},
    {{"error", 1, 1, "error message"}, cmd_error},
    {{"eval", 1, -1, "eval arg ?arg ...?"}, cmd_eval},
    {{"expr", 1, -1, "expr arg ?arg ...?"}, cmd_expr},
    {{"for", 4, 4, "for start test next command"}, cmd_for},
    {{"foreach", 3, 3, "foreach varName list command"}, cmd_foreach},
    {{"format", 1, -1, "format formatString ?arg ...?"}, cmd_format},
    {{"global", 1, -1, "global varName ?varName ...?"}, cmd_global},
    {{"if", 2, -1, "if cond body ..."}, cmd_if},
    {{"incr", 1, 2, "incr varName ?increment?"}, cmd_incr},
    {{"info", 1, 2, "info option ?arg ...?"}, cmd_info},
    {{"join", 1, 2, "join list ?joinString?"}, cmd_join},
    {{"lappend", 1, -1, "lappend varName ?value ...?"}, cmd_lappend},
    {{"lindex", 2, 2, "lindex list index"}, cmd_lindex},
    {{"list", 0, -1, "list ?arg ...?"}, cmd_list},
    {{"llength", 1, 1, "llength list"}, cmd_llength},
    {{"lrange", 3, 3, "lrange list first last"}, cmd_lrange},
    {{"lreverse", 1, 1, "lreverse list"}, cmd_lreverse},
    {{"lsearch", 2, 2, "lsearch list pattern"}, cmd_lsearch},
    {{"lsort", 1, 2, "lsort ?-integer? list"}, cmd_lsort},
    {{"proc", 3, 3, "proc name args body"}, cmd_proc},
    {{"puts", 1, 2, "puts ?-nonewline? string"}, cmd_puts},
    {{"return", 0, 1, "return ?value?"}, cmd_return},
    {{"set", 1, 2, "set varName ?newValue?"}, cmd_set},
    {{"split", 1, 2, "split string ?splitChars?"}, cmd_split},
    {{"string", 2, -1, "string option arg ?arg ...?"}, cmd_string},
    {{"switch", 2, -1, "switch ?options? string pattern body ..."},
     cmd_switch},
    {{"unset", 1, -1, "unset varName ?varName ...?"}, cmd_unset},
    {{"while", 2, 2, "while test command"}, cmd_while},
};

}  // namespace

// Defined here, not in interp.cpp: with this sort instantiated there, GCC 12
// at -O3 inlined less of the evaluation loop, and a filter eval cost ~15%
// more.
std::vector<Binding> command_table(std::span<const CommandDef> defs) {
  std::vector<Binding> table;
  table.reserve(defs.size());
  for (const CommandDef& d : defs) table.push_back({d.sig, d.fn, {}});
  std::ranges::sort(table, {},
                    [](const Binding& b) { return b.sig.name; });
  return table;
}

std::span<const Binding> core_commands() {
  static const std::vector<Binding> table = command_table(kBuiltins);
  return table;
}

}  // namespace pfi::script
