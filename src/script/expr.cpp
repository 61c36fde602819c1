// Expression engine for the `expr` command and for `if`/`while`/`for`
// conditions. Performs its own `$var` and `[cmd]` substitution so that braced
// conditions like {$count < 30} re-substitute on every loop iteration, as in
// real Tcl. The references and brackets are lexed by the script parser's
// own scanners (parse.hpp), so `$a([set k])` and `[cmd \]]` read the same
// in an expression as in a word.
#include <cctype>
#include <cmath>
#include <string>
#include <vector>

#include "script/interp.hpp"
#include "script/parse.hpp"

namespace pfi::script {

namespace {

struct ExprError {
  std::string msg;
};

class ExprParser {
 public:
  ExprParser(Interp& interp, std::string_view text)
      : interp_(interp), text_(text) {}

  ExprValue parse() {
    ExprValue v = ternary();
    skip_ws();
    if (pos_ < text_.size()) {
      throw ExprError{"syntax error in expression near \"" +
                      std::string(text_.substr(pos_)) + "\""};
    }
    return v;
  }

 private:
  // --- lexer helpers -----------------------------------------------------
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool match(std::string_view op) {
    skip_ws();
    if (text_.substr(pos_, op.size()) == op) {
      // Avoid matching "<" when the text is "<<" or "<=".
      if (op.size() == 1 && pos_ + 1 < text_.size()) {
        const char a = op[0];
        const char b = text_[pos_ + 1];
        if ((a == '<' || a == '>') && (b == a || b == '=')) return false;
        if ((a == '=' || a == '!') && b == '=') return false;
        if ((a == '&' && b == '&') || (a == '|' && b == '|')) return false;
      }
      pos_ += op.size();
      return true;
    }
    return false;
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  // --- grammar (lowest to highest precedence) -----------------------------
  ExprValue ternary() {
    ExprValue cond = logical_or();
    skip_ws();
    if (match("?")) {
      ExprValue a = ternary();
      skip_ws();
      if (!match(":")) throw ExprError{"expected ':' in ?: expression"};
      ExprValue b = ternary();
      return cond.truthy() ? a : b;
    }
    return cond;
  }

  ExprValue logical_or() {
    ExprValue v = logical_and();
    while (true) {
      skip_ws();
      if (match("||")) {
        // No short-circuit side effects to worry about: operands are values.
        ExprValue rhs = logical_and();
        v = ExprValue::from_bool(v.truthy() || rhs.truthy());
      } else {
        return v;
      }
    }
  }

  ExprValue logical_and() {
    ExprValue v = bit_or();
    while (true) {
      skip_ws();
      if (match("&&")) {
        ExprValue rhs = bit_or();
        v = ExprValue::from_bool(v.truthy() && rhs.truthy());
      } else {
        return v;
      }
    }
  }

  ExprValue bit_or() {
    ExprValue v = bit_xor();
    while (true) {
      skip_ws();
      if (peek() == '|' && text_.substr(pos_, 2) != "||") {
        ++pos_;
        ExprValue rhs = bit_xor();
        v = ExprValue::from_int(to_int(v) | to_int(rhs));
      } else {
        return v;
      }
    }
  }

  ExprValue bit_xor() {
    ExprValue v = bit_and();
    while (true) {
      skip_ws();
      if (peek() == '^') {
        ++pos_;
        ExprValue rhs = bit_and();
        v = ExprValue::from_int(to_int(v) ^ to_int(rhs));
      } else {
        return v;
      }
    }
  }

  ExprValue bit_and() {
    ExprValue v = equality();
    while (true) {
      skip_ws();
      if (peek() == '&' && text_.substr(pos_, 2) != "&&") {
        ++pos_;
        ExprValue rhs = equality();
        v = ExprValue::from_int(to_int(v) & to_int(rhs));
      } else {
        return v;
      }
    }
  }

  ExprValue equality() {
    ExprValue v = relational();
    while (true) {
      skip_ws();
      if (match("==")) {
        v = ExprValue::from_bool(compare(v, relational()) == 0);
      } else if (match("!=")) {
        v = ExprValue::from_bool(compare(v, relational()) != 0);
      } else if (word_op("eq")) {
        v = ExprValue::from_bool(v.str() == relational().str());
      } else if (word_op("ne")) {
        v = ExprValue::from_bool(v.str() != relational().str());
      } else {
        return v;
      }
    }
  }

  ExprValue relational() {
    ExprValue v = shift();
    while (true) {
      skip_ws();
      if (match("<=")) {
        v = ExprValue::from_bool(compare(v, shift()) <= 0);
      } else if (match(">=")) {
        v = ExprValue::from_bool(compare(v, shift()) >= 0);
      } else if (match("<")) {
        v = ExprValue::from_bool(compare(v, shift()) < 0);
      } else if (match(">")) {
        v = ExprValue::from_bool(compare(v, shift()) > 0);
      } else {
        return v;
      }
    }
  }

  ExprValue shift() {
    ExprValue v = additive();
    while (true) {
      skip_ws();
      if (match("<<")) {
        v = ExprValue::from_int(to_int(v) << (to_int(additive()) & 63));
      } else if (match(">>")) {
        v = ExprValue::from_int(to_int(v) >> (to_int(additive()) & 63));
      } else {
        return v;
      }
    }
  }

  ExprValue additive() {
    ExprValue v = multiplicative();
    while (true) {
      skip_ws();
      if (match("+")) {
        v = arith(v, multiplicative(), '+');
      } else if (match("-")) {
        v = arith(v, multiplicative(), '-');
      } else {
        return v;
      }
    }
  }

  ExprValue multiplicative() {
    ExprValue v = unary();
    while (true) {
      skip_ws();
      if (match("*")) {
        v = arith(v, unary(), '*');
      } else if (match("/")) {
        v = arith(v, unary(), '/');
      } else if (match("%")) {
        const std::int64_t rhs = to_int(unary());
        if (rhs == 0) throw ExprError{"divide by zero"};
        v = ExprValue::from_int(to_int(v) % rhs);
      } else {
        return v;
      }
    }
  }

  ExprValue unary() {
    skip_ws();
    if (match("!")) return ExprValue::from_bool(!unary().truthy());
    if (match("~")) return ExprValue::from_int(~to_int(unary()));
    if (match("-")) {
      ExprValue v = unary();
      if (v.kind == ExprValue::Kind::kDouble) {
        return ExprValue::from_double(-v.d);
      }
      return ExprValue::from_int(-to_int(v));
    }
    if (match("+")) return unary();
    return primary();
  }

  ExprValue primary() {
    skip_ws();
    if (pos_ >= text_.size()) throw ExprError{"unexpected end of expression"};
    const char c = text_[pos_];
    if (c == '(') {
      ++pos_;
      ExprValue v = ternary();
      skip_ws();
      if (!match(")")) throw ExprError{"missing ')'"};
      return v;
    }
    if (c == '$') return variable();
    if (c == '[') return command_subst();
    if (c == '"') return quoted_string();
    if (c == '{') return braced_string();
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '.') {
      return number();
    }
    if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
      return word_or_function();
    }
    throw ExprError{"unexpected character '" + std::string(1, c) +
                    "' in expression"};
  }

  ExprValue number() {
    const std::size_t start = pos_;
    if (text_.substr(pos_, 2) == "0x" || text_.substr(pos_, 2) == "0X") {
      pos_ += 2;
      while (pos_ < text_.size() &&
             std::isxdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
      }
    } else {
      bool seen_dot = false;
      bool seen_exp = false;
      while (pos_ < text_.size()) {
        const char c = text_[pos_];
        if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
          ++pos_;
        } else if (c == '.' && !seen_dot && !seen_exp) {
          seen_dot = true;
          ++pos_;
        } else if ((c == 'e' || c == 'E') && !seen_exp) {
          seen_exp = true;
          ++pos_;
          if (pos_ < text_.size() &&
              (text_[pos_] == '+' || text_[pos_] == '-')) {
            ++pos_;
          }
        } else {
          break;
        }
      }
    }
    ExprValue v = ExprValue::parse(text_.substr(start, pos_ - start));
    if (!v.is_numeric()) throw ExprError{"malformed number"};
    return v;
  }

  ExprValue variable() {
    std::vector<parse::Part> parts;
    std::vector<parse::Script> nested;
    std::string error;
    const std::size_t end =
        parse::lex_var_ref(text_, pos_, parts, nested, error);
    if (end == std::string_view::npos) throw ExprError{error};
    pos_ = end;
    // A lone `$` (or `${}`) names no variable: an operand needs one.
    if (parts.front().kind == parse::Part::Kind::kLiteral) {
      throw ExprError{"can't read \"\": no such variable"};
    }
    std::string value;
    Result r = interp_.substitute(parts, nested, value);
    if (r.is_error()) throw ExprError{r.value};
    return ExprValue::parse(value);
  }

  ExprValue command_subst() {
    const std::size_t close = parse::match_bracket(text_, pos_);
    if (close == std::string_view::npos) {
      throw ExprError{"missing close-bracket"};
    }
    const std::string_view inner = text_.substr(pos_ + 1, close - pos_ - 1);
    pos_ = close + 1;
    Result r = interp_.eval(inner);
    if (r.is_error()) throw ExprError{r.value};
    return ExprValue::parse(r.value);
  }

  ExprValue quoted_string() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) {
        out += text_[pos_ + 1];
        pos_ += 2;
        continue;
      }
      if (text_[pos_] == '$') {
        // reuse variable() by faking position
        ExprValue v = variable();
        out += v.str();
        continue;
      }
      out += text_[pos_++];
    }
    if (pos_ >= text_.size()) throw ExprError{"missing closing quote"};
    ++pos_;
    return ExprValue::from_string(std::move(out));
  }

  ExprValue braced_string() {
    ++pos_;  // '{'
    std::string out;
    int depth = 1;
    while (pos_ < text_.size()) {
      if (text_[pos_] == '{') ++depth;
      if (text_[pos_] == '}') {
        --depth;
        if (depth == 0) break;
      }
      out += text_[pos_++];
    }
    if (pos_ >= text_.size()) throw ExprError{"missing close-brace"};
    ++pos_;
    return ExprValue::from_string(std::move(out));
  }

  ExprValue word_or_function() {
    const std::size_t start = pos_;
    pos_ = parse::name_end(text_, pos_);
    std::string name{text_.substr(start, pos_ - start)};
    skip_ws();
    if (peek() == '(') {
      ++pos_;
      std::vector<ExprValue> args;
      skip_ws();
      if (peek() != ')') {
        args.push_back(ternary());
        skip_ws();
        while (match(",")) {
          args.push_back(ternary());
          skip_ws();
        }
      }
      if (!match(")")) throw ExprError{"missing ')' in function call"};
      return call_function(name, args);
    }
    if (name == "true" || name == "yes" || name == "on") {
      return ExprValue::from_bool(true);
    }
    if (name == "false" || name == "no" || name == "off") {
      return ExprValue::from_bool(false);
    }
    if (name == "eq" || name == "ne") {
      // handled by equality(); reaching here means misplaced operator
      throw ExprError{"misplaced operator \"" + name + "\""};
    }
    // Bare words are treated as string literals (lenient extension).
    return ExprValue::from_string(std::move(name));
  }

  ExprValue call_function(const std::string& name,
                          const std::vector<ExprValue>& args) {
    auto need = [&](std::size_t n) {
      if (args.size() != n) {
        throw ExprError{"wrong # args for function \"" + name + "\""};
      }
    };
    if (name == "abs") {
      need(1);
      if (args[0].kind == ExprValue::Kind::kDouble) {
        return ExprValue::from_double(std::fabs(args[0].d));
      }
      return ExprValue::from_int(std::llabs(to_int(args[0])));
    }
    if (name == "int") {
      need(1);
      return ExprValue::from_int(
          static_cast<std::int64_t>(args[0].as_double()));
    }
    if (name == "double") {
      need(1);
      return ExprValue::from_double(args[0].as_double());
    }
    if (name == "round") {
      need(1);
      return ExprValue::from_int(
          static_cast<std::int64_t>(std::llround(args[0].as_double())));
    }
    if (name == "floor") {
      need(1);
      return ExprValue::from_double(std::floor(args[0].as_double()));
    }
    if (name == "ceil") {
      need(1);
      return ExprValue::from_double(std::ceil(args[0].as_double()));
    }
    if (name == "sqrt") {
      need(1);
      return ExprValue::from_double(std::sqrt(args[0].as_double()));
    }
    if (name == "exp") {
      need(1);
      return ExprValue::from_double(std::exp(args[0].as_double()));
    }
    if (name == "log") {
      need(1);
      return ExprValue::from_double(std::log(args[0].as_double()));
    }
    if (name == "pow") {
      need(2);
      return ExprValue::from_double(
          std::pow(args[0].as_double(), args[1].as_double()));
    }
    if (name == "fmod") {
      need(2);
      return ExprValue::from_double(
          std::fmod(args[0].as_double(), args[1].as_double()));
    }
    if (name == "min" || name == "max") {
      if (args.empty()) {
        throw ExprError{"wrong # args for function \"" + name + "\""};
      }
      ExprValue best = args[0];
      for (std::size_t i = 1; i < args.size(); ++i) {
        const int c = compare(args[i], best);
        if ((name == "min" && c < 0) || (name == "max" && c > 0)) {
          best = args[i];
        }
      }
      return best;
    }
    throw ExprError{"unknown function \"" + name + "\""};
  }

  // --- value helpers -------------------------------------------------------
  static std::int64_t to_int(const ExprValue& v) {
    switch (v.kind) {
      case ExprValue::Kind::kInt: return v.i;
      case ExprValue::Kind::kDouble: return static_cast<std::int64_t>(v.d);
      case ExprValue::Kind::kString:
        throw ExprError{"expected integer but got \"" + v.s + "\""};
    }
    return 0;
  }

  static int compare(const ExprValue& a, const ExprValue& b) {
    if (a.is_numeric() && b.is_numeric()) {
      if (a.kind == ExprValue::Kind::kInt &&
          b.kind == ExprValue::Kind::kInt) {
        return a.i < b.i ? -1 : (a.i > b.i ? 1 : 0);
      }
      const double x = a.as_double();
      const double y = b.as_double();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    const std::string x = a.str();
    const std::string y = b.str();
    return x < y ? -1 : (x > y ? 1 : 0);
  }

  static ExprValue arith(const ExprValue& a, const ExprValue& b, char op) {
    if (a.kind == ExprValue::Kind::kInt && b.kind == ExprValue::Kind::kInt) {
      switch (op) {
        case '+': return ExprValue::from_int(a.i + b.i);
        case '-': return ExprValue::from_int(a.i - b.i);
        case '*': return ExprValue::from_int(a.i * b.i);
        case '/':
          if (b.i == 0) throw ExprError{"divide by zero"};
          // Tcl floors integer division toward negative infinity.
          {
            std::int64_t q = a.i / b.i;
            if ((a.i % b.i != 0) && ((a.i < 0) != (b.i < 0))) --q;
            return ExprValue::from_int(q);
          }
        default: break;
      }
    }
    if (!a.is_numeric() || !b.is_numeric()) {
      throw ExprError{"can't use non-numeric string as operand of \"" +
                      std::string(1, op) + "\""};
    }
    const double x = a.as_double();
    const double y = b.as_double();
    switch (op) {
      case '+': return ExprValue::from_double(x + y);
      case '-': return ExprValue::from_double(x - y);
      case '*': return ExprValue::from_double(x * y);
      case '/':
        if (y == 0.0) throw ExprError{"divide by zero"};
        return ExprValue::from_double(x / y);
      default: break;
    }
    throw ExprError{"bad arithmetic operator"};
  }

  bool word_op(std::string_view op) {
    skip_ws();
    if (text_.substr(pos_, op.size()) == op) {
      const std::size_t after = pos_ + op.size();
      if (after >= text_.size() ||
          std::isspace(static_cast<unsigned char>(text_[after])) != 0) {
        pos_ = after;
        return true;
      }
    }
    return false;
  }

  Interp& interp_;
  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Result Interp::eval_expr(std::string_view expr) {
  try {
    ExprParser parser{*this, expr};
    return Result::ok(parser.parse().str());
  } catch (const ExprError& e) {
    return Result::error(e.msg);
  }
}

}  // namespace pfi::script
