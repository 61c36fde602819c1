// The expression engine behind `expr` and the `if`/`while`/`for` conditions:
// the compiler from text to postfix code (expr.hpp) and the stack machine
// that runs it. Braced conditions like {$count < 30} re-read their
// variables on every run, as in real Tcl, but are compiled only once.
#include "script/expr.hpp"

#include <cctype>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace pfi::script {

namespace {

/// A run-time error raised while executing code: the text of its Result.
struct ExprError {
  std::string msg;
};

/// Unwinds the compiler after a kFail has been emitted.
struct Stop {};

using Op = Expr::Op;
using Kind = ExprValue::Kind;

/// How many values `op` leaves on the stack, less how many it takes.
int stack_effect(Op op, std::uint32_t nargs) {
  switch (op) {
    case Op::kConst:
    case Op::kVar:
    case Op::kCommand:
    case Op::kQuoted:
      return 1;
    case Op::kCheckInt:
    case Op::kNot:
    case Op::kBitNot:
    case Op::kNeg:
    case Op::kBool:
    case Op::kJump:
    case Op::kFail:
      return 0;
    case Op::kCall:
      return 1 - static_cast<int>(nargs);
    default:
      return -1;  // binary operators; the jumps that pop, on fall-through
  }
}

Expr::Fn function_named(std::string_view name) {
  static constexpr std::pair<std::string_view, Expr::Fn> kFns[] = {
      {"abs", Expr::Fn::kAbs},     {"int", Expr::Fn::kInt},
      {"double", Expr::Fn::kDouble}, {"round", Expr::Fn::kRound},
      {"floor", Expr::Fn::kFloor}, {"ceil", Expr::Fn::kCeil},
      {"sqrt", Expr::Fn::kSqrt},   {"exp", Expr::Fn::kExp},
      {"log", Expr::Fn::kLog},     {"pow", Expr::Fn::kPow},
      {"fmod", Expr::Fn::kFmod},   {"min", Expr::Fn::kMin},
      {"max", Expr::Fn::kMax},
  };
  for (const auto& [n, fn] : kFns) {
    if (n == name) return fn;
  }
  return Expr::Fn::kUnknown;
}

/// Recursive descent over the operator grammar, lowest precedence first.
/// Each rule emits its operands' code, then its operator's, exactly where
/// reading the text left to right would evaluate them.
class Compiler {
 public:
  Compiler(std::string_view text, Expr& out) : text_(text), out_(out) {}

  void run() {
    try {
      ternary();
      skip_ws();
      if (pos_ < text_.size()) {
        fail("syntax error in expression near \"" +
             std::string(text_.substr(pos_)) + "\"");
      }
    } catch (const Stop&) {
    }
  }

 private:
  // --- emission --------------------------------------------------------------
  void emit(Op op, std::uint32_t arg = 0) {
    out_.code.push_back({op, arg});
    depth_ += stack_effect(op, op == Op::kCall ? out_.calls[arg].nargs : 0);
    if (depth_ > static_cast<int>(out_.max_stack)) {
      out_.max_stack = static_cast<std::uint32_t>(depth_);
    }
  }

  void emit_const(ExprValue v) {
    out_.consts.push_back(std::move(v));
    emit(Op::kConst, static_cast<std::uint32_t>(out_.consts.size() - 1));
  }

  /// The text breaks here: everything emitted so far runs, then `msg`;
  /// every jump still open lands on the failure too.
  [[noreturn]] void fail(std::string msg) {
    out_.errors.push_back(std::move(msg));
    for (const std::size_t j : open_jumps_) out_.code[j].arg = here();
    emit(Op::kFail, static_cast<std::uint32_t>(out_.errors.size() - 1));
    throw Stop{};
  }

  [[nodiscard]] std::uint32_t here() const {
    return static_cast<std::uint32_t>(out_.code.size());
  }
  /// Emit a jump whose target the matching land() fills in.
  std::size_t jump(Op op) {
    open_jumps_.push_back(out_.code.size());
    emit(op);
    return open_jumps_.back();
  }
  void land(std::size_t at) {
    out_.code[at].arg = here();
    std::erase(open_jumps_, at);
  }

  /// One more level of parentheses, unary operator or `?:` arm.
  struct Nest {
    explicit Nest(Compiler& c) : c_(c) {
      if (++c_.nesting_ > parse::kMaxNesting) {
        c_.fail("expression nested too deeply: more than " +
                std::to_string(parse::kMaxNesting) + " levels at offset " +
                std::to_string(c_.pos_));
      }
    }
    ~Nest() { --c_.nesting_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;
    Compiler& c_;
  };

  // --- lexer helpers ---------------------------------------------------------
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

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  // --- grammar (lowest to highest precedence) --------------------------------
  void ternary() {
    const Nest nest{*this};
    logical_or();
    skip_ws();
    if (match("?")) {
      const std::size_t to_else = jump(Op::kJumpIfFalse);
      const int depth = depth_;
      ternary();
      skip_ws();
      if (!match(":")) fail("expected ':' in ?: expression");
      const std::size_t to_end = jump(Op::kJump);
      land(to_else);
      depth_ = depth;  // the else arm starts where the then arm did
      ternary();
      land(to_end);
    }
  }

  void logical_or() {
    logical_and();
    while (true) {
      skip_ws();
      if (!match("||")) return;
      const std::size_t skip = jump(Op::kOrJump);
      logical_and();
      emit(Op::kBool);
      land(skip);
    }
  }

  void logical_and() {
    bit_or();
    while (true) {
      skip_ws();
      if (!match("&&")) return;
      const std::size_t skip = jump(Op::kAndJump);
      bit_or();
      emit(Op::kBool);
      land(skip);
    }
  }

  void bit_or() {
    bit_xor();
    while (true) {
      skip_ws();
      if (peek() != '|' || text_.substr(pos_, 2) == "||") return;
      ++pos_;
      bit_xor();
      emit(Op::kBitOr);
    }
  }

  void bit_xor() {
    bit_and();
    while (true) {
      skip_ws();
      if (peek() != '^') return;
      ++pos_;
      bit_and();
      emit(Op::kBitXor);
    }
  }

  void bit_and() {
    equality();
    while (true) {
      skip_ws();
      if (peek() != '&' || text_.substr(pos_, 2) == "&&") return;
      ++pos_;
      equality();
      emit(Op::kBitAnd);
    }
  }

  void equality() {
    relational();
    while (true) {
      skip_ws();
      Op op;
      if (match("==")) {
        op = Op::kEq;
      } else if (match("!=")) {
        op = Op::kNe;
      } else if (word_op("eq")) {
        op = Op::kStrEq;
      } else if (word_op("ne")) {
        op = Op::kStrNe;
      } else {
        return;
      }
      relational();
      emit(op);
    }
  }

  void relational() {
    shift();
    while (true) {
      skip_ws();
      Op op;
      if (match("<=")) {
        op = Op::kLe;
      } else if (match(">=")) {
        op = Op::kGe;
      } else if (match("<")) {
        op = Op::kLt;
      } else if (match(">")) {
        op = Op::kGt;
      } else {
        return;
      }
      shift();
      emit(op);
    }
  }

  void shift() {
    additive();
    while (true) {
      skip_ws();
      Op op;
      if (match("<<")) {
        op = Op::kShl;
      } else if (match(">>")) {
        op = Op::kShr;
      } else {
        return;
      }
      // A shift reads its left side as an integer before its right side.
      emit(Op::kCheckInt);
      additive();
      emit(op);
    }
  }

  void additive() {
    multiplicative();
    while (true) {
      skip_ws();
      Op op;
      if (match("+")) {
        op = Op::kAdd;
      } else if (match("-")) {
        op = Op::kSub;
      } else {
        return;
      }
      multiplicative();
      emit(op);
    }
  }

  void multiplicative() {
    unary();
    while (true) {
      skip_ws();
      Op op;
      if (match("*")) {
        op = Op::kMul;
      } else if (match("/")) {
        op = Op::kDiv;
      } else if (match("%")) {
        op = Op::kMod;
      } else {
        return;
      }
      unary();
      emit(op);
    }
  }

  void unary() {
    skip_ws();
    Op op;
    if (match("!")) {
      op = Op::kNot;
    } else if (match("~")) {
      op = Op::kBitNot;
    } else if (match("-")) {
      op = Op::kNeg;
    } else if (match("+")) {
      const Nest nest{*this};
      unary();
      return;
    } else {
      primary();
      return;
    }
    const Nest nest{*this};
    unary();
    emit(op);
  }

  void primary() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of expression");
    const char c = text_[pos_];
    if (c == '(') {
      ++pos_;
      ternary();
      skip_ws();
      if (!match(")")) fail("missing ')'");
    } else if (c == '$') {
      variable();
    } else if (c == '[') {
      command_subst();
    } else if (c == '"') {
      quoted_string();
    } else if (c == '{') {
      braced_string();
    } else if (std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '.') {
      number();
    } else if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
      word_or_function();
    } else {
      fail("unexpected character '" + std::string(1, c) + "' in expression");
    }
  }

  void number() {
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
    if (!v.is_numeric()) fail("malformed number");
    emit_const(std::move(v));
  }

  /// Lex the `$` reference at the cursor into reads; returns its index.
  std::uint32_t lex_read() {
    Expr::Read rd;
    std::string error;
    const std::size_t end =
        parse::lex_var_ref(text_, pos_, rd.parts, rd.nested, error);
    if (end == std::string_view::npos) fail(std::move(error));
    pos_ = end;
    // A lone `$` (or `${}`) names no variable: an operand needs one.
    if (rd.parts.front().kind == parse::Part::Kind::kLiteral) {
      fail("can't read \"\": no such variable");
    }
    out_.reads.push_back(std::move(rd));
    return static_cast<std::uint32_t>(out_.reads.size() - 1);
  }

  void variable() { emit(Op::kVar, lex_read()); }

  void command_subst() {
    const std::size_t close = parse::match_bracket(text_, pos_);
    if (close == std::string_view::npos) fail("missing close-bracket");
    out_.scripts.push_back(
        parse::parse_script(text_.substr(pos_ + 1, close - pos_ - 1)));
    pos_ = close + 1;
    emit(Op::kCommand, static_cast<std::uint32_t>(out_.scripts.size() - 1));
  }

  /// `"..."`: backslash takes the next character literally, `$` reads
  /// substitute (as the value they parse to), `[` is literal.
  void quoted_string() {
    ++pos_;  // '"'
    std::vector<Expr::Piece> pieces;
    auto literal = [&pieces]() -> std::string& {
      if (pieces.empty() || pieces.back().read >= 0) pieces.emplace_back();
      return pieces.back().text;
    };
    // On a syntax error inside the string, the reads before it still run.
    auto reads_then_fail = [&](std::string msg) {
      for (const Expr::Piece& p : pieces) {
        if (p.read >= 0) emit(Op::kVar, static_cast<std::uint32_t>(p.read));
      }
      fail(std::move(msg));
    };
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) {
        literal() += text_[pos_ + 1];
        pos_ += 2;
        continue;
      }
      if (text_[pos_] == '$') {
        Expr::Read rd;
        std::string error;
        const std::size_t end =
            parse::lex_var_ref(text_, pos_, rd.parts, rd.nested, error);
        if (end == std::string_view::npos) reads_then_fail(std::move(error));
        if (rd.parts.front().kind == parse::Part::Kind::kLiteral) {
          reads_then_fail("can't read \"\": no such variable");
        }
        pos_ = end;
        out_.reads.push_back(std::move(rd));
        pieces.push_back({{}, static_cast<int>(out_.reads.size() - 1)});
        continue;
      }
      literal() += text_[pos_++];
    }
    if (pos_ >= text_.size()) reads_then_fail("missing closing quote");
    ++pos_;
    if (pieces.size() <= 1 && (pieces.empty() || pieces[0].read < 0)) {
      emit_const(
          ExprValue::from_string(pieces.empty() ? "" : pieces[0].text));
      return;
    }
    out_.quoted.push_back(std::move(pieces));
    emit(Op::kQuoted, static_cast<std::uint32_t>(out_.quoted.size() - 1));
  }

  void braced_string() {
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
    if (pos_ >= text_.size()) fail("missing close-brace");
    ++pos_;
    emit_const(ExprValue::from_string(std::move(out)));
  }

  void word_or_function() {
    const std::size_t start = pos_;
    pos_ = parse::name_end(text_, pos_);
    std::string name{text_.substr(start, pos_ - start)};
    skip_ws();
    if (peek() == '(') {
      ++pos_;
      std::uint32_t nargs = 0;
      skip_ws();
      if (peek() != ')') {
        ternary();
        ++nargs;
        skip_ws();
        while (match(",")) {
          ternary();
          ++nargs;
          skip_ws();
        }
      }
      if (!match(")")) fail("missing ')' in function call");
      const Expr::Fn fn = function_named(name);
      out_.calls.push_back({fn, nargs, std::move(name)});
      emit(Op::kCall, static_cast<std::uint32_t>(out_.calls.size() - 1));
      return;
    }
    if (name == "true" || name == "yes" || name == "on") {
      emit_const(ExprValue::from_bool(true));
    } else if (name == "false" || name == "no" || name == "off") {
      emit_const(ExprValue::from_bool(false));
    } else if (name == "eq" || name == "ne") {
      // handled by equality(); reaching here means a misplaced operator
      fail("misplaced operator \"" + name + "\"");
    } else {
      // Bare words are string literals (a lenient extension).
      emit_const(ExprValue::from_string(std::move(name)));
    }
  }

  std::string_view text_;
  Expr& out_;
  std::size_t pos_ = 0;
  int depth_ = 0;    // stack slots in use after the code so far
  int nesting_ = 0;  // Nest levels open
  std::vector<std::size_t> open_jumps_;  // jumps not yet landed
};

// --- values ------------------------------------------------------------------

/// A double read as an integer: truncated toward zero, and, where that
/// does not fit (NaN, out of range), the x86 conversion's INT64_MIN.
std::int64_t double_to_int(double d) {
  constexpr double kLimit = 9223372036854775808.0;  // 2^63
  if (!(d > -kLimit - 1025.0 && d < kLimit)) {
    return std::numeric_limits<std::int64_t>::min();
  }
  return static_cast<std::int64_t>(d);
}

std::int64_t to_int(const ExprValue& v) {
  switch (v.kind) {
    case Kind::kInt: return v.i;
    case Kind::kDouble: return double_to_int(v.d);
    case Kind::kString:
      throw ExprError{"expected integer but got \"" + v.s + "\""};
  }
  return 0;
}

void set_int(ExprValue& v, std::int64_t x) {
  v.kind = Kind::kInt;
  v.i = x;
}

void set_double(ExprValue& v, double x) {
  v.kind = Kind::kDouble;
  v.d = x;
}

/// Two's-complement arithmetic: an overflow wraps instead of being
/// undefined.
std::int64_t wrap(std::uint64_t x) { return static_cast<std::int64_t>(x); }
std::uint64_t bits(std::int64_t x) { return static_cast<std::uint64_t>(x); }

/// The remainder of Tcl's floored division, so that
/// (a / b) * b + a % b == a; it takes the sign of b. x % -1 is 0.
std::int64_t floored_mod(std::int64_t a, std::int64_t b) {
  if (b == -1) return 0;
  std::int64_t r = a % b;
  if (r != 0 && ((r < 0) != (b < 0))) r += b;
  return r;
}

int compare(const ExprValue& a, const ExprValue& b) {
  if (a.is_numeric() && b.is_numeric()) {
    if (a.kind == Kind::kInt && b.kind == Kind::kInt) {
      return a.i < b.i ? -1 : (a.i > b.i ? 1 : 0);
    }
    const double x = a.as_double();
    const double y = b.as_double();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (a.kind == Kind::kString && b.kind == Kind::kString) {
    const int c = a.s.compare(b.s);
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  const std::string x = a.str();
  const std::string y = b.str();
  return x < y ? -1 : (x > y ? 1 : 0);
}

bool str_equal(const ExprValue& a, const ExprValue& b) {
  if (a.kind == Kind::kString && b.kind == Kind::kString) return a.s == b.s;
  return a.str() == b.str();
}

/// a = a <op> b for + - * /.
void arith(ExprValue& a, const ExprValue& b, Op op) {
  if (a.kind == Kind::kInt && b.kind == Kind::kInt) {
    switch (op) {
      case Op::kAdd: set_int(a, wrap(bits(a.i) + bits(b.i))); return;
      case Op::kSub: set_int(a, wrap(bits(a.i) - bits(b.i))); return;
      case Op::kMul: set_int(a, wrap(bits(a.i) * bits(b.i))); return;
      case Op::kDiv: {
        if (b.i == 0) throw ExprError{"divide by zero"};
        // INT64_MIN / -1 wraps to INT64_MIN rather than trapping.
        if (b.i == -1) {
          set_int(a, wrap(0 - bits(a.i)));
          return;
        }
        // Tcl floors integer division toward negative infinity.
        std::int64_t q = a.i / b.i;
        if ((a.i % b.i != 0) && ((a.i < 0) != (b.i < 0))) --q;
        set_int(a, q);
        return;
      }
      default: break;
    }
  }
  if (!a.is_numeric() || !b.is_numeric()) {
    const char* sym = op == Op::kAdd   ? "+"
                      : op == Op::kSub ? "-"
                      : op == Op::kMul ? "*"
                                       : "/";
    throw ExprError{std::string("can't use non-numeric string as operand "
                                "of \"") +
                    sym + "\""};
  }
  const double x = a.as_double();
  const double y = b.as_double();
  switch (op) {
    case Op::kAdd: set_double(a, x + y); return;
    case Op::kSub: set_double(a, x - y); return;
    case Op::kMul: set_double(a, x * y); return;
    default:
      if (y == 0.0) throw ExprError{"divide by zero"};
      set_double(a, x / y);
      return;
  }
}

/// args[0..n) = the call's arguments; the result goes to args[0].
void call(const Expr::Call& c, ExprValue* args) {
  const std::size_t n = c.nargs;
  auto need = [&](std::size_t k) {
    if (n != k) throw ExprError{"wrong # args for function \"" + c.name + "\""};
  };
  ExprValue& out = args[0];
  switch (c.fn) {
    case Expr::Fn::kAbs:
      need(1);
      if (out.kind == Kind::kDouble) {
        set_double(out, std::fabs(out.d));
      } else {
        const std::int64_t x = to_int(out);
        set_int(out, x < 0 ? wrap(0 - bits(x)) : x);
      }
      return;
    case Expr::Fn::kInt:
      need(1);
      set_int(out, double_to_int(out.as_double()));
      return;
    case Expr::Fn::kDouble:
      need(1);
      set_double(out, out.as_double());
      return;
    case Expr::Fn::kRound:
      need(1);
      set_int(out, static_cast<std::int64_t>(std::llround(out.as_double())));
      return;
    case Expr::Fn::kFloor:
      need(1);
      set_double(out, std::floor(out.as_double()));
      return;
    case Expr::Fn::kCeil:
      need(1);
      set_double(out, std::ceil(out.as_double()));
      return;
    case Expr::Fn::kSqrt:
      need(1);
      set_double(out, std::sqrt(out.as_double()));
      return;
    case Expr::Fn::kExp:
      need(1);
      set_double(out, std::exp(out.as_double()));
      return;
    case Expr::Fn::kLog:
      need(1);
      set_double(out, std::log(out.as_double()));
      return;
    case Expr::Fn::kPow:
      need(2);
      set_double(out, std::pow(out.as_double(), args[1].as_double()));
      return;
    case Expr::Fn::kFmod:
      need(2);
      set_double(out, std::fmod(out.as_double(), args[1].as_double()));
      return;
    case Expr::Fn::kMin:
    case Expr::Fn::kMax: {
      if (n == 0) {
        throw ExprError{"wrong # args for function \"" + c.name + "\""};
      }
      std::size_t best = 0;
      for (std::size_t i = 1; i < n; ++i) {
        const int cmp = compare(args[i], args[best]);
        if ((c.fn == Expr::Fn::kMin && cmp < 0) ||
            (c.fn == Expr::Fn::kMax && cmp > 0)) {
          best = i;
        }
      }
      if (best != 0) std::swap(out, args[best]);
      return;
    }
    case Expr::Fn::kUnknown: break;
  }
  throw ExprError{"unknown function \"" + c.name + "\""};
}

/// A string condition reads as the number it spells, as its text would.
bool condition_truth(const ExprValue& v) {
  if (v.kind != Kind::kString) return v.truthy();
  ExprValue parsed;
  parsed.set_parsed(v.s);
  return parsed.truthy();
}

}  // namespace

void Expr::compile(std::string_view text) {
  code.clear();
  consts.clear();
  reads.clear();
  scripts.clear();
  quoted.clear();
  calls.clear();
  errors.clear();
  max_stack = 0;
  Compiler{text, *this}.run();
}

// --- the stack machine -------------------------------------------------------

void Interp::exec_expr(const Expr& e, std::size_t base) {
  std::size_t sp = base;  // the next free slot
  // A load that may evaluate scripts marks the slots in use first, so that
  // a nested expression stacks above them.
  auto load_read = [&](const Expr::Read& rd) {
    if (rd.scalar()) {
      const std::string* v = find_var(rd.parts.front().text);
      if (v == nullptr) {
        throw ExprError{"can't read \"" + rd.parts.front().text +
                        "\": no such variable"};
      }
      expr_stack_[sp].set_parsed(*v);
      return;
    }
    std::string value;
    expr_top_ = sp;
    Result r = substitute(rd.parts, rd.nested, value);
    if (r.is_error()) throw ExprError{std::move(r.value)};
    expr_stack_[sp].set_parsed(value);
  };
  for (std::size_t pc = 0; pc < e.code.size(); ++pc) {
    const Expr::Instr& in = e.code[pc];
    switch (in.op) {
      case Op::kConst:
        expr_stack_[sp++] = e.consts[in.arg];
        break;
      case Op::kVar:
        load_read(e.reads[in.arg]);
        ++sp;
        break;
      case Op::kCommand: {
        expr_top_ = sp;
        Result r = eval_script(e.scripts[in.arg]);
        if (r.is_error()) throw ExprError{std::move(r.value)};
        expr_stack_[sp++].set_parsed(r.value);
        break;
      }
      case Op::kQuoted: {
        std::string out;
        for (const Expr::Piece& p : e.quoted[in.arg]) {
          if (p.read < 0) {
            out += p.text;
            continue;
          }
          load_read(e.reads[static_cast<std::size_t>(p.read)]);
          out += expr_stack_[sp].str();
        }
        ExprValue& v = expr_stack_[sp++];
        v.kind = Kind::kString;
        v.s.swap(out);
        break;
      }
      case Op::kCheckInt:
        to_int(expr_stack_[sp - 1]);
        break;
      case Op::kNot: {
        ExprValue& v = expr_stack_[sp - 1];
        set_int(v, v.truthy() ? 0 : 1);
        break;
      }
      case Op::kBitNot: {
        ExprValue& v = expr_stack_[sp - 1];
        set_int(v, ~to_int(v));
        break;
      }
      case Op::kNeg: {
        ExprValue& v = expr_stack_[sp - 1];
        if (v.kind == Kind::kDouble) {
          v.d = -v.d;
        } else {
          set_int(v, wrap(0 - bits(to_int(v))));
        }
        break;
      }
      case Op::kMul:
      case Op::kDiv:
      case Op::kAdd:
      case Op::kSub:
        --sp;
        arith(expr_stack_[sp - 1], expr_stack_[sp], in.op);
        break;
      case Op::kMod: {
        --sp;
        ExprValue& a = expr_stack_[sp - 1];
        const std::int64_t rhs = to_int(expr_stack_[sp]);
        if (rhs == 0) throw ExprError{"divide by zero"};
        set_int(a, floored_mod(to_int(a), rhs));
        break;
      }
      case Op::kShl:
      case Op::kShr: {
        --sp;
        ExprValue& a = expr_stack_[sp - 1];
        const std::int64_t lhs = to_int(a);
        const std::int64_t n = to_int(expr_stack_[sp]) & 63;
        set_int(a, in.op == Op::kShl ? lhs << n : lhs >> n);
        break;
      }
      case Op::kLt:
      case Op::kGt:
      case Op::kLe:
      case Op::kGe:
      case Op::kEq:
      case Op::kNe: {
        --sp;
        ExprValue& a = expr_stack_[sp - 1];
        const int c = compare(a, expr_stack_[sp]);
        const bool r = in.op == Op::kLt   ? c < 0
                       : in.op == Op::kGt ? c > 0
                       : in.op == Op::kLe ? c <= 0
                       : in.op == Op::kGe ? c >= 0
                       : in.op == Op::kEq ? c == 0
                                          : c != 0;
        set_int(a, r ? 1 : 0);
        break;
      }
      case Op::kStrEq:
      case Op::kStrNe: {
        --sp;
        ExprValue& a = expr_stack_[sp - 1];
        const bool eq = str_equal(a, expr_stack_[sp]);
        set_int(a, eq == (in.op == Op::kStrEq) ? 1 : 0);
        break;
      }
      case Op::kBitAnd:
      case Op::kBitXor:
      case Op::kBitOr: {
        --sp;
        ExprValue& a = expr_stack_[sp - 1];
        const std::int64_t x = to_int(a);
        const std::int64_t y = to_int(expr_stack_[sp]);
        set_int(a, in.op == Op::kBitAnd   ? (x & y)
                   : in.op == Op::kBitXor ? (x ^ y)
                                          : (x | y));
        break;
      }
      case Op::kAndJump:
      case Op::kOrJump: {
        ExprValue& v = expr_stack_[sp - 1];
        const bool decided = v.truthy() == (in.op == Op::kOrJump);
        if (!decided) {
          --sp;
          break;
        }
        set_int(v, in.op == Op::kOrJump ? 1 : 0);
        pc = in.arg - 1;
        break;
      }
      case Op::kBool: {
        ExprValue& v = expr_stack_[sp - 1];
        set_int(v, v.truthy() ? 1 : 0);
        break;
      }
      case Op::kJumpIfFalse:
        --sp;
        if (!expr_stack_[sp].truthy()) pc = in.arg - 1;
        break;
      case Op::kJump:
        pc = in.arg - 1;
        break;
      case Op::kCall: {
        const Expr::Call& c = e.calls[in.arg];
        const std::size_t first = sp - c.nargs;
        call(c, &expr_stack_[first]);  // no function takes zero arguments
        sp = first + 1;
        break;
      }
      case Op::kFail:
        throw ExprError{e.errors[in.arg]};
    }
  }
}

Result Interp::run_expr(const Expr& e, const ExprValue** value) {
  const std::size_t base = expr_top_;
  if (expr_stack_.size() < base + e.max_stack) {
    expr_stack_.resize(base + e.max_stack);
  }
  try {
    exec_expr(e, base);
  } catch (ExprError& err) {
    expr_top_ = base;
    return Result::error(std::move(err.msg));
  }
  expr_top_ = base;
  *value = &expr_stack_[base];
  return Result::ok();
}

Result Interp::run_expr_text(std::string_view text, const ExprValue** value) {
  if (expr_scratch_used_ == expr_scratch_.size()) {
    expr_scratch_.push_back(std::make_unique<Expr>());
  }
  Expr& e = *expr_scratch_[expr_scratch_used_++];
  e.compile(text);
  Result r = run_expr(e, value);
  --expr_scratch_used_;
  return r;
}

Result Interp::run_expr_word(const CallArgs& a, std::size_t i,
                             const ExprValue** value) {
  const parse::Word* w = a.literal_word(i);
  if (w == nullptr) return run_expr_text(a[i], value);
  if (w->expr == nullptr) {
    auto e = std::make_shared<Expr>();
    e->compile(w->value());
    w->expr = std::move(e);
  }
  return run_expr(*w->expr, value);
}

Result Interp::eval_expr(std::string_view expr) {
  const ExprValue* v = nullptr;
  Result r = run_expr_text(expr, &v);
  if (!r.is_ok()) return r;
  return Result::ok(v->str());
}

Result Interp::eval_expr_word(const CallArgs& a, std::size_t i) {
  const ExprValue* v = nullptr;
  Result r = run_expr_word(a, i, &v);
  if (!r.is_ok()) return r;
  return Result::ok(v->str());
}

Result Interp::eval_condition(const CallArgs& a, std::size_t i,
                              bool& truthy) {
  const ExprValue* v = nullptr;
  Result r = run_expr_word(a, i, &v);
  if (r.is_ok()) truthy = condition_truth(*v);
  return r;
}

}  // namespace pfi::script
