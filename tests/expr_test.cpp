// Tests for the expression engine behind `expr`, `if`, `while` and `for`.
#include <gtest/gtest.h>

#include "script/interp.hpp"

namespace pfi::script {
namespace {

std::string ex(Interp& in, const std::string& e) {
  Result r = in.eval_expr(e);
  EXPECT_TRUE(r.is_ok()) << e << " -> " << r.value;
  return r.value;
}

TEST(Expr, IntegerArithmetic) {
  Interp in;
  EXPECT_EQ(ex(in, "1 + 2"), "3");
  EXPECT_EQ(ex(in, "10 - 4"), "6");
  EXPECT_EQ(ex(in, "6 * 7"), "42");
  EXPECT_EQ(ex(in, "7 / 2"), "3");
  EXPECT_EQ(ex(in, "7 % 2"), "1");
  EXPECT_EQ(ex(in, "-7 / 2"), "-4");  // Tcl floors toward -inf
}

TEST(Expr, Precedence) {
  Interp in;
  EXPECT_EQ(ex(in, "2 + 3 * 4"), "14");
  EXPECT_EQ(ex(in, "(2 + 3) * 4"), "20");
  EXPECT_EQ(ex(in, "2 * 3 + 4 * 5"), "26");
  EXPECT_EQ(ex(in, "1 + 2 < 4"), "1");
}

TEST(Expr, DoublesAndPromotion) {
  Interp in;
  EXPECT_EQ(ex(in, "1.5 + 2.5"), "4.0");
  EXPECT_EQ(ex(in, "1 + 0.5"), "1.5");
  EXPECT_EQ(ex(in, "7.0 / 2"), "3.5");
}

TEST(Expr, HexLiterals) {
  Interp in;
  EXPECT_EQ(ex(in, "0x10 + 1"), "17");
  EXPECT_EQ(ex(in, "0xff"), "255");
}

TEST(Expr, Comparisons) {
  Interp in;
  EXPECT_EQ(ex(in, "3 < 4"), "1");
  EXPECT_EQ(ex(in, "4 <= 4"), "1");
  EXPECT_EQ(ex(in, "5 > 6"), "0");
  EXPECT_EQ(ex(in, "5 >= 6"), "0");
  EXPECT_EQ(ex(in, "5 == 5"), "1");
  EXPECT_EQ(ex(in, "5 != 5"), "0");
  EXPECT_EQ(ex(in, "5 == 5.0"), "1");
}

TEST(Expr, StringEquality) {
  Interp in;
  EXPECT_EQ(ex(in, "\"abc\" eq \"abc\""), "1");
  EXPECT_EQ(ex(in, "\"abc\" ne \"abd\""), "1");
  EXPECT_EQ(ex(in, "abc eq abc"), "1");
}

TEST(Expr, LogicalOps) {
  Interp in;
  EXPECT_EQ(ex(in, "1 && 0"), "0");
  EXPECT_EQ(ex(in, "1 || 0"), "1");
  EXPECT_EQ(ex(in, "!1"), "0");
  EXPECT_EQ(ex(in, "!0"), "1");
  EXPECT_EQ(ex(in, "1 && 2 && 3"), "1");
}

TEST(Expr, BitwiseOps) {
  Interp in;
  EXPECT_EQ(ex(in, "5 & 3"), "1");
  EXPECT_EQ(ex(in, "5 | 3"), "7");
  EXPECT_EQ(ex(in, "5 ^ 3"), "6");
  EXPECT_EQ(ex(in, "~0"), "-1");
  EXPECT_EQ(ex(in, "1 << 4"), "16");
  EXPECT_EQ(ex(in, "16 >> 2"), "4");
}

TEST(Expr, Ternary) {
  Interp in;
  EXPECT_EQ(ex(in, "1 ? 10 : 20"), "10");
  EXPECT_EQ(ex(in, "0 ? 10 : 20"), "20");
  EXPECT_EQ(ex(in, "3 > 2 ? 3 > 1 ? 100 : 200 : 300"), "100");
}

TEST(Expr, UnaryMinusAndPlus) {
  Interp in;
  EXPECT_EQ(ex(in, "-5 + 3"), "-2");
  EXPECT_EQ(ex(in, "+5"), "5");
  EXPECT_EQ(ex(in, "- -5"), "5");
  EXPECT_EQ(ex(in, "-2.5"), "-2.5");
}

TEST(Expr, VariableSubstitution) {
  Interp in;
  in.set_var("x", "10");
  in.set_var("y", "2.5");
  EXPECT_EQ(ex(in, "$x * 2"), "20");
  EXPECT_EQ(ex(in, "$x + $y"), "12.5");
}

TEST(Expr, CommandSubstitution) {
  Interp in;
  in.register_command({"five", 0, 0, "five"},
                     [](Interp&, const std::vector<std::string>&) {
    return Result::ok("5");
  });
  EXPECT_EQ(ex(in, "[five] + 1"), "6");
}

TEST(Expr, Functions) {
  Interp in;
  EXPECT_EQ(ex(in, "abs(-4)"), "4");
  EXPECT_EQ(ex(in, "abs(-4.5)"), "4.5");
  EXPECT_EQ(ex(in, "int(3.9)"), "3");
  EXPECT_EQ(ex(in, "round(3.5)"), "4");
  EXPECT_EQ(ex(in, "min(3, 1, 2)"), "1");
  EXPECT_EQ(ex(in, "max(3, 1, 2)"), "3");
  EXPECT_EQ(ex(in, "double(2)"), "2.0");
  EXPECT_EQ(ex(in, "pow(2, 10)"), "1024.0");
  EXPECT_EQ(ex(in, "sqrt(16)"), "4.0");
  EXPECT_EQ(ex(in, "floor(3.7)"), "3.0");
  EXPECT_EQ(ex(in, "ceil(3.2)"), "4.0");
}

TEST(Expr, BooleanWords) {
  Interp in;
  EXPECT_EQ(ex(in, "true && true"), "1");
  EXPECT_EQ(ex(in, "false || true"), "1");
}

TEST(Expr, DivideByZeroIsError) {
  Interp in;
  EXPECT_TRUE(in.eval_expr("1 / 0").is_error());
  EXPECT_TRUE(in.eval_expr("1 % 0").is_error());
  EXPECT_TRUE(in.eval_expr("1.0 / 0.0").is_error());
}

TEST(Expr, MalformedIsError) {
  Interp in;
  EXPECT_TRUE(in.eval_expr("1 +").is_error());
  EXPECT_TRUE(in.eval_expr("(1 + 2").is_error());
  EXPECT_TRUE(in.eval_expr("1 ? 2").is_error());
  EXPECT_TRUE(in.eval_expr("nosuchfun(1)").is_error());
}

TEST(Expr, NonNumericOperandIsError) {
  Interp in;
  in.set_var("s", "hello");
  EXPECT_TRUE(in.eval_expr("$s + 1").is_error());
}

TEST(Expr, StringComparisonLexicographic) {
  Interp in;
  EXPECT_EQ(ex(in, "\"apple\" < \"banana\""), "1");
  EXPECT_EQ(ex(in, "\"b\" > \"a\""), "1");
}

TEST(Expr, ViaExprCommandUnbraced) {
  Interp in;
  // Unbraced: the reader substitutes $x before expr sees it.
  in.set_var("x", "4");
  Result r = in.eval("expr $x * 2");
  EXPECT_TRUE(r.is_ok());
  EXPECT_EQ(r.value, "8");
}

TEST(Expr, BracedConditionReevaluatesEachIteration) {
  Interp in;
  Result r = in.eval(R"(
set i 0
while {$i < 3} { incr i }
set i)");
  ASSERT_TRUE(r.is_ok()) << r.value;
  EXPECT_EQ(r.value, "3");
}

TEST(ExprValue, ParseClassifiesKinds) {
  EXPECT_EQ(ExprValue::parse("42").kind, ExprValue::Kind::kInt);
  EXPECT_EQ(ExprValue::parse("-17").kind, ExprValue::Kind::kInt);
  EXPECT_EQ(ExprValue::parse("0x1F").i, 31);
  EXPECT_EQ(ExprValue::parse("3.5").kind, ExprValue::Kind::kDouble);
  EXPECT_EQ(ExprValue::parse("1e3").kind, ExprValue::Kind::kDouble);
  EXPECT_EQ(ExprValue::parse("abc").kind, ExprValue::Kind::kString);
  EXPECT_EQ(ExprValue::parse("").kind, ExprValue::Kind::kString);
  EXPECT_EQ(ExprValue::parse("12abc").kind, ExprValue::Kind::kString);
  EXPECT_EQ(ExprValue::parse(" 7 ").kind, ExprValue::Kind::kInt);
}

TEST(ExprValue, Truthiness) {
  EXPECT_TRUE(ExprValue::parse("1").truthy());
  EXPECT_FALSE(ExprValue::parse("0").truthy());
  EXPECT_TRUE(ExprValue::parse("0.5").truthy());
  EXPECT_FALSE(ExprValue::parse("0.0").truthy());
  EXPECT_FALSE(ExprValue::parse("").truthy());
  EXPECT_TRUE(ExprValue::parse("yes-ish").truthy());
}

// `expr` lexes `$` references and `[...]` with the script parser's
// scanners, so an expression reads them exactly as a command word does.
TEST(Expr, SubstitutionMatchesWordForm) {
  Interp in;
  ASSERT_TRUE(in.eval("set a(x) 5; set k x").is_ok());
  const struct {
    const char* expr;
    const char* word;
  } cases[] = {
      {"expr {$a([set k])}", "set y $a([set k])"},
      {"expr {[string length \\]]}", "set y [string length \\]]"},
      {"expr {$a($k)}", "set y $a($k)"},
  };
  for (const auto& c : cases) {
    const Result e = in.eval(c.expr);
    const Result w = in.eval(c.word);
    ASSERT_TRUE(e.is_ok()) << c.expr << " -> " << e.value;
    ASSERT_TRUE(w.is_ok()) << c.word << " -> " << w.value;
    EXPECT_EQ(e.value, w.value) << c.expr;
  }
  EXPECT_EQ(in.eval("expr {$a([set k])}").value, "5");
  EXPECT_EQ(ex(in, "[string length \\]] + 1"), "2");
}

// `&&`, `||` and `?:` evaluate the right operand, or the arm not chosen,
// only when Tcl would.
TEST(Expr, LogicalOperatorsShortCircuit) {
  Interp in;
  EXPECT_EQ(ex(in, "1 || [error boom]"), "1");
  EXPECT_EQ(ex(in, "0 && [error boom]"), "0");
  EXPECT_EQ(ex(in, "1 ? 2 : [error boom]"), "2");
  EXPECT_EQ(ex(in, "0 ? [error boom] : 3"), "3");
  EXPECT_EQ(in.eval_expr("0 || [error boom]").value, "boom");
  EXPECT_EQ(in.eval_expr("1 && [error boom]").value, "boom");
  // The standard Tcl existence guard.
  EXPECT_EQ(ex(in, "[info exists x] && $x > 0"), "0");
  in.set_var("x", "5");
  EXPECT_EQ(ex(in, "[info exists x] && $x > 0"), "1");
  // Skipped operands have no side effects; evaluated ones keep theirs.
  in.set_var("n", "0");
  EXPECT_EQ(ex(in, "0 && [incr n]"), "0");
  EXPECT_EQ(ex(in, "1 || [incr n]"), "1");
  EXPECT_EQ(ex(in, "1 ? [incr n] : [incr n 10]"), "1");
  EXPECT_EQ(ex(in, "[incr n] && [incr n] || [incr n 100]"), "1");
  EXPECT_EQ(in.get_var("n").value_or(""), "3");
  // Results are still booleans, and chains group left to right.
  EXPECT_EQ(ex(in, "2 && 3"), "1");
  EXPECT_EQ(ex(in, "0 || 0.5"), "1");
  EXPECT_EQ(ex(in, "0 && 1 || 1"), "1");
  EXPECT_EQ(ex(in, "1 ? 0 ? 1 : 2 : 3"), "2");
  // A syntax error in a skipped operand is still raised.
  EXPECT_EQ(in.eval_expr("0 && (1 +").value, "unexpected end of expression");
  EXPECT_EQ(in.eval_expr("1 || [incr n] junk").value,
            "syntax error in expression near \"junk\"");
  EXPECT_EQ(in.eval_expr("0 ? 1 : (").value, "unexpected end of expression");
  EXPECT_EQ(in.eval_expr("1 ? 1").value, "expected ':' in ?: expression");
  EXPECT_EQ(in.get_var("n").value_or(""), "3");
}

// Integer arithmetic wraps in two's complement instead of relying on
// undefined signed overflow, and the trapping corner INT64_MIN / -1 wraps.
TEST(Expr, IntegerOverflowWraps) {
  Interp in;
  EXPECT_EQ(ex(in, "9223372036854775807 + 1"), "-9223372036854775808");
  EXPECT_EQ(ex(in, "(-9223372036854775807 - 1) - 1"), "9223372036854775807");
  EXPECT_EQ(ex(in, "9223372036854775807 * 2"), "-2");
  EXPECT_EQ(ex(in, "-(-9223372036854775807 - 1)"), "-9223372036854775808");
  EXPECT_EQ(ex(in, "(-9223372036854775807 - 1) / -1"),
            "-9223372036854775808");
  EXPECT_EQ(ex(in, "abs(-9223372036854775807 - 1)"), "-9223372036854775808");
}

// `%` is the remainder of the floored division `/` already does, as in
// Tcl: it takes the divisor's sign, and x % -1 is 0.
TEST(Expr, ModuloIsFloored) {
  Interp in;
  EXPECT_EQ(ex(in, "-5 % 3"), "1");
  EXPECT_EQ(ex(in, "5 % -3"), "-1");
  EXPECT_EQ(ex(in, "-5 % -3"), "-2");
  EXPECT_EQ(ex(in, "7 % -1"), "0");
  EXPECT_EQ(ex(in, "(-9223372036854775807 - 1) % -1"), "0");
  EXPECT_EQ(in.eval_expr("5 % 0").value, "divide by zero");
  for (int a = -7; a <= 7; ++a) {
    for (int b = -4; b <= 4; ++b) {
      if (b == 0) continue;
      const std::string e = "(" + std::to_string(a) + " / " +
                            std::to_string(b) + ") * " + std::to_string(b) +
                            " + " + std::to_string(a) + " % " +
                            std::to_string(b);
      EXPECT_EQ(ex(in, e), std::to_string(a)) << e;
    }
  }
}

// Nesting is bounded: a deeper expression is an error, not a stack
// overflow, and nothing past the limit runs.
TEST(Expr, NestingIsBounded) {
  Interp in;
  const std::string deep =
      std::string(5000, '(') + "1" + std::string(5000, ')');
  Result r = in.eval_expr(deep);
  ASSERT_TRUE(r.is_error());
  EXPECT_EQ(r.value.rfind("expression nested too deeply", 0), 0u) << r.value;
  r = in.eval("expr {" + deep + "}");
  ASSERT_TRUE(r.is_error());
  EXPECT_EQ(r.value.rfind("expression nested too deeply", 0), 0u) << r.value;
  EXPECT_TRUE(in.eval_expr(std::string(6000, '!') + "1").is_error());
  EXPECT_TRUE(in.eval_expr(std::string(6000, '-') + "1").is_error());
  EXPECT_TRUE(in.eval_expr("1" + std::string(3000, '?') + "1").is_error());
  // Well inside the limit, nesting works.
  EXPECT_EQ(ex(in, std::string(90, '(') + "7" + std::string(90, ')')), "7");
  EXPECT_EQ(ex(in, std::string(90, '!') + "1"), "1");
}

// Property sweep: integer round-trip through the engine.
class ExprIntRoundTrip : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(ExprIntRoundTrip, IdentityPlusZero) {
  Interp in;
  const std::int64_t v = GetParam();
  EXPECT_EQ(ex(in, std::to_string(v) + " + 0"), std::to_string(v));
}

INSTANTIATE_TEST_SUITE_P(Values, ExprIntRoundTrip,
                         ::testing::Values(0, 1, -1, 42, -99999, 1LL << 40,
                                           -(1LL << 40)));

}  // namespace
}  // namespace pfi::script
