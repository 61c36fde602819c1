// The compiled form of an expression: the `expr` argument or an
// if/while/for condition, compiled once into postfix code for a small stack
// machine that Interp::run_expr executes.
//
// The code lists every operand and operator in the order the text is read,
// left to right, which is the order the operands are evaluated in: a `$`
// read, a `[...]` and an operator that can fail all happen exactly when
// reading the text would reach them. `&&`, `||` and `?:` short-circuit as
// in Tcl: the right operand, or the arm not chosen, is jumped over and
// never evaluated. A syntax error compiles to a kFail at the point where
// the text breaks, after the code for everything before it, and every jump
// left open at that point lands on it, so the reads, substitutions and
// errors that come before a syntax error still come first and the error
// is always raised.
//
// `$` references and `[...]` bodies are lexed and parsed by the script
// parser (parse.hpp), so they read the same in an expression as in a word.
// Parentheses, unary operators and `?:` arms nest at most kMaxNesting deep.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "script/interp.hpp"
#include "script/parse.hpp"

namespace pfi::script {

class Expr {
 public:
  enum class Op : std::uint8_t {
    kConst,     // push consts[arg]
    kVar,       // push the value of reads[arg]
    kCommand,   // run scripts[arg] and push its result
    kQuoted,    // push quoted[arg] with its reads substituted
    kCheckInt,  // the top must read as an integer (a shift's left side)
    kNot,
    kBitNot,
    kNeg,
    kMul,
    kDiv,
    kMod,
    kAdd,
    kSub,
    kShl,
    kShr,
    kLt,
    kGt,
    kLe,
    kGe,
    kEq,
    kNe,
    kStrEq,
    kStrNe,
    kBitAnd,
    kBitXor,
    kBitOr,
    kAndJump,  // a false top becomes 0 and jumps to arg; else it is popped
    kOrJump,   // a true top becomes 1 and jumps to arg; else it is popped
    kBool,     // the top becomes 1 or 0 by its truth
    kJumpIfFalse,  // pop the top; jump to arg when it is false
    kJump,         // jump to arg
    kCall,         // calls[arg]
    kFail,         // raise errors[arg]
  };
  enum class Fn : std::uint8_t {
    kAbs, kInt, kDouble, kRound, kFloor, kCeil, kSqrt, kExp, kLog, kPow,
    kFmod, kMin, kMax, kUnknown,
  };

  struct Instr {
    Op op;
    std::uint32_t arg = 0;
  };
  /// A `$` reference, as a word would hold it.
  struct Read {
    std::vector<parse::Part> parts;
    std::vector<parse::Script> nested;
    /// A plain `$name`: read without substituting.
    [[nodiscard]] bool scalar() const {
      return parts.size() == 1 && !parts.front().array;
    }
  };
  /// A run of literal text, or (read >= 0) the value of reads[read].
  struct Piece {
    std::string text;
    int read = -1;
  };
  struct Call {
    Fn fn = Fn::kUnknown;
    std::uint32_t nargs = 0;
    std::string name;
  };

  /// Empty the code and compile `text`; never fails (a syntax error becomes
  /// a kFail). Reuses the storage of an earlier compile.
  void compile(std::string_view text);

  std::vector<Instr> code;
  std::vector<ExprValue> consts;
  std::vector<Read> reads;
  std::vector<parse::Script> scripts;
  std::vector<std::vector<Piece>> quoted;
  std::vector<Call> calls;
  std::vector<std::string> errors;
  /// Stack slots the code needs.
  std::uint32_t max_stack = 0;
};

}  // namespace pfi::script
