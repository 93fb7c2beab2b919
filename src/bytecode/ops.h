// Java's operator semantics on plain C++ scalars, written once.
//
// The bytecode VM, the GPU kernel simulator, the constant folder and FPGA
// synthesis's constant division all compute through these functions, so
// every artifact of a task computes the same function and substitution
// changes placement, never output (DESIGN.md §4, "Operator semantics").
//
// Scalar types: int32_t is Lime's int, int64_t its long, float and double
// are IEEE-754 binary32 and binary64, and bool stands for boolean and bit.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "bytecode/instr.h"
#include "util/error.h"

namespace lm::bc::ops {

/// Integer division or remainder: MIN_VALUE / -1 wraps to MIN_VALUE and
/// MIN_VALUE % -1 is 0, where C++ traps on both; a zero divisor throws.
/// Out of line, so the executors' per-op switches that call it stay small
/// enough to inline into their per-element loops.
template <typename T>
[[gnu::noinline]] T div_rem(ArithOp op, T x, T y) {
  if (y == 0) {
    throw RuntimeError(op == ArithOp::kDiv ? "integer division by zero"
                                           : "integer remainder by zero");
  }
  if (y == -1) {
    using U = std::make_unsigned_t<T>;
    return op == ArithOp::kDiv ? static_cast<T>(U{0} - static_cast<U>(x)) : 0;
  }
  return op == ArithOp::kDiv ? x / y : x % y;
}

/// `x op y`; kNeg is unary and ignores y. Integers wrap (add, sub, mul and
/// neg compute in the unsigned type) and shifts mask the distance to the
/// width (& 31 for int, & 63 for long). bool takes and, or and xor.
template <typename T>
inline T arith(ArithOp op, T x, T y) {
  if constexpr (std::is_same_v<T, bool>) {
    switch (op) {
      case ArithOp::kAnd: return x && y;
      case ArithOp::kOr: return x || y;
      case ArithOp::kXor: return x != y;
      default: throw RuntimeError("bad boolean op");
    }
  } else if constexpr (std::is_integral_v<T>) {
    using U = std::make_unsigned_t<T>;
    constexpr T kShiftMask = std::numeric_limits<U>::digits - 1;
    const auto ux = static_cast<U>(x);
    const auto uy = static_cast<U>(y);
    switch (op) {
      case ArithOp::kAdd: return static_cast<T>(ux + uy);
      case ArithOp::kSub: return static_cast<T>(ux - uy);
      case ArithOp::kMul: return static_cast<T>(ux * uy);
      case ArithOp::kDiv:
      case ArithOp::kRem: return div_rem(op, x, y);
      case ArithOp::kAnd: return x & y;
      case ArithOp::kOr: return x | y;
      case ArithOp::kXor: return x ^ y;
      case ArithOp::kShl: return static_cast<T>(ux << (y & kShiftMask));
      case ArithOp::kShr: return x >> (y & kShiftMask);
      case ArithOp::kNeg: return static_cast<T>(U{0} - ux);
    }
    LM_UNREACHABLE("bad integer op");
  } else {
    switch (op) {
      case ArithOp::kAdd: return x + y;
      case ArithOp::kSub: return x - y;
      case ArithOp::kMul: return x * y;
      case ArithOp::kDiv: return x / y;
      case ArithOp::kNeg: return -x;
      default: throw RuntimeError("bad floating-point op");
    }
  }
}

template <typename T>
inline bool compare(CmpOp op, T x, T y) {
  switch (op) {
    case CmpOp::kEq: return x == y;
    case CmpOp::kNe: return x != y;
    case CmpOp::kLt: return x < y;
    case CmpOp::kLe: return x <= y;
    case CmpOp::kGt: return x > y;
    case CmpOp::kGe: return x >= y;
  }
  LM_UNREACHABLE("bad comparison");
}

/// Java's conversion of `x` to `To` (JLS §5.1.2–5.1.3); To = bool is the
/// conversion to boolean, `x != 0`. Integer to integer truncates or
/// sign-extends, integer to float or double rounds once, straight from the
/// integer, and float or double to int or long maps NaN to 0 and saturates
/// at To's bounds.
template <typename To, typename From>
inline To cast(From x) {
  if constexpr (std::is_same_v<To, bool>) {
    return x != 0;
  } else if constexpr (std::is_integral_v<To> &&
                       std::is_floating_point_v<From>) {
    using Limits = std::numeric_limits<To>;
    if (std::isnan(x)) return 0;
    // MIN_VALUE is a power of two, exact in From. MAX_VALUE is exact or
    // rounds up to the next power of two; either way every x at or past it
    // converts to MAX_VALUE.
    if (x <= static_cast<From>(Limits::min())) return Limits::min();
    if (x >= static_cast<From>(Limits::max())) return Limits::max();
    return static_cast<To>(x);
  } else {
    return static_cast<To>(x);
  }
}

/// Conversion to `bit`: the low bit of `x` as a long.
template <typename From>
inline bool to_bit(From x) {
  return (cast<int64_t>(x) & 1) != 0;
}

/// Math.<fn>(x[, y]); unary functions ignore y. Integers take abs, min and
/// max, and abs wraps, so abs(MIN_VALUE) is MIN_VALUE. float and double
/// call the C library's functions, except min and max: as in Java, they
/// return NaN when either operand is NaN and order -0.0 below 0.0, where C's
/// fmin and fmax drop a NaN operand and may return either zero.
template <typename T>
inline T intrinsic(Intrinsic fn, T x, T y) {
  if constexpr (std::is_integral_v<T>) {
    switch (fn) {
      case Intrinsic::kAbs: return x < 0 ? arith(ArithOp::kNeg, x, x) : x;
      case Intrinsic::kMin: return x < y ? x : y;
      case Intrinsic::kMax: return x > y ? x : y;
      default:
        throw RuntimeError(sizeof(T) == 4 ? "intrinsic not defined for int"
                                          : "intrinsic not defined for long");
    }
  } else {
    switch (fn) {
      case Intrinsic::kSqrt: return std::sqrt(x);
      case Intrinsic::kExp: return std::exp(x);
      case Intrinsic::kLog: return std::log(x);
      case Intrinsic::kSin: return std::sin(x);
      case Intrinsic::kCos: return std::cos(x);
      case Intrinsic::kPow: return std::pow(x, y);
      case Intrinsic::kAbs: return std::fabs(x);
      case Intrinsic::kMin:
        if (std::isnan(x)) return x;
        if (x == 0 && y == 0 && std::signbit(y)) return y;
        return x <= y ? x : y;
      case Intrinsic::kMax:
        if (std::isnan(x)) return x;
        if (x == 0 && y == 0 && std::signbit(x)) return y;
        return x >= y ? x : y;
      case Intrinsic::kFloor: return std::floor(x);
    }
    LM_UNREACHABLE("bad intrinsic");
  }
}

}  // namespace lm::bc::ops
