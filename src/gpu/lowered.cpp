#include "gpu/lowered.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <type_traits>

#include "bytecode/ops.h"
#include "gpu/device.h"
#include "util/error.h"

namespace lm::gpu {

using serde::CValue;

namespace {

// ---------------------------------------------------------------------------
// Opcodes of the lowered form
// ---------------------------------------------------------------------------

using I32 = int32_t;
using I64 = int64_t;
using F32 = float;
using F64 = double;

// Every opcode, in enum order. The typed families follow their operator
// enum's order, so lowering computes a typed opcode by offset; the
// static_asserts below pin the layout. Besides them:
//   Arith, Cmp, Intrinsic  any other (operator, type) pair, through the
//                          generic do_* adapters;
//   Unless<cmp><T>         compare and branch: jump forward unless a⟨op⟩b;
//   Not                    also the bit flip;
//   JumpBack, JumpIfFalseBack  backward jumps, which charge the watchdog;
//   End                    the sentinel: execution fell off the end.
#define LM_INT_ARITH(X, T)                                                \
  X(Add, T) X(Sub, T) X(Mul, T) X(Div, T) X(Rem, T) X(And, T) X(Or, T)    \
  X(Xor, T) X(Shl, T) X(Shr, T) X(Neg, T)
#define LM_FLOAT_ARITH(X, T) X(Add, T) X(Sub, T) X(Mul, T) X(Div, T) X(Neg, T)
#define LM_COMPARES(X, T) \
  X(Eq, T) X(Ne, T) X(Lt, T) X(Le, T) X(Gt, T) X(Ge, T)
#define LM_ALL_ARITH(X)                                                   \
  LM_INT_ARITH(X, I32) LM_INT_ARITH(X, I64) LM_FLOAT_ARITH(X, F32)        \
  LM_FLOAT_ARITH(X, F64)
#define LM_ALL_COMPARES(X)                                                \
  LM_COMPARES(X, I32) LM_COMPARES(X, I64) LM_COMPARES(X, F32)             \
  LM_COMPARES(X, F64)
#define LM_LOWERED_OPS(X, TYPED, UNLESS)                                  \
  X(LoadParam) X(LoadConst) X(LoadElemI32) X(LoadElemI64) X(LoadElemF32)   \
  X(LoadElemF64) X(LoadElemByte) X(ArrayLen) X(Mov)                        \
  LM_ALL_ARITH(TYPED) X(Arith) LM_ALL_COMPARES(TYPED) X(Cmp)               \
  LM_ALL_COMPARES(UNLESS) X(Not) X(Cast) X(SqrtF32) X(SqrtF64)            \
  X(Intrinsic) X(Jump) X(JumpBack) X(JumpIfFalse) X(JumpIfFalseBack)       \
  X(Ret) X(End)

#define LM_OP_NAME(N) k##N,
#define LM_TYPED_NAME(OP, T) k##OP##T,
#define LM_UNLESS_NAME(OP, T) kUnless##OP##T,
enum class Op : uint8_t {
  LM_LOWERED_OPS(LM_OP_NAME, LM_TYPED_NAME, LM_UNLESS_NAME)
};

constexpr int at(Op op) { return static_cast<int>(op); }
constexpr Op op_at(int i) { return static_cast<Op>(i); }

static_assert(static_cast<int>(ArithOp::kNeg) == 10 &&
              static_cast<int>(CmpOp::kGe) == 5);
static_assert(static_cast<int>(NumType::kI64) == 1 &&
              static_cast<int>(NumType::kF64) == 3);
static_assert(at(Op::kNegI64) - at(Op::kAddI32) == 2 * 11 - 1);
static_assert(at(Op::kNegF64) - at(Op::kAddF32) == 2 * 5 - 1);
static_assert(at(Op::kGeF64) - at(Op::kEqI32) == 4 * 6 - 1);
static_assert(at(Op::kUnlessGeF64) - at(Op::kUnlessEqI32) == 4 * 6 - 1);
static_assert(at(Op::kLoadElemF64) - at(Op::kLoadElemI32) == 3);

/// The typed opcode of `op` over `t`, or the generic kArith.
Op arith_op(ArithOp op, NumType t) {
  const int o = static_cast<int>(op);
  if (t == NumType::kI32 || t == NumType::kI64) {
    return op_at(at(Op::kAddI32) + 11 * static_cast<int>(t) + o);
  }
  if (t == NumType::kF32 || t == NumType::kF64) {
    const int base = at(Op::kAddF32) + (t == NumType::kF64 ? 5 : 0);
    if (op == ArithOp::kNeg) return op_at(base + 4);
    if (o <= static_cast<int>(ArithOp::kDiv)) return op_at(base + o);
  }
  return Op::kArith;
}

/// The typed opcode of comparison `op` over `t`, or the generic kCmp.
Op compare_op(CmpOp op, NumType t) {
  if (t == NumType::kBool || t == NumType::kBit) return Op::kCmp;
  return op_at(at(Op::kEqI32) + 6 * static_cast<int>(t) +
               static_cast<int>(op));
}

bool is_typed_compare(uint8_t op) {
  return op >= at(Op::kEqI32) && op <= at(Op::kGeF64);
}

Op load_elem_op(NumType t) {
  return t <= NumType::kF64
             ? op_at(at(Op::kLoadElemI32) + static_cast<int>(t))
             : Op::kLoadElemByte;
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

bool valid_type(NumType t) { return t <= NumType::kBit; }

bool writes_dst(KOp op) {
  return op != KOp::kJump && op != KOp::kJumpIfFalse && op != KOp::kRet;
}

bool is_binary_intrinsic(uint8_t aux) {
  auto fn = static_cast<Intrinsic>(aux);
  return fn == Intrinsic::kPow || fn == Intrinsic::kMin ||
         fn == Intrinsic::kMax;
}

/// The registers `k` reads; returns how many it stored in `out`.
int operands(const KInstr& k, uint16_t out[2]) {
  switch (k.op) {
    case KOp::kLoadParam:
    case KOp::kLoadConst:
    case KOp::kArrayLen:
    case KOp::kJump:
      return 0;
    case KOp::kLoadElem:
      out[0] = k.b;  // a is the parameter, b the index register
      return 1;
    case KOp::kMov:
    case KOp::kNeg:
    case KOp::kNot:
    case KOp::kBitFlip:
    case KOp::kCast:
    case KOp::kJumpIfFalse:
    case KOp::kRet:
      out[0] = k.a;
      return 1;
    case KOp::kIntrinsic:
      out[0] = k.a;
      if (!is_binary_intrinsic(k.aux)) return 1;
      out[1] = k.b;
      return 2;
    case KOp::kArith:
    case KOp::kCmp:
      out[0] = k.a;
      out[1] = k.b;
      return 2;
  }
  return 0;
}

[[noreturn]] void reject(const KernelProgram& p, const std::string& what) {
  throw RuntimeError("kernel " + p.task_id + ": " + what);
}

[[noreturn]] void reject_at(const KernelProgram& p, size_t pc,
                            const std::string& what) {
  reject(p, "pc " + std::to_string(pc) + ": " + what);
}

bool is_jump(KOp op) { return op == KOp::kJump || op == KOp::kJumpIfFalse; }

/// Words of work validate() may do on paths: one per instruction plus, per
/// jump, two register bitsets of ⌈num_regs/64⌉ words (the jump's meet into
/// its target and the target's own). A program past it is rejected before
/// anything is allocated, so the bitsets take 16 MiB at most.
constexpr size_t kValidateBudget = size_t{1} << 22;

bool is_lowered_jump(uint8_t op) {
  return (op >= at(Op::kUnlessEqI32) && op <= at(Op::kUnlessGeF64)) ||
         (op >= at(Op::kJump) && op <= at(Op::kJumpIfFalseBack));
}

/// One instruction in lowered form, before the rewrites that span two.
LInstr lower_one(const KernelProgram& p, size_t pc) {
  const KInstr& k = p.code[pc];
  LInstr x;
  x.aux = k.aux;
  x.t = k.t;
  x.t2 = k.t2;
  x.dst = k.dst;
  x.a = k.a;
  x.b = k.b;
  x.imm = k.imm;
  Op op = Op::kEnd;
  switch (k.op) {
    case KOp::kLoadParam:
      op = Op::kLoadParam;
      x.t = p.params[k.a].type;
      break;
    case KOp::kLoadConst: op = Op::kLoadConst; break;
    case KOp::kLoadElem: op = load_elem_op(k.t); break;
    case KOp::kArrayLen: op = Op::kArrayLen; break;
    case KOp::kMov: op = Op::kMov; break;
    case KOp::kArith: op = arith_op(static_cast<ArithOp>(k.aux), k.t); break;
    case KOp::kNeg:
      op = arith_op(ArithOp::kNeg, k.t);
      x.aux = static_cast<uint8_t>(ArithOp::kNeg);
      x.b = k.a;
      break;
    case KOp::kCmp: op = compare_op(static_cast<CmpOp>(k.aux), k.t); break;
    case KOp::kNot:
    case KOp::kBitFlip: op = Op::kNot; break;
    case KOp::kCast: op = Op::kCast; break;
    case KOp::kJump:
    case KOp::kJumpIfFalse: {
      const auto target = static_cast<size_t>(k.imm);
      const bool back = target <= pc;
      if (k.op == KOp::kJump) {
        op = back ? Op::kJumpBack : Op::kJump;
      } else {
        op = back ? Op::kJumpIfFalseBack : Op::kJumpIfFalse;
      }
      if (back) x.cost = static_cast<uint32_t>(pc - target + 1);
      break;
    }
    case KOp::kIntrinsic:
      if (static_cast<Intrinsic>(k.aux) == Intrinsic::kSqrt &&
          (k.t == NumType::kF32 || k.t == NumType::kF64)) {
        op = k.t == NumType::kF32 ? Op::kSqrtF32 : Op::kSqrtF64;
      } else {
        op = Op::kIntrinsic;
        if (!is_binary_intrinsic(k.aux)) x.b = k.a;
      }
      break;
    case KOp::kRet: op = Op::kRet; break;
  }
  x.op = static_cast<uint8_t>(op);
  return x;
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

template <typename T>
T get(KReg r);
template <>
inline I32 get<I32>(KReg r) { return r.i32; }
template <>
inline I64 get<I64>(KReg r) { return r.i64; }
template <>
inline F32 get<F32>(KReg r) { return r.f32; }
template <>
inline F64 get<F64>(KReg r) { return r.f64; }

inline KReg put(I32 v) { KReg r{}; r.i32 = v; return r; }
inline KReg put(I64 v) { KReg r{}; r.i64 = v; return r; }
inline KReg put(F32 v) { KReg r{}; r.f32 = v; return r; }
inline KReg put(F64 v) { KReg r{}; r.f64 = v; return r; }
inline KReg put_flag(bool v) { KReg r{}; r.b = v ? 1 : 0; return r; }

/// Element `i` of `cv` as a register of type T (uint8_t: bool and bit).
template <typename T>
inline KReg element(const CValue& cv, size_t i) {
  if constexpr (std::is_same_v<T, I32>) return put(cv.i32s()[i]);
  if constexpr (std::is_same_v<T, I64>) return put(cv.i64s()[i]);
  if constexpr (std::is_same_v<T, F32>) return put(cv.f32s()[i]);
  if constexpr (std::is_same_v<T, F64>) return put(cv.f64s()[i]);
  if constexpr (std::is_same_v<T, uint8_t>) {
    KReg r{};
    r.b = cv.bytes()[i];
    return r;
  }
}

inline KReg load_elem(const CValue& cv, size_t i, NumType t) {
  switch (t) {
    case NumType::kI32: return element<I32>(cv, i);
    case NumType::kI64: return element<I64>(cv, i);
    case NumType::kF32: return element<F32>(cv, i);
    case NumType::kF64: return element<F64>(cv, i);
    case NumType::kBool:
    case NumType::kBit: return element<uint8_t>(cv, i);
  }
  return KReg{};
}

inline void store_elem(CValue& cv, size_t i, NumType t, KReg v) {
  switch (t) {
    case NumType::kI32: cv.i32s()[i] = v.i32; break;
    case NumType::kI64: cv.i64s()[i] = v.i64; break;
    case NumType::kF32: cv.f32s()[i] = v.f32; break;
    case NumType::kF64: cv.f64s()[i] = v.f64; break;
    case NumType::kBool:
    case NumType::kBit: cv.bytes()[i] = v.b; break;
  }
}

inline KReg load_param(const KArg& a, size_t gid, NumType t) {
  if (a.mode == KArg::Mode::kScalar) return a.scalar;
  LM_CHECK(a.mode == KArg::Mode::kElementwise && a.array);
  return load_elem(*a.array,
                   gid * static_cast<size_t>(a.stride) +
                       static_cast<size_t>(a.offset),
                   t);
}

[[noreturn, gnu::cold]] void index_out_of_bounds() {
  throw RuntimeError("kernel array index out of bounds");
}

/// a[index] of a whole-array argument, bounds-checked.
template <typename T>
inline KReg load_indexed(const KArg& a, KReg index) {
  LM_CHECK(a.array != nullptr);
  auto i = static_cast<size_t>(index.i32);
  if (i >= a.array->count) index_out_of_bounds();
  return element<T>(*a.array, i);
}

// Generic KReg adapters over bytecode/ops.h, for the (operator, type) pairs
// without a typed opcode. Each pair the operator rules reject throws the
// rules' own error when it runs.

inline KReg do_arith(ArithOp op, NumType t, KReg a, KReg b) {
  switch (t) {
    case NumType::kI32: return put(bc::ops::arith(op, a.i32, b.i32));
    case NumType::kI64: return put(bc::ops::arith(op, a.i64, b.i64));
    case NumType::kF32: return put(bc::ops::arith(op, a.f32, b.f32));
    case NumType::kF64: return put(bc::ops::arith(op, a.f64, b.f64));
    case NumType::kBool:
    case NumType::kBit:
      return put_flag(bc::ops::arith(op, a.b != 0, b.b != 0));
  }
  return KReg{};
}

inline bool do_cmp(CmpOp op, NumType t, KReg a, KReg b) {
  switch (t) {
    case NumType::kI32: return bc::ops::compare(op, a.i32, b.i32);
    case NumType::kI64: return bc::ops::compare(op, a.i64, b.i64);
    case NumType::kF32: return bc::ops::compare(op, a.f32, b.f32);
    case NumType::kF64: return bc::ops::compare(op, a.f64, b.f64);
    case NumType::kBool:
    case NumType::kBit: return bc::ops::compare(op, a.b, b.b);
  }
  return false;
}

inline KReg do_cast(NumType from, NumType to, KReg v) {
  KReg r{};
  auto convert = [&r, to](auto x) {
    switch (to) {
      case NumType::kI32: r.i32 = bc::ops::cast<int32_t>(x); break;
      case NumType::kI64: r.i64 = bc::ops::cast<int64_t>(x); break;
      case NumType::kF32: r.f32 = bc::ops::cast<float>(x); break;
      case NumType::kF64: r.f64 = bc::ops::cast<double>(x); break;
      case NumType::kBool: r.b = bc::ops::cast<bool>(x); break;
      case NumType::kBit: r.b = bc::ops::to_bit(x); break;
    }
  };
  // Widening an integer to long or a float to double is exact, so
  // converting the wide value gives Java's result for the narrow one.
  switch (from) {
    case NumType::kI32: convert(int64_t{v.i32}); break;
    case NumType::kI64: convert(v.i64); break;
    case NumType::kF32: convert(double{v.f32}); break;
    case NumType::kF64: convert(v.f64); break;
    case NumType::kBool:
    case NumType::kBit: convert(int64_t{v.b}); break;
  }
  return r;
}

inline KReg do_intrinsic(Intrinsic fn, NumType t, KReg a, KReg b) {
  switch (t) {
    case NumType::kI32: return put(bc::ops::intrinsic(fn, a.i32, b.i32));
    case NumType::kI64: return put(bc::ops::intrinsic(fn, a.i64, b.i64));
    case NumType::kF32: return put(bc::ops::intrinsic(fn, a.f32, b.f32));
    case NumType::kF64: return put(bc::ops::intrinsic(fn, a.f64, b.f64));
    case NumType::kBool:
    case NumType::kBit: throw RuntimeError("bad intrinsic type");
  }
  return KReg{};
}

/// Instructions one work item may charge to the watchdog.
constexpr size_t kWatchdogBudget = 64u * 1024u * 1024u;

[[noreturn, gnu::cold]] void kernel_failed(const std::string& task_id,
                                           const char* what) {
  throw RuntimeError("kernel " + task_id + " " + what);
}

}  // namespace

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

void validate(const KernelProgram& p) {
  if (p.num_regs < 0 || p.num_regs > 65536) {
    reject(p, "register count " + std::to_string(p.num_regs) +
                  " outside [0, 65536]");
  }
  if (!valid_type(p.ret_type)) reject(p, "unknown return type");
  for (size_t i = 0; i < p.params.size(); ++i) {
    if (!valid_type(p.params[i].type) ||
        p.params[i].mode > ParamMode::kWholeArray) {
      reject(p, "parameter " + std::to_string(i) +
                    " has an unknown type or mode");
    }
  }
  const size_t n = p.code.size();
  if (n == 0) reject(p, "control fell off the end without returning");
  // The paths, in one pass in code order. A running bitset (bit r: every
  // path to here wrote r) goes from each instruction to the next; a jump
  // target also keeps the meet (intersection) of the states its forward
  // jumps bring. A back edge must bring every register its target was
  // reached with, so that state holds on every turn of the loop. A
  // compiled loop is entered at its head, which every path to its back
  // edge passes, so its back edges always do; one that would lose a
  // register or return to code no earlier path reached is rejected, not
  // revisited. Code no path reaches has its indices checked, not its paths.
  constexpr uint32_t kNoTarget = UINT32_MAX;
  std::vector<uint32_t> target_of(n, kNoTarget);  // pc → its bitset
  uint32_t targets = 0;
  size_t jumps = 0;
  for (const KInstr& k : p.code) {
    const auto to = static_cast<size_t>(k.imm);
    if (!is_jump(k.op)) continue;
    ++jumps;
    if (to < n && target_of[to] == kNoTarget) target_of[to] = targets++;
  }
  const auto nregs = static_cast<size_t>(p.num_regs);
  const size_t words = (nregs + 63) / 64;
  if (n + (2 * jumps + 1) * words > kValidateBudget) {
    reject(p, std::to_string(n) + " instructions with " +
                  std::to_string(jumps) + " jumps over " +
                  std::to_string(nregs) +
                  " registers exceed the validation budget");
  }
  std::vector<uint64_t> at_target(size_t{targets} * words);
  std::vector<char> reached(targets, 0);
  std::vector<uint64_t> state(words);
  bool live = true;  // control enters pc 0 with nothing written
  // Meets `state` into target `t`'s, or makes it t's first state.
  auto meet_into = [&](uint32_t t) {
    uint64_t* to = at_target.data() + size_t{t} * words;
    for (size_t w = 0; w < words; ++w) {
      to[w] = reached[t] ? to[w] & state[w] : state[w];
    }
    reached[t] = 1;
  };

  for (size_t pc = 0; pc < n; ++pc) {
    const KInstr& k = p.code[pc];
    if (const uint32_t t = target_of[pc]; t != kNoTarget) {
      if (live) meet_into(t);
      if (reached[t]) {
        const uint64_t* in = at_target.data() + size_t{t} * words;
        std::copy(in, in + words, state.begin());
        live = true;
      }
    }
    if (k.op > KOp::kRet) {
      reject_at(p, pc, "unknown opcode " +
                           std::to_string(static_cast<int>(k.op)));
    }
    if (!valid_type(k.t) || !valid_type(k.t2)) {
      reject_at(p, pc, "unknown operand type");
    }
    const bool aux_ok =
        k.op == KOp::kArith       ? k.aux <= static_cast<int>(ArithOp::kNeg)
        : k.op == KOp::kCmp       ? k.aux <= static_cast<int>(CmpOp::kGe)
        : k.op == KOp::kIntrinsic ? k.aux <= static_cast<int>(Intrinsic::kFloor)
                                  : true;
    if (!aux_ok) {
      reject_at(p, pc, "unknown operator " + std::to_string(int{k.aux}));
    }
    if (writes_dst(k.op) && k.dst >= nregs) {
      reject_at(p, pc, "destination register r" + std::to_string(k.dst) +
                           " out of range");
    }
    uint16_t regs[2];
    const int nread = operands(k, regs);
    for (int i = 0; i < nread; ++i) {
      if (regs[i] >= nregs) {
        reject_at(p, pc, "source register r" + std::to_string(regs[i]) +
                             " out of range");
      }
    }
    switch (k.op) {
      case KOp::kLoadConst:
        if (k.a >= p.consts.size()) {
          reject_at(p, pc, "constant c" + std::to_string(k.a) +
                               " out of range");
        }
        break;
      case KOp::kLoadParam:
      case KOp::kLoadElem:
      case KOp::kArrayLen:
        if (k.a >= p.params.size()) {
          reject_at(p, pc, "parameter p" + std::to_string(k.a) +
                               " out of range");
        }
        if ((p.params[k.a].mode == ParamMode::kWholeArray) ==
            (k.op == KOp::kLoadParam)) {
          reject_at(p, pc, (k.op == KOp::kLoadParam
                                ? "scalar load of whole-array parameter p"
                                : "array access to scalar parameter p") +
                               std::to_string(k.a));
        }
        break;
      case KOp::kJump:
      case KOp::kJumpIfFalse:
        if (k.imm < 0 || static_cast<size_t>(k.imm) > n) {
          reject_at(p, pc, "jump target " + std::to_string(k.imm) +
                               " out of range");
        }
        break;
      default:
        break;
    }
    if (!live) continue;
    for (int i = 0; i < nread; ++i) {
      if ((state[regs[i] / 64] >> (regs[i] % 64) & 1) == 0) {
        reject_at(p, pc, "reads r" + std::to_string(regs[i]) +
                             " before every path to it writes it");
      }
    }
    if (writes_dst(k.op)) state[k.dst / 64] |= uint64_t{1} << (k.dst % 64);
    live = k.op != KOp::kRet && k.op != KOp::kJump;
    if (!is_jump(k.op)) continue;
    const auto to = static_cast<size_t>(k.imm);
    if (to == n) reject_at(p, pc, "control fell off the end without returning");
    const uint32_t t = target_of[to];
    if (to > pc) {
      meet_into(t);
      continue;
    }
    if (!reached[t]) {
      reject_at(p, pc, "jumps back to pc " + std::to_string(to) +
                           ", which no earlier path reaches");
    }
    const uint64_t* head = at_target.data() + size_t{t} * words;
    for (size_t w = 0; w < words; ++w) {
      if (const uint64_t lost = head[w] & ~state[w]) {
        reject_at(p, pc, "jumps back to pc " + std::to_string(to) +
                             " with r" +
                             std::to_string(w * 64 + std::countr_zero(lost)) +
                             " possibly unwritten");
      }
    }
  }
  if (live) {
    reject_at(p, n - 1, "control fell off the end without returning");
  }
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

LoweredKernel::LoweredKernel(const KernelProgram& p)
    : task_id_(p.task_id),
      ret_type_(p.ret_type),
      param_count_(p.params.size()),
      num_regs_(p.num_regs) {
  validate(p);
  const size_t n = p.code.size();
  const auto nregs = static_cast<size_t>(p.num_regs);

  // Definitions and uses of each register, and the jump targets.
  std::vector<uint32_t> defs(nregs, 0);
  std::vector<uint32_t> uses(nregs, 0);
  std::vector<char> is_target(n + 1, 0);
  for (const KInstr& k : p.code) {
    if (writes_dst(k.op)) ++defs[k.dst];
    uint16_t regs[2];
    for (int i = 0, m = operands(k, regs); i < m; ++i) ++uses[regs[i]];
    if (is_jump(k.op)) is_target[static_cast<size_t>(k.imm)] = 1;
  }

  // A register whose every definition loads the same constant bits is set
  // once per range; its loads are dropped below.
  constexpr int kNoDef = -1;
  constexpr int kNotConstant = -2;
  std::vector<int> constant(nregs, kNoDef);
  for (const KInstr& k : p.code) {
    if (!writes_dst(k.op)) continue;
    int& c = constant[k.dst];
    if (k.op != KOp::kLoadConst) {
      c = kNotConstant;
    } else if (c == kNoDef) {
      c = k.a;
    } else if (c >= 0 &&
               std::memcmp(&p.consts[static_cast<size_t>(c)].value,
                           &p.consts[k.a].value, sizeof(KReg)) != 0) {
      c = kNotConstant;
    }
  }
  for (size_t r = 0; r < nregs; ++r) {
    if (constant[r] >= 0) {
      presets_.emplace_back(static_cast<uint16_t>(r),
                            p.consts[static_cast<size_t>(constant[r])].value);
    }
  }
  consts_.reserve(p.consts.size());
  for (const KConst& c : p.consts) consts_.push_back(c.value);

  // new_pc[pc]: the lowered index of the first kept instruction at or
  // after pc; jump targets are remapped through it at the end.
  std::vector<uint32_t> new_pc(n + 1, 0);
  size_t prev = 0;  // source pc of code_.back()
  for (size_t pc = 0; pc < n; ++pc) {
    new_pc[pc] = static_cast<uint32_t>(code_.size());
    const KInstr& k = p.code[pc];
    if (k.op == KOp::kLoadConst && constant[k.dst] >= 0) continue;
    // Both rewrites merge k into the instruction just emitted, so that one
    // must come from pc - 1 and control must not reach k any other way.
    const bool mergeable = !code_.empty() && prev + 1 == pc && !is_target[pc];
    if (mergeable && k.op == KOp::kMov && defs[k.a] == 1 && uses[k.a] == 1 &&
        writes_dst(p.code[prev].op) && code_.back().dst == k.a) {
      code_.back().dst = k.dst;  // op t ← …; mov x ← t  ⇒  op x ← …
      prev = pc;
      continue;
    }
    if (mergeable && k.op == KOp::kJumpIfFalse && uses[k.a] == 1 &&
        static_cast<size_t>(k.imm) > pc && p.code[prev].op == KOp::kCmp &&
        is_typed_compare(code_.back().op) && code_.back().dst == k.a) {
      // cmp t ← a⟨op⟩b; jz t → L  ⇒  unless a⟨op⟩b → L
      code_.back().op = static_cast<uint8_t>(code_.back().op +
                                             at(Op::kUnlessEqI32) -
                                             at(Op::kEqI32));
      code_.back().imm = k.imm;
      prev = pc;
      continue;
    }
    code_.push_back(lower_one(p, pc));
    prev = pc;
  }
  new_pc[n] = static_cast<uint32_t>(code_.size());
  LInstr end;
  end.op = static_cast<uint8_t>(Op::kEnd);
  code_.push_back(end);
  for (LInstr& x : code_) {
    if (is_lowered_jump(x.op)) {
      x.imm = static_cast<int32_t>(new_pc[static_cast<size_t>(x.imm)]);
    }
  }
}

// ---------------------------------------------------------------------------
// The executor: one dispatch per lowered instruction
// ---------------------------------------------------------------------------
//
// Each handler ends by jumping straight to the next instruction's handler
// through a table of label addresses (GCC's labels as values), so every
// handler has its own indirect branch and nothing else runs between two
// instructions. Lowering emits only opcodes the table holds.

#define LM_NEXT()          \
  do {                     \
    x = ip++;              \
    goto* kHandlers[x->op]; \
  } while (0)
#define LM_ARITH_HANDLER(OP, T)                                           \
  L_##OP##T:                                                              \
    r[x->dst] = put(bc::ops::arith(ArithOp::k##OP, get<T>(r[x->a]),       \
                                   get<T>(r[x->b])));                     \
    LM_NEXT();
#define LM_COMPARE_HANDLER(OP, T)                                         \
  L_##OP##T:                                                              \
    r[x->dst] = put_flag(                                                 \
        bc::ops::compare(CmpOp::k##OP, get<T>(r[x->a]), get<T>(r[x->b]))); \
    LM_NEXT();
#define LM_UNLESS_HANDLER(OP, T)                                          \
  L_Unless##OP##T:                                                        \
    if (!bc::ops::compare(CmpOp::k##OP, get<T>(r[x->a]),                  \
                          get<T>(r[x->b]))) {                             \
      ip = code + x->imm;                                                 \
    }                                                                     \
    LM_NEXT();
#define LM_OP_LABEL(N) &&L_##N,
#define LM_TYPED_LABEL(OP, T) &&L_##OP##T,
#define LM_UNLESS_LABEL(OP, T) &&L_Unless##OP##T,

void run_kernel_range(const LoweredKernel& kernel,
                      const std::vector<KArg>& args, CValue& out,
                      size_t begin, size_t end) {
  LM_CHECK_MSG(args.size() == kernel.param_count_,
               "kernel launch argument count mismatch");
  LM_CHECK(begin >= end || end <= out.count);
  static void* const kHandlers[] = {
      LM_LOWERED_OPS(LM_OP_LABEL, LM_TYPED_LABEL, LM_UNLESS_LABEL)};
  std::vector<KReg> regs(static_cast<size_t>(kernel.num_regs_));
  KReg* const r = regs.data();
  for (const auto& [reg, value] : kernel.presets_) r[reg] = value;
  const LInstr* const code = kernel.code_.data();
  const KReg* const consts = kernel.consts_.data();

  for (size_t gid = begin; gid < end; ++gid) {
    const LInstr* ip = code;
    const LInstr* x;
    size_t charged = 0;
    auto charge = [&](uint32_t cost) {
      charged += cost;
      if (charged > kWatchdogBudget) {
        kernel_failed(kernel.task_id_, "exceeded the instruction watchdog");
      }
    };
    LM_NEXT();
  L_LoadParam:
    r[x->dst] = load_param(args[x->a], gid, x->t);
    LM_NEXT();
  L_LoadConst:
    r[x->dst] = consts[x->a];
    LM_NEXT();
  L_LoadElemI32:
    r[x->dst] = load_indexed<I32>(args[x->a], r[x->b]);
    LM_NEXT();
  L_LoadElemI64:
    r[x->dst] = load_indexed<I64>(args[x->a], r[x->b]);
    LM_NEXT();
  L_LoadElemF32:
    r[x->dst] = load_indexed<F32>(args[x->a], r[x->b]);
    LM_NEXT();
  L_LoadElemF64:
    r[x->dst] = load_indexed<F64>(args[x->a], r[x->b]);
    LM_NEXT();
  L_LoadElemByte:
    r[x->dst] = load_indexed<uint8_t>(args[x->a], r[x->b]);
    LM_NEXT();
  L_ArrayLen:
    LM_CHECK(args[x->a].array != nullptr);
    r[x->dst] = put(static_cast<I32>(args[x->a].array->count));
    LM_NEXT();
  L_Mov:
    r[x->dst] = r[x->a];
    LM_NEXT();
    LM_ALL_ARITH(LM_ARITH_HANDLER)
  L_Arith:
    r[x->dst] =
        do_arith(static_cast<ArithOp>(x->aux), x->t, r[x->a], r[x->b]);
    LM_NEXT();
    LM_ALL_COMPARES(LM_COMPARE_HANDLER)
  L_Cmp:
    r[x->dst] = put_flag(
        do_cmp(static_cast<CmpOp>(x->aux), x->t, r[x->a], r[x->b]));
    LM_NEXT();
    LM_ALL_COMPARES(LM_UNLESS_HANDLER)
  L_Not:
    r[x->dst] = put_flag(!r[x->a].b);
    LM_NEXT();
  L_Cast:
    r[x->dst] = do_cast(x->t, x->t2, r[x->a]);
    LM_NEXT();
  L_SqrtF32:
    r[x->dst] = put(bc::ops::intrinsic(Intrinsic::kSqrt, r[x->a].f32, F32{}));
    LM_NEXT();
  L_SqrtF64:
    r[x->dst] = put(bc::ops::intrinsic(Intrinsic::kSqrt, r[x->a].f64, F64{}));
    LM_NEXT();
  L_Intrinsic:
    r[x->dst] = do_intrinsic(static_cast<Intrinsic>(x->aux), x->t, r[x->a],
                             r[x->b]);
    LM_NEXT();
  L_Jump:
    ip = code + x->imm;
    LM_NEXT();
  L_JumpBack:
    charge(x->cost);
    ip = code + x->imm;
    LM_NEXT();
  L_JumpIfFalse:
    if (!r[x->a].b) ip = code + x->imm;
    LM_NEXT();
  L_JumpIfFalseBack:
    if (!r[x->a].b) {
      charge(x->cost);
      ip = code + x->imm;
    }
    LM_NEXT();
  L_End:
    kernel_failed(kernel.task_id_, "fell off the end without returning");
  L_Ret:
    store_elem(out, gid, kernel.ret_type_, r[x->a]);
  }
}

#undef LM_UNLESS_LABEL
#undef LM_TYPED_LABEL
#undef LM_OP_LABEL
#undef LM_UNLESS_HANDLER
#undef LM_COMPARE_HANDLER
#undef LM_ARITH_HANDLER
#undef LM_NEXT
#undef LM_UNLESS_NAME
#undef LM_TYPED_NAME
#undef LM_OP_NAME
#undef LM_LOWERED_OPS
#undef LM_ALL_COMPARES
#undef LM_ALL_ARITH
#undef LM_COMPARES
#undef LM_FLOAT_ARITH
#undef LM_INT_ARITH

}  // namespace lm::gpu
