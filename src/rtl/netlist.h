// RTL netlist IR — the structural form of an FPGA artifact.
//
// The FPGA backend synthesizes each relocated filter into one Module:
// signals (wires and registers up to 64 bits), single-assignment
// combinational expressions, and clocked register updates. The same IR is
// both simulated cycle-accurately (rtl/sim.h) and printed as Verilog
// (fpga/verilog_emit.h), mirroring the paper's flow where the Verilog
// artifact runs in an RTL simulator during development (§5, Fig. 4).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/error.h"

namespace lm::rtl {

using SigId = int;

enum class HKind : uint8_t { kConst, kSig, kUnary, kBinary, kMux };

enum class HUnOp : uint8_t {
  kNot, kNeg,
  // Width-changing (target width on the node itself):
  kTrunc, kZext, kSext,
};

enum class HBinOp : uint8_t {
  kAdd, kSub, kMul,
  kAnd, kOr, kXor,
  kShl, kShrL, kShrA,   // logical / arithmetic right shift
  kEq, kNe,
  kLtS, kLeS, kGtS, kGeS,  // signed comparisons (Lime ints are signed)
};

struct HExpr;
using HExprPtr = std::shared_ptr<const HExpr>;

/// A combinational expression tree. Construction folds constants, so fully
/// unrolled loops with constant indices collapse at build time.
struct HExpr {
  HKind kind = HKind::kConst;
  int width = 1;

  uint64_t value = 0;   // kConst
  SigId sig = -1;       // kSig
  HUnOp un_op = HUnOp::kNot;
  HBinOp bin_op = HBinOp::kAdd;
  HExprPtr a, b, c;     // operands (c = mux else-branch)

  /// Frees the operands this node alone owns without recursing: unrolled
  /// datapaths nest deeper than the stack.
  ~HExpr();

  bool is_const() const { return kind == HKind::kConst; }
};

HExprPtr h_const(int width, uint64_t value);
HExprPtr h_sig(SigId sig, int width);
HExprPtr h_unary(HUnOp op, HExprPtr a);
/// Changes width: truncates, zero-extends, or sign-extends as needed.
HExprPtr h_resize(HExprPtr a, int width, bool is_signed);
HExprPtr h_binary(HBinOp op, HExprPtr a, HExprPtr b);
/// cond must be 1 bit wide; branches must agree on width.
HExprPtr h_mux(HExprPtr cond, HExprPtr then_e, HExprPtr else_e);

/// Tree-walking reference evaluator: kSig leaves read `signal_values`.
/// Masked to the expression width. A shared node is evaluated once per path
/// that reaches it, so the simulator runs the compiled form (rtl/sim.h)
/// instead; tests compare that form against this one.
uint64_t h_eval(const HExpr& e, const std::vector<uint64_t>& signal_values);

/// Masks a value to `width` bits.
inline uint64_t mask_to_width(uint64_t v, int width) {
  LM_CHECK(width >= 1 && width <= 64);
  if (width == 64) return v;
  return v & ((uint64_t{1} << width) - 1);
}

/// Sign-extends the low `width` bits of v to int64.
inline int64_t sign_extend(uint64_t v, int width) {
  LM_CHECK(width >= 1 && width <= 64);
  if (width == 64) return static_cast<int64_t>(v);
  uint64_t sign = uint64_t{1} << (width - 1);
  uint64_t m = mask_to_width(v, width);
  return static_cast<int64_t>((m ^ sign) - sign);
}

/// The semantics of every operator, shared by constant folding, h_eval and
/// the compiled simulator. `width` is the result width and `src_width` the
/// operand's; `opw` is the operand width of a binary op (its result is 1
/// bit for comparisons, `opw` otherwise). Operands arrive masked to their
/// width; results leave masked to theirs.
inline uint64_t fold_unary(HUnOp op, uint64_t a, int width, int src_width) {
  switch (op) {
    case HUnOp::kNot: return mask_to_width(~a, width);
    case HUnOp::kNeg: return mask_to_width(~a + 1, width);
    case HUnOp::kTrunc:
    case HUnOp::kZext:
      return mask_to_width(a, width);
    case HUnOp::kSext:
      return mask_to_width(static_cast<uint64_t>(sign_extend(a, src_width)),
                           width);
  }
  return 0;
}

inline uint64_t fold_binary(HBinOp op, uint64_t a, uint64_t b, int opw) {
  switch (op) {
    case HBinOp::kAdd: return mask_to_width(a + b, opw);
    case HBinOp::kSub: return mask_to_width(a - b, opw);
    case HBinOp::kMul: return mask_to_width(a * b, opw);
    case HBinOp::kAnd: return a & b;
    case HBinOp::kOr: return a | b;
    case HBinOp::kXor: return a ^ b;
    case HBinOp::kShl: return mask_to_width(b >= 64 ? 0 : a << b, opw);
    case HBinOp::kShrL: return b >= 64 ? 0 : mask_to_width(a, opw) >> b;
    case HBinOp::kShrA: {
      int64_t sa = sign_extend(a, opw);
      int64_t sh = b >= static_cast<uint64_t>(opw) ? opw - 1
                                                   : static_cast<int64_t>(b);
      return mask_to_width(static_cast<uint64_t>(sa >> sh), opw);
    }
    case HBinOp::kEq: return mask_to_width(a, opw) == mask_to_width(b, opw);
    case HBinOp::kNe: return mask_to_width(a, opw) != mask_to_width(b, opw);
    case HBinOp::kLtS: return sign_extend(a, opw) < sign_extend(b, opw);
    case HBinOp::kLeS: return sign_extend(a, opw) <= sign_extend(b, opw);
    case HBinOp::kGtS: return sign_extend(a, opw) > sign_extend(b, opw);
    case HBinOp::kGeS: return sign_extend(a, opw) >= sign_extend(b, opw);
  }
  return 0;
}

enum class SigKind : uint8_t { kInput, kOutput, kWire, kReg };

struct Signal {
  std::string name;
  int width = 1;
  SigKind kind = SigKind::kWire;
  uint64_t init = 0;  // reset value for registers
};

struct CombAssign {
  SigId target;   // kWire or kOutput
  HExprPtr expr;
};

struct SeqAssign {
  SigId target;   // kReg
  HExprPtr next;  // value latched at each rising clock edge
};

/// One synthesized hardware module. clk and rst are implicit (the simulator
/// provides the clock; rst is an ordinary input by convention).
struct Module {
  std::string name;
  std::vector<Signal> signals;
  std::vector<CombAssign> comb;
  std::vector<SeqAssign> seq;

  SigId add_signal(const std::string& name, int width, SigKind kind,
                   uint64_t init = 0);
  SigId find(const std::string& name) const;  // -1 when absent
  const Signal& sig(SigId id) const {
    LM_CHECK(id >= 0 && id < static_cast<int>(signals.size()));
    return signals[static_cast<size_t>(id)];
  }

  void assign(SigId target, HExprPtr expr);      // combinational
  void assign_next(SigId reg, HExprPtr next);    // sequential

  /// The one well-formedness check of a netlist, synthesized, decoded or
  /// built by hand (DESIGN.md §8): drivers, widths, operators and signal
  /// ids of every node the simulator will evaluate, and no combinational
  /// cycle. Each distinct node is checked once. Throws RuntimeError naming
  /// the first fault. Returns the indices of `comb` in topological order
  /// (inputs and regs as sources), the order the simulator evaluates them.
  std::vector<int> validate() const;
};

}  // namespace lm::rtl
