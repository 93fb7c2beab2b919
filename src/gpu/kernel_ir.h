// Register-based kernel IR — the executable form of a GPU artifact.
//
// A real OpenCL driver JIT-compiles kernel text to device machine code. Our
// simulated device executes this unboxed register IR instead (and may swap
// in a pre-compiled native kernel from the registry, playing the role of
// the vendor toolflow's output — see gpu/device.h). The same compilation
// also emits OpenCL-C source text so the artifact matches Fig. 2.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bytecode/instr.h"  // reuses NumType / ArithOp / CmpOp / Intrinsic

namespace lm::gpu {

using bc::ArithOp;
using bc::CmpOp;
using bc::Intrinsic;
using bc::NumType;

enum class KOp : uint8_t {
  kLoadParam,   // dst ← scalar param a (already resolved per work-item)
  kLoadConst,   // dst ← consts[a]
  kLoadElem,    // dst ← array-param a [ reg b ]   (whole-array params)
  kArrayLen,    // dst ← length of array-param a
  kMov,         // dst ← reg a
  kArith,       // dst ← a ⟨aux⟩ b   (type t)
  kNeg,         // dst ← -a          (type t)
  kCmp,         // dst ← a ⟨aux⟩ b   (bool, operand type t)
  kNot,         // dst ← !a
  kBitFlip,     // dst ← ~a (1-bit)
  kCast,        // dst ← cast a from t to t2
  kJump,        // pc ← imm
  kJumpIfFalse, // if !reg a: pc ← imm
  kIntrinsic,   // dst ← intrinsic aux (type t) over a[, b]
  kRet,         // return reg a
};

/// One scalar register. Typed access is by convention: the compiler tracks
/// the static type of every register; the executor trusts it.
union KReg {
  int32_t i32;
  int64_t i64;
  float f32;
  double f64;
  uint8_t b;  // bool / bit
};

struct KInstr {
  KOp op;
  uint16_t dst = 0;
  uint16_t a = 0;
  uint16_t b = 0;
  uint8_t aux = 0;  // ArithOp / CmpOp / Intrinsic selector
  NumType t = NumType::kI32;
  NumType t2 = NumType::kI32;
  int32_t imm = 0;  // jump target
};

struct KConst {
  KReg value{};
  NumType type = NumType::kI32;
};

/// How each kernel parameter is fed per work item.
enum class ParamMode : uint8_t {
  kElementwise,  // value = input_array[gid * stride + offset]
  kScalar,       // broadcast scalar, same for all work items
  kWholeArray,   // the kernel indexes the array itself via kLoadElem
};

struct KernelParam {
  ParamMode mode = ParamMode::kScalar;
  NumType type = NumType::kI32;  // element type for arrays
  int stride = 1;                // kElementwise: elements consumed per item
  int offset = 0;                // kElementwise: position within the group
};

struct KernelProgram {
  std::string task_id;            // e.g. "Bitflip.flip" or "seg:f+g"
  std::vector<KInstr> code;
  std::vector<KConst> consts;
  std::vector<KernelParam> params;
  int num_regs = 0;
  NumType ret_type = NumType::kI32;
  /// Elements of the input stream consumed per work item (≥1 for pipeline
  /// segment kernels whose first filter has arity > 1).
  int in_stride = 1;

  std::string opencl_source;  // the OpenCL-C artifact text (Fig. 2)

  std::string disassemble() const;
};

}  // namespace lm::gpu
