// The executable form of a kernel program.
//
// A vendor OpenCL driver compiles kernel text to device code once (paper
// Fig. 2). The simulated device does the same with kernel IR: a
// GpuKernelArtifact lowers its KernelProgram once, when it is built, and
// every launch runs the lowered form. Lowering first runs validate(), so a
// malformed program (a hostile cache entry or compile-service payload) is
// rejected here instead of corrupting memory or computing garbage at run
// time. It also rewrites the code for an executor that spends one
// dispatch per instruction (DESIGN.md §4, "The lowered kernel"):
//   * one opcode per (operator, type), so no type or operator switch runs
//     per instruction;
//   * a register whose every definition loads the same constant is set
//     once per range, and those loads are dropped;
//   * `op t ← …; mov x ← t` becomes `op x ← …` when t has one definition
//     and one use and the mov is no jump target;
//   * `cmp t ← a⟨op⟩b; jz t → L` becomes one instruction when t has one use,
//     the jz is no jump target and L lies ahead;
//   * a sentinel ends the code, where dead jumps past the end land; it
//     throws if execution ever reaches it;
//   * the watchdog is charged at taken backward jumps, by the original
//     length of the loop body.
// The KernelProgram itself is unchanged: caches, the OpenCL text and
// disassemble() still see the compiler's IR.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gpu/kernel_ir.h"

namespace lm::serde {
struct CValue;
}

namespace lm::gpu {

struct KArg;
class LoweredKernel;

/// The one well-formedness check of kernel IR, compiled or served:
/// LoweredKernel and fpga::synthesize run it on every program. It checks
/// every index and selector the executor and synthesis trust; that each
/// parameter is read as its mode says (kLoadElem and kArrayLen for whole
/// arrays, kLoadParam for the others); that every register is written
/// before it is read on every path; and that no path falls off the end.
/// Throws RuntimeError naming the first fault. The path check is one pass
/// in code order that keeps a bitset of registers per jump target, within
/// a work budget of 2^22 words; a program that needs more, or a back edge
/// that would revise its target's state, is rejected as malformed
/// (DESIGN.md §4, "The lowered kernel").
void validate(const KernelProgram& program);

/// Runs work items [begin, end) of a lowered kernel, each writing one
/// element of `out`. Exposed for tests; GpuDevice::launch parallelizes
/// over this.
void run_kernel_range(const LoweredKernel& kernel,
                      const std::vector<KArg>& args, serde::CValue& out,
                      size_t begin, size_t end);

/// One lowered instruction; `op` is an opcode private to lowered.cpp.
struct LInstr {
  uint8_t op = 0;
  uint8_t aux = 0;              // ArithOp / CmpOp / Intrinsic (generic ops)
  NumType t = NumType::kI32;    // generic ops, casts and parameter loads
  NumType t2 = NumType::kI32;   // cast target
  uint16_t dst = 0;
  uint16_t a = 0;
  uint16_t b = 0;
  int32_t imm = 0;    // jump target
  uint32_t cost = 0;  // backward jumps: the loop body's original length
};

class LoweredKernel {
 public:
  /// Validates and lowers `program`; throws RuntimeError when it is
  /// malformed. Implicit, so a KernelProgram can be passed wherever a
  /// lowered kernel is expected (it is then lowered for that one call).
  LoweredKernel(const KernelProgram& program);

  const std::string& task_id() const { return task_id_; }
  NumType ret_type() const { return ret_type_; }
  /// Lowered instructions, the end sentinel included.
  size_t size() const { return code_.size(); }

 private:
  friend void run_kernel_range(const LoweredKernel& kernel,
                               const std::vector<KArg>& args,
                               serde::CValue& out, size_t begin, size_t end);

  std::string task_id_;
  NumType ret_type_ = NumType::kI32;
  size_t param_count_ = 0;
  int num_regs_ = 0;
  std::vector<LInstr> code_;
  std::vector<KReg> consts_;
  /// Registers set once per range: every definition loads this constant.
  std::vector<std::pair<uint16_t, KReg>> presets_;
};

}  // namespace lm::gpu
