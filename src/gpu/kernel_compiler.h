// The GPU device compiler (§3): decides suitability and lowers pure Lime
// methods (and relocated pipeline segments) to kernel IR + OpenCL-C text.
//
// "Each of the device compilers operates autonomously... It examines the
// tasks that make up each task graph and decides whether the code that
// comprises the tasks is suitable for the device. A task containing
// language constructs that are not suitable for the device is excluded from
// further compilation by that backend."
//
// Exclusion criteria for this GPU backend:
//   * the method is not pure (data races / side effects on a device),
//   * array allocation or mutation inside the kernel,
//   * nested task/map/reduce operators,
//   * recursion or call chains deeper than the inline budget,
//   * non-scalar return type,
//   * an instance method (a task's work item has no receiver to bind),
//   * a program gpu::validate (lowered.h) rejects: one with a path that
//     may end without returning, which sema admits and only a run can rule
//     out, or one past the validator's work budget.
// Calls to other pure methods are inlined (as a real GPU compiler would).
// Every program these compilers return passes gpu::validate.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "gpu/kernel_ir.h"
#include "lime/ast.h"

namespace lm::gpu {

struct KernelCompileResult {
  std::unique_ptr<KernelProgram> program;  // null when excluded
  std::string exclusion_reason;            // why the backend declined
  /// Source position of the construct that triggered the exclusion (the
  /// method declaration when no finer position is known).
  SourceLoc exclusion_loc{};

  bool ok() const { return program != nullptr; }
};

/// Compiles one pure method into a work-item kernel. Scalar parameters
/// become per-item values; value-array parameters stay whole arrays.
KernelCompileResult compile_kernel(const lime::MethodDecl& method);

/// Compiles a relocated pipeline segment (consecutive filters) into one
/// fused kernel: out = f_k(...f_1(in)...). The first filter's arity sets
/// the input stride. All filters after the first must be unary (their
/// single input is the previous stage's output).
KernelCompileResult compile_segment_kernel(
    const std::vector<const lime::MethodDecl*>& chain);

}  // namespace lm::gpu
