// The FPGA device compiler (§3, §5): behavioural synthesis of relocated
// filter tasks and fused segments into RTL modules. The Verilog artifact
// text is a pure function of the module (verilog_emit.h), printed only when
// read.
//
// Synthesis reads the kernel IR that the GPU compiler builds for the same
// filter or segment (gpu/kernel_ir.h), so purity, recursion, inlining,
// constant folding and segment arity are decided once, by
// gpu::compile_kernel and gpu::compile_segment_kernel. On top of their
// exclusions, this backend excludes (per §3's per-device exclusion rule):
//   * floating-point types (no FP cores in this backend — the paper calls
//     its FPGA backend "a work in progress" with a growing feature set),
//   * integer division/remainder unless both operands are constant (no
//     combinational divider),
//   * array operands: element loads, lengths and whole-array parameters
//     (no memory inference),
//   * loops whose exit depends on data. A loop with a constant trip count
//     unrolls, up to kMaxUnroll taken back-edges per entry to the loop.
//
// The datapath comes from running the IR symbolically: each register holds
// a netlist expression. A branch whose condition folds to a constant
// follows one edge. A branch on data runs both arms up to their join (the
// immediate post-dominator; a kRet goes on to the next instruction) and
// muxes the registers whose values differ. A kRet records its value for
// the inputs that reach it, and the first recorded value whose condition
// holds is the result.
//
// The synthesized module reproduces the Fig. 4 interface and timing:
// read (1 cycle) → compute (1 cycle) → publish (1 cycle), with these ports:
//
//   in : rst, inReady (input valid), inData0..k-1 (one per kernel param)
//   out: inTake (ready to accept), outReady (output valid), outData
//
// Two microarchitectures are generated from the same datapath:
//   * FSM mode (default): the Fig. 4 behaviour — "the module I/O is not
//     fully pipelined": initiation interval 3.
//   * pipelined mode: 3-stage pipeline, initiation interval 1 (the ablation
//     measured by bench_fpga_waveform).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "gpu/kernel_ir.h"
#include "rtl/netlist.h"

namespace lm::fpga {

/// Taken back-edges one entry to a loop may unroll before exclusion.
inline constexpr int kMaxUnroll = 4096;

struct FpgaSynthOptions {
  bool pipelined = false;
};

struct FpgaPortMeta {
  std::vector<std::string> in_data;  // one port name per filter parameter
  std::vector<int> in_widths;
  std::string out_data = "outData";
  int out_width = 1;
  int arity = 1;
  bool pipelined = false;
  /// Cycles from accepting an input to outReady (3 in both modes).
  int latency = 3;
  /// Cycles between accepted inputs in steady state.
  int initiation_interval = 3;
};

struct FpgaCompileResult {
  std::unique_ptr<rtl::Module> module;  // null when excluded
  FpgaPortMeta ports;
  /// Why the backend declined. Kernel IR carries no source positions, so
  /// the compiler reports an exclusion at the task's declaration.
  std::string exclusion_reason;

  bool ok() const { return module != nullptr; }
};

/// Synthesizes the kernel IR of one relocated filter or fused segment. The
/// module is named after the program's task id ("Bitflip.flip" →
/// Bitflip_flip, "seg:P.a:P.b" → seg_P_a_P_b). The program must pass
/// gpu::validate (gpu/lowered.h), which runs first and throws
/// RuntimeError; an exclusion is a well-formed program this backend
/// declines.
FpgaCompileResult synthesize(const gpu::KernelProgram& program,
                             const FpgaSynthOptions& options = {});

}  // namespace lm::fpga
