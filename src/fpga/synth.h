// The FPGA device compiler (§3, §5): behavioural synthesis of relocated
// filter tasks into RTL modules. The Verilog artifact text is a pure
// function of the module (verilog_emit.h), printed only when read.
//
// Suitability filter (constructs excluded by this backend, per §3's
// per-device exclusion rule):
//   * floating-point types (no FP cores in this backend — the paper calls
//     its FPGA backend "a work in progress" with a growing feature set),
//   * integer division/remainder (no combinational divider),
//   * arrays and allocation (no memory inference),
//   * unbounded loops (while, or for-loops whose trip count is not a
//     compile-time constant), break/continue,
//   * recursion; calls to pure methods are inlined, bounded loops unrolled.
//
// The synthesized module reproduces the Fig. 4 interface and timing:
// read (1 cycle) → compute (1 cycle) → publish (1 cycle), with these ports:
//
//   in : rst, inReady (input valid), inData0..k-1 (one per filter param)
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

#include "lime/ast.h"
#include "rtl/netlist.h"

namespace lm::fpga {

struct FpgaSynthOptions {
  bool pipelined = false;
  int max_unroll = 4096;  // total loop iterations before exclusion
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
  std::string exclusion_reason;
  /// Source position of the construct that triggered the exclusion (the
  /// method declaration when no finer position is known).
  SourceLoc exclusion_loc{};

  bool ok() const { return module != nullptr; }
};

/// Synthesizes one filter method. The task identifier (manifest key) is the
/// method's qualified name.
FpgaCompileResult synthesize_filter(const lime::MethodDecl& method,
                                    const FpgaSynthOptions& options = {});

/// Synthesizes a fused pipeline segment into a single module: the datapaths
/// of consecutive filters compose combinationally (out = f_k(...f_1(in))),
/// sharing one read/compute/publish wrapper. All filters after the first
/// must be unary. The module name and task id derive from the whole chain.
FpgaCompileResult synthesize_segment(
    const std::vector<const lime::MethodDecl*>& chain,
    const FpgaSynthOptions& options = {});

/// Bit width of a Lime type on the FPGA (bit/boolean→1, int/enum→32,
/// long→64). Throws InternalError for unsynthesizable types.
int fpga_width(const lime::TypeRef& type);

}  // namespace lm::fpga
