// Simulated FPGA device: drives a synthesized filter module through the
// RTL simulator, element by element, over the Fig. 4 handshake.
//
// Substitution note (DESIGN.md §1): the paper attaches real Xilinx boards
// or runs the Verilog in NCSim/ModelSim (§5 explicitly demonstrates the
// simulator path — Fig. 4 is a simulator waveform). This class is that
// simulator path: the Liquid Metal runtime pushes marshaled values into
// inData/inReady and collects outData/outReady, cycle-accurately.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fpga/synth.h"
#include "rtl/sim.h"
#include "serde/native.h"

namespace lm::fpga {

struct FpgaRunStats {
  uint64_t cycles = 0;          // total cycles for the stream
  uint64_t inputs_accepted = 0;
  uint64_t outputs_produced = 0;
  /// Cycles between the first input acceptance and its output (Fig. 4's
  /// read/compute/publish latency).
  uint64_t first_output_latency = 0;
};

/// One instantiated filter. Owns the synthesized module and a simulator.
class FpgaFilter {
 public:
  explicit FpgaFilter(FpgaCompileResult artifact);

  /// Streams `input` through the module. The input holds groups of
  /// `arity()` consecutive elements per firing; the result holds one output
  /// element per firing. Cycle counts land in `stats`.
  serde::CValue process(const serde::CValue& input,
                        FpgaRunStats* stats = nullptr);

  /// Enables VCD waveform capture for subsequent process() calls.
  void enable_waveform();
  /// The captured VCD document (empty when waveforms are disabled).
  std::string waveform() const;

  int arity() const { return ports_.arity; }
  /// One-line module identity for listings and remote servers (lmdev):
  /// "<module> (arity K, II N, latency L)".
  std::string describe() const;
  const FpgaPortMeta& ports() const { return ports_; }
  const rtl::Module& module() const { return *module_; }
  /// The Verilog artifact text (Fig. 2), printed from the module on the
  /// first call and kept; safe to call from any thread.
  const std::string& verilog() const;

 private:
  std::unique_ptr<rtl::Module> module_;
  mutable std::once_flag verilog_once_;
  mutable std::string verilog_;
  FpgaPortMeta ports_;
  /// Built once; every process() call runs a simulator of its own over it,
  /// so concurrent calls (a device server's connections) share no state.
  std::shared_ptr<const rtl::CompiledModule> compiled_;
  /// The handshake ports, resolved once.
  std::vector<rtl::SigId> in_data_;
  rtl::SigId in_ready_ = -1;
  rtl::SigId in_take_ = -1;
  rtl::SigId out_ready_ = -1;
  rtl::SigId out_data_ = -1;
  std::shared_ptr<rtl::VcdWriter> vcd_;
  bool want_vcd_ = false;
};

}  // namespace lm::fpga
