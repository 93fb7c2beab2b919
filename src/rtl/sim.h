// Cycle-accurate two-phase RTL simulation with VCD waveform output.
//
// This stands in for the NCSim/ModelSim co-simulation of §5: the runtime
// drives a synthesized module through its handshake ports cycle by cycle,
// and the waveform of Fig. 4 falls out of the VCD trace.
//
// Semantics per clock cycle:
//   1. settle(): evaluate all combinational assigns in topological order
//      using current input/register values,
//   2. rising edge: every register latches its `next` expression, all
//      evaluated against pre-edge values (non-blocking assignment),
//   3. settle() again so outputs reflect the new register state.
//
// The simulator does not walk the expression trees. A CompiledModule
// lowers them once into flat op arrays, so a node that synthesis shared
// between many paths is still evaluated once per settle (h_eval, the
// tree-walking reference, would evaluate it once per path).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "rtl/netlist.h"

namespace lm::rtl {

class VcdWriter;

/// A validated module lowered for simulation: two op arrays in topological
/// order, one combinational and one sequential, over a dense slot file.
/// Slots [0, signals) hold the signals; every distinct expression node (by
/// pointer identity) owns one further slot, written by exactly one op, and
/// constant slots are preloaded. Immutable once built, so any number of
/// RtlSims may run one CompiledModule at once.
class CompiledModule {
 public:
  /// Validates `module`, which must outlive this object.
  explicit CompiledModule(const Module& module);

  const Module& module() const { return module_; }
  size_t slot_count() const { return init_.size(); }
  size_t comb_op_count() const { return comb_.size(); }
  size_t seq_op_count() const { return seq_.size(); }

 private:
  friend class RtlSim;

  /// dst = fold(a[, b]) for kUnary/kBinary, dst = a ? b : c for kMux, and
  /// dst = a for kSig (a comb assign whose value another slot holds).
  struct Op {
    HKind kind;
    uint8_t op;       // HUnOp or HBinOp
    uint8_t width;    // result width
    uint8_t a_width;  // width of operand a
    uint32_t dst, a, b, c;
  };

  static void run(const std::vector<Op>& ops, uint64_t* slots);

  const Module& module_;
  std::vector<Op> comb_;
  std::vector<Op> seq_;
  /// The clock edge copies slot `next` into register slot `reg`.
  struct Latch {
    uint32_t reg, next;
  };
  std::vector<Latch> latches_;
  /// Initial slot file: register reset values and constants.
  std::vector<uint64_t> init_;
  /// Per signal: some combinational op reads it, so a poke must re-settle.
  std::vector<bool> comb_reads_;
};

class RtlSim {
 public:
  /// Compiles the module for this simulator alone. The module must outlive
  /// the simulator. validate() is run here.
  explicit RtlSim(const Module& module);
  /// Runs an already compiled module: the simulator only adds its slot file.
  explicit RtlSim(std::shared_ptr<const CompiledModule> compiled);

  /// Drives an input signal (takes effect at the next settle).
  void poke(const std::string& name, uint64_t value);
  void poke(SigId id, uint64_t value);

  /// Reads any signal's settled value.
  uint64_t peek(const std::string& name) const;
  uint64_t peek(SigId id) const;

  /// Re-evaluates combinational logic (poke() calls this implicitly before
  /// peek via dirty tracking; exposed for explicit testbenches).
  void settle();

  /// Advances n full clock cycles (settle → edge → settle each).
  void step(int n = 1);

  /// Holds rst=1 for `cycles` cycles, then drives it back to 0 (no-op when
  /// the module has no `rst` input). Only registers whose next-state logic
  /// reads rst return to their reset values; the others keep theirs (in the
  /// FPGA backend's modules: the input latches `in_reg*` and `result`).
  void reset(int cycles = 2);

  uint64_t cycle() const { return cycle_; }

  /// Attaches a VCD waveform writer; every subsequent step dumps changes.
  /// The returned buffer can be written to a file by the caller.
  void attach_vcd(std::shared_ptr<VcdWriter> vcd);

  const Module& module() const { return compiled_->module(); }

 private:
  void clock_edge();
  std::span<const uint64_t> signal_values() const {
    return {slots_.data(), module().signals.size()};
  }

  std::shared_ptr<const CompiledModule> compiled_;
  std::vector<uint64_t> slots_;
  std::vector<uint64_t> latched_;  // next-state values between edge phases
  uint64_t cycle_ = 0;
  bool dirty_ = true;
  std::shared_ptr<VcdWriter> vcd_;
};

/// Minimal IEEE-1364 VCD dumper: header with signal declarations, then
/// value changes per timestamp. Timescale 1ns, clock period 10ns (matching
/// the 92ns cursor style of Fig. 4).
class VcdWriter {
 public:
  explicit VcdWriter(const Module& module);

  /// Called by RtlSim: records signal values at the given cycle with the
  /// clock phase (high at cycle*10, low at cycle*10+5).
  void sample(uint64_t cycle, std::span<const uint64_t> values);

  /// The complete VCD document.
  std::string str() const;

 private:
  std::string id_for(size_t index) const;

  const Module& module_;
  std::ostringstream body_;
  std::vector<uint64_t> last_;
  bool first_ = true;
};

}  // namespace lm::rtl
