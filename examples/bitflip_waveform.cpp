// Reproduces Figure 4 (bottom): the taskFlip task graph co-executing with
// the RTL simulator, driven by 9 input bits, with the resulting waveform
// written as a VCD file (viewable in GTKWave) and the read/compute/publish
// timing printed.
//
//   $ ./bitflip_waveform [out.vcd]
#include <fstream>
#include <iostream>

#include "fpga/device.h"
#include "fpga/synth.h"
#include "fpga/verilog_emit.h"
#include "gpu/kernel_compiler.h"
#include "lime/frontend.h"

namespace {
const char* kSource = R"(
public value enum bit {
  zero, one;
  public bit ~ this { return this == zero ? one : zero; }
}
class Bitflip {
  local static bit flip(bit b) { return ~b; }
}
)";
}  // namespace

int main(int argc, char** argv) {
  using namespace lm;
  std::string vcd_path = argc > 1 ? argv[1] : "bitflip.vcd";

  auto fr = lime::compile_source(kSource);
  if (!fr.ok()) {
    std::cerr << fr.diags.to_string();
    return 1;
  }
  const lime::MethodDecl* flip =
      fr.program->find_class("Bitflip")->find_method("flip");

  // Synthesize the Fig. 4 module (the non-pipelined FSM the paper shows)
  // from the filter's kernel IR.
  auto kernel = gpu::compile_kernel(*flip);
  if (!kernel.ok()) {
    std::cerr << "kernel compiler declined: " << kernel.exclusion_reason
              << "\n";
    return 1;
  }
  auto artifact = fpga::synthesize(*kernel.program);
  if (!artifact.ok()) {
    std::cerr << "synthesis declined: " << artifact.exclusion_reason << "\n";
    return 1;
  }
  std::cout << "=== Verilog artifact ===\n"
            << fpga::emit_verilog(*artifact.module) << "\n";

  fpga::FpgaFilter filter(std::move(artifact));
  filter.enable_waveform();

  // "The example is driven with 9 input bits" (§5).
  std::vector<uint8_t> bits = {1, 0, 1, 1, 0, 0, 1, 0, 1};
  serde::CValue in = serde::CValue::make(bc::ElemCode::kBit, true, bits.size());
  for (size_t i = 0; i < bits.size(); ++i) in.bytes()[i] = bits[i];

  fpga::FpgaRunStats stats;
  serde::CValue out = filter.process(in, &stats);

  std::cout << "=== Stream ===\n  in  : ";
  for (uint8_t b : bits) std::cout << int(b);
  std::cout << "\n  out : ";
  for (size_t i = 0; i < out.count; ++i) std::cout << int(out.bytes()[i]);
  std::cout << "\n\n=== Timing (paper: 'one cycle to read, one cycle to "
               "compute, and one cycle to publish') ===\n";
  std::cout << "  first-output latency : " << stats.first_output_latency
            << " cycles\n";
  std::cout << "  inputs accepted      : " << stats.inputs_accepted << "\n";
  std::cout << "  outputs produced     : " << stats.outputs_produced << "\n";
  std::cout << "  total cycles         : " << stats.cycles
            << "  (II = " << filter.ports().initiation_interval << ")\n";

  std::ofstream vcd(vcd_path);
  vcd << filter.waveform();
  std::cout << "\nwaveform written to " << vcd_path
            << " (clock period 10ns; inspect inReady/inData0/outReady as in "
               "Fig. 4)\n";

  // The generated self-checking testbench, runnable in any Verilog
  // simulator (the "generated testbench" of HLS flows, §6).
  std::vector<uint64_t> stim(bits.begin(), bits.end());
  std::string tb =
      fpga::emit_testbench(filter.module(), filter.ports().in_data, {stim});
  std::string tb_path = vcd_path + ".tb.v";
  std::ofstream tbf(tb_path);
  tbf << tb;
  std::cout << "testbench written to " << tb_path << "\n";
  return 0;
}
