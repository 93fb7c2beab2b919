// Quickstart: the complete Liquid Metal flow on the paper's Figure 1
// program — compile Lime source, inspect the generated artifacts, and
// co-execute the task graph with automatic substitution.
//
//   $ ./quickstart
#include <iostream>

#include "runtime/liquid_runtime.h"

namespace {

const char* kFigure1 = R"(
public value enum bit {
  zero, one;
  public bit ~ this {
    return this == zero ? one : zero;
  }
}

public class Bitflip {
  local static bit flip(bit b) {
    return ~b;
  }
  local static bit[[]] mapFlip(bit[[]] input) {
    var flipped = Bitflip @ flip(input);
    return flipped;
  }
  static bit[[]] taskFlip(bit[[]] input) {
    bit[] result = new bit[input.length];
    var flipit = input.source(1)
      => ([ task flip ])
      => result.<bit>sink();
    flipit.finish();
    return new bit[[]](result);
  }
}
)";

std::string render_bits(const lm::bc::Value& v) {
  const auto& a = *v.as_array();
  std::string s;
  for (size_t i = a.size(); i-- > 0;) {  // MSB first, like a Lime bit literal
    s += lm::bc::array_get(a, i).as_bit() ? '1' : '0';
  }
  return s;
}

}  // namespace

int main() {
  using namespace lm;

  std::cout << "=== 1. Compile (Fig. 2 toolchain) ===\n";
  auto program = runtime::compile(kFigure1);
  if (!program->ok()) {
    std::cerr << program->diags.to_string();
    return 1;
  }
  for (const auto& line : program->backend_log) {
    std::cout << "  " << line << "\n";
  }

  std::cout << "\n=== 2. Artifact store (manifests) ===\n";
  for (const auto* m : program->store.manifests()) {
    std::cout << "  " << m->to_string() << "\n";
  }

  std::cout << "\n=== 3. Discovered task graphs (static shapes) ===\n";
  for (const auto& g : program->graphs.graphs) {
    std::cout << "  " << g.enclosing->qualified_name() << ": "
              << g.to_string() << "\n";
  }

  std::cout << "\n=== 4. Co-execution ===\n";
  runtime::LiquidRuntime rt(*program);
  // mapFlip(100b) — the paper's §2.2 example: expect 011b.
  bc::Value input3 = bc::Value::array(bc::make_bit_array({0, 0, 1}, true));
  bc::Value flipped = rt.call("Bitflip.mapFlip", {input3});
  std::cout << "  mapFlip(100b)  = " << render_bits(flipped) << "b\n";

  // taskFlip over the 9 bits of the Fig. 4 waveform.
  bc::Value input9 = bc::Value::array(
      bc::make_bit_array({1, 0, 1, 1, 0, 0, 1, 0, 1}, true));
  bc::Value out = rt.call("Bitflip.taskFlip", {input9});
  std::cout << "  taskFlip(" << render_bits(input9) << "b) = "
            << render_bits(out) << "b\n";

  std::cout << "\n=== 5. Substitution decisions (§4.2) ===\n";
  for (const auto& s : rt.stats().substitutions) {
    std::cout << "  " << s.task_ids << " -> "
              << runtime::to_string(s.device)
              << (s.fused ? " (fused segment)" : "") << "\n";
  }

  std::cout << "\n=== 6. The generated OpenCL artifact ===\n";
  auto* gpu = program->store.find("Bitflip.flip", runtime::DeviceKind::kGpu);
  std::cout << gpu->text() << "\n";

  std::cout << "=== 7. The generated Verilog artifact ===\n";
  auto* fpga = program->store.find("Bitflip.flip", runtime::DeviceKind::kFpga);
  std::cout << fpga->text();
  return 0;
}
