#include "fpga/device.h"

#include "fpga/verilog_emit.h"
#include "util/error.h"

namespace lm::fpga {

using bc::ElemCode;
using serde::CValue;

namespace {

/// Raw bit pattern of element i, masked to the port width.
uint64_t element_bits(const CValue& v, size_t i) {
  switch (v.elem) {
    case ElemCode::kI32:
      return static_cast<uint32_t>(v.i32s()[i]);
    case ElemCode::kI64:
      return static_cast<uint64_t>(v.i64s()[i]);
    case ElemCode::kBool:
    case ElemCode::kBit:
      return v.bytes()[i];
    default:
      throw RuntimeError("element type not representable on the FPGA");
  }
}

void store_bits(CValue& v, size_t i, uint64_t bits, int width) {
  switch (v.elem) {
    case ElemCode::kI32:
      v.i32s()[i] = static_cast<int32_t>(rtl::sign_extend(bits, width));
      return;
    case ElemCode::kI64:
      v.i64s()[i] = rtl::sign_extend(bits, width);
      return;
    case ElemCode::kBool:
    case ElemCode::kBit:
      v.bytes()[i] = bits & 1;
      return;
    default:
      throw RuntimeError("element type not representable on the FPGA");
  }
}

ElemCode out_elem_for_width(int width, ElemCode in_elem) {
  if (width == 1) {
    return in_elem == ElemCode::kBool ? ElemCode::kBool : ElemCode::kBit;
  }
  return width <= 32 ? ElemCode::kI32 : ElemCode::kI64;
}

}  // namespace

FpgaFilter::FpgaFilter(FpgaCompileResult artifact) {
  LM_CHECK_MSG(artifact.ok(), "cannot instantiate an excluded FPGA artifact");
  module_ = std::move(artifact.module);
  ports_ = std::move(artifact.ports);
  compiled_ = std::make_shared<const rtl::CompiledModule>(*module_);
  auto port = [&](const std::string& name) {
    rtl::SigId id = module_->find(name);
    LM_CHECK_MSG(id >= 0, "module " << module_->name << " has no port '"
                                    << name << "'");
    return id;
  };
  LM_CHECK(ports_.in_data.size() == static_cast<size_t>(ports_.arity));
  for (const std::string& name : ports_.in_data) in_data_.push_back(port(name));
  in_ready_ = port("inReady");
  in_take_ = port("inTake");
  out_ready_ = port("outReady");
  out_data_ = port(ports_.out_data);
}

std::string FpgaFilter::describe() const {
  return module_->name + " (arity " + std::to_string(ports_.arity) + ", II " +
         std::to_string(ports_.initiation_interval) + ", latency " +
         std::to_string(ports_.latency) + ")";
}

const std::string& FpgaFilter::verilog() const {
  std::call_once(verilog_once_, [this] { verilog_ = emit_verilog(*module_); });
  return verilog_;
}

void FpgaFilter::enable_waveform() { want_vcd_ = true; }

std::string FpgaFilter::waveform() const {
  return vcd_ ? vcd_->str() : std::string();
}

CValue FpgaFilter::process(const CValue& input, FpgaRunStats* stats) {
  size_t k = static_cast<size_t>(ports_.arity);
  LM_CHECK_MSG(input.count % k == 0,
               "input stream length " << input.count
                                      << " is not a multiple of the filter "
                                         "arity "
                                      << k);
  size_t firings = input.count / k;

  rtl::RtlSim sim(compiled_);
  if (want_vcd_) {
    vcd_ = std::make_shared<rtl::VcdWriter>(*module_);
    sim.attach_vcd(vcd_);
  }
  sim.reset(2);

  // The ElemCode of the output follows the module's output width; 1-bit
  // outputs keep the input's bool/bit flavor when it matches.
  CValue out = CValue::make(out_elem_for_width(ports_.out_width, input.elem),
                            true, firings);

  FpgaRunStats local;
  uint64_t start_cycle = sim.cycle();
  uint64_t first_accept = 0;
  bool saw_first_accept = false;
  bool saw_first_output = false;

  size_t next_in = 0;
  size_t next_out = 0;
  // Watchdog: a healthy module produces one output at least every
  // latency+II cycles; give a generous budget.
  uint64_t budget = 16 + firings * (static_cast<uint64_t>(
                                        ports_.initiation_interval) +
                                    static_cast<uint64_t>(ports_.latency));
  budget = budget * 4 + 64;

  while (next_out < firings) {
    if (sim.cycle() - start_cycle > budget) {
      throw RuntimeError("FPGA module " + module_->name +
                         " stalled (handshake deadlock?)");
    }
    // Drive the input side.
    bool can_take = sim.peek(in_take_) != 0;
    if (can_take && next_in < firings) {
      for (size_t p = 0; p < k; ++p) {
        sim.poke(in_data_[p], element_bits(input, next_in * k + p));
      }
      sim.poke(in_ready_, 1);
      if (!saw_first_accept) {
        saw_first_accept = true;
        first_accept = sim.cycle();
      }
      ++next_in;
      ++local.inputs_accepted;
    } else {
      sim.poke(in_ready_, 0);
    }
    // Sample the output side (combinational view of this cycle).
    if (sim.peek(out_ready_) != 0) {
      store_bits(out, next_out, sim.peek(out_data_), ports_.out_width);
      if (!saw_first_output) {
        saw_first_output = true;
        // Inclusive cycle count: read cycle, compute cycle(s), publish
        // cycle — "one cycle to read, one cycle to compute, and one cycle
        // to publish the result" (§5) gives 3.
        local.first_output_latency = sim.cycle() - first_accept + 1;
      }
      ++next_out;
      ++local.outputs_produced;
    }
    sim.step(1);
  }
  local.cycles = sim.cycle() - start_cycle;
  if (stats) *stats = local;
  return out;
}

}  // namespace lm::fpga
