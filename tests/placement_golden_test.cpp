// Golden placement decisions. For every policy whose choice does not
// depend on timing, this pins which artifact each relocated task or fused
// segment lands on, what ranked it (source, score), and which nodes then
// ran as device nodes. The matrix is program × enabled backends × policy ×
// fusion. Calibrated kAdaptive is left out: its winners depend on measured
// times. Rows use tests/decision_log_test_util.h's format.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/liquid_runtime.h"
#include "tests/decision_log_test_util.h"
#include "tests/lime_test_util.h"
#include "workloads/workloads.h"

namespace lm::runtime {
namespace {

using bc::Value;

struct Program {
  std::string source;
  std::string entry;
  std::function<std::vector<Value>()> args;
};

// adaptive_test's two-filter pipeline and its relocated/fixed/relocated one.
const char* kTwoFilter = R"(
  class P {
    local static int scale(int x) { return 3 * x; }
    local static int offset(int x) { return x + 7; }
    static int[[]] run(int[[]] input) {
      int[] result = new int[input.length];
      var g = input.source(1)
        => ([ task scale ]) => ([ task offset ])
        => result.<int>sink();
      g.finish();
      return new int[[]](result);
    }
  }
)";

const char* kMixed = R"(
  class M {
    local static int a(int x) { return x + 1; }
    local static int b(int x) { return x * 2; }
    local static int c(int x) { return x - 3; }
    static int[[]] run(int[[]] input) {
      int[] result = new int[input.length];
      var g = input.source(1)
        => ([ task a ]) => task b => ([ task c ])
        => result.<int>sink();
      g.finish();
      return new int[[]](result);
    }
  }
)";

Program suite_program(const std::string& name) {
  for (const workloads::Workload& w : workloads::pipeline_suite()) {
    if (w.name == name) {
      return {w.lime_source, w.entry, [&w] { return w.make_args(64, 7); }};
    }
  }
  ADD_FAILURE() << "no pipeline workload named " << name;
  return {};
}

Program int_program(const char* source, const char* entry) {
  return {source, entry, [] {
            std::vector<int32_t> in(64);
            for (size_t i = 0; i < in.size(); ++i) {
              in[i] = static_cast<int32_t>(i) - 20;
            }
            return std::vector<Value>{
                Value::array(bc::make_i32_array(std::move(in), true))};
          }};
}

Program bitflip_program() {
  return {lime::testing::figure1_source(), "Bitflip.taskFlip", [] {
            std::vector<uint8_t> bits(64);
            for (size_t i = 0; i < bits.size(); ++i) bits[i] = i % 3 == 0;
            return std::vector<Value>{
                Value::array(bc::make_bit_array(std::move(bits), true))};
          }};
}

struct Backends {
  const char* label;
  bool gpu;
  bool fpga;
};
constexpr Backends kBackends[] = {
    {"all", true, true}, {"no-gpu", false, true}, {"no-fpga", true, false}};

struct Policy {
  const char* label;
  Placement placement;
  bool calibrate;
  size_t calibration_elements;
};
constexpr Policy kPolicies[] = {
    {"cpu", Placement::kCpuOnly, true, 64},
    {"gpu", Placement::kGpuOnly, true, 64},
    {"fpga", Placement::kFpgaOnly, true, 64},
    {"auto", Placement::kAuto, true, 64},
    {"adaptive-static", Placement::kAdaptive, false, 64},
    {"adaptive-k0", Placement::kAdaptive, true, 0},
};

/// One row per (backends, policy, fusion) cell, in matrix order.
std::vector<std::string> decision_table(const Program& p) {
  std::vector<std::string> rows;
  for (const Backends& b : kBackends) {
    CompileOptions opts;
    opts.enable_gpu = b.gpu;
    opts.enable_fpga = b.fpga;
    auto cp = compile(p.source, opts);
    EXPECT_TRUE(cp->ok()) << cp->diags.to_string();
    if (!cp->ok()) return rows;
    for (const Policy& pol : kPolicies) {
      for (bool fusion : {true, false}) {
        RuntimeConfig rc;
        rc.placement = pol.placement;
        rc.enable_calibration = pol.calibrate;
        rc.calibration_elements = pol.calibration_elements;
        rc.allow_fusion = fusion;
        LiquidRuntime rt(*cp, rc);
        rt.call(p.entry, p.args());
        rows.push_back(std::string(b.label) + " " + pol.label +
                       (fusion ? " fusion: " : " no-fusion: ") +
                       lm::testing::decision_row(rt));
      }
    }
  }
  return rows;
}

void expect_golden(const Program& p, const char* golden) {
  std::vector<std::string> want;
  std::istringstream in(golden);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) want.push_back(line);
  }
  std::vector<std::string> got = decision_table(p);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], want[i]);
}

TEST(GoldenDecisions, IntPipe) {
  expect_golden(suite_program("intpipe"), R"(
all cpu fusion: IntPipe.scale->cpu/bytecode src=- score=-1; IntPipe.clamp->cpu/bytecode src=- score=-1; IntPipe.offset->cpu/bytecode src=- score=-1 | ran:
all cpu no-fusion: IntPipe.scale->cpu/bytecode src=- score=-1; IntPipe.clamp->cpu/bytecode src=- score=-1; IntPipe.offset->cpu/bytecode src=- score=-1 | ran:
all gpu fusion: IntPipe.scale+IntPipe.clamp+IntPipe.offset->gpu/opencl fused src=- score=-1 | ran: seg:IntPipe.scale:IntPipe.clamp:IntPipe.offset@gpu/opencl
all gpu no-fusion: IntPipe.scale->gpu/opencl src=- score=-1; IntPipe.clamp->gpu/opencl src=- score=-1; IntPipe.offset->gpu/opencl src=- score=-1 | ran: IntPipe.clamp@gpu/opencl IntPipe.offset@gpu/opencl IntPipe.scale@gpu/opencl
all fpga fusion: IntPipe.scale+IntPipe.clamp+IntPipe.offset->fpga/verilog fused src=- score=-1 | ran: seg:IntPipe.scale:IntPipe.clamp:IntPipe.offset@fpga/verilog
all fpga no-fusion: IntPipe.scale->fpga/verilog src=- score=-1; IntPipe.clamp->fpga/verilog src=- score=-1; IntPipe.offset->fpga/verilog src=- score=-1 | ran: IntPipe.clamp@fpga/verilog IntPipe.offset@fpga/verilog IntPipe.scale@fpga/verilog
all auto fusion: IntPipe.scale+IntPipe.clamp+IntPipe.offset->gpu/opencl fused src=- score=-1 | ran: seg:IntPipe.scale:IntPipe.clamp:IntPipe.offset@gpu/opencl
all auto no-fusion: IntPipe.scale->gpu/opencl src=- score=-1; IntPipe.clamp->gpu/opencl src=- score=-1; IntPipe.offset->gpu/opencl src=- score=-1 | ran: IntPipe.clamp@gpu/opencl IntPipe.offset@gpu/opencl IntPipe.scale@gpu/opencl
all adaptive-static fusion: IntPipe.scale+IntPipe.clamp+IntPipe.offset->gpu/opencl fused src=static score=0.042 | ran: seg:IntPipe.scale:IntPipe.clamp:IntPipe.offset@gpu/opencl
all adaptive-static no-fusion: IntPipe.scale->gpu/opencl src=static score=0.17; IntPipe.clamp->gpu/opencl src=static score=0.222; IntPipe.offset->gpu/opencl src=static score=0.17 | ran: IntPipe.clamp@gpu/opencl IntPipe.offset@gpu/opencl IntPipe.scale@gpu/opencl
all adaptive-k0 fusion: IntPipe.scale+IntPipe.clamp+IntPipe.offset->gpu/opencl fused src=- score=-1 | ran: seg:IntPipe.scale:IntPipe.clamp:IntPipe.offset@gpu/opencl
all adaptive-k0 no-fusion: IntPipe.scale->gpu/opencl src=- score=-1; IntPipe.clamp->gpu/opencl src=- score=-1; IntPipe.offset->gpu/opencl src=- score=-1 | ran: IntPipe.clamp@gpu/opencl IntPipe.offset@gpu/opencl IntPipe.scale@gpu/opencl
no-gpu cpu fusion: IntPipe.scale->cpu/bytecode src=- score=-1; IntPipe.clamp->cpu/bytecode src=- score=-1; IntPipe.offset->cpu/bytecode src=- score=-1 | ran:
no-gpu cpu no-fusion: IntPipe.scale->cpu/bytecode src=- score=-1; IntPipe.clamp->cpu/bytecode src=- score=-1; IntPipe.offset->cpu/bytecode src=- score=-1 | ran:
no-gpu gpu fusion: IntPipe.scale->cpu/bytecode src=- score=-1; IntPipe.clamp->cpu/bytecode src=- score=-1; IntPipe.offset->cpu/bytecode src=- score=-1 | ran:
no-gpu gpu no-fusion: IntPipe.scale->cpu/bytecode src=- score=-1; IntPipe.clamp->cpu/bytecode src=- score=-1; IntPipe.offset->cpu/bytecode src=- score=-1 | ran:
no-gpu fpga fusion: IntPipe.scale+IntPipe.clamp+IntPipe.offset->fpga/verilog fused src=- score=-1 | ran: seg:IntPipe.scale:IntPipe.clamp:IntPipe.offset@fpga/verilog
no-gpu fpga no-fusion: IntPipe.scale->fpga/verilog src=- score=-1; IntPipe.clamp->fpga/verilog src=- score=-1; IntPipe.offset->fpga/verilog src=- score=-1 | ran: IntPipe.clamp@fpga/verilog IntPipe.offset@fpga/verilog IntPipe.scale@fpga/verilog
no-gpu auto fusion: IntPipe.scale+IntPipe.clamp+IntPipe.offset->fpga/verilog fused src=- score=-1 | ran: seg:IntPipe.scale:IntPipe.clamp:IntPipe.offset@fpga/verilog
no-gpu auto no-fusion: IntPipe.scale->fpga/verilog src=- score=-1; IntPipe.clamp->fpga/verilog src=- score=-1; IntPipe.offset->fpga/verilog src=- score=-1 | ran: IntPipe.clamp@fpga/verilog IntPipe.offset@fpga/verilog IntPipe.scale@fpga/verilog
no-gpu adaptive-static fusion: IntPipe.scale->cpu/bytecode src=static score=0.345; IntPipe.clamp->cpu/bytecode src=static score=0.555; IntPipe.offset->cpu/bytecode src=static score=0.345 | ran:
no-gpu adaptive-static no-fusion: IntPipe.scale->cpu/bytecode src=static score=0.345; IntPipe.clamp->cpu/bytecode src=static score=0.555; IntPipe.offset->cpu/bytecode src=static score=0.345 | ran:
no-gpu adaptive-k0 fusion: IntPipe.scale+IntPipe.clamp+IntPipe.offset->fpga/verilog fused src=- score=-1 | ran: seg:IntPipe.scale:IntPipe.clamp:IntPipe.offset@fpga/verilog
no-gpu adaptive-k0 no-fusion: IntPipe.scale->fpga/verilog src=- score=-1; IntPipe.clamp->fpga/verilog src=- score=-1; IntPipe.offset->fpga/verilog src=- score=-1 | ran: IntPipe.clamp@fpga/verilog IntPipe.offset@fpga/verilog IntPipe.scale@fpga/verilog
no-fpga cpu fusion: IntPipe.scale->cpu/bytecode src=- score=-1; IntPipe.clamp->cpu/bytecode src=- score=-1; IntPipe.offset->cpu/bytecode src=- score=-1 | ran:
no-fpga cpu no-fusion: IntPipe.scale->cpu/bytecode src=- score=-1; IntPipe.clamp->cpu/bytecode src=- score=-1; IntPipe.offset->cpu/bytecode src=- score=-1 | ran:
no-fpga gpu fusion: IntPipe.scale+IntPipe.clamp+IntPipe.offset->gpu/opencl fused src=- score=-1 | ran: seg:IntPipe.scale:IntPipe.clamp:IntPipe.offset@gpu/opencl
no-fpga gpu no-fusion: IntPipe.scale->gpu/opencl src=- score=-1; IntPipe.clamp->gpu/opencl src=- score=-1; IntPipe.offset->gpu/opencl src=- score=-1 | ran: IntPipe.clamp@gpu/opencl IntPipe.offset@gpu/opencl IntPipe.scale@gpu/opencl
no-fpga fpga fusion: IntPipe.scale->cpu/bytecode src=- score=-1; IntPipe.clamp->cpu/bytecode src=- score=-1; IntPipe.offset->cpu/bytecode src=- score=-1 | ran:
no-fpga fpga no-fusion: IntPipe.scale->cpu/bytecode src=- score=-1; IntPipe.clamp->cpu/bytecode src=- score=-1; IntPipe.offset->cpu/bytecode src=- score=-1 | ran:
no-fpga auto fusion: IntPipe.scale+IntPipe.clamp+IntPipe.offset->gpu/opencl fused src=- score=-1 | ran: seg:IntPipe.scale:IntPipe.clamp:IntPipe.offset@gpu/opencl
no-fpga auto no-fusion: IntPipe.scale->gpu/opencl src=- score=-1; IntPipe.clamp->gpu/opencl src=- score=-1; IntPipe.offset->gpu/opencl src=- score=-1 | ran: IntPipe.clamp@gpu/opencl IntPipe.offset@gpu/opencl IntPipe.scale@gpu/opencl
no-fpga adaptive-static fusion: IntPipe.scale+IntPipe.clamp+IntPipe.offset->gpu/opencl fused src=static score=0.042 | ran: seg:IntPipe.scale:IntPipe.clamp:IntPipe.offset@gpu/opencl
no-fpga adaptive-static no-fusion: IntPipe.scale->gpu/opencl src=static score=0.17; IntPipe.clamp->gpu/opencl src=static score=0.222; IntPipe.offset->gpu/opencl src=static score=0.17 | ran: IntPipe.clamp@gpu/opencl IntPipe.offset@gpu/opencl IntPipe.scale@gpu/opencl
no-fpga adaptive-k0 fusion: IntPipe.scale+IntPipe.clamp+IntPipe.offset->gpu/opencl fused src=- score=-1 | ran: seg:IntPipe.scale:IntPipe.clamp:IntPipe.offset@gpu/opencl
no-fpga adaptive-k0 no-fusion: IntPipe.scale->gpu/opencl src=- score=-1; IntPipe.clamp->gpu/opencl src=- score=-1; IntPipe.offset->gpu/opencl src=- score=-1 | ran: IntPipe.clamp@gpu/opencl IntPipe.offset@gpu/opencl IntPipe.scale@gpu/opencl
)");
}

TEST(GoldenDecisions, Crc8Pipe) {
  expect_golden(suite_program("crc8pipe"), R"(
all cpu fusion: Crc8.crc8->cpu/bytecode src=- score=-1 | ran:
all cpu no-fusion: Crc8.crc8->cpu/bytecode src=- score=-1 | ran:
all gpu fusion: Crc8.crc8->gpu/opencl src=- score=-1 | ran: Crc8.crc8@gpu/opencl
all gpu no-fusion: Crc8.crc8->gpu/opencl src=- score=-1 | ran: Crc8.crc8@gpu/opencl
all fpga fusion: Crc8.crc8->fpga/verilog src=- score=-1 | ran: Crc8.crc8@fpga/verilog
all fpga no-fusion: Crc8.crc8->fpga/verilog src=- score=-1 | ran: Crc8.crc8@fpga/verilog
all auto fusion: Crc8.crc8->gpu/opencl src=- score=-1 | ran: Crc8.crc8@gpu/opencl
all auto no-fusion: Crc8.crc8->gpu/opencl src=- score=-1 | ran: Crc8.crc8@gpu/opencl
all adaptive-static fusion: Crc8.crc8->gpu/opencl src=static score=0.878 | ran: Crc8.crc8@gpu/opencl
all adaptive-static no-fusion: Crc8.crc8->gpu/opencl src=static score=0.878 | ran: Crc8.crc8@gpu/opencl
all adaptive-k0 fusion: Crc8.crc8->gpu/opencl src=- score=-1 | ran: Crc8.crc8@gpu/opencl
all adaptive-k0 no-fusion: Crc8.crc8->gpu/opencl src=- score=-1 | ran: Crc8.crc8@gpu/opencl
no-gpu cpu fusion: Crc8.crc8->cpu/bytecode src=- score=-1 | ran:
no-gpu cpu no-fusion: Crc8.crc8->cpu/bytecode src=- score=-1 | ran:
no-gpu gpu fusion: Crc8.crc8->cpu/bytecode src=- score=-1 | ran:
no-gpu gpu no-fusion: Crc8.crc8->cpu/bytecode src=- score=-1 | ran:
no-gpu fpga fusion: Crc8.crc8->fpga/verilog src=- score=-1 | ran: Crc8.crc8@fpga/verilog
no-gpu fpga no-fusion: Crc8.crc8->fpga/verilog src=- score=-1 | ran: Crc8.crc8@fpga/verilog
no-gpu auto fusion: Crc8.crc8->fpga/verilog src=- score=-1 | ran: Crc8.crc8@fpga/verilog
no-gpu auto no-fusion: Crc8.crc8->fpga/verilog src=- score=-1 | ran: Crc8.crc8@fpga/verilog
no-gpu adaptive-static fusion: Crc8.crc8->cpu/bytecode src=static score=3.415 | ran:
no-gpu adaptive-static no-fusion: Crc8.crc8->cpu/bytecode src=static score=3.415 | ran:
no-gpu adaptive-k0 fusion: Crc8.crc8->fpga/verilog src=- score=-1 | ran: Crc8.crc8@fpga/verilog
no-gpu adaptive-k0 no-fusion: Crc8.crc8->fpga/verilog src=- score=-1 | ran: Crc8.crc8@fpga/verilog
no-fpga cpu fusion: Crc8.crc8->cpu/bytecode src=- score=-1 | ran:
no-fpga cpu no-fusion: Crc8.crc8->cpu/bytecode src=- score=-1 | ran:
no-fpga gpu fusion: Crc8.crc8->gpu/opencl src=- score=-1 | ran: Crc8.crc8@gpu/opencl
no-fpga gpu no-fusion: Crc8.crc8->gpu/opencl src=- score=-1 | ran: Crc8.crc8@gpu/opencl
no-fpga fpga fusion: Crc8.crc8->cpu/bytecode src=- score=-1 | ran:
no-fpga fpga no-fusion: Crc8.crc8->cpu/bytecode src=- score=-1 | ran:
no-fpga auto fusion: Crc8.crc8->gpu/opencl src=- score=-1 | ran: Crc8.crc8@gpu/opencl
no-fpga auto no-fusion: Crc8.crc8->gpu/opencl src=- score=-1 | ran: Crc8.crc8@gpu/opencl
no-fpga adaptive-static fusion: Crc8.crc8->gpu/opencl src=static score=0.878 | ran: Crc8.crc8@gpu/opencl
no-fpga adaptive-static no-fusion: Crc8.crc8->gpu/opencl src=static score=0.878 | ran: Crc8.crc8@gpu/opencl
no-fpga adaptive-k0 fusion: Crc8.crc8->gpu/opencl src=- score=-1 | ran: Crc8.crc8@gpu/opencl
no-fpga adaptive-k0 no-fusion: Crc8.crc8->gpu/opencl src=- score=-1 | ran: Crc8.crc8@gpu/opencl
)");
}

TEST(GoldenDecisions, BitPipe) {
  expect_golden(suite_program("bitpipe"), R"(
all cpu fusion: BitPipe.flip->cpu/bytecode src=- score=-1 | ran:
all cpu no-fusion: BitPipe.flip->cpu/bytecode src=- score=-1 | ran:
all gpu fusion: BitPipe.flip->gpu/opencl src=- score=-1 | ran: BitPipe.flip@gpu/opencl
all gpu no-fusion: BitPipe.flip->gpu/opencl src=- score=-1 | ran: BitPipe.flip@gpu/opencl
all fpga fusion: BitPipe.flip->fpga/verilog src=- score=-1 | ran: BitPipe.flip@fpga/verilog
all fpga no-fusion: BitPipe.flip->fpga/verilog src=- score=-1 | ran: BitPipe.flip@fpga/verilog
all auto fusion: BitPipe.flip->gpu/opencl src=- score=-1 | ran: BitPipe.flip@gpu/opencl
all auto no-fusion: BitPipe.flip->gpu/opencl src=- score=-1 | ran: BitPipe.flip@gpu/opencl
all adaptive-static fusion: BitPipe.flip->gpu/opencl src=static score=0.17 | ran: BitPipe.flip@gpu/opencl
all adaptive-static no-fusion: BitPipe.flip->gpu/opencl src=static score=0.17 | ran: BitPipe.flip@gpu/opencl
all adaptive-k0 fusion: BitPipe.flip->gpu/opencl src=- score=-1 | ran: BitPipe.flip@gpu/opencl
all adaptive-k0 no-fusion: BitPipe.flip->gpu/opencl src=- score=-1 | ran: BitPipe.flip@gpu/opencl
no-gpu cpu fusion: BitPipe.flip->cpu/bytecode src=- score=-1 | ran:
no-gpu cpu no-fusion: BitPipe.flip->cpu/bytecode src=- score=-1 | ran:
no-gpu gpu fusion: BitPipe.flip->cpu/bytecode src=- score=-1 | ran:
no-gpu gpu no-fusion: BitPipe.flip->cpu/bytecode src=- score=-1 | ran:
no-gpu fpga fusion: BitPipe.flip->fpga/verilog src=- score=-1 | ran: BitPipe.flip@fpga/verilog
no-gpu fpga no-fusion: BitPipe.flip->fpga/verilog src=- score=-1 | ran: BitPipe.flip@fpga/verilog
no-gpu auto fusion: BitPipe.flip->fpga/verilog src=- score=-1 | ran: BitPipe.flip@fpga/verilog
no-gpu auto no-fusion: BitPipe.flip->fpga/verilog src=- score=-1 | ran: BitPipe.flip@fpga/verilog
no-gpu adaptive-static fusion: BitPipe.flip->cpu/bytecode src=static score=0.345 | ran:
no-gpu adaptive-static no-fusion: BitPipe.flip->cpu/bytecode src=static score=0.345 | ran:
no-gpu adaptive-k0 fusion: BitPipe.flip->fpga/verilog src=- score=-1 | ran: BitPipe.flip@fpga/verilog
no-gpu adaptive-k0 no-fusion: BitPipe.flip->fpga/verilog src=- score=-1 | ran: BitPipe.flip@fpga/verilog
no-fpga cpu fusion: BitPipe.flip->cpu/bytecode src=- score=-1 | ran:
no-fpga cpu no-fusion: BitPipe.flip->cpu/bytecode src=- score=-1 | ran:
no-fpga gpu fusion: BitPipe.flip->gpu/opencl src=- score=-1 | ran: BitPipe.flip@gpu/opencl
no-fpga gpu no-fusion: BitPipe.flip->gpu/opencl src=- score=-1 | ran: BitPipe.flip@gpu/opencl
no-fpga fpga fusion: BitPipe.flip->cpu/bytecode src=- score=-1 | ran:
no-fpga fpga no-fusion: BitPipe.flip->cpu/bytecode src=- score=-1 | ran:
no-fpga auto fusion: BitPipe.flip->gpu/opencl src=- score=-1 | ran: BitPipe.flip@gpu/opencl
no-fpga auto no-fusion: BitPipe.flip->gpu/opencl src=- score=-1 | ran: BitPipe.flip@gpu/opencl
no-fpga adaptive-static fusion: BitPipe.flip->gpu/opencl src=static score=0.17 | ran: BitPipe.flip@gpu/opencl
no-fpga adaptive-static no-fusion: BitPipe.flip->gpu/opencl src=static score=0.17 | ran: BitPipe.flip@gpu/opencl
no-fpga adaptive-k0 fusion: BitPipe.flip->gpu/opencl src=- score=-1 | ran: BitPipe.flip@gpu/opencl
no-fpga adaptive-k0 no-fusion: BitPipe.flip->gpu/opencl src=- score=-1 | ran: BitPipe.flip@gpu/opencl
)");
}

TEST(GoldenDecisions, FigureOneBitflip) {
  expect_golden(bitflip_program(), R"(
all cpu fusion: Bitflip.flip->cpu/bytecode src=- score=-1 | ran:
all cpu no-fusion: Bitflip.flip->cpu/bytecode src=- score=-1 | ran:
all gpu fusion: Bitflip.flip->gpu/opencl src=- score=-1 | ran: Bitflip.flip@gpu/opencl
all gpu no-fusion: Bitflip.flip->gpu/opencl src=- score=-1 | ran: Bitflip.flip@gpu/opencl
all fpga fusion: Bitflip.flip->fpga/verilog src=- score=-1 | ran: Bitflip.flip@fpga/verilog
all fpga no-fusion: Bitflip.flip->fpga/verilog src=- score=-1 | ran: Bitflip.flip@fpga/verilog
all auto fusion: Bitflip.flip->gpu/opencl src=- score=-1 | ran: Bitflip.flip@gpu/opencl
all auto no-fusion: Bitflip.flip->gpu/opencl src=- score=-1 | ran: Bitflip.flip@gpu/opencl
all adaptive-static fusion: Bitflip.flip->gpu/opencl src=static score=0.17 | ran: Bitflip.flip@gpu/opencl
all adaptive-static no-fusion: Bitflip.flip->gpu/opencl src=static score=0.17 | ran: Bitflip.flip@gpu/opencl
all adaptive-k0 fusion: Bitflip.flip->gpu/opencl src=- score=-1 | ran: Bitflip.flip@gpu/opencl
all adaptive-k0 no-fusion: Bitflip.flip->gpu/opencl src=- score=-1 | ran: Bitflip.flip@gpu/opencl
no-gpu cpu fusion: Bitflip.flip->cpu/bytecode src=- score=-1 | ran:
no-gpu cpu no-fusion: Bitflip.flip->cpu/bytecode src=- score=-1 | ran:
no-gpu gpu fusion: Bitflip.flip->cpu/bytecode src=- score=-1 | ran:
no-gpu gpu no-fusion: Bitflip.flip->cpu/bytecode src=- score=-1 | ran:
no-gpu fpga fusion: Bitflip.flip->fpga/verilog src=- score=-1 | ran: Bitflip.flip@fpga/verilog
no-gpu fpga no-fusion: Bitflip.flip->fpga/verilog src=- score=-1 | ran: Bitflip.flip@fpga/verilog
no-gpu auto fusion: Bitflip.flip->fpga/verilog src=- score=-1 | ran: Bitflip.flip@fpga/verilog
no-gpu auto no-fusion: Bitflip.flip->fpga/verilog src=- score=-1 | ran: Bitflip.flip@fpga/verilog
no-gpu adaptive-static fusion: Bitflip.flip->cpu/bytecode src=static score=0.345 | ran:
no-gpu adaptive-static no-fusion: Bitflip.flip->cpu/bytecode src=static score=0.345 | ran:
no-gpu adaptive-k0 fusion: Bitflip.flip->fpga/verilog src=- score=-1 | ran: Bitflip.flip@fpga/verilog
no-gpu adaptive-k0 no-fusion: Bitflip.flip->fpga/verilog src=- score=-1 | ran: Bitflip.flip@fpga/verilog
no-fpga cpu fusion: Bitflip.flip->cpu/bytecode src=- score=-1 | ran:
no-fpga cpu no-fusion: Bitflip.flip->cpu/bytecode src=- score=-1 | ran:
no-fpga gpu fusion: Bitflip.flip->gpu/opencl src=- score=-1 | ran: Bitflip.flip@gpu/opencl
no-fpga gpu no-fusion: Bitflip.flip->gpu/opencl src=- score=-1 | ran: Bitflip.flip@gpu/opencl
no-fpga fpga fusion: Bitflip.flip->cpu/bytecode src=- score=-1 | ran:
no-fpga fpga no-fusion: Bitflip.flip->cpu/bytecode src=- score=-1 | ran:
no-fpga auto fusion: Bitflip.flip->gpu/opencl src=- score=-1 | ran: Bitflip.flip@gpu/opencl
no-fpga auto no-fusion: Bitflip.flip->gpu/opencl src=- score=-1 | ran: Bitflip.flip@gpu/opencl
no-fpga adaptive-static fusion: Bitflip.flip->gpu/opencl src=static score=0.17 | ran: Bitflip.flip@gpu/opencl
no-fpga adaptive-static no-fusion: Bitflip.flip->gpu/opencl src=static score=0.17 | ran: Bitflip.flip@gpu/opencl
no-fpga adaptive-k0 fusion: Bitflip.flip->gpu/opencl src=- score=-1 | ran: Bitflip.flip@gpu/opencl
no-fpga adaptive-k0 no-fusion: Bitflip.flip->gpu/opencl src=- score=-1 | ran: Bitflip.flip@gpu/opencl
)");
}

TEST(GoldenDecisions, TwoFilterPipeline) {
  expect_golden(int_program(kTwoFilter, "P.run"), R"(
all cpu fusion: P.scale->cpu/bytecode src=- score=-1; P.offset->cpu/bytecode src=- score=-1 | ran:
all cpu no-fusion: P.scale->cpu/bytecode src=- score=-1; P.offset->cpu/bytecode src=- score=-1 | ran:
all gpu fusion: P.scale+P.offset->gpu/opencl fused src=- score=-1 | ran: seg:P.scale:P.offset@gpu/opencl
all gpu no-fusion: P.scale->gpu/opencl src=- score=-1; P.offset->gpu/opencl src=- score=-1 | ran: P.offset@gpu/opencl P.scale@gpu/opencl
all fpga fusion: P.scale+P.offset->fpga/verilog fused src=- score=-1 | ran: seg:P.scale:P.offset@fpga/verilog
all fpga no-fusion: P.scale->fpga/verilog src=- score=-1; P.offset->fpga/verilog src=- score=-1 | ran: P.offset@fpga/verilog P.scale@fpga/verilog
all auto fusion: P.scale+P.offset->gpu/opencl fused src=- score=-1 | ran: seg:P.scale:P.offset@gpu/opencl
all auto no-fusion: P.scale->gpu/opencl src=- score=-1; P.offset->gpu/opencl src=- score=-1 | ran: P.offset@gpu/opencl P.scale@gpu/opencl
all adaptive-static fusion: P.scale+P.offset->gpu/opencl fused src=static score=0.08 | ran: seg:P.scale:P.offset@gpu/opencl
all adaptive-static no-fusion: P.scale->gpu/opencl src=static score=0.17; P.offset->gpu/opencl src=static score=0.17 | ran: P.offset@gpu/opencl P.scale@gpu/opencl
all adaptive-k0 fusion: P.scale+P.offset->gpu/opencl fused src=- score=-1 | ran: seg:P.scale:P.offset@gpu/opencl
all adaptive-k0 no-fusion: P.scale->gpu/opencl src=- score=-1; P.offset->gpu/opencl src=- score=-1 | ran: P.offset@gpu/opencl P.scale@gpu/opencl
no-gpu cpu fusion: P.scale->cpu/bytecode src=- score=-1; P.offset->cpu/bytecode src=- score=-1 | ran:
no-gpu cpu no-fusion: P.scale->cpu/bytecode src=- score=-1; P.offset->cpu/bytecode src=- score=-1 | ran:
no-gpu gpu fusion: P.scale->cpu/bytecode src=- score=-1; P.offset->cpu/bytecode src=- score=-1 | ran:
no-gpu gpu no-fusion: P.scale->cpu/bytecode src=- score=-1; P.offset->cpu/bytecode src=- score=-1 | ran:
no-gpu fpga fusion: P.scale+P.offset->fpga/verilog fused src=- score=-1 | ran: seg:P.scale:P.offset@fpga/verilog
no-gpu fpga no-fusion: P.scale->fpga/verilog src=- score=-1; P.offset->fpga/verilog src=- score=-1 | ran: P.offset@fpga/verilog P.scale@fpga/verilog
no-gpu auto fusion: P.scale+P.offset->fpga/verilog fused src=- score=-1 | ran: seg:P.scale:P.offset@fpga/verilog
no-gpu auto no-fusion: P.scale->fpga/verilog src=- score=-1; P.offset->fpga/verilog src=- score=-1 | ran: P.offset@fpga/verilog P.scale@fpga/verilog
no-gpu adaptive-static fusion: P.scale->cpu/bytecode src=static score=0.345; P.offset->cpu/bytecode src=static score=0.345 | ran:
no-gpu adaptive-static no-fusion: P.scale->cpu/bytecode src=static score=0.345; P.offset->cpu/bytecode src=static score=0.345 | ran:
no-gpu adaptive-k0 fusion: P.scale+P.offset->fpga/verilog fused src=- score=-1 | ran: seg:P.scale:P.offset@fpga/verilog
no-gpu adaptive-k0 no-fusion: P.scale->fpga/verilog src=- score=-1; P.offset->fpga/verilog src=- score=-1 | ran: P.offset@fpga/verilog P.scale@fpga/verilog
no-fpga cpu fusion: P.scale->cpu/bytecode src=- score=-1; P.offset->cpu/bytecode src=- score=-1 | ran:
no-fpga cpu no-fusion: P.scale->cpu/bytecode src=- score=-1; P.offset->cpu/bytecode src=- score=-1 | ran:
no-fpga gpu fusion: P.scale+P.offset->gpu/opencl fused src=- score=-1 | ran: seg:P.scale:P.offset@gpu/opencl
no-fpga gpu no-fusion: P.scale->gpu/opencl src=- score=-1; P.offset->gpu/opencl src=- score=-1 | ran: P.offset@gpu/opencl P.scale@gpu/opencl
no-fpga fpga fusion: P.scale->cpu/bytecode src=- score=-1; P.offset->cpu/bytecode src=- score=-1 | ran:
no-fpga fpga no-fusion: P.scale->cpu/bytecode src=- score=-1; P.offset->cpu/bytecode src=- score=-1 | ran:
no-fpga auto fusion: P.scale+P.offset->gpu/opencl fused src=- score=-1 | ran: seg:P.scale:P.offset@gpu/opencl
no-fpga auto no-fusion: P.scale->gpu/opencl src=- score=-1; P.offset->gpu/opencl src=- score=-1 | ran: P.offset@gpu/opencl P.scale@gpu/opencl
no-fpga adaptive-static fusion: P.scale+P.offset->gpu/opencl fused src=static score=0.08 | ran: seg:P.scale:P.offset@gpu/opencl
no-fpga adaptive-static no-fusion: P.scale->gpu/opencl src=static score=0.17; P.offset->gpu/opencl src=static score=0.17 | ran: P.offset@gpu/opencl P.scale@gpu/opencl
no-fpga adaptive-k0 fusion: P.scale+P.offset->gpu/opencl fused src=- score=-1 | ran: seg:P.scale:P.offset@gpu/opencl
no-fpga adaptive-k0 no-fusion: P.scale->gpu/opencl src=- score=-1; P.offset->gpu/opencl src=- score=-1 | ran: P.offset@gpu/opencl P.scale@gpu/opencl
)");
}

TEST(GoldenDecisions, RelocatedFixedRelocated) {
  expect_golden(int_program(kMixed, "M.run"), R"(
all cpu fusion: M.a->cpu/bytecode src=- score=-1; M.c->cpu/bytecode src=- score=-1 | ran:
all cpu no-fusion: M.a->cpu/bytecode src=- score=-1; M.c->cpu/bytecode src=- score=-1 | ran:
all gpu fusion: M.a->gpu/opencl src=- score=-1; M.c->gpu/opencl src=- score=-1 | ran: M.a@gpu/opencl M.c@gpu/opencl
all gpu no-fusion: M.a->gpu/opencl src=- score=-1; M.c->gpu/opencl src=- score=-1 | ran: M.a@gpu/opencl M.c@gpu/opencl
all fpga fusion: M.a->fpga/verilog src=- score=-1; M.c->fpga/verilog src=- score=-1 | ran: M.a@fpga/verilog M.c@fpga/verilog
all fpga no-fusion: M.a->fpga/verilog src=- score=-1; M.c->fpga/verilog src=- score=-1 | ran: M.a@fpga/verilog M.c@fpga/verilog
all auto fusion: M.a->gpu/opencl src=- score=-1; M.c->gpu/opencl src=- score=-1 | ran: M.a@gpu/opencl M.c@gpu/opencl
all auto no-fusion: M.a->gpu/opencl src=- score=-1; M.c->gpu/opencl src=- score=-1 | ran: M.a@gpu/opencl M.c@gpu/opencl
all adaptive-static fusion: M.a->gpu/opencl src=static score=0.17; M.c->gpu/opencl src=static score=0.17 | ran: M.a@gpu/opencl M.c@gpu/opencl
all adaptive-static no-fusion: M.a->gpu/opencl src=static score=0.17; M.c->gpu/opencl src=static score=0.17 | ran: M.a@gpu/opencl M.c@gpu/opencl
all adaptive-k0 fusion: M.a->gpu/opencl src=- score=-1; M.c->gpu/opencl src=- score=-1 | ran: M.a@gpu/opencl M.c@gpu/opencl
all adaptive-k0 no-fusion: M.a->gpu/opencl src=- score=-1; M.c->gpu/opencl src=- score=-1 | ran: M.a@gpu/opencl M.c@gpu/opencl
no-gpu cpu fusion: M.a->cpu/bytecode src=- score=-1; M.c->cpu/bytecode src=- score=-1 | ran:
no-gpu cpu no-fusion: M.a->cpu/bytecode src=- score=-1; M.c->cpu/bytecode src=- score=-1 | ran:
no-gpu gpu fusion: M.a->cpu/bytecode src=- score=-1; M.c->cpu/bytecode src=- score=-1 | ran:
no-gpu gpu no-fusion: M.a->cpu/bytecode src=- score=-1; M.c->cpu/bytecode src=- score=-1 | ran:
no-gpu fpga fusion: M.a->fpga/verilog src=- score=-1; M.c->fpga/verilog src=- score=-1 | ran: M.a@fpga/verilog M.c@fpga/verilog
no-gpu fpga no-fusion: M.a->fpga/verilog src=- score=-1; M.c->fpga/verilog src=- score=-1 | ran: M.a@fpga/verilog M.c@fpga/verilog
no-gpu auto fusion: M.a->fpga/verilog src=- score=-1; M.c->fpga/verilog src=- score=-1 | ran: M.a@fpga/verilog M.c@fpga/verilog
no-gpu auto no-fusion: M.a->fpga/verilog src=- score=-1; M.c->fpga/verilog src=- score=-1 | ran: M.a@fpga/verilog M.c@fpga/verilog
no-gpu adaptive-static fusion: M.a->cpu/bytecode src=static score=0.345; M.c->cpu/bytecode src=static score=0.345 | ran:
no-gpu adaptive-static no-fusion: M.a->cpu/bytecode src=static score=0.345; M.c->cpu/bytecode src=static score=0.345 | ran:
no-gpu adaptive-k0 fusion: M.a->fpga/verilog src=- score=-1; M.c->fpga/verilog src=- score=-1 | ran: M.a@fpga/verilog M.c@fpga/verilog
no-gpu adaptive-k0 no-fusion: M.a->fpga/verilog src=- score=-1; M.c->fpga/verilog src=- score=-1 | ran: M.a@fpga/verilog M.c@fpga/verilog
no-fpga cpu fusion: M.a->cpu/bytecode src=- score=-1; M.c->cpu/bytecode src=- score=-1 | ran:
no-fpga cpu no-fusion: M.a->cpu/bytecode src=- score=-1; M.c->cpu/bytecode src=- score=-1 | ran:
no-fpga gpu fusion: M.a->gpu/opencl src=- score=-1; M.c->gpu/opencl src=- score=-1 | ran: M.a@gpu/opencl M.c@gpu/opencl
no-fpga gpu no-fusion: M.a->gpu/opencl src=- score=-1; M.c->gpu/opencl src=- score=-1 | ran: M.a@gpu/opencl M.c@gpu/opencl
no-fpga fpga fusion: M.a->cpu/bytecode src=- score=-1; M.c->cpu/bytecode src=- score=-1 | ran:
no-fpga fpga no-fusion: M.a->cpu/bytecode src=- score=-1; M.c->cpu/bytecode src=- score=-1 | ran:
no-fpga auto fusion: M.a->gpu/opencl src=- score=-1; M.c->gpu/opencl src=- score=-1 | ran: M.a@gpu/opencl M.c@gpu/opencl
no-fpga auto no-fusion: M.a->gpu/opencl src=- score=-1; M.c->gpu/opencl src=- score=-1 | ran: M.a@gpu/opencl M.c@gpu/opencl
no-fpga adaptive-static fusion: M.a->gpu/opencl src=static score=0.17; M.c->gpu/opencl src=static score=0.17 | ran: M.a@gpu/opencl M.c@gpu/opencl
no-fpga adaptive-static no-fusion: M.a->gpu/opencl src=static score=0.17; M.c->gpu/opencl src=static score=0.17 | ran: M.a@gpu/opencl M.c@gpu/opencl
no-fpga adaptive-k0 fusion: M.a->gpu/opencl src=- score=-1; M.c->gpu/opencl src=- score=-1 | ran: M.a@gpu/opencl M.c@gpu/opencl
no-fpga adaptive-k0 no-fusion: M.a->gpu/opencl src=- score=-1; M.c->gpu/opencl src=- score=-1 | ran: M.a@gpu/opencl M.c@gpu/opencl
)");
}

}  // namespace
}  // namespace lm::runtime
