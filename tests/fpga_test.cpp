// Unit and differential tests for the FPGA backend (S6), including the
// Fig. 4 waveform timing reproduction.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>
#include <stdexcept>
#include <thread>

#include "bytecode/compiler.h"
#include "bytecode/interp.h"
#include "cache/serialize.h"
#include "fpga/device.h"
#include "fpga/synth.h"
#include "fpga/verilog_emit.h"
#include "gpu/kernel_compiler.h"
#include "rtl/sim.h"
#include "tests/lime_test_util.h"
#include "util/hash.h"
#include "util/rng.h"
#include "workloads/workloads.h"

// Every heap allocation in this test binary is counted, so a test can show
// that a code path makes none per simulated cycle.
static std::atomic<uint64_t> g_heap_allocations{0};

// None of the three is inlined: GCC would then see malloc or free at a
// call site of new or delete and warn (-Wmismatched-new-delete), though
// the pairs match.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace lm::fpga {
namespace {

using bc::Value;
using lime::testing::compile_ok;
using serde::CValue;

struct Built {
  std::unique_ptr<lime::Program> program;
  std::unique_ptr<bc::BytecodeModule> module;
};

Built build(const std::string& src) {
  auto fr = compile_ok(src);
  DiagnosticEngine d;
  auto mod = bc::compile_program(*fr.program, d);
  EXPECT_FALSE(d.has_errors());
  return {std::move(fr.program), std::move(mod)};
}

const lime::MethodDecl* method(const Built& b, const std::string& cls,
                               const std::string& m) {
  const auto* c = b.program->find_class(cls);
  EXPECT_NE(c, nullptr);
  return c->find_method(m);
}

/// Lowers `chain` to kernel IR and synthesizes its module, as compile()
/// does: an exclusion by either compiler is the result's reason.
FpgaCompileResult synth(const std::vector<const lime::MethodDecl*>& chain,
                        FpgaSynthOptions options = {}) {
  auto kernel = gpu::compile_segment_kernel(chain);
  if (!kernel.ok()) {
    FpgaCompileResult excluded;
    excluded.exclusion_reason = kernel.exclusion_reason;
    return excluded;
  }
  return synthesize(*kernel.program, options);
}

const workloads::Workload& pipeline_workload(const std::string& name) {
  for (const auto& w : workloads::pipeline_suite()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("no pipeline workload " + name);
}

// ---------------------------------------------------------------------------
// Synthesis and suitability
// ---------------------------------------------------------------------------

TEST(Synth, BitflipSynthesizes) {
  auto b = build(lime::testing::figure1_source());
  auto r = synth({method(b, "Bitflip", "flip")});
  ASSERT_TRUE(r.ok()) << r.exclusion_reason;
  EXPECT_EQ(r.module->name, "Bitflip_flip");
  EXPECT_EQ(r.ports.out_width, 1);
  EXPECT_EQ(r.ports.arity, 1);
  EXPECT_EQ(r.ports.latency, 3);
  EXPECT_EQ(r.ports.initiation_interval, 3);  // Fig. 4: not fully pipelined
}

TEST(Synth, VerilogArtifactShape) {
  auto b = build(lime::testing::figure1_source());
  auto r = synth({method(b, "Bitflip", "flip")});
  ASSERT_TRUE(r.ok());
  const std::string v = emit_verilog(*r.module);
  EXPECT_NE(v.find("module Bitflip_flip("), std::string::npos);
  EXPECT_NE(v.find("input wire clk"), std::string::npos);
  EXPECT_NE(v.find("input wire inReady"), std::string::npos);
  EXPECT_NE(v.find("output wire outReady"), std::string::npos);
  EXPECT_NE(v.find("always @(posedge clk)"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
}

TEST(Synth, FloatExcluded) {
  auto b = build(R"(
    class C { local static float f(float x) { return x * 2.0f; } }
  )");
  auto r = synth({method(b, "C", "f")});
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.exclusion_reason.find("floating point"), std::string::npos);
}

TEST(Synth, DivisionExcluded) {
  auto b = build(R"(
    class C { local static int f(int a, int b) { return a / b; } }
  )");
  auto r = synth({method(b, "C", "f")});
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.exclusion_reason.find("division"), std::string::npos);
}

TEST(Synth, UnboundedLoopExcluded) {
  auto b = build(R"(
    class C {
      local static int f(int x) {
        int acc = 0;
        for (int i = 0; i < x; i += 1) acc += i;
        return acc;
      }
    }
  )");
  auto r = synth({method(b, "C", "f")});
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.exclusion_reason.find("compile-time constant"),
            std::string::npos);
}

TEST(Synth, ReturnOnDataInsideALoopSynthesizes) {
  // Find-first-set: each unrolled iteration's return holds for the inputs
  // that reach it, and the other inputs run the next iteration.
  auto b = build(R"(
    class C {
      local static int f(int x) {
        for (int i = 0; i < 32; i += 1) {
          if (((x >> i) & 1) != 0) return i;
        }
        return 0 - 1;
      }
    }
  )");
  auto r = synth({method(b, "C", "f")});
  ASSERT_TRUE(r.ok()) << r.exclusion_reason;
  FpgaFilter filter(std::move(r));
  const std::vector<int32_t> xs = {
      0, 1, 6, 8, 96, -1, std::numeric_limits<int32_t>::min(), 1 << 30};
  CValue in = CValue::make(bc::ElemCode::kI32, true, xs.size());
  for (size_t i = 0; i < xs.size(); ++i) in.i32s()[i] = xs[i];
  CValue out = filter.process(in);
  const std::vector<int32_t> want = {-1, 0, 1, 3, 5, 0, 31, 30};
  ASSERT_EQ(out.count, want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(out.i32s()[i], want[i]) << "x=" << xs[i];
  }
}

TEST(Synth, CodeAfterABranchIsBuiltOnce) {
  // Each block's inner return leaves its outer branch two ways on: through
  // the join, or past the block. Building the code after a block once per
  // way would double the datapath with each block.
  std::string body = "int y = x;";
  constexpr int kBlocks = 12;
  for (int i = 1; i <= kBlocks; ++i) {
    const std::string k = std::to_string(i * 1000);
    body += " if (x > " + k + ") { if (y > " + k + "0) return " +
            std::to_string(i) + "; y = y * 3 + " + k + "; }";
  }
  auto b = build("class C { local static int f(int x) { " + body +
                 " return y; } }");
  auto r = synth({method(b, "C", "f")});
  ASSERT_TRUE(r.ok()) << r.exclusion_reason;
  rtl::CompiledModule compiled(*r.module);
  EXPECT_LE(compiled.seq_op_count(), 20u * kBlocks);
}

TEST(Synth, LongDatapathIsBuiltAndFreed) {
  // A straight-line served kernel as long as the synthesis budget allows:
  // its datapath is one chain of adds, too deep to free recursively.
  gpu::KernelProgram p;
  p.task_id = "H.f";
  p.params.push_back({gpu::ParamMode::kElementwise, gpu::NumType::kI32});
  gpu::KConst one;
  one.value.i32 = 1;
  p.consts.push_back(one);
  p.num_regs = 2;
  p.code = {{gpu::KOp::kLoadParam, 0, 0}, {gpu::KOp::kLoadConst, 1, 0}};
  p.code.insert(p.code.end(), 1000000,
                {gpu::KOp::kArith, 0, 0, 1,
                 static_cast<uint8_t>(gpu::ArithOp::kAdd)});
  p.code.push_back({gpu::KOp::kRet, 0, 0});
  auto r = synthesize(p);
  ASSERT_TRUE(r.ok()) << r.exclusion_reason;
}

TEST(Synth, ConstantBoundLoopUnrolls) {
  auto b = build(R"(
    class C {
      local static int f(int x) {
        int acc = 0;
        for (int i = 0; i < 8; i += 1) acc += x >> i;
        return acc;
      }
    }
  )");
  auto r = synth({method(b, "C", "f")});
  ASSERT_TRUE(r.ok()) << r.exclusion_reason;
}

TEST(Synth, UnrollBudgetEnforced) {
  auto b = build(R"(
    class C {
      local static int f(int x) {
        int acc = 0;
        for (int i = 0; i < 100000; i += 1) acc += x;
        return acc;
      }
    }
  )");
  auto r = synth({method(b, "C", "f")});
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.exclusion_reason.find("unroll budget"), std::string::npos);
}

TEST(Synth, ImpureExcluded) {
  auto b = build(R"(
    class C { static int f(int x) { return x; } }
  )");
  auto r = synth({method(b, "C", "f")});
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.exclusion_reason.find("not pure"), std::string::npos);
}

TEST(Synth, StaticFinalConstantsFoldIntoDatapath) {
  auto b = build(R"(
    class C {
      static final int MASK = 255;
      local static int f(int x) { return x & MASK; }
    }
  )");
  auto r = synth({method(b, "C", "f")});
  ASSERT_TRUE(r.ok()) << r.exclusion_reason;
  FpgaFilter filter(std::move(r));
  CValue in = CValue::make(bc::ElemCode::kI32, true, 2);
  in.i32s()[0] = 0x1234;
  in.i32s()[1] = -1;
  CValue out = filter.process(in);
  EXPECT_EQ(out.i32s()[0], 0x34);
  EXPECT_EQ(out.i32s()[1], 255);
}

TEST(Synth, EarlyReturnsIfConverted) {
  auto b = build(R"(
    class C {
      local static int clamp(int x) {
        if (x > 100) return 100;
        if (x < -100) return -100;
        return x;
      }
    }
  )");
  auto r = synth({method(b, "C", "clamp")});
  ASSERT_TRUE(r.ok()) << r.exclusion_reason;
  FpgaFilter filter(std::move(r));
  CValue in = CValue::make(bc::ElemCode::kI32, true, 4);
  in.i32s()[0] = 5;
  in.i32s()[1] = 500;
  in.i32s()[2] = -500;
  in.i32s()[3] = -100;
  CValue out = filter.process(in);
  EXPECT_EQ(out.i32s()[0], 5);
  EXPECT_EQ(out.i32s()[1], 100);
  EXPECT_EQ(out.i32s()[2], -100);
  EXPECT_EQ(out.i32s()[3], -100);
}

// ---------------------------------------------------------------------------
// Fig. 4: taskFlip waveform timing
// ---------------------------------------------------------------------------

TEST(Fig4, NineBitStreamFlipsWithThreeCycleLatency) {
  auto b = build(lime::testing::figure1_source());
  auto r = synth({method(b, "Bitflip", "flip")});
  ASSERT_TRUE(r.ok()) << r.exclusion_reason;
  FpgaFilter filter(std::move(r));
  filter.enable_waveform();

  // "The example is driven with 9 input bits" (§5).
  std::vector<uint8_t> bits = {1, 0, 1, 1, 0, 0, 1, 0, 1};
  CValue in = CValue::make(bc::ElemCode::kBit, true, bits.size());
  for (size_t i = 0; i < bits.size(); ++i) in.bytes()[i] = bits[i];

  FpgaRunStats stats;
  CValue out = filter.process(in, &stats);
  ASSERT_EQ(out.count, bits.size());
  for (size_t i = 0; i < bits.size(); ++i) {
    EXPECT_EQ(out.bytes()[i], bits[i] ? 0 : 1) << "bit " << i;
  }
  // "one cycle to read, one cycle to compute, and one cycle to publish".
  EXPECT_EQ(stats.first_output_latency, 3u);
  EXPECT_EQ(stats.inputs_accepted, 9u);
  EXPECT_EQ(stats.outputs_produced, 9u);
  // Non-pipelined module: one result every 3 cycles.
  EXPECT_GE(stats.cycles, 9u * 3u);

  // The waveform must show the Fig. 4 signals.
  std::string vcd = filter.waveform();
  EXPECT_NE(vcd.find("inReady"), std::string::npos);
  EXPECT_NE(vcd.find("inData0"), std::string::npos);
  EXPECT_NE(vcd.find("outReady"), std::string::npos);
}

TEST(Fig4, PipelinedModeReachesIIOne) {
  auto b = build(lime::testing::figure1_source());
  FpgaSynthOptions opt;
  opt.pipelined = true;
  auto r = synth({method(b, "Bitflip", "flip")}, opt);
  ASSERT_TRUE(r.ok()) << r.exclusion_reason;
  EXPECT_EQ(r.ports.initiation_interval, 1);
  FpgaFilter filter(std::move(r));

  size_t n = 64;
  CValue in = CValue::make(bc::ElemCode::kBit, true, n);
  for (size_t i = 0; i < n; ++i) in.bytes()[i] = i % 2;
  FpgaRunStats stats;
  CValue out = filter.process(in, &stats);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(out.bytes()[i], i % 2 ? 0 : 1);
  EXPECT_EQ(stats.first_output_latency, 3u);
  // Steady state II=1: total ≈ n + latency, far below the FSM's 3n.
  EXPECT_LT(stats.cycles, n + 8);
}

// ---------------------------------------------------------------------------
// Pinned waveforms: the suite's FPGA datapaths, cycle for cycle
// ---------------------------------------------------------------------------

// Each case streams 64 seeded elements of a pipeline_suite() workload
// through its synthesized module with the waveform on. The outputs must
// equal the workload's reference; the run statistics and the FNV-1a digest
// of the VCD text were captured from the tree-walking simulator, so any
// change to the simulator that moves a single signal edge fails here.
struct PinnedWave {
  const char* name;
  const char* workload;
  std::vector<std::pair<const char*, const char*>> chain;  // class, method
  bool pipelined;
  uint64_t cycles;
  uint64_t first_output_latency;
  uint64_t vcd_fnv;
};

// Without a printer gtest shows a parameter as its raw bytes, here heap and
// string pointers, and ctest takes that text into each discovered test name,
// which then changes with every build and load address.
void PrintTo(const PinnedWave& pc, std::ostream* os) { *os << pc.name; }

class PinnedWaveform : public ::testing::TestWithParam<PinnedWave> {};

TEST_P(PinnedWaveform, OutputsStatsAndVcdAreUnchanged) {
  const PinnedWave& pc = GetParam();
  const workloads::Workload& w = pipeline_workload(pc.workload);
  auto b = build(w.lime_source);
  std::vector<const lime::MethodDecl*> chain;
  for (const auto& [cls, m] : pc.chain) chain.push_back(method(b, cls, m));
  FpgaSynthOptions opt;
  opt.pipelined = pc.pipelined;
  auto r = synth(chain, opt);
  ASSERT_TRUE(r.ok()) << r.exclusion_reason;
  FpgaFilter filter(std::move(r));
  filter.enable_waveform();

  const size_t n = 64;
  std::vector<Value> args = w.make_args(n, 20120603);
  const bc::ArrayValue& arr = *args[0].as_array();
  const Value reference = w.reference(args);
  const bc::ArrayValue& want = *reference.as_array();
  CValue in = CValue::make(arr.elem, true, n);
  CValue out;
  FpgaRunStats stats;
  if (arr.elem == bc::ElemCode::kI32) {
    const auto& v = std::get<std::vector<int32_t>>(arr.data);
    std::copy(v.begin(), v.end(), in.i32s().begin());
    out = filter.process(in, &stats);
    const auto& expect = std::get<std::vector<int32_t>>(want.data);
    ASSERT_EQ(out.count, n);
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(out.i32s()[i], expect[i]) << i;
  } else {
    const auto& v = std::get<std::vector<uint8_t>>(arr.data);
    std::copy(v.begin(), v.end(), in.bytes().begin());
    out = filter.process(in, &stats);
    const auto& expect = std::get<std::vector<uint8_t>>(want.data);
    ASSERT_EQ(out.count, n);
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(out.bytes()[i], expect[i]) << i;
  }

  EXPECT_EQ(stats.inputs_accepted, n);
  EXPECT_EQ(stats.outputs_produced, n);
  EXPECT_EQ(stats.cycles, pc.cycles);
  EXPECT_EQ(stats.first_output_latency, pc.first_output_latency);
  EXPECT_EQ(util::Fnv1a().mix(filter.waveform()).digest(), pc.vcd_fnv);
}

INSTANTIATE_TEST_SUITE_P(
    SuiteModules, PinnedWaveform,
    ::testing::Values(
        PinnedWave{"intpipe_segment_fsm", "intpipe",
                   {{"IntPipe", "scale"}, {"IntPipe", "clamp"},
                    {"IntPipe", "offset"}},
                   false, 192, 3, 1313431964448277015ull},
        PinnedWave{"intpipe_segment_pipelined", "intpipe",
                   {{"IntPipe", "scale"}, {"IntPipe", "clamp"},
                    {"IntPipe", "offset"}},
                   true, 66, 3, 17223634303532302143ull},
        PinnedWave{"crc8_fsm", "crc8pipe", {{"Crc8", "crc8"}}, false, 192, 3,
                   9637475241747273470ull},
        PinnedWave{"crc8_pipelined", "crc8pipe", {{"Crc8", "crc8"}}, true, 66,
                   3, 268449610143726944ull},
        PinnedWave{"bitpipe_fsm", "bitpipe", {{"BitPipe", "flip"}}, false,
                   192, 3, 2634689460981497556ull},
        PinnedWave{"bitpipe_pipelined", "bitpipe", {{"BitPipe", "flip"}},
                   true, 66, 3, 5018980030481489554ull}),
    [](const ::testing::TestParamInfo<PinnedWave>& info) {
      return info.param.name;
    });

// The compiled simulator's op counts (comb/seq) of the suite's modules,
// pinned at their values when synthesis moved to kernel IR: a change that
// grows one of these datapaths fails here.
struct OpBudget {
  const char* workload;
  std::vector<std::pair<const char*, const char*>> chain;  // class, method
  size_t comb_ops;
  size_t seq_ops;
};

TEST(FpgaOpCounts, SuiteModulesDoNotGrow) {
  const std::vector<OpBudget> budgets = {
      {"intpipe", {{"IntPipe", "scale"}}, 6, 10},
      {"intpipe", {{"IntPipe", "clamp"}}, 6, 13},
      {"intpipe", {{"IntPipe", "offset"}}, 6, 10},
      {"intpipe",
       {{"IntPipe", "scale"}, {"IntPipe", "clamp"}, {"IntPipe", "offset"}},
       6, 15},
      {"crc8pipe", {{"Crc8", "crc8"}}, 6, 74},
      {"bitpipe", {{"BitPipe", "flip"}}, 6, 10},
  };
  for (const OpBudget& budget : budgets) {
    auto b = build(pipeline_workload(budget.workload).lime_source);
    std::vector<const lime::MethodDecl*> chain;
    for (const auto& [cls, m] : budget.chain) {
      chain.push_back(method(b, cls, m));
    }
    auto r = synth(chain);
    ASSERT_TRUE(r.ok()) << r.exclusion_reason;
    rtl::CompiledModule compiled(*r.module);
    EXPECT_LE(compiled.comb_op_count(), budget.comb_ops) << r.module->name;
    EXPECT_LE(compiled.seq_op_count(), budget.seq_ops) << r.module->name;
  }
}

TEST(FpgaCache, Crc8ArtifactRoundTripsThroughTheCodec) {
  // The codec keeps the netlist's node sharing, so a cached or remote
  // artifact compiles to the same simulator program as a fresh one.
  auto b = build(pipeline_workload("crc8pipe").lime_source);
  auto r = synth({method(b, "Crc8", "crc8")});
  ASSERT_TRUE(r.ok()) << r.exclusion_reason;
  auto back = cache::decode_fpga_result(cache::encode_fpga_result(r));
  ASSERT_TRUE(back.ok());
  FpgaFilter original(std::move(r));
  FpgaFilter decoded(std::move(back));
  EXPECT_EQ(decoded.verilog(), original.verilog());
  rtl::CompiledModule fresh(original.module()), cached(decoded.module());
  EXPECT_EQ(cached.slot_count(), fresh.slot_count());
  EXPECT_EQ(cached.comb_op_count(), fresh.comb_op_count());
  EXPECT_EQ(cached.seq_op_count(), fresh.seq_op_count());

  CValue in = CValue::make(bc::ElemCode::kI32, true, 256);
  for (int i = 0; i < 256; ++i) in.i32s()[static_cast<size_t>(i)] = i;
  FpgaRunStats want, got;
  CValue expect = original.process(in, &want);
  CValue out = decoded.process(in, &got);
  EXPECT_EQ(out.storage, expect.storage);
  EXPECT_EQ(got.cycles, want.cycles);
  EXPECT_EQ(got.first_output_latency, want.first_output_latency);
  EXPECT_EQ(got.outputs_produced, 256u);
}

TEST(FpgaCache, Crc8PayloadCarriesNoVerilog) {
  // A payload holds the netlist and its ports. The Verilog is printed from
  // the netlist when read (over 400 KB for crc8), so it is never stored.
  auto b = build(pipeline_workload("crc8pipe").lime_source);
  auto r = synth({method(b, "Crc8", "crc8")});
  ASSERT_TRUE(r.ok()) << r.exclusion_reason;
  EXPECT_LT(cache::encode_fpga_result(r).size(), 8u * 1024);
}

TEST(Fpga, ConcurrentProcessCallsShareNoState) {
  // A device server runs one artifact for several connections at once:
  // process() may share only the immutable compiled module between calls.
  auto b = build(pipeline_workload("crc8pipe").lime_source);
  auto r = synth({method(b, "Crc8", "crc8")});
  ASSERT_TRUE(r.ok()) << r.exclusion_reason;
  FpgaFilter filter(std::move(r));
  CValue in = CValue::make(bc::ElemCode::kI32, true, 256);
  for (int i = 0; i < 256; ++i) in.i32s()[static_cast<size_t>(i)] = i;
  FpgaRunStats want;
  const CValue expect = filter.process(in, &want);

  std::vector<CValue> outs(4);
  std::vector<FpgaRunStats> stats(outs.size());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < outs.size(); ++t) {
    threads.emplace_back(
        [&, t] { outs[t] = filter.process(in, &stats[t]); });
  }
  for (auto& th : threads) th.join();
  for (size_t t = 0; t < outs.size(); ++t) {
    EXPECT_EQ(outs[t].storage, expect.storage) << "thread " << t;
    EXPECT_EQ(stats[t].cycles, want.cycles) << "thread " << t;
  }
}

TEST(Fpga, ProcessAllocatesNothingPerCycle) {
  auto b = build(pipeline_workload("crc8pipe").lime_source);
  auto r = synth({method(b, "Crc8", "crc8")});
  ASSERT_TRUE(r.ok()) << r.exclusion_reason;
  FpgaFilter filter(std::move(r));
  auto allocations_for = [&](size_t n) {
    CValue in = CValue::make(bc::ElemCode::kI32, true, n);
    for (size_t i = 0; i < n; ++i) in.i32s()[i] = static_cast<int32_t>(i);
    FpgaRunStats stats;
    const uint64_t before = g_heap_allocations.load();
    CValue out = filter.process(in, &stats);
    return g_heap_allocations.load() - before;
  };
  // Output buffers come from the process-wide serde::wire_pool(), whose
  // state earlier tests leave behind: one call of each size first gives
  // both sizes a retired buffer to reuse.
  allocations_for(16);
  allocations_for(1024);
  // 48 cycles against 3072: a per-cycle allocation would show thousands.
  EXPECT_EQ(allocations_for(16), allocations_for(1024));
}

TEST(Fpga, MultiParamFilter) {
  auto b = build(R"(
    class P { local static int addPair(int a, int b) { return a + b; } }
  )");
  auto r = synth({method(b, "P", "addPair")});
  ASSERT_TRUE(r.ok()) << r.exclusion_reason;
  EXPECT_EQ(r.ports.arity, 2);
  FpgaFilter filter(std::move(r));
  CValue in = CValue::make(bc::ElemCode::kI32, true, 6);
  for (int i = 0; i < 6; ++i) in.i32s()[i] = i + 1;
  CValue out = filter.process(in);
  ASSERT_EQ(out.count, 3u);
  EXPECT_EQ(out.i32s()[0], 3);
  EXPECT_EQ(out.i32s()[1], 7);
  EXPECT_EQ(out.i32s()[2], 11);
}

TEST(Fpga, UserEnumOperatorSynthesizes) {
  auto b = build(lime::testing::trit_source());
  auto r = synth({method(b, "U", "inv")});
  ASSERT_TRUE(r.ok()) << r.exclusion_reason;
  FpgaFilter filter(std::move(r));
  CValue in = CValue::make(bc::ElemCode::kI32, true, 3);
  in.i32s()[0] = 0;
  in.i32s()[1] = 1;
  in.i32s()[2] = 2;
  CValue out = filter.process(in);
  EXPECT_EQ(out.i32s()[0], 2);
  EXPECT_EQ(out.i32s()[1], 1);
  EXPECT_EQ(out.i32s()[2], 0);
}

TEST(Synth, TestbenchGenerated) {
  auto b = build(lime::testing::figure1_source());
  auto r = synth({method(b, "Bitflip", "flip")});
  ASSERT_TRUE(r.ok());
  std::string tb = emit_testbench(*r.module, r.ports.in_data,
                                  {{1, 0, 1, 1, 0, 0, 1, 0, 1}});
  EXPECT_NE(tb.find("module tb_Bitflip_flip;"), std::string::npos);
  EXPECT_NE(tb.find("Bitflip_flip dut(.clk(clk)"), std::string::npos);
  EXPECT_NE(tb.find("always #5 clk = ~clk;"), std::string::npos);
  EXPECT_NE(tb.find("stim0[8] = 1;"), std::string::npos);
  EXPECT_NE(tb.find("$finish;"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Segment fusion on the FPGA
// ---------------------------------------------------------------------------

TEST(FpgaSegment, FusedDatapathComputesComposition) {
  auto b = build(R"(
    class P {
      local static int scale(int x) { return 3 * x; }
      local static int clamp(int x) { return Math.min(Math.max(x, -100), 100); }
      local static int offset(int x) { return x + 13; }
    }
  )");
  std::vector<const lime::MethodDecl*> chain = {method(b, "P", "scale"),
                                                method(b, "P", "clamp"),
                                                method(b, "P", "offset")};
  auto r = synth(chain);
  ASSERT_TRUE(r.ok()) << r.exclusion_reason;
  EXPECT_EQ(r.module->name, "seg_P_scale_P_clamp_P_offset");
  FpgaFilter filter(std::move(r));
  CValue in = CValue::make(bc::ElemCode::kI32, true, 5);
  int32_t vals[] = {0, 10, 50, -90, 7};
  for (int i = 0; i < 5; ++i) in.i32s()[i] = vals[i];
  CValue out = filter.process(in);
  for (int i = 0; i < 5; ++i) {
    int32_t v = 3 * vals[i];
    v = std::min(std::max(v, -100), 100);
    EXPECT_EQ(out.i32s()[i], v + 13) << "element " << i;
  }
}

TEST(FpgaSegment, SingleFilterChainDelegates) {
  auto b = build(lime::testing::figure1_source());
  auto r = synth({method(b, "Bitflip", "flip")});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.module->name, "Bitflip_flip");
}

TEST(FpgaSegment, UnsuitableStagePoisonsSegment) {
  auto b = build(R"(
    class P {
      local static int ok(int x) { return x + 1; }
      local static int bad(int x) { return x / 3; }
    }
  )");
  auto r = synth({method(b, "P", "ok"), method(b, "P", "bad")});
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.exclusion_reason.find("division"), std::string::npos);
}

TEST(FpgaSegment, BinaryHeadStageAllowed) {
  auto b = build(R"(
    class P {
      local static int addPair(int a, int b) { return a + b; }
      local static int neg(int x) { return 0 - x; }
    }
  )");
  auto r = synth({method(b, "P", "addPair"),
                               method(b, "P", "neg")});
  ASSERT_TRUE(r.ok()) << r.exclusion_reason;
  EXPECT_EQ(r.ports.arity, 2);
  FpgaFilter filter(std::move(r));
  CValue in = CValue::make(bc::ElemCode::kI32, true, 4);
  in.i32s()[0] = 3;
  in.i32s()[1] = 4;
  in.i32s()[2] = -10;
  in.i32s()[3] = 2;
  CValue out = filter.process(in);
  ASSERT_EQ(out.count, 2u);
  EXPECT_EQ(out.i32s()[0], -7);
  EXPECT_EQ(out.i32s()[1], 8);
}

// ---------------------------------------------------------------------------
// Differential: RTL artifact vs bytecode VM (semantic equivalence, §3)
// ---------------------------------------------------------------------------

struct RtlDiffCase {
  const char* name;
  const char* source;
  const char* cls;
  const char* method;
};

// Prints the case name for a stable test name, as PrintTo(PinnedWave) does.
void PrintTo(const RtlDiffCase& tc, std::ostream* os) { *os << tc.name; }

class FpgaVsVmDifferential : public ::testing::TestWithParam<RtlDiffCase> {};

TEST_P(FpgaVsVmDifferential, AgreeOnRandomInputs) {
  const RtlDiffCase& tc = GetParam();
  auto b = build(tc.source);
  const auto* m = method(b, tc.cls, tc.method);
  ASSERT_NE(m, nullptr);
  auto r = synth({m});
  ASSERT_TRUE(r.ok()) << r.exclusion_reason;
  FpgaFilter filter(std::move(r));
  bc::Interpreter vm(*b.module);

  SplitMix64 rng(4242);
  const size_t n = 64;
  CValue in = CValue::make(bc::ElemCode::kI32, true, n);
  for (size_t i = 0; i < n; ++i) {
    in.i32s()[i] = static_cast<int32_t>(rng.next_range(-100000, 100000));
  }
  CValue out = filter.process(in);

  std::string qn = std::string(tc.cls) + "." + tc.method;
  for (size_t i = 0; i < n; ++i) {
    Value want = vm.call(qn, {Value::i32(in.i32s()[i])});
    if (out.elem == bc::ElemCode::kI64) {
      EXPECT_EQ(out.i64s()[i], want.as_i64())
          << tc.name << " at " << i << " (x = " << in.i32s()[i] << ")";
    } else {
      EXPECT_EQ(out.i32s()[i], want.as_i32())
          << tc.name << " at " << i << " (x = " << in.i32s()[i] << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Filters, FpgaVsVmDifferential,
    ::testing::Values(
        RtlDiffCase{"affine",
                    "class C { local static int f(int x) "
                    "{ return 3*x - 11; } }",
                    "C", "f"},
        RtlDiffCase{"bitops",
                    "class C { local static int f(int x) "
                    "{ return ((x << 3) ^ (x >> 2)) & (x | 255); } }",
                    "C", "f"},
        RtlDiffCase{"branchy",
                    "class C { local static int f(int x) "
                    "{ return (x & 1) == 0 ? x >> 1 : 3 * x + 1; } }",
                    "C", "f"},
        RtlDiffCase{"unrolled",
                    "class C { local static int f(int x) { int acc = 0; "
                    "for (int i = 0; i < 6; i += 1) acc += (x >> i) & 1; "
                    "return acc; } }",
                    "C", "f"},
        RtlDiffCase{"minmax",
                    "class C { local static int f(int x) "
                    "{ return Math.min(Math.max(x, -50), 50) + "
                    "(Math.abs(x) & 7); } }",
                    "C", "f"},
        RtlDiffCase{"nested_call",
                    "class C { local static int sq(int x) { return x * x; } "
                    "local static int f(int x) { int y = x & 255; "
                    "return sq(y) + sq(y + 1); } }",
                    "C", "f"},
        // Java masks shift distances to the operand width (& 31, & 63), so
        // negative distances and distances >= width must wrap, not zero.
        RtlDiffCase{"shift_int_var_distance",
                    "class C { local static int f(int x) "
                    "{ return (x << (x >> 8)) ^ (x >> (x >> 7)); } }",
                    "C", "f"},
        RtlDiffCase{"shift_int_var_operand",
                    "class C { local static int f(int x) "
                    "{ return (5 << x) + (-1000 >> x); } }",
                    "C", "f"},
        RtlDiffCase{"shift_int_const_over_width",
                    "class C { local static int f(int x) "
                    "{ return x << 33; } }",
                    "C", "f"},
        RtlDiffCase{"shift_long_var_distance",
                    "class C { local static long f(int x) { long v = x; "
                    "return (v << (x >> 8)) ^ (v >> (x >> 6)); } }",
                    "C", "f"},
        RtlDiffCase{"shift_long_const_over_width",
                    "class C { local static long f(int x) { long v = x; "
                    "return v << 65L; } }",
                    "C", "f"},
        // The inner return holds only where both branches took their
        // returning arms; every other input runs on to `return y + 3`.
        RtlDiffCase{"return_in_nested_branch",
                    "class C { local static int f(int x) { int y = x; "
                    "if (x > 10) { if (x > 50000) return 1; y = x * 2; } "
                    "return y + 3; } }",
                    "C", "f"},
        // A break under a constant condition ends the unrolled loop early.
        RtlDiffCase{"constant_break",
                    "class C { local static int f(int x) { int acc = 0; "
                    "for (int i = 0; i < 8; i += 1) { if (i == 5) break; "
                    "acc += x >> i; } return acc; } }",
                    "C", "f"},
        // (bit) takes the low bit of the long; 2^53 + x is not exact in a
        // double.
        RtlDiffCase{"long_to_bit_keeps_low_bit",
                    "class C { local static int f(int x) { "
                    "long y = (((long) 1) << 53) + (long) x; "
                    "bit b = (bit) y; int r = b; return r; } }",
                    "C", "f"}),
    [](const ::testing::TestParamInfo<RtlDiffCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace lm::fpga
