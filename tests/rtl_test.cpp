// Unit tests for the RTL netlist IR and cycle simulator (S7).
#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "rtl/netlist.h"
#include "rtl/sim.h"

namespace lm::rtl {
namespace {

TEST(HExpr, ConstFolding) {
  auto a = h_const(8, 200);
  auto b = h_const(8, 100);
  auto sum = h_binary(HBinOp::kAdd, a, b);
  ASSERT_TRUE(sum->is_const());
  EXPECT_EQ(sum->value, (200 + 100) & 0xFF);  // wraps at 8 bits

  auto eq = h_binary(HBinOp::kEq, a, a);
  ASSERT_TRUE(eq->is_const());
  EXPECT_EQ(eq->width, 1);
  EXPECT_EQ(eq->value, 1u);
}

TEST(HExpr, SignedComparisonFolds) {
  auto minus_one = h_const(8, 0xFF);
  auto one = h_const(8, 1);
  auto lt = h_binary(HBinOp::kLtS, minus_one, one);
  ASSERT_TRUE(lt->is_const());
  EXPECT_EQ(lt->value, 1u);  // -1 < 1 in signed interpretation
}

TEST(HExpr, MuxFoldsOnConstCond) {
  auto t = h_const(4, 5);
  auto e = h_const(4, 9);
  EXPECT_EQ(h_mux(h_const(1, 1), t, e)->value, 5u);
  EXPECT_EQ(h_mux(h_const(1, 0), t, e)->value, 9u);
}

TEST(HExpr, ResizeSemantics) {
  // Sign extension: 4-bit -3 (0b1101) → 8-bit 0xFD.
  auto v = h_const(4, 0b1101);
  EXPECT_EQ(h_resize(v, 8, true)->value, 0xFDu);
  EXPECT_EQ(h_resize(v, 8, false)->value, 0x0Du);
  // Truncation: 8-bit 0xAB → 4-bit 0xB.
  EXPECT_EQ(h_resize(h_const(8, 0xAB), 4, false)->value, 0xBu);
}

TEST(HExpr, ArithmeticShiftRight) {
  auto v = h_const(8, 0x80);  // -128
  auto sh = h_binary(HBinOp::kShrA, v, h_const(8, 2));
  EXPECT_EQ(sign_extend(sh->value, 8), -32);
}

TEST(HExpr, WidthMismatchRejected) {
  EXPECT_THROW(h_binary(HBinOp::kAdd, h_const(8, 1), h_const(4, 1)),
               InternalError);
  EXPECT_THROW(h_mux(h_const(2, 1), h_const(4, 1), h_const(4, 2)),
               InternalError);
}

TEST(SignExtend, Basics) {
  EXPECT_EQ(sign_extend(0xFF, 8), -1);
  EXPECT_EQ(sign_extend(0x7F, 8), 127);
  EXPECT_EQ(sign_extend(1, 1), -1);
  EXPECT_EQ(sign_extend(0, 1), 0);
}

// ---------------------------------------------------------------------------
// Module validation
// ---------------------------------------------------------------------------

TEST(Module, CombinationalCycleDetected) {
  Module m;
  m.name = "loop";
  SigId a = m.add_signal("a", 1, SigKind::kWire);
  SigId b = m.add_signal("b", 1, SigKind::kWire);
  m.assign(a, h_sig(b, 1));
  m.assign(b, h_sig(a, 1));
  EXPECT_THROW(m.validate(), RuntimeError);
}

TEST(Module, UndrivenWireDetected) {
  Module m;
  m.name = "undriven";
  m.add_signal("w", 4, SigKind::kWire);
  EXPECT_THROW(m.validate(), RuntimeError);
}

TEST(Module, RegWithoutDriverDetected) {
  Module m;
  m.name = "noreg";
  m.add_signal("r", 4, SigKind::kReg);
  EXPECT_THROW(m.validate(), RuntimeError);
}

TEST(Module, DoubleAssignDetected) {
  Module m;
  m.name = "dup";
  SigId in = m.add_signal("in", 1, SigKind::kInput);
  SigId w = m.add_signal("w", 1, SigKind::kWire);
  m.assign(w, h_sig(in, 1));
  m.assign(w, h_sig(in, 1));
  EXPECT_THROW(m.validate(), RuntimeError);
}

TEST(Module, DuplicateSignalNameRejected) {
  Module m;
  m.add_signal("x", 1, SigKind::kInput);
  EXPECT_THROW(m.add_signal("x", 2, SigKind::kWire), InternalError);
}

TEST(Module, ValidationIsLinearInSharedNodes) {
  // Every wire reads one shared chain of kN adds. A walk per assignment
  // would visit kN^2 (67M) nodes, which takes seconds.
  constexpr int kN = 8192;
  Module m;
  m.name = "shared";
  SigId in = m.add_signal("in", 32, SigKind::kInput);
  HExprPtr chain = h_sig(in, 32);
  for (int i = 0; i < kN; ++i) {
    chain = h_binary(HBinOp::kAdd, chain, h_sig(in, 32));
  }
  for (int i = 0; i < kN; ++i) {
    // Pushed directly: add_signal's name lookup is linear.
    m.signals.push_back({"w" + std::to_string(i), 32, SigKind::kWire});
    m.comb.push_back({static_cast<SigId>(m.signals.size()) - 1, chain});
  }
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(m.validate().size(), size_t{kN});
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;
  EXPECT_LT(took.count(), 1.0);
}

// ---------------------------------------------------------------------------
// Module::validate on netlists corrupted by hand. They are built field by
// field (the h_* factories and assign() refuse most of these lies), so
// validate() is the only check, as for a decoded netlist.
// ---------------------------------------------------------------------------

Module valid_module() {
  Module m;
  m.name = "t";
  SigId a = m.add_signal("a", 8, SigKind::kInput);
  SigId y = m.add_signal("y", 8, SigKind::kOutput);
  m.comb.push_back({y, h_sig(a, 8)});
  return m;
}

/// Why validate() rejects `m`, or "" when it passes.
std::string rejection(const Module& m) {
  try {
    m.validate();
  } catch (const RuntimeError& e) {
    return e.what();
  }
  return "";
}

bool mentions(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

TEST(RtlVerifier, ValidModuleIsClean) {
  EXPECT_EQ(rejection(valid_module()), "");
}

TEST(RtlVerifier, SignalIdOutOfRange) {
  Module m = valid_module();
  m.comb[0].expr = h_sig(99, 8);
  EXPECT_TRUE(mentions(rejection(m), "reads signal 99")) << rejection(m);
  // In a register's next-value as well.
  m = valid_module();
  m.seq.push_back({m.add_signal("r", 8, SigKind::kReg), h_sig(-7, 8)});
  EXPECT_TRUE(mentions(rejection(m), "reads signal -7")) << rejection(m);
}

TEST(RtlVerifier, DoubleDriverAndDriverOnInput) {
  Module m = valid_module();
  m.comb.push_back({m.find("y"), h_const(8, 1)});  // second driver
  EXPECT_TRUE(mentions(rejection(m), "'y' assigned more than once"))
      << rejection(m);
  m = valid_module();
  m.comb.push_back({m.find("a"), h_const(8, 0)});  // drives an input
  EXPECT_TRUE(mentions(rejection(m), "'a' has a combinational driver"))
      << rejection(m);
}

TEST(RtlVerifier, UndrivenOutputAndReg) {
  Module m;
  m.name = "t";
  m.add_signal("y", 8, SigKind::kOutput);  // no driver
  EXPECT_TRUE(mentions(rejection(m), "'y' undriven")) << rejection(m);
  m.signals.clear();
  m.add_signal("r", 4, SigKind::kReg);  // no next-value
  EXPECT_TRUE(mentions(rejection(m), "'r' has no driver")) << rejection(m);
}

TEST(RtlVerifier, TopLevelWidthMismatch) {
  Module m = valid_module();
  m.comb[0].expr = h_const(4, 3);  // 4-bit expr into an 8-bit output
  EXPECT_TRUE(mentions(rejection(m), "'y' and its driver differ in width"))
      << rejection(m);
}

TEST(RtlVerifier, CombinationalCycle) {
  Module m;
  m.name = "t";
  SigId w1 = m.add_signal("w1", 8, SigKind::kWire);
  SigId w2 = m.add_signal("w2", 8, SigKind::kWire);
  SigId y = m.add_signal("y", 8, SigKind::kOutput);
  m.comb.push_back({w1, h_sig(w2, 8)});
  m.comb.push_back({w2, h_sig(w1, 8)});
  m.comb.push_back({y, h_sig(w1, 8)});
  EXPECT_TRUE(mentions(rejection(m), "combinational cycle through 'w"))
      << rejection(m);
  // Through a node that two drivers share, one of them the wire it reads.
  HExprPtr shared = h_binary(HBinOp::kAdd, h_sig(w1, 8), h_const(8, 1));
  m.comb = {{y, shared}, {w1, shared}, {w2, h_const(8, 0)}};
  EXPECT_TRUE(mentions(rejection(m), "combinational cycle through a shared"))
      << rejection(m);
}

TEST(RtlVerifier, MalformedNodesAreRejected) {
  auto node = [](HKind kind, int width) {
    auto e = std::make_shared<HExpr>();
    e->kind = kind;
    e->width = width;
    return e;
  };
  auto with_output = [&](HExprPtr e) {
    Module m = valid_module();
    m.comb[0].expr = std::move(e);
    return rejection(m);
  };
  const HExprPtr a = h_sig(0, 8);
  for (int width : {0, 65}) {
    auto shift = node(HKind::kBinary, 8);  // a shift amount's width is free
    shift->bin_op = HBinOp::kShl;
    shift->a = a;
    shift->b = node(HKind::kConst, width);
    EXPECT_TRUE(mentions(with_output(shift), "width " +
                                                 std::to_string(width)))
        << width;
  }
  auto unknown = node(HKind::kBinary, 8);
  unknown->bin_op = static_cast<HBinOp>(99);
  unknown->a = unknown->b = a;
  EXPECT_TRUE(mentions(with_output(unknown), "unknown operator"));
  auto uneven = node(HKind::kBinary, 8);
  uneven->bin_op = HBinOp::kAdd;
  uneven->a = a;
  uneven->b = h_const(4, 1);
  EXPECT_TRUE(mentions(with_output(uneven), "widths disagree"));
  auto orphan = node(HKind::kMux, 8);
  orphan->a = h_const(1, 1);
  orphan->b = a;
  EXPECT_TRUE(mentions(with_output(orphan), "lacks an operand"));
}

// ---------------------------------------------------------------------------
// Simulation
// ---------------------------------------------------------------------------

/// An 8-bit accumulator: acc <= rst ? 0 : acc + in.
Module make_accumulator() {
  Module m;
  m.name = "accum";
  SigId rst = m.add_signal("rst", 1, SigKind::kInput);
  SigId in = m.add_signal("in", 8, SigKind::kInput);
  SigId acc = m.add_signal("acc", 8, SigKind::kReg);
  SigId out = m.add_signal("out", 8, SigKind::kOutput);
  m.assign_next(acc, h_mux(h_sig(rst, 1), h_const(8, 0),
                           h_binary(HBinOp::kAdd, h_sig(acc, 8),
                                    h_sig(in, 8))));
  m.assign(out, h_sig(acc, 8));
  return m;
}

TEST(Sim, AccumulatorCountsInputs) {
  Module m = make_accumulator();
  RtlSim sim(m);
  sim.reset();
  sim.poke("in", 5);
  sim.step(3);
  EXPECT_EQ(sim.peek("out"), 15u);
  sim.poke("in", 1);
  sim.step(1);
  EXPECT_EQ(sim.peek("out"), 16u);
}

TEST(Sim, ResetClearsRegisters) {
  Module m = make_accumulator();
  RtlSim sim(m);
  sim.reset();
  sim.poke("in", 9);
  sim.step(4);
  EXPECT_NE(sim.peek("out"), 0u);
  sim.reset();
  EXPECT_EQ(sim.peek("out"), 0u);
}

TEST(Sim, NonBlockingSemantics) {
  // Two registers swapping every cycle must exchange values, not collapse —
  // the classic non-blocking assignment behaviour.
  Module m;
  m.name = "swap";
  SigId a = m.add_signal("a", 8, SigKind::kReg, 1);
  SigId b = m.add_signal("b", 8, SigKind::kReg, 2);
  m.assign_next(a, h_sig(b, 8));
  m.assign_next(b, h_sig(a, 8));
  RtlSim sim(m);
  EXPECT_EQ(sim.peek("a"), 1u);
  EXPECT_EQ(sim.peek("b"), 2u);
  sim.step(1);
  EXPECT_EQ(sim.peek("a"), 2u);
  EXPECT_EQ(sim.peek("b"), 1u);
  sim.step(1);
  EXPECT_EQ(sim.peek("a"), 1u);
  EXPECT_EQ(sim.peek("b"), 2u);
}

TEST(Sim, CombChainSettlesInOnePass) {
  // w2 depends on w1 depends on input; declared in reverse order to force
  // the topological sort to matter.
  Module m;
  m.name = "chain";
  SigId in = m.add_signal("in", 8, SigKind::kInput);
  SigId w2 = m.add_signal("w2", 8, SigKind::kWire);
  SigId w1 = m.add_signal("w1", 8, SigKind::kWire);
  SigId out = m.add_signal("out", 8, SigKind::kOutput);
  m.assign(out, h_sig(w2, 8));
  m.assign(w2, h_binary(HBinOp::kAdd, h_sig(w1, 8), h_const(8, 1)));
  m.assign(w1, h_binary(HBinOp::kMul, h_sig(in, 8), h_const(8, 3)));
  RtlSim sim(m);
  sim.poke("in", 7);
  EXPECT_EQ(sim.peek("out"), 22u);  // 7*3 + 1
}

TEST(Sim, PokeRejectsNonInputs) {
  Module m = make_accumulator();
  RtlSim sim(m);
  EXPECT_THROW(sim.poke("acc", 1), InternalError);
  EXPECT_THROW(sim.poke("nosuch", 1), InternalError);
}

TEST(Sim, CycleCounterAdvances) {
  Module m = make_accumulator();
  RtlSim sim(m);
  EXPECT_EQ(sim.cycle(), 0u);
  sim.step(5);
  EXPECT_EQ(sim.cycle(), 5u);
}

TEST(Sim, DeepSharedChainEvaluatesEachNodeOnce) {
  // Each level reads the previous node three times, as an if-converted
  // step of crc8 does: a tree walk would visit ~3^24 nodes per settle.
  Module m;
  m.name = "deep";
  SigId in = m.add_signal("in", 32, SigKind::kInput);
  SigId acc = m.add_signal("acc", 32, SigKind::kReg);
  SigId out = m.add_signal("out", 32, SigKind::kOutput);
  auto key = [](int level) { return 0x9E3779B9u * (level + 1); };
  HExprPtr x = h_binary(HBinOp::kXor, h_sig(in, 32), h_sig(acc, 32));
  for (int level = 0; level < 24; ++level) {
    x = h_mux(h_binary(HBinOp::kLtS, x, h_const(32, 0)),
              h_binary(HBinOp::kShl, x, h_const(32, 1)),
              h_binary(HBinOp::kXor, x, h_const(32, key(level))));
  }
  m.assign(out, x);
  m.assign_next(acc, x);

  // One op per distinct node: the input xor plus four per level. The
  // register reads the output's slot, so the clock edge computes nothing.
  CompiledModule compiled(m);
  EXPECT_EQ(compiled.comb_op_count(), 1u + 4u * 24u);
  EXPECT_EQ(compiled.seq_op_count(), 0u);

  auto chain = [&](uint32_t v, uint32_t a) {
    uint32_t y = v ^ a;
    for (int level = 0; level < 24; ++level) {
      y = static_cast<int32_t>(y) < 0 ? y << 1 : y ^ key(level);
    }
    return y;
  };
  RtlSim sim(m);
  uint32_t ref_acc = 0;
  for (uint32_t cycle = 0; cycle < 1000; ++cycle) {
    uint32_t v = cycle * 2654435761u;
    sim.poke(in, v);
    ref_acc = chain(v, ref_acc);
    sim.step(1);
    ASSERT_EQ(sim.peek(acc), ref_acc) << "cycle " << cycle;
    ASSERT_EQ(sim.peek(out), chain(v, ref_acc)) << "cycle " << cycle;
  }
}

// ---------------------------------------------------------------------------
// VCD output
// ---------------------------------------------------------------------------

TEST(Vcd, ContainsHeaderAndTransitions) {
  Module m = make_accumulator();
  RtlSim sim(m);
  auto vcd = std::make_shared<VcdWriter>(m);
  sim.attach_vcd(vcd);
  sim.reset();
  sim.poke("in", 3);
  sim.step(3);
  std::string doc = vcd->str();
  EXPECT_NE(doc.find("$timescale 1ns $end"), std::string::npos);
  EXPECT_NE(doc.find("$var wire 1 ! clk $end"), std::string::npos);
  EXPECT_NE(doc.find("acc"), std::string::npos);
  EXPECT_NE(doc.find("$enddefinitions"), std::string::npos);
  // Clock toggles at 10ns period: timestamps 0, 5, 10, ...
  EXPECT_NE(doc.find("#0\n"), std::string::npos);
  EXPECT_NE(doc.find("#5\n"), std::string::npos);
  EXPECT_NE(doc.find("#10\n"), std::string::npos);
  // Multi-bit values are dumped in binary b... format.
  EXPECT_NE(doc.find("b"), std::string::npos);
}

TEST(Vcd, OnlyChangesAreDumped) {
  Module m = make_accumulator();
  RtlSim sim(m);
  auto vcd = std::make_shared<VcdWriter>(m);
  sim.attach_vcd(vcd);
  sim.reset();
  sim.poke("in", 0);  // acc stays 0: few changes
  sim.step(10);
  std::string quiet = vcd->str();

  RtlSim sim2(m);
  auto vcd2 = std::make_shared<VcdWriter>(m);
  sim2.attach_vcd(vcd2);
  sim2.reset();
  sim2.poke("in", 1);  // acc changes every cycle
  sim2.step(10);
  std::string busy = vcd2->str();
  EXPECT_LT(quiet.size(), busy.size());
}

}  // namespace
}  // namespace lm::rtl
