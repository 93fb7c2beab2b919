// Unit and differential tests for the GPU backend (S5).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bytecode/compiler.h"
#include "bytecode/interp.h"
#include "gpu/device.h"
#include "gpu/kernel_compiler.h"
#include "serde/native.h"
#include "tests/lime_test_util.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace lm::gpu {
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

TEST(KernelCompiler, CompilesPureScalarMethod) {
  auto b = build(R"(
    class C { local static int twice(int x) { return 2 * x; } }
  )");
  auto r = compile_kernel(*method(b, "C", "twice"));
  ASSERT_TRUE(r.ok()) << r.exclusion_reason;
  EXPECT_EQ(r.program->task_id, "C.twice");
  EXPECT_EQ(r.program->ret_type, NumType::kI32);
  ASSERT_EQ(r.program->params.size(), 1u);
}

TEST(KernelCompiler, ExcludesImpureMethod) {
  auto b = build(R"(
    class C { static int g(int[] a) { a[0] = 1; return 0; } }
  )");
  auto r = compile_kernel(*method(b, "C", "g"));
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.exclusion_reason.find("not pure"), std::string::npos);
}

TEST(KernelCompiler, ExcludesRecursion) {
  auto b = build(R"(
    class C {
      local static int fib(int n) { return n < 2 ? n : fib(n-1) + fib(n-2); }
    }
  )");
  auto r = compile_kernel(*method(b, "C", "fib"));
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.exclusion_reason.find("recursive"), std::string::npos);
}

TEST(KernelCompiler, ExcludesAllocation) {
  auto b = build(R"(
    class C {
      local static int f(int n) {
        int[] tmp = new int[n];
        return tmp.length;
      }
    }
  )");
  auto r = compile_kernel(*method(b, "C", "f"));
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.exclusion_reason.find("array"), std::string::npos);
}

TEST(KernelCompiler, InlinesPureCalls) {
  auto b = build(R"(
    class C {
      local static int sq(int x) { return x * x; }
      local static int sumsq(int a, int b) { return sq(a) + sq(b); }
    }
  )");
  auto r = compile_kernel(*method(b, "C", "sumsq"));
  ASSERT_TRUE(r.ok()) << r.exclusion_reason;
  // Execute: 3² + 4² = 25.
  CValue out = CValue::make(bc::ElemCode::kI32, true, 1);
  std::vector<KArg> args = {KArg::scalar_i32(3), KArg::scalar_i32(4)};
  run_kernel_range(*r.program, args, out, 0, 1);
  EXPECT_EQ(out.i32s()[0], 25);
}

TEST(KernelCompiler, StaticFinalConstantsFold) {
  auto b = build(R"(
    class C {
      static final int SCALE = 6 * 7;
      local static int f(int x) { return x * SCALE; }
    }
  )");
  auto r = compile_kernel(*method(b, "C", "f"));
  ASSERT_TRUE(r.ok()) << r.exclusion_reason;
  CValue in = CValue::make(bc::ElemCode::kI32, true, 2);
  in.i32s()[0] = 1;
  in.i32s()[1] = -3;
  GpuDevice dev;
  CValue out = dev.launch(*r.program, {KArg::elementwise(in)}, 2);
  EXPECT_EQ(out.i32s()[0], 42);
  EXPECT_EQ(out.i32s()[1], -126);
  // The artifact text folds the constant to a literal (no undefined name).
  EXPECT_EQ(r.program->opencl_source.find("SCALE"), std::string::npos);
  EXPECT_NE(r.program->opencl_source.find("42"), std::string::npos);
}

TEST(KernelCompiler, OpenClSourceEmitted) {
  auto b = build(R"(
    class C { local static float f(float x) { return Math.sqrt(x) + 1.0f; } }
  )");
  auto r = compile_kernel(*method(b, "C", "f"));
  ASSERT_TRUE(r.ok()) << r.exclusion_reason;
  const std::string& cl = r.program->opencl_source;
  EXPECT_NE(cl.find("__kernel void lime_kernel"), std::string::npos);
  EXPECT_NE(cl.find("get_global_id(0)"), std::string::npos);
  EXPECT_NE(cl.find("float C_f(float x)"), std::string::npos);
  EXPECT_NE(cl.find("sqrt"), std::string::npos);
}

TEST(KernelExec, ElementwiseLaunch) {
  auto b = build(R"(
    class C { local static int addc(int x) { return x + 100; } }
  )");
  auto r = compile_kernel(*method(b, "C", "addc"));
  ASSERT_TRUE(r.ok());

  CValue in = CValue::make(bc::ElemCode::kI32, true, 10);
  for (int i = 0; i < 10; ++i) in.i32s()[i] = i;
  GpuDevice dev;
  CValue out = dev.launch(*r.program, {KArg::elementwise(in)}, 10);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out.i32s()[i], i + 100);
  EXPECT_EQ(dev.stats().launches, 1u);
  EXPECT_EQ(dev.stats().work_items, 10u);
}

TEST(KernelExec, BroadcastScalarMixedWithArray) {
  auto b = build(R"(
    class V { local static float axpy(float a, float x, float y) { return a*x + y; } }
  )");
  auto r = compile_kernel(*method(b, "V", "axpy"));
  ASSERT_TRUE(r.ok());
  size_t n = 1000;
  CValue x = CValue::make(bc::ElemCode::kF32, true, n);
  CValue y = CValue::make(bc::ElemCode::kF32, true, n);
  for (size_t i = 0; i < n; ++i) {
    x.f32s()[i] = static_cast<float>(i);
    y.f32s()[i] = 1.0f;
  }
  GpuDevice dev;
  CValue out = dev.launch(
      *r.program,
      {KArg::scalar_f32(2.0f), KArg::elementwise(x), KArg::elementwise(y)}, n);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_FLOAT_EQ(out.f32s()[i], 2.0f * static_cast<float>(i) + 1.0f);
  }
}

TEST(KernelExec, WholeArrayParamWithLoop) {
  // Dot-product-style kernel: map over an index array, reading two whole
  // arrays — the idiom for matrix multiply on the GPU backend.
  auto b = build(R"(
    class M {
      local static float dotRow(float[[]] a, float[[]] b, int n, int i) {
        float acc = 0.0f;
        for (int k = 0; k < n; k += 1) acc += a[i * n + k] * b[k];
        return acc;
      }
    }
  )");
  auto r = compile_kernel(*method(b, "M", "dotRow"));
  ASSERT_TRUE(r.ok()) << r.exclusion_reason;

  int n = 4;
  CValue a = CValue::make(bc::ElemCode::kF32, true, 16);
  CValue v = CValue::make(bc::ElemCode::kF32, true, 4);
  for (int i = 0; i < 16; ++i) a.f32s()[i] = static_cast<float>(i);
  for (int i = 0; i < 4; ++i) v.f32s()[i] = 1.0f;
  CValue idx = CValue::make(bc::ElemCode::kI32, true, 4);
  for (int i = 0; i < 4; ++i) idx.i32s()[i] = i;

  GpuDevice dev;
  CValue out = dev.launch(*r.program,
                          {KArg::whole_array(a), KArg::whole_array(v),
                           KArg::scalar_i32(n), KArg::elementwise(idx)},
                          4);
  // Row i of a (0..15 rowwise) dotted with ones = sum of row.
  EXPECT_FLOAT_EQ(out.f32s()[0], 0 + 1 + 2 + 3);
  EXPECT_FLOAT_EQ(out.f32s()[3], 12 + 13 + 14 + 15);
}

TEST(KernelExec, ControlFlowInKernel) {
  auto b = build(R"(
    class C {
      local static int collatz(int n) {
        int steps = 0;
        while (n != 1) {
          if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
          steps += 1;
        }
        return steps;
      }
    }
  )");
  auto r = compile_kernel(*method(b, "C", "collatz"));
  ASSERT_TRUE(r.ok()) << r.exclusion_reason;
  CValue in = CValue::make(bc::ElemCode::kI32, true, 3);
  in.i32s()[0] = 1;
  in.i32s()[1] = 6;
  in.i32s()[2] = 27;
  GpuDevice dev;
  CValue out = dev.launch(*r.program, {KArg::elementwise(in)}, 3);
  EXPECT_EQ(out.i32s()[0], 0);
  EXPECT_EQ(out.i32s()[1], 8);
  EXPECT_EQ(out.i32s()[2], 111);
}

TEST(KernelExec, SegmentKernelFusesPipeline) {
  auto b = build(R"(
    class P {
      local static int scale(int x) { return 3 * x; }
      local static int offset(int x) { return x + 7; }
    }
  )");
  std::vector<const lime::MethodDecl*> chain = {method(b, "P", "scale"),
                                                method(b, "P", "offset")};
  auto r = compile_segment_kernel(chain);
  ASSERT_TRUE(r.ok()) << r.exclusion_reason;
  EXPECT_EQ(r.program->in_stride, 1);
  EXPECT_NE(r.program->opencl_source.find("lime_segment"), std::string::npos);

  CValue in = CValue::make(bc::ElemCode::kI32, true, 5);
  for (int i = 0; i < 5; ++i) in.i32s()[i] = i;
  GpuDevice dev;
  CValue out = dev.launch(*r.program, {KArg::elementwise(in)}, 5);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(out.i32s()[i], 3 * i + 7);
}

TEST(KernelExec, SegmentWithBinaryHead) {
  auto b = build(R"(
    class P {
      local static int addPair(int a, int b) { return a + b; }
      local static int neg(int x) { return -x; }
    }
  )");
  std::vector<const lime::MethodDecl*> chain = {method(b, "P", "addPair"),
                                                method(b, "P", "neg")};
  auto r = compile_segment_kernel(chain);
  ASSERT_TRUE(r.ok()) << r.exclusion_reason;
  EXPECT_EQ(r.program->in_stride, 2);

  CValue in = CValue::make(bc::ElemCode::kI32, true, 6);
  for (int i = 0; i < 6; ++i) in.i32s()[i] = i + 1;  // 1..6
  GpuDevice dev;
  std::vector<KArg> args = {KArg::elementwise(in, 2, 0),
                            KArg::elementwise(in, 2, 1)};
  CValue out = dev.launch(*r.program, args, 3);
  EXPECT_EQ(out.i32s()[0], -3);
  EXPECT_EQ(out.i32s()[1], -7);
  EXPECT_EQ(out.i32s()[2], -11);
}

TEST(KernelExec, NativeRegistryOverrides) {
  auto b = build(R"(
    class C { local static int twice(int x) { return 2 * x; } }
  )");
  auto r = compile_kernel(*method(b, "C", "twice"));
  ASSERT_TRUE(r.ok());
  GpuDevice dev;
  dev.registry().add("C.twice", [](const std::vector<KArg>& args,
                                   CValue& out, size_t begin, size_t end) {
    auto in = args[0].array->i32s();
    for (size_t i = begin; i < end; ++i) out.i32s()[i] = 2 * in[i];
  });
  CValue in = CValue::make(bc::ElemCode::kI32, true, 4);
  for (int i = 0; i < 4; ++i) in.i32s()[i] = i;
  CValue out = dev.launch(*r.program, {KArg::elementwise(in)}, 4);
  EXPECT_EQ(dev.stats().native_launches, 1u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out.i32s()[i], 2 * i);
}

TEST(KernelExec, WatchdogCatchesDivergentKernel) {
  auto b = build(R"(
    class C {
      local static int spin(int x) {
        while (x > -1) { x = x < 100 ? x + 1 : 1; }
        return x;
      }
    }
  )");
  auto r = compile_kernel(*method(b, "C", "spin"));
  ASSERT_TRUE(r.ok());
  CValue in = CValue::make(bc::ElemCode::kI32, true, 1);
  CValue out = CValue::make(bc::ElemCode::kI32, true, 1);
  EXPECT_THROW(run_kernel_range(*r.program, {KArg::elementwise(in)}, out, 0, 1),
               RuntimeError);
}

// ---------------------------------------------------------------------------
// Compute units: a launch of at least 4096 items runs on the process-wide
// units, which claim its items chunk by chunk.
// ---------------------------------------------------------------------------

constexpr size_t kParallelItems = 3 * 4096 + 17;  // an uneven last chunk

const char* kCollatzSource = R"(
  class C {
    local static int f(int x) { return x % 2 == 0 ? x / 2 : 3 * x + 1; }
  }
)";

CValue ints(size_t n, int32_t first) {
  CValue v = CValue::make(bc::ElemCode::kI32, true, n);
  for (size_t i = 0; i < n; ++i) {
    v.i32s()[i] = first + static_cast<int32_t>(i);
  }
  return v;
}

/// A native kernel whose output shows a misplaced range: out[i] = 7·in[i] + i.
/// Throws on an input of INT32_MIN.
void scaled_plus_index(const std::vector<KArg>& args, CValue& out,
                       size_t begin, size_t end) {
  auto in = args[0].array->i32s();
  for (size_t i = begin; i < end; ++i) {
    if (in[i] == INT32_MIN) {
      throw RuntimeError("bad item " + std::to_string(i));
    }
    out.i32s()[i] = 7 * in[i] + static_cast<int32_t>(i);
  }
}

TEST(ComputeUnits, ParallelLaunchMatchesOneRange) {
  auto b = build(kCollatzSource);
  auto r = compile_kernel(*method(b, "C", "f"));
  ASSERT_TRUE(r.ok()) << r.exclusion_reason;
  const LoweredKernel kernel(*r.program);
  CValue in = ints(kParallelItems, -5000);
  const std::vector<KArg> args = {KArg::elementwise(in)};
  GpuDevice dev;

  CValue whole = CValue::make(bc::ElemCode::kI32, true, kParallelItems);
  run_kernel_range(kernel, args, whole, 0, kParallelItems);
  EXPECT_EQ(dev.launch(kernel, args, kParallelItems).storage, whole.storage);

  dev.registry().add("C.f", scaled_plus_index);
  CValue native_whole = CValue::make(bc::ElemCode::kI32, true, kParallelItems);
  scaled_plus_index(args, native_whole, 0, kParallelItems);
  EXPECT_EQ(dev.launch(kernel, args, kParallelItems).storage,
            native_whole.storage);
  EXPECT_EQ(dev.stats().native_launches, 1u);
}

TEST(ComputeUnits, ThrowingRangeRethrowsOnTheLaunchingThread) {
  auto b = build(kCollatzSource);
  auto r = compile_kernel(*method(b, "C", "f"));
  ASSERT_TRUE(r.ok()) << r.exclusion_reason;
  const LoweredKernel kernel(*r.program);
  GpuDevice dev;
  dev.registry().add("C.f", scaled_plus_index);

  CValue in = ints(kParallelItems, 0);
  in.i32s()[kParallelItems - 2] = INT32_MIN;  // in the last range
  EXPECT_THROW(dev.launch(kernel, {KArg::elementwise(in)}, kParallelItems),
               RuntimeError);
  in.i32s()[kParallelItems - 2] = 5;
  CValue out = dev.launch(kernel, {KArg::elementwise(in)}, kParallelItems);
  for (size_t i = 0; i < kParallelItems; ++i) {
    ASSERT_EQ(out.i32s()[i], 7 * in.i32s()[i] + static_cast<int32_t>(i))
        << "item " << i;
  }
}

TEST(ComputeUnits, WatchdogInOneRangeRethrowsAndTheNextLaunchRuns) {
  auto b = build(R"(
    class C {
      local static int spin(int x) {
        while (x > -1) { x = x < 100 ? x + 1 : 1; }
        return x;
      }
    }
  )");
  auto r = compile_kernel(*method(b, "C", "spin"));
  ASSERT_TRUE(r.ok()) << r.exclusion_reason;
  const LoweredKernel kernel(*r.program);
  GpuDevice dev;
  CValue in = CValue::make(bc::ElemCode::kI32, true, kParallelItems);
  for (size_t i = 0; i < kParallelItems; ++i) in.i32s()[i] = -1;
  in.i32s()[kParallelItems / 2] = 0;  // this item never leaves the loop
  EXPECT_THROW(dev.launch(kernel, {KArg::elementwise(in)}, kParallelItems),
               RuntimeError);
  in.i32s()[kParallelItems / 2] = -7;
  CValue out = dev.launch(kernel, {KArg::elementwise(in)}, kParallelItems);
  for (size_t i = 0; i < kParallelItems; ++i) {
    ASSERT_EQ(out.i32s()[i], in.i32s()[i]) << "item " << i;
  }
}

TEST(ComputeUnits, ConcurrentLaunchersAllGetTheirOwnOutput) {
  auto b = build(kCollatzSource);
  auto r = compile_kernel(*method(b, "C", "f"));
  ASSERT_TRUE(r.ok()) << r.exclusion_reason;
  const LoweredKernel kernel(*r.program);
  GpuDevice dev;
  constexpr int kThreads = 4;
  constexpr int kLaunches = 8;
  std::vector<size_t> wrong(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int l = 0; l < kLaunches; ++l) {
        CValue in = ints(kParallelItems, 100000 * t + 1000 * l);
        CValue out =
            dev.launch(kernel, {KArg::elementwise(in)}, kParallelItems);
        for (size_t i = 0; i < kParallelItems; ++i) {
          int32_t x = in.i32s()[i];
          if (out.i32s()[i] != (x % 2 == 0 ? x / 2 : 3 * x + 1)) ++wrong[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(wrong[t], 0u) << "launcher " << t;
  }
  EXPECT_EQ(dev.stats().launches, uint64_t{kThreads * kLaunches});
}

/// Threads of this process.
size_t thread_count() {
  size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)e;
    ++n;
  }
  return n;
}

// Runs in a fresh process (the threadsafe death-test style re-executes the
// binary), so no earlier launch has started the process-wide units.
TEST(ComputeUnitsDeathTest, LaunchesUnder4096ItemsStartNoThread) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  auto child = [] {
    auto b = build(kCollatzSource);
    auto r = compile_kernel(*method(b, "C", "f"));
    const LoweredKernel kernel(*r.program);
    GpuDevice dev;
    CValue in = ints(4096, 1);
    const size_t before = thread_count();
    for (size_t n : {size_t{1}, size_t{448}, size_t{4095}}) {
      dev.launch(kernel, {KArg::elementwise(in)}, n);
    }
    const bool none_started = thread_count() == before;
    dev.launch(kernel, {KArg::elementwise(in)}, 4096);
    const bool units_started =
        dev.compute_units() == 1 || thread_count() > before;
    std::_Exit(none_started && units_started ? 0 : 1);
  };
  EXPECT_EXIT(child(), ::testing::ExitedWithCode(0), "");
}

// ---------------------------------------------------------------------------
// The lowered form (gpu/lowered.h) on hand-written IR: its rewrites fire, and
// each rewrite's guard keeps a program the rewrite would break.
// ---------------------------------------------------------------------------

KInstr op3(KOp op, int dst, int a = 0, int b = 0, uint8_t aux = 0,
           NumType t = NumType::kI32, NumType t2 = NumType::kI32) {
  return {op,
          static_cast<uint16_t>(dst),
          static_cast<uint16_t>(a),
          static_cast<uint16_t>(b),
          aux,
          t,
          t2,
          0};
}
KInstr jump(KOp op, int target, int cond = 0) {
  KInstr k = op3(op, 0, cond);
  k.imm = target;
  return k;
}
KInstr add_i32(int dst, int a, int b) {
  return op3(KOp::kArith, dst, a, b, static_cast<uint8_t>(ArithOp::kAdd));
}

/// An int kernel f(int x) with `code` over `num_regs` registers.
KernelProgram int_kernel(std::vector<KInstr> code, int num_regs,
                         std::vector<int32_t> consts = {}) {
  KernelProgram p;
  p.task_id = "T.f";
  p.code = std::move(code);
  p.num_regs = num_regs;
  p.params.push_back({ParamMode::kScalar, NumType::kI32});
  for (int32_t c : consts) {
    KConst k;
    k.value.i32 = c;
    p.consts.push_back(k);
  }
  return p;
}

int32_t run_int(const LoweredKernel& k, int32_t x) {
  CValue out = CValue::make(bc::ElemCode::kI32, true, 1);
  run_kernel_range(k, {KArg::scalar_i32(x)}, out, 0, 1);
  return out.i32s()[0];
}

TEST(LoweredKernel, FoldsConstantsMovesAndCompareBranches) {
  // s = 0; for (i = 0; i < x; i += 1) s = s + i; return s;
  KernelProgram p = int_kernel(
      {
          op3(KOp::kLoadParam, 0, 0),   // 0: n = x
          op3(KOp::kLoadConst, 1, 0),   // 1: zero        (set once)
          op3(KOp::kMov, 2, 1),         // 2: i = 0
          op3(KOp::kMov, 3, 1),         // 3: s = 0
          op3(KOp::kCmp, 4, 2, 0, static_cast<uint8_t>(CmpOp::kLt)),  // 4
          jump(KOp::kJumpIfFalse, 11, 4),  // 5: fused with 4
          add_i32(5, 3, 2),             // 6: t = s + i
          op3(KOp::kMov, 3, 5),         // 7: s = t       (into 6)
          op3(KOp::kLoadConst, 6, 1),   // 8: one         (set once)
          add_i32(2, 2, 6),             // 9: i += 1
          jump(KOp::kJump, 4),          // 10
          op3(KOp::kRet, 0, 3),         // 11
      },
      7, {0, 1});
  LoweredKernel k(p);
  // Two loads, one move and one branch go; the end sentinel comes.
  EXPECT_EQ(k.size(), p.code.size() - 4 + 1);
  EXPECT_EQ(run_int(k, 5), 10);
  EXPECT_EQ(run_int(k, 0), 0);
}

TEST(LoweredKernel, MovThatIsAJumpTargetStays) {
  // Twice: acc = x; acc += acc. The back edge lands on the mov, which must
  // reset acc; merged into the load it would be skipped.
  KernelProgram p = int_kernel(
      {
          op3(KOp::kLoadConst, 2, 0),  // 0: n = 0
          op3(KOp::kLoadConst, 3, 1),  // 1: one
          op3(KOp::kLoadConst, 5, 2),  // 2: two
          op3(KOp::kLoadParam, 0, 0),  // 3: t = x
          op3(KOp::kMov, 1, 0),        // 4: acc = t   ← jump target
          add_i32(1, 1, 1),            // 5: acc += acc
          add_i32(2, 2, 3),            // 6: n += 1
          op3(KOp::kCmp, 4, 2, 5, static_cast<uint8_t>(CmpOp::kLt)),  // 7
          jump(KOp::kJumpIfFalse, 10, 4),  // 8
          jump(KOp::kJump, 4),             // 9
          op3(KOp::kRet, 0, 1),            // 10
      },
      6, {0, 1, 2});
  EXPECT_EQ(run_int(LoweredKernel(p), 5), 10);
}

TEST(LoweredKernel, TemporaryReadTwiceStays) {
  KernelProgram p = int_kernel(
      {
          op3(KOp::kLoadParam, 0, 0),  // 0: x
          add_i32(1, 0, 0),            // 1: t = 2x
          op3(KOp::kMov, 2, 1),        // 2: y = t
          add_i32(3, 2, 1),            // 3: y + t, which reads t again
          op3(KOp::kRet, 0, 3),        // 4
      },
      4);
  EXPECT_EQ(run_int(LoweredKernel(p), 5), 20);
}

TEST(LoweredKernel, RegisterGivenTwoConstantsIsReloaded) {
  KernelProgram p = int_kernel(
      {
          op3(KOp::kLoadParam, 0, 0),  // 0: x
          op3(KOp::kLoadConst, 1, 0),  // 1: k = 10
          add_i32(2, 0, 1),            // 2: x + 10
          op3(KOp::kLoadConst, 1, 1),  // 3: k = 20
          add_i32(3, 2, 1),            // 4: x + 10 + 20
          op3(KOp::kRet, 0, 3),        // 5
      },
      4, {10, 20});
  EXPECT_EQ(run_int(LoweredKernel(p), 5), 35);
}

TEST(LoweredKernel, CompareAlsoStoredStays) {
  // neg = x < 0; if (neg) x = -x; return x + (int) neg;
  KernelProgram p = int_kernel(
      {
          op3(KOp::kLoadParam, 0, 0),  // 0: x
          op3(KOp::kLoadConst, 1, 0),  // 1: zero
          op3(KOp::kCmp, 2, 0, 1, static_cast<uint8_t>(CmpOp::kLt)),  // 2
          jump(KOp::kJumpIfFalse, 5, 2),  // 3
          op3(KOp::kArith, 0, 1, 0, static_cast<uint8_t>(ArithOp::kSub)),
          op3(KOp::kMov, 3, 2),         // 5: neg, the compare's second use
          op3(KOp::kCast, 4, 3, 0, 0, NumType::kBool, NumType::kI32),  // 6
          add_i32(5, 0, 4),             // 7
          op3(KOp::kRet, 0, 5),         // 8
      },
      6, {0});
  LoweredKernel k(p);
  EXPECT_EQ(run_int(k, -5), 6);
  EXPECT_EQ(run_int(k, 5), 5);
}

TEST(LoweredKernel, FallingOffTheEndThrows) {
  // Off the end by running past the last instruction, and by a jump to
  // code.size().
  for (auto code : {std::vector<KInstr>{op3(KOp::kLoadParam, 0, 0)},
                    std::vector<KInstr>{jump(KOp::kJump, 2),
                                        op3(KOp::kLoadParam, 0, 0)}}) {
    try {
      run_int(LoweredKernel(int_kernel(code, 1)), 1);
      ADD_FAILURE() << "no throw for " << code.size() << " instructions";
    } catch (const RuntimeError& e) {
      EXPECT_NE(std::string(e.what()).find("fell off the end"),
                std::string::npos);
    }
  }
}

TEST(LoweredKernel, SelfJumpTripsTheWatchdog) {
  KernelProgram p = int_kernel({jump(KOp::kJump, 0)}, 0);
  try {
    run_int(LoweredKernel(p), 1);
    ADD_FAILURE() << "a self jump ran forever";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("watchdog"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// gpu::validate, the one check of kernel IR, on deliberately corrupted
// programs, and on every kernel the compiler emits.
// ---------------------------------------------------------------------------

KernelProgram valid_kernel() {
  KernelProgram k;
  k.task_id = "T.f";
  k.num_regs = 2;
  k.params.push_back({ParamMode::kElementwise, NumType::kI32, 1, 0});
  k.code = {op3(KOp::kLoadParam, 0, 0), op3(KOp::kRet, 0, 0)};
  return k;
}

/// Why validate() rejects `k`, or "" when it passes.
std::string rejection(const KernelProgram& k) {
  try {
    validate(k);
  } catch (const RuntimeError& e) {
    return e.what();
  }
  return "";
}

TEST(KernelVerifier, ValidKernelIsClean) {
  EXPECT_EQ(rejection(valid_kernel()), "");
}

TEST(KernelVerifier, RegisterOutOfRange) {
  KernelProgram k = valid_kernel();
  k.code[1].a = 9;  // kRet of a register past num_regs
  EXPECT_NE(rejection(k).find("source register r9 out of range"),
            std::string::npos);
}

TEST(KernelVerifier, ConstantPoolIndexOutOfRange) {
  KernelProgram k = valid_kernel();
  k.code.insert(k.code.begin(), op3(KOp::kLoadConst, 1, 3));  // no consts
  EXPECT_NE(rejection(k).find("constant c3 out of range"), std::string::npos);
}

TEST(KernelVerifier, JumpTargetOutOfRange) {
  KernelProgram k = valid_kernel();
  k.code.insert(k.code.begin(), jump(KOp::kJump, 42));
  EXPECT_NE(rejection(k).find("jump target 42 out of range"),
            std::string::npos);
}

TEST(KernelVerifier, RegisterUsedBeforeDefinition) {
  KernelProgram k = valid_kernel();
  k.code[0] = op3(KOp::kMov, 0, 1);  // r1 is never written
  EXPECT_NE(rejection(k).find("pc 0: reads r1 before every path"),
            std::string::npos);
  // Written on one arm of a branch only: the read after the join may see
  // it unwritten.
  k.num_regs = 3;
  k.code = {op3(KOp::kLoadParam, 0, 0),
            op3(KOp::kCmp, 1, 0, 0, static_cast<uint8_t>(CmpOp::kEq)),
            jump(KOp::kJumpIfFalse, 4, 1), op3(KOp::kMov, 2, 0),
            op3(KOp::kRet, 0, 2)};
  EXPECT_NE(rejection(k).find("pc 4: reads r2 before every path"),
            std::string::npos);
  k.code[2] = jump(KOp::kJumpIfFalse, 3, 1);  // both arms reach the mov
  EXPECT_EQ(rejection(k), "");
}

TEST(KernelVerifier, ElementLoadFromElementwiseParam) {
  KernelProgram k = valid_kernel();
  k.code[0].op = KOp::kLoadElem;  // param 0 is kElementwise
  EXPECT_NE(rejection(k).find("array access to scalar parameter p0"),
            std::string::npos);
  k.code[0].op = KOp::kArrayLen;
  EXPECT_NE(rejection(k).find("array access to scalar parameter p0"),
            std::string::npos);
  k = valid_kernel();
  k.params[0].mode = ParamMode::kWholeArray;
  EXPECT_NE(rejection(k).find("scalar load of whole-array parameter p0"),
            std::string::npos);
}

TEST(KernelVerifier, ReachableFallOffTheEnd) {
  KernelProgram k = valid_kernel();
  k.code.pop_back();  // drop the kRet
  EXPECT_NE(rejection(k).find("fell off the end"), std::string::npos);
  // Past a return, a jump to the end is dead code and passes.
  k = valid_kernel();
  k.code.push_back(jump(KOp::kJump, 3));
  EXPECT_EQ(rejection(k), "");
}

TEST(KernelVerifier, BackEdgesMustKeepTheirTargetsState) {
  // A loop entered at its head, as every compiled loop is, passes.
  KernelProgram k = valid_kernel();
  k.num_regs = 3;
  k.code = {op3(KOp::kLoadParam, 0, 0),
            op3(KOp::kCmp, 1, 0, 0, static_cast<uint8_t>(CmpOp::kEq)),  // head
            jump(KOp::kJumpIfFalse, 4, 1), jump(KOp::kJump, 1),
            op3(KOp::kRet, 0, 0)};
  EXPECT_EQ(rejection(k), "");
  // A back edge to code that only it reaches.
  k.code = {op3(KOp::kLoadParam, 0, 0), jump(KOp::kJump, 3),
            op3(KOp::kRet, 0, 0), jump(KOp::kJumpIfFalse, 2, 0),
            op3(KOp::kRet, 0, 0)};
  EXPECT_NE(rejection(k).find(
                "pc 3: jumps back to pc 2, which no earlier path reaches"),
            std::string::npos);
  // pc 3 is first reached with r2 written; the back edge from pc 6 comes
  // by way of pc 5, which skipped writing it, and pc 3 reads it.
  k.code = {op3(KOp::kLoadParam, 0, 0), jump(KOp::kJumpIfFalse, 5, 0),
            op3(KOp::kMov, 2, 0),       op3(KOp::kMov, 1, 2),
            op3(KOp::kRet, 0, 1),       op3(KOp::kMov, 1, 0),
            jump(KOp::kJump, 3)};
  EXPECT_NE(rejection(k).find("pc 6: jumps back to pc 3 with r2 possibly "
                              "unwritten"),
            std::string::npos);
  // Such a back edge is rejected, not revisited, even where the target
  // would not read the register it loses.
  k.code[3] = op3(KOp::kMov, 1, 0);
  EXPECT_NE(rejection(k).find("pc 6: jumps back to pc 3"), std::string::npos);
}

TEST(KernelVerifier, ProgramsPastTheWorkBudgetAreRejected) {
  // Over 65,536 registers (1024 bitset words) each jump costs 2048 words
  // of the budget of 2^22, on top of one per instruction: 2046 jumps fit,
  // 2047 do not.
  KernelProgram k = valid_kernel();
  k.num_regs = 65536;
  for (int i = 0; i < 2046; ++i) {
    k.code.insert(k.code.begin() + i, jump(KOp::kJump, i + 1));
  }
  EXPECT_EQ(rejection(k), "");
  k.code.insert(k.code.begin(), jump(KOp::kJump, 1));
  for (size_t pc = 1; pc < 2047; ++pc) k.code[pc].imm += 1;
  EXPECT_NE(rejection(k).find("exceed the validation budget"),
            std::string::npos);
  // Straight-line code costs one word per instruction, however many
  // registers it declares.
  k = valid_kernel();
  k.num_regs = 65536;
  k.code.insert(k.code.begin() + 1, 1'000'000, op3(KOp::kMov, 1, 0));
  EXPECT_EQ(rejection(k), "");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(KernelCompiler, EveryKernelItEmitsValidates) {
  // Every method of the suite programs, the examples and a value enum's
  // operator: the compiler either declines one for a reason of its own or
  // emits IR that passes.
  std::vector<std::string> sources;
  for (const auto* suite :
       {&workloads::gpu_suite(), &workloads::pipeline_suite()}) {
    for (const workloads::Workload& w : *suite) {
      sources.push_back(w.lime_source);
    }
  }
  for (const char* example : {"bitflip.lime", "intpipe.lime"}) {
    sources.push_back(read_file(std::string(LM_REPO_DIR) + "/examples/" +
                                example));
    ASSERT_FALSE(sources.back().empty()) << example;
  }
  sources.push_back(lime::testing::trit_source());
  size_t accepted = 0;
  bool saw_operator = false;
  for (const std::string& source : sources) {
    auto b = build(source);
    for (const auto& cls : b.program->classes) {
      for (const auto& m : cls->methods) {
        const std::string name = m->qualified_name();
        KernelCompileResult r = compile_kernel(*m);
        if (name == "trit.operator~") {
          saw_operator = true;
          EXPECT_FALSE(r.ok()) << "an operator has no receiver to bind";
        }
        // None of these falls back on the validator to decline.
        EXPECT_NE(r.exclusion_reason.rfind("kernel ", 0), 0u)
            << name << ": " << r.exclusion_reason;
        if (!r.ok()) continue;
        ++accepted;
        EXPECT_EQ(rejection(*r.program), "") << name;
      }
    }
  }
  EXPECT_TRUE(saw_operator);
  EXPECT_GE(accepted, 18u);
}

TEST(KernelCompiler, LongStraightLineMethodCompilesAndRuns) {
  // 4000 statements of `a = a * 3 + i`: 20,000 instructions over 16,000
  // registers, one fresh register per temporary. Straight-line code costs
  // the validator one word per instruction, not a bitset each.
  constexpr int kStatements = 4000;
  std::string src = "class C { local static int f(int x) { int a = x; ";
  for (int i = 0; i < kStatements; ++i) {
    src += "a = a * 3 + " + std::to_string(i) + "; ";
  }
  src += "return a; } }";
  auto b = build(src);
  auto kr = compile_kernel(*method(b, "C", "f"));
  ASSERT_TRUE(kr.ok()) << kr.exclusion_reason;
  EXPECT_GT(kr.program->code.size(), 20000u);
  bc::Interpreter vm(*b.module);
  for (int32_t x : {0, 7, -123456}) {
    CValue out = CValue::make(bc::ElemCode::kI32, true, 1);
    run_kernel_range(*kr.program, {KArg::scalar_i32(x)}, out, 0, 1);
    EXPECT_EQ(out.i32s()[0], vm.call("C.f", {Value::i32(x)}).as_i32()) << x;
  }
}

// ---------------------------------------------------------------------------
// Differential: kernel IR vs bytecode VM on random inputs (property test).
// All artifacts for one task id must be semantically equivalent (§3).
// ---------------------------------------------------------------------------

struct DiffCase {
  const char* name;
  const char* source;
  const char* cls;
  const char* method;
};

// Prints the case name for a stable test name; the default byte dump would
// print the string literals' addresses, which change on every run.
void PrintTo(const DiffCase& tc, std::ostream* os) { *os << tc.name; }

class GpuVsVmDifferential : public ::testing::TestWithParam<DiffCase> {};

TEST_P(GpuVsVmDifferential, AgreeOnRandomInputs) {
  const DiffCase& tc = GetParam();
  auto b = build(tc.source);
  const auto* m = method(b, tc.cls, tc.method);
  ASSERT_NE(m, nullptr);
  auto kr = compile_kernel(*m);
  ASSERT_TRUE(kr.ok()) << kr.exclusion_reason;

  bc::Interpreter vm(*b.module);
  GpuDevice dev;
  SplitMix64 rng(2012);

  const size_t n = 256;
  CValue in = CValue::make(bc::ElemCode::kI32, true, n);
  for (size_t i = 0; i < n; ++i) {
    in.i32s()[i] = static_cast<int32_t>(rng.next_range(-1000, 1000));
  }
  CValue out = dev.launch(*kr.program, {KArg::elementwise(in)}, n);

  std::string qn = std::string(tc.cls) + "." + tc.method;
  for (size_t i = 0; i < n; ++i) {
    Value want = vm.call(qn, {Value::i32(in.i32s()[i])});
    EXPECT_EQ(out.i32s()[i], want.as_i32()) << tc.name << " at item " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, GpuVsVmDifferential,
    ::testing::Values(
        DiffCase{"affine",
                 "class C { local static int f(int x) { return 3*x - 11; } }",
                 "C", "f"},
        DiffCase{"branchy",
                 "class C { local static int f(int x) { "
                 "return x % 2 == 0 ? x / 2 : 3 * x + 1; } }",
                 "C", "f"},
        DiffCase{"loopy",
                 "class C { local static int f(int x) { "
                 "int acc = 0; for (int i = 0; i < (x < 0 ? -x : x) % 17; "
                 "i += 1) acc += i * x; return acc; } }",
                 "C", "f"},
        DiffCase{"bitops",
                 "class C { local static int f(int x) { "
                 "return ((x << 3) ^ (x >> 2)) & (x | 255); } }",
                 "C", "f"},
        DiffCase{"nested_calls",
                 "class C { local static int g(int x) { return x * x; } "
                 "local static int h(int x) { return g(x) + 1; } "
                 "local static int f(int x) { return h(g(x % 50)); } }",
                 "C", "f"},
        DiffCase{"shortcircuit",
                 "class C { local static int f(int x) { "
                 "return (x != 0 && 100 / x > 3) || x < -5 ? 1 : 0; } }",
                 "C", "f"},
        // Java: MIN_VALUE / -1 == MIN_VALUE and MIN_VALUE % -1 == 0, for
        // int and long alike; C++ division traps on both.
        DiffCase{"min_over_minus_one",
                 "class C { local static int f(int x) { "
                 "int m = (x & 1) == 0 ? -2147483647 - 1 : x; "
                 "int d = (x & 2) == 0 ? -1 : 7; "
                 "long lm = ((long) m) << 32; long ld = (long) d; "
                 "return m / d + m % d + (int) ((lm / ld) >> 32) "
                 "+ (int) (lm % ld); } }",
                 "C", "f"},
        // Java rounds a long to float once; through double, 2^62 + 2^38
        // + x rounds twice and loses x's low bit.
        DiffCase{"long_to_float_rounds_once",
                 "class C { local static int f(int x) { "
                 "long v = (((long) 1) << 62) + (((long) 1) << 38) + (long) x; "
                 "return (int) ((float) v / 549755813888.0f); } }",
                 "C", "f"},
        // (bit) takes the low bit of the long; 2^53 + x is not exact in a
        // double.
        DiffCase{"long_to_bit_keeps_low_bit",
                 "class C { local static int f(int x) { "
                 "long y = (((long) 1) << 53) + (long) x; "
                 "bit b = (bit) y; int r = b; return r; } }",
                 "C", "f"},
        // Java maps NaN to 0 and saturates out-of-range floats, to int and
        // to long (6e9 * 1e30 overflows float to infinity).
        DiffCase{"float_to_int_edges",
                 "class C { local static int f(int x) { "
                 "float z = (float) (x - x); "
                 "float v = (x & 3) == 0 ? z / z : ((x & 3) == 1 ? 6.0e9f "
                 ": ((x & 3) == 2 ? -6.0e9f : x * 0.75f)); "
                 "return (int) v ^ (int) ((long) (v * 1.0e30f) >> 40); } }",
                 "C", "f"},
        // Math.abs wraps: abs(MIN_VALUE) is MIN_VALUE, for int and long.
        DiffCase{"abs_min_value",
                 "class C { local static int f(int x) { "
                 "int m = (x & 1) == 0 ? -2147483647 - 1 : x; "
                 "long lm = (x & 2) == 0 ? -9223372036854775807L - 1L "
                 ": (long) x; "
                 "return Math.abs(m) ^ (int) (Math.abs(lm) >> 32); } }",
                 "C", "f"},
        // A loop left only by return, as the method's last statement and
        // inlined into a caller: no path runs past either loop.
        DiffCase{"while_true_returns",
                 "class C { local static int f(int x) { "
                 "int n = x < 0 ? -x : x; int i = 0; "
                 "while (true) { if (i * i >= n) { return i; } i += 1; } } }",
                 "C", "f"},
        DiffCase{"while_true_returns_inlined",
                 "class C { local static int g(int x) { int i = 0; "
                 "while (!false) { i += 1; if (i >= x % 13) { return i * 3; } "
                 "} } local static int f(int x) { return g(x) + g(x + 5); } }",
                 "C", "f"}),
    [](const ::testing::TestParamInfo<DiffCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace lm::gpu
