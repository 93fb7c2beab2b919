// Integration tests for the Liquid Metal runtime (S9): compilation through
// all backends, task substitution, co-execution, and map/reduce offload.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "runtime/liquid_runtime.h"
#include "serde/buffer_pool.h"
#include "tests/lime_test_util.h"
#include "util/rng.h"

namespace lm::runtime {
namespace {

using bc::Value;

std::unique_ptr<CompiledProgram> compile_ok(const std::string& src,
                                            CompileOptions opts = {}) {
  auto cp = compile(src, opts);
  EXPECT_TRUE(cp->ok()) << cp->diags.to_string();
  return cp;
}

const char* kPipelineSource = R"(
  class P {
    local static int scale(int x) { return 3 * x; }
    local static int offset(int x) { return x + 7; }
    static int[[]] run(int[[]] input) {
      int[] result = new int[input.length];
      var g = input.source(1)
        => ([ task scale ])
        => ([ task offset ])
        => result.<int>sink();
      g.finish();
      return new int[[]](result);
    }
  }
)";

// ---------------------------------------------------------------------------
// Compilation (Fig. 2): artifacts and manifests
// ---------------------------------------------------------------------------

TEST(Compiler, ProducesArtifactsForAllBackends) {
  auto cp = compile_ok(lime::testing::figure1_source());
  auto arts = cp->store.lookup("Bitflip.flip");
  // flip is relocated: bytecode (always), GPU kernel, FPGA module.
  ASSERT_EQ(arts.size(), 3u);
  EXPECT_NE(cp->store.find("Bitflip.flip", DeviceKind::kCpu), nullptr);
  EXPECT_NE(cp->store.find("Bitflip.flip", DeviceKind::kGpu), nullptr);
  EXPECT_NE(cp->store.find("Bitflip.flip", DeviceKind::kFpga), nullptr);
}

TEST(Compiler, ManifestsDescribeArtifacts) {
  auto cp = compile_ok(lime::testing::figure1_source());
  Artifact* gpu = cp->store.find("Bitflip.flip", DeviceKind::kGpu);
  ASSERT_NE(gpu, nullptr);
  const ArtifactManifest& m = gpu->manifest();
  EXPECT_EQ(m.task_id, "Bitflip.flip");
  EXPECT_EQ(m.arity, 1);
  EXPECT_EQ(m.return_type->kind, lime::TypeKind::kBit);
  EXPECT_NE(gpu->text().find("__kernel"), std::string::npos);

  Artifact* fpga = cp->store.find("Bitflip.flip", DeviceKind::kFpga);
  ASSERT_NE(fpga, nullptr);
  EXPECT_NE(fpga->text().find("module Bitflip_flip"), std::string::npos);
}

TEST(Compiler, FusedSegmentKernelProduced) {
  auto cp = compile_ok(kPipelineSource);
  std::string seg_id = ArtifactStore::segment_id({"P.scale", "P.offset"});
  EXPECT_NE(cp->store.find(seg_id, DeviceKind::kGpu), nullptr);
}

TEST(Compiler, BackendsCanBeDisabled) {
  CompileOptions opts;
  opts.enable_gpu = false;
  opts.enable_fpga = false;
  auto cp = compile_ok(lime::testing::figure1_source(), opts);
  EXPECT_EQ(cp->store.lookup("Bitflip.flip").size(), 1u);  // bytecode only
}

TEST(Compiler, FpgaModulesNeedNoGpuBackend) {
  // FPGA synthesis reads the kernel IR the GPU compiler builds; with the
  // GPU backend off that IR is built all the same, but not published.
  CompileOptions opts;
  opts.enable_gpu = false;
  auto cp = compile_ok(lime::testing::figure1_source(), opts);
  EXPECT_NE(cp->store.find("Bitflip.flip", DeviceKind::kFpga), nullptr);
  EXPECT_EQ(cp->store.find("Bitflip.flip", DeviceKind::kGpu), nullptr);
  for (const auto& line : cp->backend_log) {
    EXPECT_EQ(line.rfind("gpu:", 0), std::string::npos) << line;
  }
}

TEST(Compiler, ExclusionsAreLogged) {
  // A float filter: the FPGA backend must decline and say why (§3).
  auto cp = compile_ok(R"(
    class F {
      local static float gain(float x) { return 2.0f * x; }
      static void run(float[[]] in, float[] out) {
        var g = in.source(1) => ([ task gain ]) => out.<float>sink();
        g.finish();
      }
    }
  )");
  EXPECT_EQ(cp->store.find("F.gain", DeviceKind::kFpga), nullptr);
  EXPECT_NE(cp->store.find("F.gain", DeviceKind::kGpu), nullptr);
  bool logged = false;
  for (const auto& line : cp->backend_log) {
    if (line.find("fpga: excluded F.gain") != std::string::npos &&
        line.find("floating point") != std::string::npos) {
      logged = true;
    }
  }
  EXPECT_TRUE(logged);
}

TEST(Compiler, FrontendErrorsShortCircuit) {
  auto cp = compile("class C { static int f() { return undefined_name; } }");
  EXPECT_FALSE(cp->ok());
  EXPECT_EQ(cp->store.size(), 0u);
}

// ---------------------------------------------------------------------------
// Co-execution: the same program on every placement gives the same answer
// ---------------------------------------------------------------------------

std::vector<int32_t> run_pipeline(Placement placement, uint64_t sched_seed,
                                  const std::vector<int32_t>& input) {
  auto cp = compile_ok(kPipelineSource);
  RuntimeConfig rc;
  rc.placement = placement;
  rc.scheduler_seed = sched_seed;
  LiquidRuntime rt(*cp, rc);
  Value in = Value::array(bc::make_i32_array(input, true));
  Value out = rt.call("P.run", {in});
  std::vector<int32_t> result;
  for (size_t i = 0; i < out.as_array()->size(); ++i) {
    result.push_back(bc::array_get(*out.as_array(), i).as_i32());
  }
  return result;
}

TEST(CoExecution, AllPlacementsAgree) {
  SplitMix64 rng(77);
  std::vector<int32_t> input(500);
  for (auto& v : input) v = static_cast<int32_t>(rng.next_range(-1000, 1000));
  std::vector<int32_t> want(input.size());
  for (size_t i = 0; i < input.size(); ++i) want[i] = 3 * input[i] + 7;

  for (Placement p : {Placement::kCpuOnly, Placement::kGpuOnly,
                      Placement::kFpgaOnly, Placement::kAuto}) {
    for (uint64_t seed : {uint64_t{0}, uint64_t{7}}) {
      EXPECT_EQ(run_pipeline(p, seed, input), want)
          << "placement=" << static_cast<int>(p) << " sched_seed=" << seed;
    }
  }
}

// Java defines MIN_VALUE / -1 == MIN_VALUE and MIN_VALUE % -1 == 0, where
// C++ division traps. Every backend, and both constant folders (bytecode
// and FPGA synthesis), must follow Java.
TEST(CoExecution, MinValueOverMinusOneFollowsJava) {
  auto cp = compile_ok(R"(
    class M {
      static final int FOLDED = (-2147483647 - 1) / -1;
      static final int FOLDED_REM = (-2147483647 - 1) % -1;
      local static int quot(int x) { return x / -1 + x % -1; }
      local static int wide(int x) {
        long w = ((long) x) << 32;
        return (int) ((w / -1L) >> 32) + (int) (w % -1L) + 1;
      }
      local static int fold(int x) {
        long m = ((long) 1) << 63;
        return x + (int) ((m / -1L) >> 48) + (int) (m % -1L) + FOLDED
          + FOLDED_REM;
      }
      static int[[]] run(int[[]] input) {
        int[] result = new int[input.length];
        var g = input.source(1) => ([ task quot ]) => ([ task wide ])
          => ([ task fold ]) => result.<int>sink();
        g.finish();
        return new int[[]](result);
      }
    }
  )");
  const int32_t imin = std::numeric_limits<int32_t>::min();
  const int32_t imax = std::numeric_limits<int32_t>::max();
  const std::vector<int32_t> input = {5, imin, -1, 0, imax, imin + 1, -7};
  // quot negates (MIN stays MIN), wide negates back and adds 1, fold adds
  // (Long.MIN_VALUE / -1) >> 48 == -32768 and MIN_VALUE; all wrapping.
  auto want = [&](int32_t x) {
    return static_cast<int32_t>(static_cast<uint32_t>(x) + 1u - 32768u +
                                static_cast<uint32_t>(imin));
  };
  for (Placement p :
       {Placement::kCpuOnly, Placement::kGpuOnly, Placement::kFpgaOnly}) {
    RuntimeConfig rc;
    rc.placement = p;
    LiquidRuntime rt(*cp, rc);
    Value out = rt.call("M.run", {Value::array(bc::make_i32_array(input, true))});
    for (size_t i = 0; i < input.size(); ++i) {
      EXPECT_EQ(bc::array_get(*out.as_array(), i).as_i32(), want(input[i]))
          << "placement=" << static_cast<int>(p) << " x=" << input[i];
    }
    if (p == Placement::kCpuOnly) continue;
    // The device under test ran at least one stage.
    const DeviceKind dev =
        p == Placement::kGpuOnly ? DeviceKind::kGpu : DeviceKind::kFpga;
    bool on_device = false;
    for (const auto& rec : rt.stats().substitutions) {
      on_device |= rec.device == dev;
    }
    EXPECT_TRUE(on_device) << "placement=" << static_cast<int>(p);
  }
}

// Sema has no missing-return check, and kernel IR validation sees every
// path the code has, including those only data rule out. A loop left only
// by return still runs on the GPU, at the top of a task and inlined; a
// task that may end without returning compiles, the device backends
// decline it, and it runs on the CPU.
TEST(CoExecution, PathsOnlyDataRuleOutStillCompileAndRun) {
  auto cp = compile_ok(R"(
    class W {
      local static int root(int x) {
        int n = x < 0 ? -x : x;
        int i = 0;
        while (true) {
          if (i * i >= n) { return i; }
          i += 1;
        }
      }
      local static int half(int x) {
        int i = 0;
        while (true) {
          if (2 * i >= x) { return i; }
          i += 1;
        }
      }
      local static int twice(int x) { return half(x) * 2 + 1; }
      local static int lift(int x) {
        if (x > 0) { return x + 100; }
      }
      static int[[]] run(int[[]] input) {
        int[] result = new int[input.length];
        var g = input.source(1) => ([ task root ]) => ([ task twice ])
          => ([ task lift ]) => result.<int>sink();
        g.finish();
        return new int[[]](result);
      }
    }
  )");
  const auto& log = cp->backend_log;
  for (const char* line : {"gpu: compiled W.root", "gpu: compiled W.twice"}) {
    EXPECT_NE(std::find(log.begin(), log.end(), line), log.end()) << line;
  }
  EXPECT_EQ(cp->store.find("W.lift", DeviceKind::kGpu), nullptr);
  EXPECT_EQ(cp->store.find("W.lift", DeviceKind::kFpga), nullptr);
  bool logged = false;
  for (const auto& line : log) {
    logged |= line.starts_with("gpu: excluded W.lift") &&
              line.find("fell off the end") != std::string::npos;
  }
  EXPECT_TRUE(logged);

  const std::vector<int32_t> input = {0, 1, 2, 17, -17, 99, -1000, 4096};
  auto want = [](int32_t x) {
    int32_t n = x < 0 ? -x : x, root = 0;
    while (root * root < n) ++root;
    return (root + 1) / 2 * 2 + 1 + 100;
  };
  for (Placement p : {Placement::kCpuOnly, Placement::kGpuOnly,
                      Placement::kFpgaOnly, Placement::kAuto}) {
    RuntimeConfig rc;
    rc.placement = p;
    LiquidRuntime rt(*cp, rc);
    Value out =
        rt.call("W.run", {Value::array(bc::make_i32_array(input, true))});
    for (size_t i = 0; i < input.size(); ++i) {
      EXPECT_EQ(bc::array_get(*out.as_array(), i).as_i32(), want(input[i]))
          << "placement=" << static_cast<int>(p) << " x=" << input[i];
    }
    if (p != Placement::kGpuOnly) continue;
    bool on_gpu = false;
    for (const auto& rec : rt.stats().substitutions) {
      on_gpu |= rec.device == DeviceKind::kGpu;
    }
    EXPECT_TRUE(on_gpu);
  }
}

// Falling off the end of a non-void method is a Lime-level error naming
// the method under every placement: the device backends decline such a
// task, so it runs on the VM.
TEST(CoExecution, FallingOffANonVoidMethodIsARuntimeError) {
  auto cp = compile_ok(R"(
    class W {
      local static int lift(int x) {
        if (x > 0) { return x + 100; }
      }
      static int[[]] run(int[[]] input) {
        int[] result = new int[input.length];
        var g = input.source(1) => ([ task lift ]) => result.<int>sink();
        g.finish();
        return new int[[]](result);
      }
    }
  )");
  for (Placement p : {Placement::kCpuOnly, Placement::kGpuOnly,
                      Placement::kFpgaOnly, Placement::kAuto}) {
    RuntimeConfig rc;
    rc.placement = p;
    LiquidRuntime rt(*cp, rc);
    try {
      rt.call("W.run", {Value::array(bc::make_i32_array({3, -2, 5}, true))});
      ADD_FAILURE() << "no error, placement=" << static_cast<int>(p);
    } catch (const RuntimeError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "method W.lift ended without returning a value"),
                std::string::npos)
          << e.what() << ", placement=" << static_cast<int>(p);
    }
  }
}

TEST(Substitution, PrefersLargerFusedSegment) {
  auto cp = compile_ok(kPipelineSource);
  LiquidRuntime rt(*cp);
  Value in = Value::array(bc::make_i32_array({1, 2, 3}, true));
  rt.call("P.run", {in});
  ASSERT_EQ(rt.stats().substitutions.size(), 1u);
  const SubstitutionRecord& rec = rt.stats().substitutions[0];
  EXPECT_TRUE(rec.fused);  // scale+offset taken as one unit (§4.2)
  EXPECT_EQ(rec.task_ids, "P.scale+P.offset");
  EXPECT_EQ(rec.device, DeviceKind::kGpu);
}

TEST(Substitution, ManualDirectionToFpga) {
  auto cp = compile_ok(kPipelineSource);
  RuntimeConfig rc;
  rc.placement = Placement::kFpgaOnly;
  LiquidRuntime rt(*cp, rc);
  Value in = Value::array(bc::make_i32_array({1, 2, 3}, true));
  Value out = rt.call("P.run", {in});
  EXPECT_EQ(bc::array_get(*out.as_array(), 0).as_i32(), 10);
  // FPGA segments fuse too: one datapath module for scale+offset.
  ASSERT_EQ(rt.stats().substitutions.size(), 1u);
  EXPECT_EQ(rt.stats().substitutions[0].device, DeviceKind::kFpga);
  EXPECT_TRUE(rt.stats().substitutions[0].fused);
}

TEST(Substitution, FpgaFusionDisabledFallsBackPerFilter) {
  auto cp = compile_ok(kPipelineSource);
  RuntimeConfig rc;
  rc.placement = Placement::kFpgaOnly;
  rc.allow_fusion = false;
  LiquidRuntime rt(*cp, rc);
  Value in = Value::array(bc::make_i32_array({1, 2, 3}, true));
  rt.call("P.run", {in});
  ASSERT_EQ(rt.stats().substitutions.size(), 2u);
  for (const auto& rec : rt.stats().substitutions) {
    EXPECT_EQ(rec.device, DeviceKind::kFpga);
    EXPECT_FALSE(rec.fused);
  }
}

TEST(Substitution, CpuOnlyRunsBytecode) {
  auto cp = compile_ok(kPipelineSource);
  RuntimeConfig rc;
  rc.placement = Placement::kCpuOnly;
  LiquidRuntime rt(*cp, rc);
  Value in = Value::array(bc::make_i32_array({4}, true));
  Value out = rt.call("P.run", {in});
  EXPECT_EQ(bc::array_get(*out.as_array(), 0).as_i32(), 19);
  for (const auto& rec : rt.stats().substitutions) {
    EXPECT_EQ(rec.device, DeviceKind::kCpu);
  }
}

TEST(Substitution, FallsBackWhenDeviceLacksArtifact) {
  // Float pipeline: FPGA has no artifact; FpgaOnly placement must fall back
  // to bytecode rather than fail.
  auto cp = compile_ok(R"(
    class F {
      local static float gain(float x) { return 2.0f * x; }
      static float[[]] run(float[[]] in) {
        float[] out = new float[in.length];
        var g = in.source(1) => ([ task gain ]) => out.<float>sink();
        g.finish();
        return new float[[]](out);
      }
    }
  )");
  RuntimeConfig rc;
  rc.placement = Placement::kFpgaOnly;
  LiquidRuntime rt(*cp, rc);
  Value in = Value::array(bc::make_f32_array({1.5f}, true));
  Value out = rt.call("F.run", {in});
  EXPECT_FLOAT_EQ(bc::array_get(*out.as_array(), 0).as_f32(), 3.0f);
  ASSERT_EQ(rt.stats().substitutions.size(), 1u);
  EXPECT_EQ(rt.stats().substitutions[0].device, DeviceKind::kCpu);
}

// ---------------------------------------------------------------------------
// Figure 1 taskFlip through the full runtime (all placements)
// ---------------------------------------------------------------------------

TEST(CoExecution, Figure1OnEveryDevice) {
  std::vector<uint8_t> bits = {1, 0, 1, 1, 0, 0, 1, 0, 1};
  for (Placement p : {Placement::kCpuOnly, Placement::kGpuOnly,
                      Placement::kFpgaOnly, Placement::kAuto}) {
    auto cp = compile_ok(lime::testing::figure1_source());
    RuntimeConfig rc;
    rc.placement = p;
    LiquidRuntime rt(*cp, rc);
    Value in = Value::array(bc::make_bit_array(bits, true));
    Value out = rt.call("Bitflip.taskFlip", {in});
    ASSERT_EQ(out.as_array()->size(), bits.size());
    for (size_t i = 0; i < bits.size(); ++i) {
      EXPECT_EQ(bc::array_get(*out.as_array(), i).as_bit(), bits[i] == 0)
          << "placement " << static_cast<int>(p) << " bit " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Map/reduce offload through AccelHooks
// ---------------------------------------------------------------------------

const char* kMapReduceSource = R"(
  class V {
    local static float axpy(float a, float x, float y) { return a * x + y; }
    local static float add(float a, float b) { return a + b; }
    static float[[]] saxpy(float a, float[[]] x, float[[]] y) {
      return V @ axpy(a, x, y);
    }
    static float total(float[[]] xs) {
      return V ! add(xs);
    }
  }
)";

TEST(MapOffload, SaxpyRunsOnGpu) {
  auto cp = compile_ok(kMapReduceSource);
  LiquidRuntime rt(*cp);
  size_t n = 10000;
  std::vector<float> x(n), y(n);
  SplitMix64 rng(5);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.next_float();
    y[i] = rng.next_float();
  }
  Value out = rt.call("V.saxpy", {Value::f32(2.0f),
                                  Value::array(bc::make_f32_array(x, true)),
                                  Value::array(bc::make_f32_array(y, true))});
  EXPECT_EQ(rt.stats().maps_accelerated, 1u);
  const auto& a = *out.as_array();
  ASSERT_EQ(a.size(), n);
  for (size_t i = 0; i < n; i += 997) {
    EXPECT_FLOAT_EQ(bc::array_get(a, i).as_f32(), 2.0f * x[i] + y[i]);
  }
}

TEST(MapOffload, CpuOnlyInterprets) {
  auto cp = compile_ok(kMapReduceSource);
  RuntimeConfig rc;
  rc.placement = Placement::kCpuOnly;
  LiquidRuntime rt(*cp, rc);
  Value out = rt.call(
      "V.saxpy", {Value::f32(1.0f),
                  Value::array(bc::make_f32_array({1, 2}, true)),
                  Value::array(bc::make_f32_array({3, 4}, true))});
  EXPECT_EQ(rt.stats().maps_accelerated, 0u);
  EXPECT_EQ(rt.stats().maps_interpreted, 1u);
  EXPECT_FLOAT_EQ(bc::array_get(*out.as_array(), 1).as_f32(), 6.0f);
}

TEST(MapOffload, GpuAndCpuAgreeExactly) {
  SplitMix64 rng(11);
  size_t n = 4096;
  std::vector<float> x(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.next_float() * 100 - 50;
    y[i] = rng.next_float() * 100 - 50;
  }
  auto run = [&](Placement p) {
    auto cp = compile_ok(kMapReduceSource);
    RuntimeConfig rc;
    rc.placement = p;
    LiquidRuntime rt(*cp, rc);
    return rt.call("V.saxpy",
                   {Value::f32(1.5f),
                    Value::array(bc::make_f32_array(x, true)),
                    Value::array(bc::make_f32_array(y, true))});
  };
  Value gpu = run(Placement::kAuto);
  Value cpu = run(Placement::kCpuOnly);
  EXPECT_TRUE(gpu.equals(cpu));  // bit-exact, same single-precision ops
}

TEST(ReduceOffload, TreeReductionMatchesSequentialForAssociativeOp) {
  // Integer max is fully associative/commutative, so the GPU's tree order
  // must agree exactly with the VM's left fold.
  auto cp = compile_ok(R"(
    class R {
      local static int mx(int a, int b) { return a > b ? a : b; }
      static int top(int[[]] xs) { return R ! mx(xs); }
    }
  )");
  SplitMix64 rng(9);
  for (size_t n : {1u, 2u, 3u, 7u, 64u, 1000u}) {
    std::vector<int32_t> xs(n);
    int32_t want = INT32_MIN;
    for (auto& v : xs) {
      v = static_cast<int32_t>(rng.next_range(-100000, 100000));
      want = std::max(want, v);
    }
    LiquidRuntime rt(*cp);
    Value got = rt.call("R.top", {Value::array(bc::make_i32_array(xs, true))});
    EXPECT_EQ(got.as_i32(), want) << "n=" << n;
    if (n > 1) {
      EXPECT_EQ(rt.stats().reduces_accelerated, 1u);
    }
  }
}

// ---------------------------------------------------------------------------
// Error propagation and edge cases
// ---------------------------------------------------------------------------

TEST(Scheduler, SinkTooSmallPropagatesError) {
  auto cp = compile_ok(R"(
    class C {
      local static int id(int x) { return x; }
      static void run(int[[]] in, int[] out) {
        var g = in.source(1) => ([ task id ]) => out.<int>sink();
        g.finish();
      }
    }
  )");
  LiquidRuntime rt(*cp);
  Value in = Value::array(bc::make_i32_array({1, 2, 3, 4}, true));
  Value small = Value::array(bc::make_i32_array({0}));
  EXPECT_THROW(rt.call("C.run", {in, small}), RuntimeError);
}

TEST(Scheduler, FilterErrorPropagatesAcrossThreads) {
  // A filter that divides by zero mid-stream: the error must surface from
  // finish() on the caller's thread, and every worker must unwind (no
  // deadlock against the bounded FIFOs).
  auto cp = compile_ok(R"(
    class C {
      local static int risky(int x) { return 100 / (x - 50); }
      static void run(int[[]] in, int[] out) {
        var g = in.source(1) => ([ task risky ]) => out.<int>sink();
        g.finish();
      }
    }
  )");
  RuntimeConfig rc;
  rc.placement = Placement::kCpuOnly;  // keep the faulting filter threaded
  rc.fifo_capacity = 4;
  LiquidRuntime rt(*cp, rc);
  std::vector<int32_t> input(1000, 1);
  input[500] = 50;  // divisor becomes zero here
  Value in = Value::array(bc::make_i32_array(input, true));
  Value out = Value::array(bc::make_i32_array(std::vector<int32_t>(1000)));
  EXPECT_THROW(rt.call("C.run", {in, out}), RuntimeError);
}

TEST(Scheduler, DeviceErrorPropagates) {
  // Same fault, but inside a GPU-substituted node (batched device path).
  auto cp = compile_ok(R"(
    class C {
      local static int risky(int x) { return 100 / (x - 50); }
      static void run(int[[]] in, int[] out) {
        var g = in.source(1) => ([ task risky ]) => out.<int>sink();
        g.finish();
      }
    }
  )");
  RuntimeConfig rc;
  rc.placement = Placement::kGpuOnly;
  LiquidRuntime rt(*cp, rc);
  std::vector<int32_t> input(256, 1);
  input[100] = 50;
  Value in = Value::array(bc::make_i32_array(input, true));
  Value out = Value::array(bc::make_i32_array(std::vector<int32_t>(256)));
  EXPECT_THROW(rt.call("C.run", {in, out}), RuntimeError);
}

TEST(Scheduler, EmptySourceProducesNothing) {
  auto cp = compile_ok(kPipelineSource);
  LiquidRuntime rt(*cp);
  Value in = Value::array(bc::make_i32_array({}, true));
  Value out = rt.call("P.run", {in});
  EXPECT_EQ(out.as_array()->size(), 0u);
}

TEST(Scheduler, StartThenFinishJoins) {
  auto cp = compile_ok(R"(
    class C {
      local static int id(int x) { return x + 1; }
      static int[[]] run(int[[]] in) {
        int[] out = new int[in.length];
        var g = in.source(1) => ([ task id ]) => out.<int>sink();
        g.start();
        g.finish();
        return new int[[]](out);
      }
    }
  )");
  LiquidRuntime rt(*cp);
  Value in = Value::array(bc::make_i32_array({10, 20}, true));
  Value out = rt.call("C.run", {in});
  EXPECT_EQ(bc::array_get(*out.as_array(), 0).as_i32(), 11);
  EXPECT_EQ(bc::array_get(*out.as_array(), 1).as_i32(), 21);
}

TEST(Scheduler, StartWithoutFinishIsSafe) {
  // The paper's start() is fire-and-forget; dropping the graph handle
  // without calling finish() must not crash or leak joinable threads.
  auto cp = compile_ok(R"(
    class C {
      local static int id(int x) { return x + 1; }
      static void run(int[[]] in, int[] out) {
        var g = in.source(1) => ([ task id ]) => out.<int>sink();
        g.start();
        // no finish(): the graph handle dies with the frame
      }
    }
  )");
  LiquidRuntime rt(*cp);
  Value in = Value::array(bc::make_i32_array({1, 2, 3}, true));
  Value out_arr = Value::array(bc::make_i32_array({0, 0, 0}));
  rt.call("C.run", {in, out_arr});
  // The graph joined at handle destruction; outputs are complete.
  EXPECT_EQ(bc::array_get(*out_arr.as_array(), 2).as_i32(), 4);
}

TEST(Scheduler, LargeStreamSmallFifo) {
  // Backpressure: a FIFO far smaller than the stream must still complete.
  auto cp = compile_ok(kPipelineSource);
  RuntimeConfig rc;
  rc.fifo_capacity = 4;
  rc.device_batch = 8;
  LiquidRuntime rt(*cp, rc);
  size_t n = 5000;
  std::vector<int32_t> input(n);
  for (size_t i = 0; i < n; ++i) input[i] = static_cast<int32_t>(i);
  Value out = rt.call("P.run", {Value::array(bc::make_i32_array(input, true))});
  ASSERT_EQ(out.as_array()->size(), n);
  for (size_t i = 0; i < n; i += 611) {
    EXPECT_EQ(bc::array_get(*out.as_array(), i).as_i32(),
              3 * static_cast<int32_t>(i) + 7);
  }
}

TEST(Scheduler, MultiArityFiltersFireWholeGroupsFromBatches) {
  // Filters pop whole batches and carry a partial firing over to the next
  // pop; the trailing partial firing at end of stream is dropped (the sink
  // holds exactly the complete firings, so an extra output would overflow
  // it). Stream lengths straddle the step quantum and capacities split
  // firings across pops, under the threaded and the seeded scheduler.
  auto cp = compile_ok(R"(
    class M {
      local static int pair(int a, int b) { return 3 * a - b; }
      local static int triple(int a, int b, int c) { return a + 2 * b - c; }
      static int[[]] run(int[[]] input) {
        int[] result = new int[input.length / 6];
        var g = input.source(1) => task pair => task triple
          => result.<int>sink();
        g.finish();
        return new int[[]](result);
      }
    }
  )");
  for (size_t n : {0, 1, 255, 256, 257, 1025}) {
    std::vector<int32_t> input(n);
    for (size_t i = 0; i < n; ++i) {
      input[i] = static_cast<int32_t>(i * 37 % 1001) - 500;
    }
    std::vector<int32_t> pairs, want;
    for (size_t i = 0; i + 2 <= n; i += 2) {
      pairs.push_back(3 * input[i] - input[i + 1]);
    }
    for (size_t i = 0; i + 3 <= pairs.size(); i += 3) {
      want.push_back(pairs[i] + 2 * pairs[i + 1] - pairs[i + 2]);
    }
    for (size_t capacity : {1, 2, 3, 1024}) {
      for (uint64_t seed : {uint64_t{0}, uint64_t{11}}) {
        RuntimeConfig rc;
        rc.fifo_capacity = capacity;
        rc.scheduler_seed = seed;
        LiquidRuntime rt(*cp, rc);
        Value out =
            rt.call("M.run", {Value::array(bc::make_i32_array(input, true))});
        std::vector<int32_t> got;
        for (size_t i = 0; i < out.as_array()->size(); ++i) {
          got.push_back(bc::array_get(*out.as_array(), i).as_i32());
        }
        EXPECT_EQ(got, want) << "n=" << n << " capacity=" << capacity
                             << " sched_seed=" << seed;
      }
    }
  }
}

TEST(Stats, SubstitutionRecordsAndCounters) {
  auto cp = compile_ok(kPipelineSource);
  LiquidRuntime rt(*cp);
  Value in = Value::array(bc::make_i32_array({1, 2, 3}, true));
  rt.call("P.run", {in});
  EXPECT_EQ(rt.stats().graphs_executed, 1u);
  EXPECT_EQ(rt.stats().elements_streamed, 3u);
  rt.reset_stats();
  EXPECT_EQ(rt.stats().graphs_executed, 0u);
}

TEST(Transfer, DeviceArtifactsCountMarshaledBytes) {
  auto cp = compile_ok(lime::testing::figure1_source());
  RuntimeConfig rc;
  rc.placement = Placement::kFpgaOnly;
  // A threaded run may split the stream into batches anywhere, and each
  // batch pays its own header and packs its bits on its own; a seeded
  // schedule fixes the split.
  rc.scheduler_seed = 1;
  LiquidRuntime rt(*cp, rc);
  std::vector<uint8_t> bits(16, 1);
  Value in = Value::array(bc::make_bit_array(bits, true));
  rt.call("Bitflip.taskFlip", {in});
  Artifact* fpga = cp->store.find("Bitflip.flip", DeviceKind::kFpga);
  ASSERT_NE(fpga, nullptr);
  const TransferStats& ts = fpga->transfer_stats();
  ASSERT_EQ(ts.batches, 1u);
  EXPECT_EQ(ts.elements_in, 16u);
  EXPECT_EQ(ts.elements_out, 16u);
  // 16 bits pack into 2 bytes + 4-byte length header each way.
  EXPECT_EQ(ts.bytes_to_device, 6u);
  EXPECT_EQ(ts.bytes_from_device, 6u);
}

// Every buffer on Fig. 3's path (the serialized operands, both crossing
// copies, the C-side values and the marshaled result) comes from
// serde::wire_pool(): once one call has retired a buffer of each size,
// further calls take none from the allocator, and the pool stays in its cap.
TEST(Transfer, WarmMapCallsTakeNoNewPoolBuffers) {
  auto cp = compile_ok(R"(
    class S {
      local static float axpy(float a, float x, float y) { return a * x + y; }
      static float[[]] run(float a, float[[]] x, float[[]] y) {
        return S @ axpy(a, x, y);
      }
    }
  )");
  auto* gpu = dynamic_cast<GpuKernelArtifact*>(
      cp->store.find("S.axpy", DeviceKind::kGpu));
  ASSERT_NE(gpu, nullptr);
  const size_t n = size_t{1} << 18;
  std::vector<float> xs(n);
  std::vector<float> ys(n);
  for (size_t i = 0; i < n; ++i) {
    xs[i] = static_cast<float>(i % 1000);
    ys[i] = static_cast<float>(i % 7);
  }
  const std::vector<Value> args = {
      Value::f32(2.5f), Value::array(bc::make_f32_array(xs, true)),
      Value::array(bc::make_f32_array(ys, true))};
  const uint32_t arrays = 0b110;  // x and y elementwise, a broadcast
  gpu->run_map(args, arrays);     // warm-up: retires one buffer per size

  serde::BufferPool& pool = serde::wire_pool();
  const uint64_t allocations = pool.allocations();
  const uint64_t reuses = pool.reuses();
  for (int call = 0; call < 10; ++call) {
    Value out = gpu->run_map(args, arrays);
    const auto& got = std::get<std::vector<float>>(out.as_array()->data);
    ASSERT_EQ(got.size(), n);
    for (size_t i : {size_t{0}, n / 2 + 3, n - 1}) {
      EXPECT_EQ(got[i], 2.5f * xs[i] + ys[i]) << "item " << i;
    }
    EXPECT_LE(pool.idle_bytes(), serde::BufferPool::kMaxIdleBytes);
  }
  EXPECT_EQ(pool.allocations(), allocations)
      << "warm map calls took new buffers from the pool";
  // Per call: three operands × (wire, crossed copy, C value), the launch's
  // output, the marshaled result and its crossed copy.
  EXPECT_GE(pool.reuses() - reuses, 10u * 12u);
}

}  // namespace
}  // namespace lm::runtime
