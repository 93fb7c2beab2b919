// Unit tests for the artifact layer (S9): manifests, the store, and each
// artifact kind's batch-processing contract.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "fpga/verilog_emit.h"
#include "runtime/liquid_compiler.h"
#include "runtime/store.h"
#include "tests/lime_test_util.h"
#include "workloads/workloads.h"

namespace lm::runtime {
namespace {

using bc::Value;

std::unique_ptr<CompiledProgram> compile_ok(const std::string& src,
                                            CompileOptions opts = {}) {
  auto cp = compile(src, opts);
  EXPECT_TRUE(cp->ok()) << cp->diags.to_string();
  return cp;
}

const char* kSource = R"(
  class C {
    local static int triple(int x) { return 3 * x; }
    local static int addPair(int a, int b) { return a + b; }
    static void drive(int[[]] in, int[] out) {
      var g = in.source(1) => ([ task triple ]) => out.<int>sink();
      g.finish();
      var h = in.source(1) => ([ task addPair ]) => out.<int>sink();
      h.finish();
    }
  }
)";

TEST(Store, SegmentIdFormat) {
  EXPECT_EQ(ArtifactStore::segment_id({"A.f", "B.g"}), "seg:A.f:B.g");
  EXPECT_EQ(ArtifactStore::segment_id({}), "seg");
}

TEST(Store, LookupByIdAndDevice) {
  auto cp = compile_ok(kSource);
  auto all = cp->store.lookup("C.triple");
  EXPECT_EQ(all.size(), 3u);  // cpu, gpu, fpga
  EXPECT_EQ(cp->store.lookup("C.nosuch").size(), 0u);
  EXPECT_EQ(cp->store.find("C.triple", DeviceKind::kGpu)->manifest().device,
            DeviceKind::kGpu);
  EXPECT_EQ(cp->store.find("C.nosuch", DeviceKind::kGpu), nullptr);
}

TEST(Store, ManifestToString) {
  auto cp = compile_ok(kSource);
  Artifact* a = cp->store.find("C.addPair", DeviceKind::kCpu);
  ASSERT_NE(a, nullptr);
  std::string s = a->manifest().to_string();
  EXPECT_NE(s.find("C.addPair"), std::string::npos);
  EXPECT_NE(s.find("cpu/bytecode"), std::string::npos);
  EXPECT_NE(s.find("(int, int) -> int"), std::string::npos);
  EXPECT_NE(s.find("arity=2"), std::string::npos);
}

TEST(BytecodeArtifactTest, ProcessesBatchWithArity) {
  auto cp = compile_ok(kSource);
  Artifact* a = cp->store.find("C.addPair", DeviceKind::kCpu);
  std::vector<Value> in = {Value::i32(1), Value::i32(2), Value::i32(10),
                           Value::i32(20)};
  auto out = a->process(in);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].as_i32(), 3);
  EXPECT_EQ(out[1].as_i32(), 30);
  EXPECT_EQ(a->transfer_stats().elements_in, 4u);
  EXPECT_EQ(a->transfer_stats().elements_out, 2u);
}

TEST(GpuArtifactTest, ProcessMarshalsThroughWireFormat) {
  auto cp = compile_ok(kSource);
  auto* a = static_cast<GpuKernelArtifact*>(
      cp->store.find("C.triple", DeviceKind::kGpu));
  ASSERT_NE(a, nullptr);
  std::vector<Value> in;
  for (int i = 0; i < 100; ++i) in.push_back(Value::i32(i));
  auto out = a->process(in);
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[static_cast<size_t>(i)].as_i32(), 3 * i);
  const TransferStats& ts = a->transfer_stats();
  // 100 i32 elements + u32 count header, both directions.
  EXPECT_EQ(ts.bytes_to_device, 404u);
  EXPECT_EQ(ts.bytes_from_device, 404u);
}

TEST(FpgaArtifactTest, ProcessAccumulatesCycles) {
  auto cp = compile_ok(kSource);
  auto* a = static_cast<FpgaModuleArtifact*>(
      cp->store.find("C.triple", DeviceKind::kFpga));
  ASSERT_NE(a, nullptr);
  std::vector<Value> in = {Value::i32(5), Value::i32(-7)};
  auto out = a->process(in);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].as_i32(), 15);
  EXPECT_EQ(out[1].as_i32(), -21);
  EXPECT_GE(a->total_cycles(), 6u);  // ≥ 3 cycles per element (Fig. 4)
}

TEST(FpgaArtifactTest, ConcurrentTextMatchesEmittedVerilog) {
  // The Verilog text is printed on first read, so the first readers race
  // to print it. crc8's module is the largest in the suite (~400 KB).
  const workloads::Workload* crc = nullptr;
  for (const auto& w : workloads::pipeline_suite()) {
    if (w.name == "crc8pipe") crc = &w;
  }
  ASSERT_NE(crc, nullptr);
  auto cp = compile_ok(crc->lime_source);
  auto* a = dynamic_cast<FpgaModuleArtifact*>(
      cp->store.find("Crc8.crc8", DeviceKind::kFpga));
  ASSERT_NE(a, nullptr);

  constexpr int kThreads = 8;
  std::vector<std::string> texts(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      texts[static_cast<size_t>(t)] = a->text();
    });
  }
  for (auto& th : threads) th.join();
  const std::string want = fpga::emit_verilog(a->filter().module());
  ASSERT_NE(want.find("module Crc8_crc8("), std::string::npos);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(texts[static_cast<size_t>(t)], want) << "thread " << t;
  }
}

TEST(ArtifactEquivalence, AllDevicesComputeTheSameBatch) {
  auto cp = compile_ok(kSource);
  std::vector<Value> in;
  for (int i = -50; i < 50; ++i) in.push_back(Value::i32(i));
  std::vector<std::vector<Value>> results;
  for (DeviceKind d :
       {DeviceKind::kCpu, DeviceKind::kGpu, DeviceKind::kFpga}) {
    Artifact* a = cp->store.find("C.triple", d);
    ASSERT_NE(a, nullptr) << to_string(d);
    results.push_back(a->process(in));
  }
  for (size_t i = 0; i < results[0].size(); ++i) {
    EXPECT_TRUE(results[0][i].equals(results[1][i])) << i;
    EXPECT_TRUE(results[0][i].equals(results[2][i])) << i;
  }
}

TEST(ArtifactEquivalence, MisalignedBatchRejected) {
  auto cp = compile_ok(kSource);
  Artifact* a = cp->store.find("C.addPair", DeviceKind::kCpu);
  std::vector<Value> odd = {Value::i32(1), Value::i32(2), Value::i32(3)};
  EXPECT_THROW(a->process(odd), InternalError);
}

TEST(CompilerDriver, DuplicateTasksCompiledOnce) {
  // The same filter used in two graphs must yield one artifact per device.
  auto cp = compile_ok(R"(
    class D {
      local static int f(int x) { return x; }
      static void a(int[[]] in, int[] out) {
        var g = in.source(1) => ([ task f ]) => out.<int>sink();
        g.finish();
      }
      static void b(int[[]] in, int[] out) {
        var g = in.source(1) => ([ task f ]) => out.<int>sink();
        g.finish();
      }
    }
  )");
  EXPECT_EQ(cp->store.lookup("D.f").size(), 3u);
}

}  // namespace
}  // namespace lm::runtime
