// Placement differential coverage: every workload in the suite must produce
// identical results under every placement policy — substitution choices are
// performance decisions, never semantic ones ("functionally-equivalent
// configurations", §4.2). kAdaptive is the interesting case: its choice
// depends on profiling timings, so this test also pins down that a
// *timing-dependent* plan still computes the same function.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>

#include "runtime/liquid_runtime.h"
#include "tests/fake_artifact_test_util.h"
#include "workloads/workloads.h"

namespace lm::workloads {
namespace {

using bc::Value;
using runtime::LiquidRuntime;
using runtime::Placement;
using runtime::RuntimeConfig;

/// Every placement policy. Seed-ranked kAdaptive (enable_calibration off)
/// ranks by a different cost source, so it counts as a policy of its own.
struct Policy {
  Placement placement;
  bool calibrate;
};
constexpr Policy kAllPlacements[] = {
    {Placement::kCpuOnly, true}, {Placement::kGpuOnly, true},
    {Placement::kFpgaOnly, true}, {Placement::kAuto, true},
    {Placement::kAdaptive, true}, {Placement::kAdaptive, false}};

const char* placement_label(Policy p) {
  switch (p.placement) {
    case Placement::kCpuOnly: return "cpu";
    case Placement::kGpuOnly: return "gpu";
    case Placement::kFpgaOnly: return "fpga";
    case Placement::kAuto: return "auto";
    case Placement::kAdaptive:
      return p.calibrate ? "adaptive" : "adaptive (seed-ranked)";
  }
  return "?";
}

RuntimeConfig config_for(Policy p) {
  RuntimeConfig rc;
  rc.placement = p.placement;
  rc.enable_calibration = p.calibrate;
  return rc;
}

Value run_under(const Workload& w, Policy policy, size_t n, uint64_t seed) {
  auto cp = runtime::compile(w.lime_source);
  EXPECT_TRUE(cp->ok()) << w.name << ":\n" << cp->diags.to_string();
  LiquidRuntime rt(*cp, config_for(policy));
  return rt.call(w.entry, w.make_args(n, seed));
}

struct Case {
  const Workload* w;
  bool is_pipeline;
};

std::vector<Case> all_cases() {
  std::vector<Case> out;
  for (const auto& w : gpu_suite()) out.push_back({&w, false});
  for (const auto& w : pipeline_suite()) out.push_back({&w, true});
  return out;
}

class PlacementDifferential : public ::testing::TestWithParam<size_t> {};

TEST_P(PlacementDifferential, AllPoliciesAgreeWithReference) {
  const Case c = all_cases()[GetParam()];
  const Workload& w = *c.w;
  const size_t n = w.name == "nbody" || w.name == "matmul" ? 256 : 1024;
  const uint64_t seed = 424242;

  // Reductions re-associate on the device; everything else is elementwise
  // and must agree bit-exactly (integer workloads always exact).
  const double tol = w.name == "sumreduce" ? 1e-5 : 0.0;

  Value expected = w.reference(w.make_args(n, seed));
  for (Policy p : kAllPlacements) {
    Value got = run_under(w, p, n, seed);
    EXPECT_TRUE(results_match(got, expected, tol))
        << w.name << " diverged under placement " << placement_label(p);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSuites, PlacementDifferential,
    ::testing::Range<size_t>(0, all_cases().size()),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return std::string(all_cases()[info.param].w->name) +
             (all_cases()[info.param].is_pipeline ? "_pipe" : "");
    });

/// Same matrix with the native kernels installed: the "vendor toolflow
/// output" path must be just as placement-invariant as kernel IR.
class PlacementDifferentialNative : public ::testing::TestWithParam<size_t> {
};

TEST_P(PlacementDifferentialNative, AllPoliciesAgreeWithReference) {
  register_native_kernels();
  const Case c = all_cases()[GetParam()];
  const Workload& w = *c.w;
  const size_t n = w.name == "nbody" || w.name == "matmul" ? 256 : 1024;
  const uint64_t seed = 97;
  const double tol = w.name == "sumreduce" ? 1e-5 : 0.0;

  runtime::CompileOptions copts;
  copts.use_native_kernels = true;
  Value expected = w.reference(w.make_args(n, seed));
  for (Policy p : kAllPlacements) {
    auto cp = runtime::compile(w.lime_source, copts);
    ASSERT_TRUE(cp->ok()) << w.name;
    LiquidRuntime rt(*cp, config_for(p));
    Value got = rt.call(w.entry, w.make_args(n, seed));
    EXPECT_TRUE(results_match(got, expected, tol))
        << w.name << " (native) diverged under placement "
        << placement_label(p);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSuites, PlacementDifferentialNative,
    ::testing::Range<size_t>(0, all_cases().size()),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return std::string(all_cases()[info.param].w->name) +
             (all_cases()[info.param].is_pipeline ? "_pipe" : "");
    });

/// The zero-thread seeded scheduler is another equivalent configuration:
/// the pipeline suite must not depend on how the worker pool interleaves
/// task steps.
TEST(PlacementDifferential, SeededSchedulingMatchesReference) {
  for (const auto& w : pipeline_suite()) {
    const size_t n = 512;
    const uint64_t seed = 31;
    Value expected = w.reference(w.make_args(n, seed));
    for (Policy p : kAllPlacements) {
      auto cp = runtime::compile(w.lime_source);
      ASSERT_TRUE(cp->ok()) << w.name;
      RuntimeConfig rc = config_for(p);
      rc.scheduler_seed = 31;
      LiquidRuntime rt(*cp, rc);
      Value got = rt.call(w.entry, w.make_args(n, seed));
      EXPECT_TRUE(results_match(got, expected, 0.0))
          << w.name << " seeded run diverged under placement "
          << placement_label(p);
    }
  }
}

/// Mid-run re-substitution is a performance decision too: with the gate on
/// and an aggressive drift threshold (0.0 — any live cost above the best
/// calibrated loser swaps), every pipeline workload must still produce
/// bit-identical output under both schedulers.
TEST(PlacementDifferential, ResubstitutionEnabledMatchesReference) {
  for (const auto& w : pipeline_suite()) {
    const size_t n = 1024;
    const uint64_t seed = 777;
    Value expected = w.reference(w.make_args(n, seed));
    for (uint64_t sched_seed : {uint64_t{0}, uint64_t{7}}) {
      auto cp = runtime::compile(w.lime_source);
      ASSERT_TRUE(cp->ok()) << w.name;
      RuntimeConfig rc;
      rc.placement = Placement::kAdaptive;
      rc.scheduler_seed = sched_seed;
      rc.enable_resubstitution = true;
      rc.resubstitution_interval = 1;
      rc.resubstitution_drift = 0.0;
      rc.device_batch = 32;
      LiquidRuntime rt(*cp, rc);
      Value got = rt.call(w.entry, w.make_args(n, seed));
      EXPECT_TRUE(results_match(got, expected, 0.0))
          << w.name << (sched_seed == 0 ? " threaded" : " seeded")
          << " diverged with re-substitution enabled";
    }
  }
}

/// The crafted drift workload: a scripted "GPU" artifact wins calibration
/// (it is essentially free for exactly the profiler's three calls), then
/// stalls 2 ms per batch. The drift check must swap the node to the
/// calibrated CPU artifact mid-stream — observably, via the decision log —
/// and the output must stay exactly correct across the swap.
TEST(PlacementDifferential, DriftSwapsDeviceMidRunAndKeepsOutputExact) {
  const char* kSrc = R"(
    class P {
      local static int scale(int x) { return 3 * x; }
      static int[[]] run(int[[]] input) {
        int[] result = new int[input.length];
        var g = input.source(1)
          => ([ task scale ])
          => result.<int>sink();
        g.finish();
        return new int[[]](result);
      }
    }
  )";
  runtime::CompileOptions opts;
  opts.enable_gpu = false;  // the only "GPU" artifact is the scripted one
  opts.enable_fpga = false;
  auto cp = runtime::compile(kSrc, opts);
  ASSERT_TRUE(cp->ok()) << cp->diags.to_string();
  // Calibration calls process() three times (warm-up + best-of-two); every
  // later call — the actual stream — stalls.
  cp->store.add(std::make_unique<lm::testing::ScriptedArtifact>(
      "P.scale", runtime::DeviceKind::kGpu, /*arity=*/1, /*fast_calls=*/3,
      std::chrono::microseconds(2000)));

  RuntimeConfig rc;
  rc.placement = Placement::kAdaptive;
  rc.scheduler_seed = 1;  // deterministic batch numbering
  rc.enable_resubstitution = true;
  rc.calibration_elements = 16;
  rc.device_batch = 16;
  rc.resubstitution_interval = 2;
  rc.resubstitution_drift = 0.25;
  LiquidRuntime rt(*cp, rc);

  const size_t n = 256;
  std::vector<int32_t> input(n);
  for (size_t i = 0; i < n; ++i) input[i] = static_cast<int32_t>(i) - 100;
  Value out = rt.call("P.run", {Value::array(bc::make_i32_array(input, true))});

  // Exactness across the swap: every element, not a sample.
  const auto& a = *out.as_array();
  ASSERT_EQ(a.size(), n);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(bc::array_get(a, i).as_i32(), 3 * input[i]) << "at " << i;
  }

  // The calibration decision chose the (then-fast) scripted GPU artifact.
  ASSERT_EQ(rt.stats().substitutions.size(), 1u);
  EXPECT_EQ(rt.stats().substitutions[0].device, runtime::DeviceKind::kGpu);
  EXPECT_EQ(rt.stats().substitutions[0].source, "measured");

  // The drift check swapped it to the CPU artifact at the first interval.
  ASSERT_EQ(rt.stats().resubstitutions.size(), 1u);
  const auto& r = rt.stats().resubstitutions[0];
  EXPECT_EQ(r.task_ids, "P.scale");
  EXPECT_EQ(r.from, runtime::DeviceKind::kGpu);
  EXPECT_EQ(r.to, runtime::DeviceKind::kCpu);
  EXPECT_EQ(r.at_batch, 2u);
  EXPECT_GT(r.live_us_per_elem,
            r.calibrated_us_per_elem * (1.0 + rc.resubstitution_drift));
  EXPECT_GT(r.before_p50_us, 0.0);
  EXPECT_GE(r.before_p99_us, r.before_p50_us);
  EXPECT_EQ(rt.metrics().value("runtime.resubstitutions"), 1u);

  // Both devices show up in the cost-model table: the swap really moved
  // the remaining batches onto the CPU artifact.
  obs::PerfReport rep = rt.report();
  bool saw_gpu = false, saw_cpu = false;
  for (const auto& row : rep.tasks) {
    if (row.task != "P.scale") continue;
    if (row.device == to_string(runtime::DeviceKind::kGpu)) {
      saw_gpu = true;
      EXPECT_EQ(row.batches, 2u);  // the two slow drains before the swap
    }
    if (row.device == to_string(runtime::DeviceKind::kCpu)) {
      saw_cpu = true;
      EXPECT_EQ(row.batches, n / 16 - 2);  // everything after the swap
    }
  }
  EXPECT_TRUE(saw_gpu);
  EXPECT_TRUE(saw_cpu);
  ASSERT_EQ(rep.resubstitutions.size(), 1u);
  EXPECT_EQ(rep.resubstitutions[0].from_device,
            to_string(runtime::DeviceKind::kGpu));
  EXPECT_EQ(rep.resubstitutions[0].to_device,
            to_string(runtime::DeviceKind::kCpu));

  // Same workload with the gate off: the slow artifact is kept (no swap
  // recorded) and the output is still exact — the gate changes performance
  // behavior only.
  auto cp2 = runtime::compile(kSrc, opts);
  ASSERT_TRUE(cp2->ok());
  cp2->store.add(std::make_unique<lm::testing::ScriptedArtifact>(
      "P.scale", runtime::DeviceKind::kGpu, 1, 3,
      std::chrono::microseconds(200)));
  RuntimeConfig rc2 = rc;
  rc2.enable_resubstitution = false;
  LiquidRuntime rt2(*cp2, rc2);
  Value out2 = rt2.call("P.run",
                        {Value::array(bc::make_i32_array(input, true))});
  EXPECT_TRUE(results_match(out2, out, 0.0));
  EXPECT_TRUE(rt2.stats().resubstitutions.empty());
}

}  // namespace
}  // namespace lm::workloads
