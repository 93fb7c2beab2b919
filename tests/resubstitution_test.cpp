// The online-profiling subsystem end to end: per-(task, device) cost
// models, the performance report (text + JSON parse-back), the flight
// recorder's fault-dump policy, and the re-substitution config gate. The
// actual mid-run device swap is exercised by the drift test in
// placement_differential_test.cpp; here the focus is the machinery around
// it.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/cost_model.h"
#include "obs/trace.h"
#include "runtime/liquid_runtime.h"
#include "tests/json_test_util.h"
#include "workloads/workloads.h"

namespace lm::runtime {
namespace {

using bc::Value;
using lm::testing::Json;
using lm::testing::parse_or_die;

// ---------------------------------------------------------------------------
// CostEntry / CostModelRegistry
// ---------------------------------------------------------------------------

TEST(CostEntry, FirstBatchSeedsEwmaExactly) {
  obs::CostEntry e;
  EXPECT_DOUBLE_EQ(e.ewma_us_per_elem(), 0.0);  // unseeded reads as 0
  e.record_batch(/*seconds=*/100e-6, /*elements=*/100, /*alpha=*/0.25);
  // 100 µs over 100 elements = 1 µs/elem, adopted verbatim (no blend with
  // the unseeded sentinel).
  EXPECT_NEAR(e.ewma_us_per_elem(), 1.0, 1e-9);
  EXPECT_EQ(e.batches(), 1u);
  EXPECT_EQ(e.elements(), 100u);
  EXPECT_EQ(e.batch_latency().count(), 1u);
}

TEST(CostEntry, EwmaBlendsTowardNewCost) {
  obs::CostEntry e;
  e.record_batch(100e-6, 100, 0.5);  // 1 µs/elem
  e.record_batch(300e-6, 100, 0.5);  // 3 µs/elem → 1 + 0.5·(3−1) = 2
  EXPECT_NEAR(e.ewma_us_per_elem(), 2.0, 1e-9);
  e.record_batch(300e-6, 100, 0.5);  // → 2.5
  EXPECT_NEAR(e.ewma_us_per_elem(), 2.5, 1e-9);
}

TEST(CostEntry, ZeroElementBatchesAreIgnored) {
  obs::CostEntry e;
  e.record_batch(1.0, 0, 0.25);
  EXPECT_EQ(e.batches(), 0u);
  EXPECT_DOUBLE_EQ(e.ewma_us_per_elem(), 0.0);
  EXPECT_EQ(e.batch_latency().count(), 0u);
}

TEST(CostEntry, TransfersAccumulate) {
  obs::CostEntry e;
  e.record_transfer(100, 40);
  e.record_transfer(28, 12);
  EXPECT_EQ(e.bytes_to_device(), 128u);
  EXPECT_EQ(e.bytes_from_device(), 52u);
}

TEST(CostModelRegistry, EntriesAreStableAndRowsSorted) {
  obs::CostModelRegistry reg;
  obs::CostEntry& a = reg.entry("P.scale", "gpu/opencl");
  obs::CostEntry& b = reg.entry("P.offset", "cpu/bytecode");
  EXPECT_EQ(&reg.entry("P.scale", "gpu/opencl"), &a);  // same key, same slot
  EXPECT_NE(&a, &b);
  reg.entry("P.scale", "cpu/bytecode");
  EXPECT_EQ(reg.size(), 3u);

  auto rows = reg.rows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].task, "P.offset");
  EXPECT_EQ(rows[1].task, "P.scale");
  EXPECT_EQ(rows[1].device, "cpu/bytecode");
  EXPECT_EQ(rows[2].task, "P.scale");
  EXPECT_EQ(rows[2].device, "gpu/opencl");

  a.record_batch(10e-6, 10, 0.25);
  EXPECT_EQ(rows[2].entry->batches(), 1u);  // rows alias the live entries
}

// ---------------------------------------------------------------------------
// LiquidRuntime::report()
// ---------------------------------------------------------------------------

const workloads::Workload& intpipe() {
  return workloads::pipeline_suite()[0];
}

TEST(PerfReportIntegration, DeviceRunProducesConsistentReport) {
  auto cp = compile(intpipe().lime_source);
  ASSERT_TRUE(cp->ok());
  RuntimeConfig rc;
  rc.placement = Placement::kGpuOnly;  // guarantees profiled device nodes
  LiquidRuntime rt(*cp, rc);
  rt.call(intpipe().entry, intpipe().make_args(512, 3));

  obs::PerfReport rep = rt.report();
  EXPECT_EQ(rep.policy, "gpu");
  ASSERT_FALSE(rep.tasks.empty());
  uint64_t elements = 0;
  for (const auto& r : rep.tasks) {
    EXPECT_GT(r.batches, 0u);
    EXPECT_GT(r.elements, 0u);
    EXPECT_GT(r.p50_us, 0.0);
    EXPECT_LE(r.p50_us, r.p99_us + 1e-9);
    EXPECT_LE(r.p99_us, r.max_us + 1e-9);
    EXPECT_GT(r.ewma_us_per_elem, 0.0);
    elements += r.elements;
  }
  EXPECT_GE(elements, 512u);  // the stream passed through a profiled node
  EXPECT_FALSE(rep.substitutions.empty());
  EXPECT_EQ(rep.substitutions.size(), rt.stats().substitutions.size());
  EXPECT_TRUE(rep.resubstitutions.empty());  // gate is off by default
  EXPECT_EQ(rep.metrics.at("runtime.graphs_executed"), 1u);
}

TEST(PerfReportIntegration, ReportCarriesThePlacementPolicyName) {
  auto cp = compile(intpipe().lime_source);
  ASSERT_TRUE(cp->ok());
  RuntimeConfig rc;
  rc.placement = Placement::kAdaptive;
  LiquidRuntime rt(*cp, rc);
  rt.call(intpipe().entry, intpipe().make_args(128, 3));
  EXPECT_EQ(rt.report().policy, "adaptive");
}

TEST(PerfReportIntegration, JsonRendersAndParsesBack) {
  auto cp = compile(intpipe().lime_source);
  ASSERT_TRUE(cp->ok());
  RuntimeConfig rc;
  rc.placement = Placement::kGpuOnly;
  LiquidRuntime rt(*cp, rc);
  rt.call(intpipe().entry, intpipe().make_args(256, 5));

  obs::PerfReport rep = rt.report();
  Json doc = parse_or_die(rep.to_json());
  EXPECT_EQ(doc.at("policy").str, "gpu");
  ASSERT_EQ(doc.at("tasks").kind, Json::Kind::kArray);
  ASSERT_EQ(doc.at("tasks").arr.size(), rep.tasks.size());
  for (size_t i = 0; i < rep.tasks.size(); ++i) {
    const Json& row = doc.at("tasks").arr[i];
    EXPECT_EQ(row.at("task").str, rep.tasks[i].task);
    EXPECT_EQ(row.at("device").str, rep.tasks[i].device);
    EXPECT_EQ(row.at("batches").num,
              static_cast<double>(rep.tasks[i].batches));
    // JSON doubles are rendered with 6 significant digits (%.6g), so the
    // round-trip is only exact to ~5e-6 relative.
    EXPECT_NEAR(row.at("p50_us").num, rep.tasks[i].p50_us,
                1e-5 * (1 + rep.tasks[i].p50_us));
    EXPECT_TRUE(row.has("p99_us"));
    EXPECT_TRUE(row.has("us_per_elem_ewma"));
    EXPECT_TRUE(row.has("bytes_to_device"));
  }
  ASSERT_EQ(doc.at("substitutions").arr.size(), rep.substitutions.size());
  EXPECT_EQ(doc.at("resubstitutions").kind, Json::Kind::kArray);
  EXPECT_EQ(doc.at("metrics").kind, Json::Kind::kObject);
  EXPECT_EQ(doc.at("metrics").at("runtime.graphs_executed").num, 1.0);
  EXPECT_TRUE(doc.has("dropped_trace_events"));
}

TEST(PerfReportIntegration, TextReportNamesEveryProfiledTask) {
  auto cp = compile(intpipe().lime_source);
  ASSERT_TRUE(cp->ok());
  RuntimeConfig rc;
  rc.placement = Placement::kGpuOnly;
  LiquidRuntime rt(*cp, rc);
  rt.call(intpipe().entry, intpipe().make_args(256, 5));

  obs::PerfReport rep = rt.report();
  std::string text = rep.to_text();
  EXPECT_NE(text.find("policy: gpu"), std::string::npos);
  for (const auto& r : rep.tasks) {
    EXPECT_NE(text.find(r.task), std::string::npos) << text;
    EXPECT_NE(text.find(r.device), std::string::npos);
  }
  EXPECT_NE(text.find("substitutions:"), std::string::npos);
  EXPECT_NE(text.find("dropped trace events: 0"), std::string::npos);
}

TEST(PerfReportIntegration, EmptyRunRendersWithoutRows) {
  auto cp = compile(intpipe().lime_source);
  ASSERT_TRUE(cp->ok());
  RuntimeConfig rc;
  rc.placement = Placement::kCpuOnly;  // no device nodes → no cost rows
  LiquidRuntime rt(*cp, rc);
  rt.call(intpipe().entry, intpipe().make_args(64, 1));
  obs::PerfReport rep = rt.report();
  EXPECT_TRUE(rep.tasks.empty());
  EXPECT_NE(rep.to_text().find("no device batches recorded"),
            std::string::npos);
  parse_or_die(rep.to_json());  // still valid JSON
}

// ---------------------------------------------------------------------------
// Flight recorder dump policy
// ---------------------------------------------------------------------------

/// A graph whose sink is deliberately too small: the id filter produces one
/// output per input, so feeding more than 4 elements faults the sink task.
const char* kOverflowSink = R"(
  class F {
    local static int id(int x) { return x; }
    static int[[]] run(int[[]] input) {
      int[] result = new int[4];
      var g = input.source(1)
        => ([ task id ])
        => result.<int>sink();
      g.finish();
      return new int[[]](result);
    }
  }
)";

std::vector<Value> make_i32_args(size_t n) {
  std::vector<int32_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<int32_t>(i);
  return {Value::array(bc::make_i32_array(std::move(v), true))};
}

TEST(FlightRecorderIntegration, TaskFaultDumpsSnapshotWithReason) {
  const std::string path = "flight_fault_test.json";
  std::remove(path.c_str());
  auto cp = compile(kOverflowSink);
  ASSERT_TRUE(cp->ok()) << cp->diags.to_string();
  RuntimeConfig rc;
  rc.placement = Placement::kGpuOnly;
  rc.flight_dump_path = path;
  LiquidRuntime rt(*cp, rc);
  EXPECT_THROW(rt.call("F.run", make_i32_args(32)), std::exception);
  EXPECT_GE(rt.metrics().value("flight.dumps"), 1u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "no flight dump at " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  Json doc = parse_or_die(buf.str());
  EXPECT_EQ(doc.at("metadata").at("reason").str, "task-fault");
  EXPECT_GT(doc.at("metadata").at("totalRecorded").num, 0.0);
  // The black box captured the fault itself.
  bool saw_fault = false;
  for (const Json& e : doc.at("traceEvents").arr) {
    if (e.at("cat").str == "fault") saw_fault = true;
  }
  EXPECT_TRUE(saw_fault);
  std::remove(path.c_str());
}

TEST(FlightRecorderIntegration, SeededSchedulerFaultAlsoDumps) {
  const std::string path = "flight_fault_seeded_test.json";
  std::remove(path.c_str());
  auto cp = compile(kOverflowSink);
  ASSERT_TRUE(cp->ok());
  RuntimeConfig rc;
  rc.scheduler_seed = 1;
  rc.flight_dump_path = path;
  LiquidRuntime rt(*cp, rc);
  EXPECT_THROW(rt.call("F.run", make_i32_args(32)), std::exception);
  EXPECT_GE(rt.metrics().value("flight.dumps"), 1u);
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  std::remove(path.c_str());
}

TEST(FlightRecorderIntegration, NoDumpPathMeansNoDump) {
  auto cp = compile(kOverflowSink);
  ASSERT_TRUE(cp->ok());
  RuntimeConfig rc;  // flight_dump_path empty → dumping disabled
  LiquidRuntime rt(*cp, rc);
  EXPECT_THROW(rt.call("F.run", make_i32_args(32)), std::exception);
  EXPECT_EQ(rt.metrics().value("flight.dumps"), 0u);
}

TEST(FlightRecorderIntegration, SuccessfulRunNeverDumps) {
  const std::string path = "flight_success_test.json";
  std::remove(path.c_str());
  auto cp = compile(intpipe().lime_source);
  ASSERT_TRUE(cp->ok());
  RuntimeConfig rc;
  rc.flight_dump_path = path;
  LiquidRuntime rt(*cp, rc);
  rt.call(intpipe().entry, intpipe().make_args(128, 1));
  EXPECT_EQ(rt.metrics().value("flight.dumps"), 0u);
  std::ifstream in(path);
  EXPECT_FALSE(in.good());
}

TEST(FlightRecorder, RingOverwritesOldestAndCountsTotal) {
  obs::TraceRecorder& fr = obs::TraceRecorder::flight();
  size_t cap = fr.max_events_per_thread();
  ASSERT_GT(cap, 0u);
  auto total = [&] { return fr.event_count() + fr.dropped_events(); };
  uint64_t before = total();
  for (size_t i = 0; i < cap + 10; ++i) {
    fr.instant("test", "ring-spin", obs::JsonArgs().add("i", i).str());
  }
  // This thread's ring holds at most `cap` of them; the total keeps
  // counting past the overwrite.
  EXPECT_GE(total(), before + cap + 10);
  size_t held = 0;
  for (const auto& e : fr.events()) {
    if (e.name == "ring-spin") ++held;
  }
  EXPECT_LE(held, cap);
  EXPECT_GE(held, std::min<size_t>(cap, 1));
}

// ---------------------------------------------------------------------------
// Re-substitution config gate
// ---------------------------------------------------------------------------

TEST(Resubstitution, DisabledByDefault) {
  RuntimeConfig rc;
  EXPECT_FALSE(rc.enable_resubstitution);
  auto cp = compile(intpipe().lime_source);
  ASSERT_TRUE(cp->ok());
  rc.placement = Placement::kAdaptive;
  LiquidRuntime rt(*cp, rc);
  rt.call(intpipe().entry, intpipe().make_args(512, 7));
  EXPECT_TRUE(rt.stats().resubstitutions.empty());
  EXPECT_EQ(rt.metrics().value("runtime.resubstitutions"), 0u);
}

TEST(Resubstitution, ResetStatsClearsHistory) {
  auto cp = compile(intpipe().lime_source);
  ASSERT_TRUE(cp->ok());
  RuntimeConfig rc;
  rc.placement = Placement::kAdaptive;
  LiquidRuntime rt(*cp, rc);
  rt.call(intpipe().entry, intpipe().make_args(256, 7));
  EXPECT_FALSE(rt.stats().substitutions.empty());
  rt.reset_stats();
  EXPECT_TRUE(rt.stats().substitutions.empty());
  EXPECT_TRUE(rt.stats().resubstitutions.empty());
}

}  // namespace
}  // namespace lm::runtime
