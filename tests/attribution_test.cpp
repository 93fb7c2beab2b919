// The critical-path attribution engine (DESIGN.md §12): DAG/timeline
// reconstruction from trace events, the backward walk's category tiling
// (categories must sum to the wall time), end-to-end attribution over the
// pipeline workload suite, deterministic structural output under a seeded
// scheduler, the FIFO blocked-time accounting that feeds the fifo-blocked
// category, and the concurrent trace-emission stress that the TSan build
// race-checks (satellite of the same PR).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/attribution.h"
#include "obs/critical_path.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "runtime/fifo.h"
#include "runtime/liquid_runtime.h"
#include "workloads/workloads.h"

namespace lm::obs {
namespace {

using runtime::FifoSignal;
using runtime::LiquidRuntime;
using runtime::RuntimeConfig;
using runtime::ValueFifo;
using workloads::pipeline_suite;
using workloads::Workload;

TraceEvent complete_event(const char* cat, std::string name, double ts,
                          double dur, std::string args) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kComplete;
  e.category = cat;
  e.name = std::move(name);
  e.ts_us = ts;
  e.dur_us = dur;
  e.args = std::move(args);
  return e;
}

TraceEvent instant_event(const char* cat, std::string name,
                         std::string args) {
  TraceEvent e;
  e.phase = TraceEvent::Phase::kInstant;
  e.category = cat;
  e.name = std::move(name);
  e.args = std::move(args);
  return e;
}

// ---------------------------------------------------------------------------
// Reconstruction from raw events
// ---------------------------------------------------------------------------

TEST(Reconstruct, ParsesGraphWindowExecRunsDrainsAndEdges) {
  std::vector<TraceEvent> ev;
  ev.push_back(complete_event("runtime", "graph.run", 10.0, 90.0,
                              JsonArgs().add("nodes", 3).add("gid", 7).str()));
  // node 0, dispatched at 20 after 5us queued; parked on push before that
  // run is impossible for a first run — plain queue prologue.
  ev.push_back(complete_event(
      "exec", "source", 20.0, 30.0,
      JsonArgs().add("gid", 7).add("node", 0).add("queue_us", 5.0)
          .add("steps", 3).str()));
  // node 1, second run after a pop park: park0 = enq - park_us.
  ev.push_back(complete_event(
      "exec", "device:d", 60.0, 20.0,
      JsonArgs().add("gid", 7).add("node", 1).add("queue_us", 2.0)
          .add("park_us", 8.0).add("reason", "pop").add("steps", 1).str()));
  ev.push_back(complete_event(
      "task", "drain:d", 62.0, 10.0,
      JsonArgs().add("elements", 16).add("gid", 7).add("node", 1)
          .add("device", "gpu/opencl").str()));
  ev.push_back(instant_event(
      "fifo", "edge:0",
      JsonArgs().add("gid", 7).add("edge", 0)
          .add("producer_blocked_us", 3.5).add("consumer_blocked_us", 1.25)
          .add("high_water", 64).add("capacity", 128).str()));
  // A different gid's events must not leak in.
  ev.push_back(complete_event(
      "exec", "sink", 25.0, 5.0,
      JsonArgs().add("gid", 9).add("node", 2).add("queue_us", 1.0)
          .add("steps", 1).str()));

  std::vector<GraphRun> runs = reconstruct_runs(ev);
  ASSERT_EQ(runs.size(), 1u);
  const GraphRun& r = runs[0];
  EXPECT_EQ(r.gid, 7u);
  EXPECT_DOUBLE_EQ(r.t0_us, 10.0);
  EXPECT_DOUBLE_EQ(r.t1_us, 100.0);
  ASSERT_EQ(r.tasks.size(), 2u);  // nodes 0 and 1 seen

  const TaskTimeline& src = r.tasks[0];
  EXPECT_EQ(src.label, "source");
  ASSERT_EQ(src.runs.size(), 1u);
  EXPECT_DOUBLE_EQ(src.runs[0].enq, 15.0);    // start - queue_us
  EXPECT_DOUBLE_EQ(src.runs[0].park0, 15.0);  // no park: park0 == enq
  EXPECT_DOUBLE_EQ(src.runs[0].end, 50.0);
  EXPECT_EQ(src.runs[0].steps, 3u);

  const TaskTimeline& dev = r.tasks[1];
  ASSERT_EQ(dev.runs.size(), 1u);
  EXPECT_DOUBLE_EQ(dev.runs[0].enq, 58.0);
  EXPECT_DOUBLE_EQ(dev.runs[0].park0, 50.0);  // enq - park_us
  EXPECT_EQ(dev.runs[0].reason, ParkReason::kPop);
  EXPECT_EQ(dev.parks_pop, 1u);
  ASSERT_EQ(dev.drains.size(), 1u);
  EXPECT_EQ(dev.drains[0].device, "gpu/opencl");

  ASSERT_EQ(r.edges.size(), 1u);
  EXPECT_DOUBLE_EQ(r.edges[0].producer_blocked_us, 3.5);
  EXPECT_DOUBLE_EQ(r.edges[0].consumer_blocked_us, 1.25);
  EXPECT_EQ(r.edges[0].high_water, 64u);
  EXPECT_EQ(r.edges[0].capacity, 128u);
}

// ---------------------------------------------------------------------------
// The backward walk on hand-built timelines
// ---------------------------------------------------------------------------

GraphRun two_task_run() {
  // Window [0,100]. Producer (node 0) runs [0,60]; consumer (node 1) runs
  // [2,5], parks on pop until woken at 60, queued 2us, runs [62,100].
  GraphRun r;
  r.gid = 1;
  r.t0_us = 0;
  r.t1_us = 100;
  r.tasks.resize(2);
  r.tasks[0].label = "source";
  r.tasks[0].node = 0;
  r.tasks[0].runs.push_back({0, 0, 0, 60, ParkReason::kNone, 2});
  r.tasks[1].label = "sink";
  r.tasks[1].node = 1;
  r.tasks[1].runs.push_back({0, 0, 2, 5, ParkReason::kNone, 1});
  r.tasks[1].runs.push_back({5, 60, 62, 100, ParkReason::kPop, 1});
  return r;
}

TEST(Walk, PopParkRedirectsToProducerAndTilesTheWall) {
  Attribution a = analyze_run(two_task_run());
  EXPECT_NEAR(a.coverage(), 1.0, 1e-6);

  double sum = 0;
  for (const auto& c : a.categories) sum += c.us;
  EXPECT_NEAR(sum, a.wall_us, 1e-6);

  // Segments ascend and tile [t0, t1] without gaps or overlap.
  ASSERT_FALSE(a.segments.empty());
  double at = a.t0_us;
  for (const auto& s : a.segments) {
    EXPECT_NEAR(s.t0_us, at, 1e-3);
    EXPECT_GE(s.t1_us, s.t0_us);
    at = s.t1_us;
  }
  EXPECT_NEAR(at, a.t1_us, 1e-3);

  // The producer's compute [0,60] carries the path while the sink was
  // parked on pop; the sink's own tail [62,100] follows.
  const Attribution::Contributor& top = a.critical_path.front();
  EXPECT_EQ(top.task, "source");
  EXPECT_EQ(top.category, "compute:cpu");
  EXPECT_NEAR(top.us, 60.0, 1e-6);
  bool sink_compute = false;
  for (const auto& c : a.critical_path) {
    if (c.task == "sink" && c.category == "compute:cpu") {
      sink_compute = true;
      EXPECT_NEAR(c.us, 38.0, 1e-6);
    }
  }
  EXPECT_TRUE(sink_compute);
}

TEST(Walk, DrainSlicesBecomeDeviceComputeAndSerde) {
  GraphRun r = two_task_run();
  r.tasks[0].label = "device:d";  // device task: non-drain time is serde
  r.tasks[0].drains.push_back({10, 40, "gpu/opencl"});
  Attribution a = analyze_run(r);
  double gpu = 0, serde = 0;
  for (const auto& c : a.categories) {
    if (c.name == "compute:gpu/opencl") gpu = c.us;
    if (c.name == "serde") serde = c.us;
  }
  EXPECT_NEAR(gpu, 30.0, 1e-6);
  EXPECT_NEAR(serde, 30.0, 1e-6);  // [0,10) + [40,60) around the drain
  EXPECT_NEAR(a.coverage(), 1.0, 1e-6);
  ASSERT_FALSE(a.devices.empty());
  EXPECT_EQ(a.devices[0].device, "gpu/opencl");
  EXPECT_NEAR(a.devices[0].busy_us, 30.0, 1e-6);
}

TEST(Walk, RemoteDrainSplitsIntoRpcWaitAndSerde) {
  GraphRun r = two_task_run();
  r.tasks[0].label = "device:d";
  r.tasks[0].drains.push_back({10, 40, "gpu@127.0.0.1:9"});
  r.rpcs.emplace_back(15.0, 35.0);  // round-trip span inside the drain
  Attribution a = analyze_run(r);
  double rpc = 0;
  for (const auto& c : a.categories) {
    if (c.name == "rpc-wait") rpc = c.us;
  }
  EXPECT_NEAR(rpc, 20.0, 1e-6);
  EXPECT_NEAR(a.coverage(), 1.0, 1e-6);
}

TEST(Walk, RedirectCycleFallsBackToFifoBlocked) {
  // Two tasks each parked on the other (pop vs push) over the same window:
  // the redirect cap must break the cycle into fifo-blocked, not spin.
  GraphRun r;
  r.gid = 1;
  r.t0_us = 0;
  r.t1_us = 50;
  r.tasks.resize(2);
  r.tasks[0].label = "a";
  r.tasks[0].node = 0;
  r.tasks[0].runs.push_back({0, 40, 41, 50, ParkReason::kPush, 1});
  r.tasks[1].label = "b";
  r.tasks[1].node = 1;
  r.tasks[1].runs.push_back({0, 40, 41, 50, ParkReason::kPop, 1});
  Attribution a = analyze_run(r);
  EXPECT_NEAR(a.coverage(), 1.0, 1e-6);
  bool fifo_blocked = false;
  for (const auto& c : a.categories) {
    if (c.name == "fifo-blocked") fifo_blocked = true;
  }
  EXPECT_TRUE(fifo_blocked);
}

// ---------------------------------------------------------------------------
// End-to-end over the workload suite
// ---------------------------------------------------------------------------

TEST(AttributionEndToEnd, EveryPipelineWorkloadCoversItsWall) {
  workloads::register_native_kernels();
  for (const Workload& w : pipeline_suite()) {
    auto cp = runtime::compile(w.lime_source);
    ASSERT_TRUE(cp->ok()) << w.name << ":\n" << cp->diags.to_string();
    TraceRecorder rec;
    rec.install();
    {
      RuntimeConfig rc;
      LiquidRuntime rt(*cp, rc);
      rt.call(w.entry, w.make_args(192, 20120603));
      std::vector<Attribution> atts = rt.attributions();
      ASSERT_FALSE(atts.empty()) << w.name;
      for (const Attribution& a : atts) {
        EXPECT_GT(a.wall_us, 0) << w.name;
        EXPECT_GE(a.coverage(), 0.95) << w.name;
        EXPECT_LE(a.coverage(), 1.05) << w.name;
        double at = a.t0_us;
        for (const auto& s : a.segments) {
          EXPECT_NEAR(s.t0_us, at, 1e-3) << w.name;  // contiguous tiling
          EXPECT_GE(s.t1_us, s.t0_us - 1e-3) << w.name;
          at = s.t1_us;
        }
        EXPECT_NEAR(at, a.t1_us, 1e-3) << w.name;
        // Every dispatch the executor reported is inside the run window.
        for (const auto& t : a.tasks) EXPECT_GT(t.dispatches, 0u) << w.name;
      }
      // The report embeds the same attributions.
      EXPECT_EQ(rt.report().attributions.size(), atts.size());
    }
    rec.uninstall();
  }
}

TEST(AttributionEndToEnd, SegmentsDeriveFromRecordedSpanEndpoints) {
  // Each critical-path segment boundary that is not the window edge must
  // coincide with a phase boundary of some reconstructed dispatch/drain —
  // i.e. the engine never invents timestamps.
  const Workload& w = pipeline_suite()[0];
  auto cp = runtime::compile(w.lime_source);
  ASSERT_TRUE(cp->ok());
  TraceRecorder rec;
  rec.install();
  std::vector<Attribution> atts;
  std::vector<GraphRun> runs;
  {
    RuntimeConfig rc;
    LiquidRuntime rt(*cp, rc);
    rt.call(w.entry, w.make_args(256, 1));
    atts = rt.attributions();
    runs = reconstruct_runs(rec.events());
  }
  rec.uninstall();
  ASSERT_FALSE(atts.empty());
  ASSERT_FALSE(runs.empty());
  const Attribution& a = atts.back();
  const GraphRun* run = nullptr;
  for (const GraphRun& r : runs) {
    if (r.gid == a.gid) run = &r;
  }
  ASSERT_NE(run, nullptr);
  auto is_boundary = [&](double t) {
    if (std::abs(t - a.t0_us) < 1e-3 || std::abs(t - a.t1_us) < 1e-3) {
      return true;
    }
    for (const TaskTimeline& tl : run->tasks) {
      for (const DispatchRun& d : tl.runs) {
        for (double b : {d.park0, d.enq, d.start, d.end}) {
          if (std::abs(t - b) < 1e-3) return true;
        }
      }
      for (const DrainSpan& d : tl.drains) {
        if (std::abs(t - d.t0) < 1e-3 || std::abs(t - d.t1) < 1e-3) {
          return true;
        }
      }
    }
    for (const auto& [r0, r1] : run->rpcs) {
      if (std::abs(t - r0) < 1e-3 || std::abs(t - r1) < 1e-3) return true;
    }
    return false;
  };
  for (const Attribution::Segment& s : a.segments) {
    EXPECT_TRUE(is_boundary(s.t0_us)) << s.task << "/" << s.category << " t0="
                                      << s.t0_us;
    EXPECT_TRUE(is_boundary(s.t1_us)) << s.task << "/" << s.category << " t1="
                                      << s.t1_us;
  }
}

TEST(AttributionDeterminism, StructuralJsonIsByteIdenticalAcrossSeededRuns) {
  const Workload& w = pipeline_suite()[0];
  auto run_once = [&]() {
    auto cp = runtime::compile(w.lime_source);
    EXPECT_TRUE(cp->ok());
    TraceRecorder rec;
    rec.install();
    std::string out;
    {
      RuntimeConfig rc;
      rc.scheduler_seed = 7;
      LiquidRuntime rt(*cp, rc);
      rt.call(w.entry, w.make_args(192, 20120603));
      for (const Attribution& a : rt.attributions()) {
        out += a.to_json(/*structural=*/true);
      }
    }
    rec.uninstall();
    return out;
  };
  std::string first = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_NE(first.find("\"structural\":true"), std::string::npos);
  EXPECT_EQ(first.find("wall_us"), std::string::npos);  // timing-free
  EXPECT_EQ(first, run_once());
}

// Every "exec" span covers one thread's time and nothing else, so no two of
// them on one row may overlap. A task that another task interleaved with
// on its thread, or that moved threads, closes its span first.
void expect_no_exec_overlap_per_thread(const TraceRecorder& rec) {
  std::map<uint32_t, std::vector<std::pair<double, double>>> by_tid;
  for (const TraceEvent& e : rec.events()) {
    if (e.phase != TraceEvent::Phase::kComplete ||
        std::string(e.category) != "exec") {
      continue;
    }
    by_tid[e.tid].emplace_back(e.ts_us, e.ts_us + e.dur_us);
  }
  ASSERT_FALSE(by_tid.empty());
  for (auto& [tid, spans] : by_tid) {
    std::sort(spans.begin(), spans.end());
    for (size_t i = 1; i < spans.size(); ++i) {
      EXPECT_LE(spans[i - 1].second, spans[i].first + 1e-3)
          << "tid " << tid << ": exec span " << i - 1 << " ["
          << spans[i - 1].first << ", " << spans[i - 1].second
          << "] overlaps [" << spans[i].first << ", " << spans[i].second
          << "]";
    }
  }
}

TEST(ExecSpans, SeededFpgaRunNeverOverlapsAndChargesTheFpga) {
  // intpipe on 4096 ints with the pipeline on the FPGA, one seeded thread:
  // the device node's RTL batches dominate the run, so the attribution must
  // say so. A source span that swallowed the steps other tasks ran in
  // between would charge the source with most of the wall instead.
  const Workload& w = pipeline_suite()[0];
  ASSERT_EQ(w.name, "intpipe");
  auto cp = runtime::compile(w.lime_source);
  ASSERT_TRUE(cp->ok());
  TraceRecorder rec;
  rec.install();
  std::vector<Attribution> atts;
  {
    RuntimeConfig rc;
    rc.placement = runtime::Placement::kFpgaOnly;
    rc.scheduler_seed = 1;
    LiquidRuntime rt(*cp, rc);
    rt.call(w.entry, w.make_args(4096, 1));
    atts = rt.attributions();
  }
  rec.uninstall();
  expect_no_exec_overlap_per_thread(rec);
  ASSERT_EQ(atts.size(), 1u);
  ASSERT_FALSE(atts[0].categories.empty());
  EXPECT_EQ(atts[0].categories.front().name, "compute:fpga/verilog")
      << atts[0].to_text();
}

TEST(ExecSpans, ThreadedRunNeverOverlapsOnAThread) {
  const Workload& w = pipeline_suite()[0];
  ASSERT_EQ(w.name, "intpipe");
  auto cp = runtime::compile(w.lime_source);
  ASSERT_TRUE(cp->ok());
  TraceRecorder rec;
  rec.install();
  {
    RuntimeConfig rc;
    rc.placement = runtime::Placement::kFpgaOnly;
    rc.worker_threads = 4;
    LiquidRuntime rt(*cp, rc);
    for (int i = 0; i < 3; ++i) rt.call(w.entry, w.make_args(4096, 1));
  }
  rec.uninstall();
  expect_no_exec_overlap_per_thread(rec);
}

TEST(AttributionTelemetry, AttrAndQueueWaitGaugesExported) {
  const Workload& w = pipeline_suite()[0];
  auto cp = runtime::compile(w.lime_source);
  ASSERT_TRUE(cp->ok());
  TraceRecorder rec;
  rec.install();
  RuntimeConfig rc;
  LiquidRuntime rt(*cp, rc);
  rt.call(w.entry, w.make_args(192, 20120603));
  std::vector<GaugeSample> out;
  rt.collect_telemetry(out);
  rec.uninstall();
  double analyzed = -1, wall = -1, coverage = -1, queue_wait = -1;
  bool any_category = false;
  for (const GaugeSample& g : out) {
    if (g.name == "attr.analyzed_graphs") analyzed = g.value;
    if (g.name == "attr.wall_us") wall = g.value;
    if (g.name == "attr.coverage") coverage = g.value;
    if (g.name == "attr.category_us") any_category = true;
    if (g.name == "executor.queue_wait_us") queue_wait = g.value;
  }
  EXPECT_GE(analyzed, 1.0);
  EXPECT_GT(wall, 0.0);
  EXPECT_GE(coverage, 0.95);
  EXPECT_LE(coverage, 1.05);
  EXPECT_TRUE(any_category);
  EXPECT_GE(queue_wait, 0.0);
}

TEST(AttributionTelemetry, AnalyzedGraphsGaugePresentBeforeAnyRun) {
  // The check.sh soak scrapes a runtime exporter mid-run; the series must
  // exist (value 0) even before the first graph completes.
  const Workload& w = pipeline_suite()[0];
  auto cp = runtime::compile(w.lime_source);
  ASSERT_TRUE(cp->ok());
  RuntimeConfig rc;
  LiquidRuntime rt(*cp, rc);
  std::vector<GaugeSample> out;
  rt.collect_telemetry(out);
  bool found = false;
  for (const GaugeSample& g : out) {
    if (g.name == "attr.analyzed_graphs") {
      found = true;
      EXPECT_EQ(g.value, 0.0);
    }
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// FIFO blocked-time accounting
// ---------------------------------------------------------------------------

TEST(FifoBlockedTime, ProducerBlockedUntilConsumerDrains) {
  ValueFifo q(1);
  EXPECT_DOUBLE_EQ(q.producer_blocked_us(), 0.0);
  bc::Value one = bc::Value::i32(1);
  bc::Value two = bc::Value::i32(2);
  ASSERT_EQ(q.try_push(one), FifoSignal::kOk);
  ASSERT_EQ(q.try_push(two), FifoSignal::kWouldBlock);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  // The in-progress window is already visible before the settle.
  EXPECT_GT(q.producer_blocked_us(), 1000.0);
  bc::Value v;
  ASSERT_EQ(q.try_pop(&v), FifoSignal::kOk);  // full→not-full settles
  double settled = q.producer_blocked_us();
  EXPECT_GT(settled, 1000.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_DOUBLE_EQ(q.producer_blocked_us(), settled);  // window closed
}

TEST(FifoBlockedTime, ConsumerBlockedUntilProducerFills) {
  ValueFifo q(4);
  bc::Value v;
  ASSERT_EQ(q.try_pop(&v), FifoSignal::kWouldBlock);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  bc::Value one = bc::Value::i32(1);
  ASSERT_EQ(q.try_push(one), FifoSignal::kOk);  // settles
  double settled = q.consumer_blocked_us();
  EXPECT_GT(settled, 1000.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_DOUBLE_EQ(q.consumer_blocked_us(), settled);
}

TEST(FifoBlockedTime, CloseSettlesBothSides) {
  ValueFifo q(1);
  bc::Value one = bc::Value::i32(1);
  bc::Value two = bc::Value::i32(2);
  ASSERT_EQ(q.try_push(one), FifoSignal::kOk);
  ASSERT_EQ(q.try_push(two), FifoSignal::kWouldBlock);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  q.close();
  double p = q.producer_blocked_us();
  EXPECT_GT(p, 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_DOUBLE_EQ(q.producer_blocked_us(), p);
}

// ---------------------------------------------------------------------------
// Concurrent emission stress (race-checked under the TSan build)
// ---------------------------------------------------------------------------

TEST(TraceStress, WorkersEmitWhileScrapeRunsNoSilentDrops) {
  constexpr int kThreads = 8;
  constexpr int kEventsPerThread = 2000;
  TraceRecorder rec;
  rec.install();
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    // Concurrent exports: chrome JSON and the raw snapshot both walk the
    // per-thread buffers while emitters append.
    while (!stop.load(std::memory_order_acquire)) {
      (void)rec.chrome_trace_json();
      (void)rec.events();
    }
  });
  std::vector<std::thread> emitters;
  emitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    emitters.emplace_back([&, t] {
      TraceRecorder* r = TraceRecorder::current();
      ASSERT_NE(r, nullptr);
      r->set_thread_name("stress-" + std::to_string(t));
      for (int i = 0; i < kEventsPerThread; ++i) {
        double now = r->now_us();
        switch (i % 3) {
          case 0:
            r->complete("exec", "span", now, 0.5,
                        JsonArgs().add("i", i).str());
            break;
          case 1:
            r->instant("fifo", "edge:0", JsonArgs().add("i", i).str());
            break;
          default:
            r->counter("fifo", "depth", static_cast<double>(i));
            break;
        }
      }
    });
  }
  for (auto& th : emitters) th.join();
  stop.store(true, std::memory_order_release);
  scraper.join();
  rec.uninstall();
  EXPECT_EQ(rec.dropped_events(), 0u);
  EXPECT_EQ(rec.event_count(),
            static_cast<size_t>(kThreads) * kEventsPerThread);
  // Every emitter's thread name survives into the export metadata.
  std::string json = rec.chrome_trace_json();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_NE(json.find("stress-" + std::to_string(t)), std::string::npos);
  }
}

TEST(TraceThreadNames, ExecutorWorkersAreNamedInChromeTraces) {
  const Workload& w = pipeline_suite()[0];
  auto cp = runtime::compile(w.lime_source);
  ASSERT_TRUE(cp->ok());
  TraceRecorder rec;
  rec.install();
  {
    RuntimeConfig rc;
    // One worker runs every step, so "worker-0" names a thread that traced
    // whatever the schedule; with two, worker 1 may run them all.
    rc.worker_threads = 1;
    LiquidRuntime rt(*cp, rc);
    rt.call(w.entry, w.make_args(256, 3));
  }
  rec.uninstall();
  std::string json = rec.chrome_trace_json();
  EXPECT_NE(json.find("\"worker-0\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"exec\""), std::string::npos);  // dispatch spans
}

}  // namespace
}  // namespace lm::obs
