// The observability layer: TraceRecorder/TraceSpan, MetricsRegistry, and
// their integration with the Liquid Metal runtime.
//
// The Chrome-trace export is validated by *parsing it back* with the shared
// minimal JSON reader — the format claim ("loads in chrome://tracing") is
// only as good as the JSON being well-formed.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/liquid_runtime.h"
#include "tests/json_test_util.h"
#include "workloads/workloads.h"

namespace lm::obs {
namespace {

using lm::testing::Json;
using lm::testing::parse_or_die;

// ---------------------------------------------------------------------------
// JsonArgs / json_escape
// ---------------------------------------------------------------------------

TEST(JsonArgsTest, RendersEveryValueKind) {
  std::string body = JsonArgs()
                         .add("s", std::string("a\"b\n"))
                         .add("lit", "plain")
                         .add("u", static_cast<uint64_t>(1) << 40)
                         .add("i", -3)
                         .add("d", 2.5)
                         .add("t", true)
                         .add_raw("raw", "[1,2]")
                         .str();
  Json doc = parse_or_die("{" + body + "}");
  EXPECT_EQ(doc.at("s").str, "a\"b\n");
  EXPECT_EQ(doc.at("lit").str, "plain");
  EXPECT_EQ(doc.at("u").num, static_cast<double>(uint64_t{1} << 40));
  EXPECT_EQ(doc.at("i").num, -3);
  EXPECT_EQ(doc.at("d").num, 2.5);
  EXPECT_TRUE(doc.at("t").b);
  ASSERT_EQ(doc.at("raw").arr.size(), 2u);
}

TEST(JsonArgsTest, EscapesControlCharacters) {
  std::string e = json_escape(std::string("\x01\t\"\\x") + '\0' + "y");
  // Must parse as a JSON string; \u-escaped control characters come back
  // as '?' from the test parser (their value is irrelevant here — that
  // they escape to *valid* JSON is the point).
  Json doc = parse_or_die("{\"k\":\"" + e + "\"}");
  EXPECT_EQ(doc.at("k").str, "?\t\"\\x?y");
}

// ---------------------------------------------------------------------------
// TraceRecorder / TraceSpan
// ---------------------------------------------------------------------------

TEST(TraceRecorderTest, NoRecorderRecordsNothing) {
  ASSERT_EQ(TraceRecorder::current(), nullptr);
  {
    TraceSpan span("cat", "should-vanish");
    TraceSpan inert;
    (void)inert;
  }
  // Whatever happened above, a freshly installed recorder starts empty.
  TraceRecorder rec;
  rec.install();
  EXPECT_EQ(rec.event_count(), 0u);
  rec.uninstall();
  EXPECT_EQ(TraceRecorder::current(), nullptr);
}

TEST(TraceRecorderTest, OnlyOneRecorderAtATime) {
  TraceRecorder a;
  a.install();
  TraceRecorder b;
  EXPECT_THROW(b.install(), std::exception);
  a.uninstall();
  b.install();
  EXPECT_EQ(TraceRecorder::current(), &b);
}

TEST(TraceRecorderTest, SpansNestByTimestampContainment) {
  TraceRecorder rec;
  rec.install();
  {
    TraceSpan outer("t", "outer");
    {
      TraceSpan inner("t", "inner");
    }
  }
  rec.uninstall();
  auto events = rec.events();
  ASSERT_EQ(events.size(), 2u);
  // events() sorts by ts: outer began first.
  const TraceEvent& outer = events[0];
  const TraceEvent& inner = events[1];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(inner.name, "inner");
  EXPECT_LE(outer.ts_us, inner.ts_us);
  EXPECT_GE(outer.ts_us + outer.dur_us, inner.ts_us + inner.dur_us)
      << "inner span must end within the outer span";
}

TEST(TraceRecorderTest, SpanEndIsIdempotent) {
  TraceRecorder rec;
  rec.install();
  TraceSpan span("t", "once");
  span.end();
  span.end();
  rec.uninstall();
  EXPECT_EQ(rec.event_count(), 1u);
}

TEST(TraceRecorderTest, EventsFromManyThreadsAllArrive) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  TraceRecorder rec;
  rec.install();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        TraceSpan span("mt", "w");
      }
    });
  }
  for (auto& th : threads) th.join();
  rec.uninstall();
  EXPECT_EQ(rec.event_count(), static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ(rec.thread_count(), static_cast<size_t>(kThreads));
  // Every event carries its thread's dense id.
  auto events = rec.events();
  for (const auto& e : events) {
    EXPECT_GE(e.tid, 1u);
    EXPECT_LE(e.tid, static_cast<uint32_t>(kThreads));
  }
}

TEST(TraceRecorderTest, SecondRecorderAfterFirstDiesGetsFreshBuffers) {
  {
    TraceRecorder first;
    first.install();
    TraceSpan span("t", "old");
  }  // destructor uninstalls
  TraceRecorder second;
  second.install();
  {
    TraceSpan span("t", "new");
  }
  second.uninstall();
  ASSERT_EQ(second.event_count(), 1u);
  EXPECT_EQ(second.events()[0].name, "new");
}

TEST(TraceRecorderTest, ChromeTraceJsonParsesBackCorrectly) {
  TraceRecorder rec;
  rec.install();
  {
    TraceSpan span(TraceRecorder::current(), "cat\\a", "span \"quoted\"");
    span.set_args(JsonArgs().add("n", 3).str());
  }
  rec.instant("i", "marker", JsonArgs().add("why", "test").str());
  rec.counter("c", "queue", 5);
  rec.uninstall();

  Json doc = parse_or_die(rec.chrome_trace_json());
  ASSERT_TRUE(doc.has("traceEvents"));
  const auto& evs = doc.at("traceEvents").arr;
  ASSERT_EQ(evs.size(), 3u);

  const Json* complete = nullptr;
  const Json* instant = nullptr;
  const Json* counter = nullptr;
  for (const auto& e : evs) {
    if (e.at("ph").str == "X") complete = &e;
    if (e.at("ph").str == "i") instant = &e;
    if (e.at("ph").str == "C") counter = &e;
  }
  ASSERT_NE(complete, nullptr);
  ASSERT_NE(instant, nullptr);
  ASSERT_NE(counter, nullptr);

  EXPECT_EQ(complete->at("name").str, "span \"quoted\"");
  EXPECT_EQ(complete->at("cat").str, "cat\\a");
  EXPECT_GE(complete->at("dur").num, 0.0);
  EXPECT_EQ(complete->at("args").at("n").num, 3);

  EXPECT_EQ(instant->at("name").str, "marker");
  EXPECT_EQ(instant->at("s").str, "t");
  EXPECT_EQ(instant->at("args").at("why").str, "test");

  EXPECT_EQ(counter->at("name").str, "queue");
  EXPECT_EQ(counter->at("args").at("value").num, 5);
}

// ---------------------------------------------------------------------------
// Buffer-cap drops: counted, exported, never silent
// ---------------------------------------------------------------------------

TEST(TraceRecorderTest, DropsAreCountedWhenBufferHitsCap) {
  TraceRecorder rec(/*max_events_per_thread=*/4);
  rec.install();
  for (int i = 0; i < 10; ++i) rec.instant("t", "e");
  rec.uninstall();
  EXPECT_EQ(rec.event_count(), 4u);
  EXPECT_EQ(rec.dropped_events(), 6u);
  EXPECT_EQ(rec.max_events_per_thread(), 4u);
}

TEST(TraceRecorderTest, DropCountRidesInExportMetadata) {
  TraceRecorder rec(/*max_events_per_thread=*/3);
  rec.install();
  for (int i = 0; i < 8; ++i) rec.instant("t", "e");
  rec.uninstall();
  Json doc = parse_or_die(rec.chrome_trace_json());
  EXPECT_EQ(doc.at("metadata").at("droppedEvents").num, 5.0);
  EXPECT_EQ(doc.at("metadata").at("maxEventsPerThread").num, 3.0);
  EXPECT_EQ(doc.at("traceEvents").arr.size(), 3u);
}

TEST(TraceRecorderTest, FullBufferKeepsTheNewestEvents) {
  TraceRecorder rec(/*max_events_per_thread=*/3);
  for (int i = 0; i < 8; ++i) rec.instant("t", "e" + std::to_string(i));
  std::vector<TraceEvent> evs = rec.events();
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_EQ(evs[0].name, "e5");
  EXPECT_EQ(evs[1].name, "e6");
  EXPECT_EQ(evs[2].name, "e7");
  Json doc = parse_or_die(rec.chrome_trace_json("why"));
  EXPECT_EQ(doc.at("metadata").at("totalRecorded").num, 8.0);
  EXPECT_EQ(doc.at("metadata").at("reason").str, "why");
}

TEST(FlightRecorder, ConcurrentRecordPastCapacityWhileRendering) {
  // The flight recorder's shape: a small ring per thread, written by many
  // threads at once while something renders it (a /flight pull, a fault
  // dump). Every thread overruns its ring ten times over.
  constexpr size_t kCap = 16;
  constexpr int kThreads = 8;
  constexpr size_t kPerThread = 10 * kCap;
  TraceRecorder rec(kCap);
  std::atomic<bool> stop{false};
  std::atomic<int> renders{0};
  std::thread renderer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      parse_or_die(rec.chrome_trace_json("concurrent"));
      renders.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&rec] {
      for (size_t i = 0; i < kPerThread; ++i) {
        rec.instant("test", "spin", JsonArgs().add("i", i).str());
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  renderer.join();
  EXPECT_GT(renders.load(), 0);

  EXPECT_EQ(rec.event_count() + rec.dropped_events(), kThreads * kPerThread);
  std::map<uint32_t, std::vector<uint64_t>> held;
  for (const TraceEvent& e : rec.events()) {
    Json args = parse_or_die("{" + e.args + "}");
    held[e.tid].push_back(static_cast<uint64_t>(args.at("i").num));
  }
  ASSERT_EQ(held.size(), static_cast<size_t>(kThreads));
  for (const auto& [tid, is] : held) {
    EXPECT_LE(is.size(), kCap) << "tid " << tid;
    // What a thread holds is its newest events.
    for (uint64_t i : is) EXPECT_GE(i, kPerThread - kCap) << "tid " << tid;
  }
  Json doc = parse_or_die(rec.chrome_trace_json("done"));
  EXPECT_EQ(doc.at("metadata").at("totalRecorded").num,
            static_cast<double>(kThreads * kPerThread));
}

TEST(TraceRecorderTest, NoDropsExportsZeroInMetadata) {
  TraceRecorder rec;
  rec.install();
  rec.instant("t", "only");
  rec.uninstall();
  Json doc = parse_or_die(rec.chrome_trace_json());
  EXPECT_EQ(doc.at("metadata").at("droppedEvents").num, 0.0);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, CountersAggregateAcrossThreads) {
  MetricsRegistry reg;
  auto& c = reg.counter("hits");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(reg.value("hits"), c.value());
}

TEST(MetricsRegistryTest, MaxGaugeKeepsMaximumUnderContention) {
  MetricsRegistry reg;
  auto& g = reg.max_gauge("peak");
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g, t] {
      for (int i = 0; i < 5000; ++i) {
        g.observe(static_cast<uint64_t>(t * 10000 + i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(g.value(), static_cast<uint64_t>((kThreads - 1) * 10000 + 4999));
}

TEST(MetricsRegistryTest, SnapshotSummaryAndReset) {
  MetricsRegistry reg;
  reg.counter("b").add(2);
  reg.counter("a").add(1);
  reg.counter("zero");
  reg.max_gauge("hw").observe(7);
  auto snap = reg.snapshot();
  EXPECT_EQ(snap.at("a"), 1u);
  EXPECT_EQ(snap.at("b"), 2u);
  EXPECT_EQ(snap.at("hw"), 7u);
  EXPECT_EQ(snap.at("zero"), 0u);
  EXPECT_EQ(reg.summary(), "a=1 b=2 hw=7");
  EXPECT_EQ(reg.summary(/*include_zeros=*/true), "a=1 b=2 hw=7 zero=0");

  auto& a = reg.counter("a");  // cached pointer survives reset
  reg.reset();
  EXPECT_EQ(reg.value("a"), 0u);
  EXPECT_EQ(reg.value("hw"), 0u);
  a.add();
  EXPECT_EQ(reg.value("a"), 1u);
}

// ---------------------------------------------------------------------------
// Runtime integration
// ---------------------------------------------------------------------------

const workloads::Workload& intpipe() {
  return workloads::pipeline_suite()[0];
}

TEST(RuntimeObservability, ThreadedRunPopulatesMetricsAndStats) {
  auto cp = runtime::compile(intpipe().lime_source);
  ASSERT_TRUE(cp->ok());
  runtime::RuntimeConfig rc;
  rc.placement = runtime::Placement::kGpuOnly;
  rc.fifo_capacity = 64;
  runtime::LiquidRuntime rt(*cp, rc);
  rt.call(intpipe().entry, intpipe().make_args(512, 3));

  const runtime::RuntimeStats& s = rt.stats();
  EXPECT_EQ(s.graphs_executed, 1u);
  EXPECT_EQ(s.elements_streamed, 512u);
  EXPECT_GT(s.bytes_to_device, 0u);
  EXPECT_GT(s.bytes_from_device, 0u);
  // A bounded FIFO saw some occupancy but never more than its capacity.
  EXPECT_GE(s.fifo_high_water, 1u);
  EXPECT_LE(s.fifo_high_water, 64u);

  EXPECT_EQ(rt.metrics().value("runtime.graphs_executed"), 1u);
  EXPECT_EQ(rt.metrics().value("runtime.elements_streamed"), 512u);
  EXPECT_EQ(rt.metrics().value("fifo.high_water"), s.fifo_high_water);

  rt.reset_stats();
  EXPECT_EQ(rt.stats().graphs_executed, 0u);
  EXPECT_TRUE(rt.stats().substitutions.empty());
}

/// Regression for the RuntimeStats data race: metrics are read continuously
/// from another thread while task threads mutate them. Under
/// -DLM_SANITIZE=thread the old plain-uint64_t counters fail this test.
TEST(RuntimeObservability, ConcurrentMetricReadsDuringThreadedRuns) {
  auto cp = runtime::compile(intpipe().lime_source);
  ASSERT_TRUE(cp->ok());
  runtime::RuntimeConfig rc;
  rc.placement = runtime::Placement::kGpuOnly;
  runtime::LiquidRuntime rt(*cp, rc);

  std::atomic<bool> done{false};
  uint64_t observed = 0;
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      observed += rt.metrics().value("runtime.elements_streamed");
      observed += rt.stats().graphs_executed;
    }
  });
  auto args = intpipe().make_args(1024, 5);
  for (int i = 0; i < 5; ++i) {
    rt.call(intpipe().entry, args);
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(rt.stats().graphs_executed, 5u);
  EXPECT_EQ(rt.stats().elements_streamed, 5u * 1024u);
}

TEST(FlightRecorder, ExitedThreadsHandTheirRowsBack) {
  // Threads that start, record and exit one after another share one row:
  // each exited thread's row goes to the next, and no event goes uncounted.
  TraceRecorder& fr = TraceRecorder::flight();
  auto record_from_threads = [&fr](int threads) {
    for (int i = 0; i < threads; ++i) {
      std::thread([&fr] {
        for (int k = 0; k < 3; ++k) fr.instant("test", "row-reuse");
      }).join();
    }
  };
  record_from_threads(50);
  const size_t rows = fr.thread_count();
  const uint64_t recorded = fr.event_count() + fr.dropped_events();
  record_from_threads(150);
  EXPECT_LE(fr.thread_count(), rows);
  EXPECT_EQ(fr.event_count() + fr.dropped_events(), recorded + 450);
}

TEST(FlightRecorder, RowsDoNotGrowWithSequentialRuntimes) {
  // A fresh 4-worker runtime per call starts and joins its pool each time;
  // device drains land in the flight recorder from the workers.
  auto cp = runtime::compile(intpipe().lime_source);
  ASSERT_TRUE(cp->ok());
  auto calls = [&cp](int n) {
    for (int i = 0; i < n; ++i) {
      runtime::RuntimeConfig rc;
      rc.placement = runtime::Placement::kFpgaOnly;
      rc.worker_threads = 4;
      runtime::LiquidRuntime rt(*cp, rc);
      rt.call(intpipe().entry, intpipe().make_args(64, 5));
    }
  };
  TraceRecorder& fr = TraceRecorder::flight();
  calls(50);
  const size_t rows = fr.thread_count();
  calls(150);
  // At most the threads alive at once (caller and workers) add rows.
  EXPECT_LE(fr.thread_count(), rows + 5);
}

TEST(RuntimeObservability, TracedRunEmitsDecisionAndTaskSpans) {
  auto cp = runtime::compile(intpipe().lime_source);
  ASSERT_TRUE(cp->ok());
  runtime::RuntimeConfig rc;
  rc.placement = runtime::Placement::kAuto;
  runtime::LiquidRuntime rt(*cp, rc);

  TraceRecorder rec;
  rec.install();
  rt.call(intpipe().entry, intpipe().make_args(256, 9));
  rec.uninstall();

  Json doc = parse_or_die(rec.chrome_trace_json());
  const auto& evs = doc.at("traceEvents").arr;
  size_t decisions = 0, task_spans = 0, graph_spans = 0, fifo_counters = 0;
  for (const auto& e : evs) {
    const std::string& cat = e.at("cat").str;
    if (cat == "decision") {
      ++decisions;
      EXPECT_TRUE(e.at("args").has("device"));
      EXPECT_TRUE(e.at("args").has("policy"));
    }
    if (cat == "task" && e.at("ph").str == "X") ++task_spans;
    if (cat == "runtime" && e.at("name").str == "graph.run") ++graph_spans;
    if (cat == "fifo" && e.at("ph").str == "C") ++fifo_counters;
  }
  // One decision per substituted region, spans for source/sink/device.
  EXPECT_EQ(decisions, rt.stats().substitutions.size());
  EXPECT_GE(decisions, 1u);
  EXPECT_GE(task_spans, 3u);
  EXPECT_EQ(graph_spans, 1u);
  EXPECT_GE(fifo_counters, 2u);
}

TEST(RuntimeObservability, AdaptiveDecisionCarriesCandidateScores) {
  workloads::register_native_kernels();
  auto cp = runtime::compile(intpipe().lime_source);
  ASSERT_TRUE(cp->ok());
  runtime::RuntimeConfig rc;
  rc.placement = runtime::Placement::kAdaptive;
  runtime::LiquidRuntime rt(*cp, rc);

  TraceRecorder rec;
  rec.install();
  rt.call(intpipe().entry, intpipe().make_args(512, 11));
  rec.uninstall();

  Json doc = parse_or_die(rec.chrome_trace_json());
  size_t with_candidates = 0;
  for (const auto& e : doc.at("traceEvents").arr) {
    if (e.at("cat").str != "decision") continue;
    const Json& cands = e.at("args").at("candidates");
    ASSERT_EQ(cands.kind, Json::Kind::kArray);
    EXPECT_GE(cands.arr.size(), 1u);
    for (const auto& c : cands.arr) {
      EXPECT_TRUE(c.has("device"));
      // Calibrated candidates carry their measured time; uncalibratable
      // ones are marked ineligible instead of pretending to be fast.
      EXPECT_TRUE(c.has("time_us") || c.has("eligible"));
      if (c.has("time_us")) {
        EXPECT_GE(c.at("time_us").num, 0.0);
      }
    }
    ++with_candidates;
  }
  EXPECT_GE(with_candidates, 1u);
  EXPECT_GT(rt.stats().candidates_profiled, 0u);
}

/// A tiny per-thread cap on a threaded device run must overflow, and the
/// overflow must surface through every reporting channel: the recorder, the
/// runtime metric, RuntimeStats, and the performance report.
TEST(RuntimeObservability, TraceDropsSurfaceInStatsAndReport) {
  auto cp = runtime::compile(intpipe().lime_source);
  ASSERT_TRUE(cp->ok());
  runtime::RuntimeConfig rc;
  rc.placement = runtime::Placement::kGpuOnly;
  rc.device_batch = 4;  // many drain events per thread
  runtime::LiquidRuntime rt(*cp, rc);

  TraceRecorder rec(/*max_events_per_thread=*/2);
  rec.install();
  rt.call(intpipe().entry, intpipe().make_args(1024, 13));
  // stats() folds the recorder's drop count into the runtime metric while
  // the recorder is still installed.
  const runtime::RuntimeStats& s = rt.stats();
  obs::PerfReport rep = rt.report();
  rec.uninstall();

  EXPECT_GT(rec.dropped_events(), 0u);
  EXPECT_EQ(s.trace_dropped_events, rec.dropped_events());
  EXPECT_EQ(rt.metrics().value("trace.dropped_events"), rec.dropped_events());
  EXPECT_EQ(rep.dropped_trace_events, rec.dropped_events());
}

TEST(RuntimeObservability, UntracedRunLeavesNoEventsBehind) {
  auto cp = runtime::compile(intpipe().lime_source);
  ASSERT_TRUE(cp->ok());
  runtime::LiquidRuntime rt(*cp);
  rt.call(intpipe().entry, intpipe().make_args(128, 1));  // tracing off

  TraceRecorder rec;
  rec.install();
  rec.uninstall();
  EXPECT_EQ(rec.event_count(), 0u);
}

}  // namespace
}  // namespace lm::obs
