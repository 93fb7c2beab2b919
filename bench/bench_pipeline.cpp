// E6 — pipeline parallelism (§2.2) and scheduler ablations:
//
//   * throughput vs pipeline depth (1–3 filters) on the threaded executor
//     vs the zero-thread seeded scheduler,
//   * FIFO capacity sweep (backpressure cost),
//   * fused-segment substitution vs per-filter substitution (the "prefers
//     a larger substitution" design choice of §4.2, ablated),
//   * E10: executor worker-pool scaling at 1/2/4/8 workers.
#include <benchmark/benchmark.h>

#include <chrono>
#include <fstream>

#include "bench/bench_util.h"
#include "obs/trace.h"
#include "runtime/liquid_runtime.h"
#include "util/output_path.h"
#include "workloads/workloads.h"

namespace {

using namespace lm;

std::string pipeline_source(int depth) {
  std::string filters;
  std::string chain;
  const char* bodies[] = {"return 3 * x;", "return x + 13;",
                          "return (x >> 1) ^ x;"};
  for (int i = 0; i < depth; ++i) {
    filters += "  local static int f" + std::to_string(i) + "(int x) { " +
               bodies[i % 3] + " }\n";
    chain += "      => ([ task f" + std::to_string(i) + " ])\n";
  }
  return "class Pipe {\n" + filters +
         "  static int[[]] run(int[[]] input) {\n"
         "    int[] result = new int[input.length];\n"
         "    var g = input.source(1)\n" +
         chain +
         "      => result.<int>sink();\n"
         "    g.finish();\n"
         "    return new int[[]](result);\n"
         "  }\n"
         "}\n";
}

std::vector<bc::Value> make_input(size_t n) {
  std::vector<int32_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<int32_t>(i * 7 - 1000);
  return {bc::Value::array(bc::make_i32_array(std::move(v), true))};
}

void BM_DepthAndScheduling(benchmark::State& state) {
  int depth = static_cast<int>(state.range(0));
  bool threads = state.range(1) != 0;
  size_t n = 1u << 15;
  auto cp = runtime::compile(pipeline_source(depth));
  auto args = make_input(n);
  runtime::RuntimeConfig rc;
  rc.placement = runtime::Placement::kCpuOnly;  // isolate scheduling effects
  rc.scheduler_seed = threads ? 0 : 1;
  for (auto _ : state) {
    runtime::LiquidRuntime rt(*cp, rc);
    benchmark::DoNotOptimize(rt.call("Pipe.run", args));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  state.SetLabel((threads ? "threads" : "seeded") + std::string("/depth=") +
                 std::to_string(depth));
}
// Real time: the work runs on workers, and the main thread's CPU time is a
// sliver of each call.
BENCHMARK(BM_DepthAndScheduling)
    ->Args({1, 0})->Args({1, 1})
    ->Args({2, 0})->Args({2, 1})
    ->Args({3, 0})->Args({3, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_FifoCapacity(benchmark::State& state) {
  size_t cap = static_cast<size_t>(state.range(0));
  size_t n = 1u << 15;
  auto cp = runtime::compile(pipeline_source(2));
  auto args = make_input(n);
  runtime::RuntimeConfig rc;
  rc.placement = runtime::Placement::kCpuOnly;
  rc.fifo_capacity = cap;
  for (auto _ : state) {
    runtime::LiquidRuntime rt(*cp, rc);
    benchmark::DoNotOptimize(rt.call("Pipe.run", args));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_FifoCapacity)->Arg(2)->Arg(16)->Arg(256)->Arg(4096)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_FusionAblation(benchmark::State& state) {
  bool fusion = state.range(0) != 0;
  size_t n = 1u << 15;
  workloads::register_native_kernels();
  auto cp = runtime::compile(pipeline_source(3));
  auto args = make_input(n);
  runtime::RuntimeConfig rc;
  rc.placement = runtime::Placement::kGpuOnly;
  rc.allow_fusion = fusion;
  for (auto _ : state) {
    runtime::LiquidRuntime rt(*cp, rc);
    benchmark::DoNotOptimize(rt.call("Pipe.run", args));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  state.SetLabel(fusion ? "fused-segment" : "per-filter");
}
BENCHMARK(BM_FusionAblation)->Arg(1)->Arg(0)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void print_summary() {
  std::printf("\n=== E6: pipeline scheduling summary (n = 32768) ===\n");
  lm::bench::Table table({"depth", "seeded (ms)", "threads (ms)",
                          "gpu fused (ms)", "gpu per-filter (ms)"});
  lm::bench::JsonReport json("pipeline");
  size_t n = 1u << 15;
  for (int depth : {1, 2, 3}) {
    auto cp = runtime::compile(pipeline_source(depth));
    auto args = make_input(n);
    auto run = [&](const char* label, runtime::Placement p, uint64_t seed,
                   bool fusion) {
      runtime::RuntimeConfig rc;
      rc.placement = p;
      rc.scheduler_seed = seed;
      rc.allow_fusion = fusion;
      lm::bench::SampleStats st = lm::bench::time_stats([&] {
        runtime::LiquidRuntime rt(*cp, rc);
        rt.call("Pipe.run", args);
      });
      json.add("depth=" + std::to_string(depth) + "/" + label,
               {{"wall_ms", st.best_s * 1e3},
                {"p50_ms", st.p50_s * 1e3},
                {"p99_ms", st.p99_s * 1e3},
                {"reps", static_cast<double>(st.reps)}});
      return st.best_s;
    };
    table.row(
        {std::to_string(depth),
         lm::bench::fmt(
             run("seeded", runtime::Placement::kCpuOnly, 1, true) * 1e3),
         lm::bench::fmt(
             run("threads", runtime::Placement::kCpuOnly, 0, true) * 1e3),
         lm::bench::fmt(
             run("gpu-fused", runtime::Placement::kGpuOnly, 0, true) * 1e3),
         lm::bench::fmt(run("gpu-per-filter", runtime::Placement::kGpuOnly, 0,
                            false) *
                        1e3)});
  }
  table.print();

  // Observability overhead ablation (depth=3, fused GPU, threaded): the
  // flight-recorder + cost-model record path is always on and included in
  // the baseline; the rows below add an installed trace recorder (with
  // attribution bookkeeping off, then on — the *in-run* cost of
  // `lmc --explain`; the analysis itself is deferred to the first
  // consumer and measured separately below) and the mid-run
  // re-substitution check on top.
  {
    auto cp = runtime::compile(pipeline_source(3));
    auto args = make_input(n);
    auto timed = [&](const char* label, bool trace, bool attribution,
                     bool resub) {
      runtime::RuntimeConfig rc;
      rc.placement = runtime::Placement::kGpuOnly;
      rc.attribution = attribution;
      if (resub) {
        rc.placement = runtime::Placement::kAdaptive;
        rc.enable_resubstitution = true;
      }
      // Fresh recorder per rep: the attribution pass walks the recorder's
      // event snapshot at graph finalization, so reusing one recorder
      // across reps would charge rep k for k runs' worth of events — an
      // artifact of the harness, not of `lmc --explain` (one run, one
      // recorder).
      lm::bench::SampleStats st = lm::bench::time_stats([&] {
        obs::TraceRecorder recorder;
        if (trace) recorder.install();
        {
          runtime::LiquidRuntime rt(*cp, rc);
          rt.call("Pipe.run", args);
        }
        if (trace) recorder.uninstall();
      });
      json.add(std::string("overhead/") + label,
               {{"wall_ms", st.best_s * 1e3},
                {"p50_ms", st.p50_s * 1e3},
                {"p99_ms", st.p99_s * 1e3},
                {"reps", static_cast<double>(st.reps)}});
      return st.best_s;
    };
    double base = timed("baseline", false, false, false);
    double traced = timed("trace-installed", true, false, false);
    double explained = timed("explain", true, true, false);
    double resub = timed("resub-enabled", false, false, true);
    json.add("overhead/explain-vs-trace",
             {{"overhead_pct", (explained / traced - 1.0) * 100.0}});
    std::printf("observability overhead (depth=3 gpu): baseline %.3f ms, "
                "+trace %.1f%%, +explain %.1f%% (%.1f%% over trace), "
                "+resub(adaptive) %.1f%%\n",
                base * 1e3, (traced / base - 1.0) * 100.0,
                (explained / base - 1.0) * 100.0,
                (explained / traced - 1.0) * 100.0,
                (resub / base - 1.0) * 100.0);

    // The deferred analysis pass itself — what the first consumer
    // (`--explain`, report(), a telemetry scrape) pays after the run.
    {
      runtime::RuntimeConfig rc;
      rc.placement = runtime::Placement::kGpuOnly;
      obs::TraceRecorder recorder;
      recorder.install();
      runtime::LiquidRuntime rt(*cp, rc);
      rt.call("Pipe.run", args);
      auto t0 = std::chrono::steady_clock::now();
      auto atts = rt.attributions();
      double pass_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
      recorder.uninstall();
      json.add("overhead/attribution-pass",
               {{"wall_ms", pass_ms},
                {"graphs", static_cast<double>(atts.size())}});
      std::printf("attribution pass (deferred, %zu graph(s)): %.3f ms\n",
                  atts.size(), pass_ms);
    }
  }

  // E10 — executor worker scaling: the same depth-3 pipeline over worker
  // pools of 1/2/4/8 threads (cpu-only so the measurement isolates the
  // event-driven executor, not device offload). A linear pipeline has at
  // most `depth+2` runnable tasks, so throughput should saturate once the
  // pool covers the pipeline width; more workers must not cost anything.
  {
    auto cp = runtime::compile(pipeline_source(3));
    auto args = make_input(n);
    std::printf("\n=== E10: executor worker scaling (depth=3, n = %zu) ===\n",
                n);
    lm::bench::Table wt({"workers", "wall (ms)", "p50 (ms)", "p99 (ms)"});
    for (size_t w : {1, 2, 4, 8}) {
      runtime::RuntimeConfig rc;
      rc.placement = runtime::Placement::kCpuOnly;
      rc.worker_threads = w;
      lm::bench::SampleStats st = lm::bench::time_stats([&] {
        runtime::LiquidRuntime rt(*cp, rc);
        rt.call("Pipe.run", args);
      });
      json.add("workers=" + std::to_string(w),
               {{"wall_ms", st.best_s * 1e3},
                {"p50_ms", st.p50_s * 1e3},
                {"p99_ms", st.p99_s * 1e3},
                {"reps", static_cast<double>(st.reps)}});
      wt.row({std::to_string(w), lm::bench::fmt(st.best_s * 1e3),
              lm::bench::fmt(st.p50_s * 1e3), lm::bench::fmt(st.p99_s * 1e3)});
    }
    wt.print();
  }

  const std::string json_file = util::resolve_output_path("BENCH_pipeline.json");
  if (json.write(json_file.c_str())) {
    std::printf("json: %s\n", json_file.c_str());
  }
  std::printf("fusion halves (or better) device batches by keeping the "
              "whole relocated region in one artifact (§4.2: prefer the "
              "larger substitution).\n");

  // One traced depth-3 threaded run, so the scheduling behavior measured
  // above can be inspected span by span (chrome://tracing / Perfetto).
  auto cp = runtime::compile(pipeline_source(3));
  auto args = make_input(n);
  runtime::RuntimeConfig rc;
  rc.placement = runtime::Placement::kCpuOnly;
  obs::TraceRecorder recorder;
  recorder.install();
  runtime::LiquidRuntime rt(*cp, rc);
  rt.call("Pipe.run", args);
  recorder.uninstall();
  const std::string trace_file =
      util::resolve_output_path("bench_pipeline_trace.json");
  std::ofstream(trace_file) << recorder.chrome_trace_json();
  std::printf("trace: %zu event(s) -> %s\n", recorder.event_count(),
              trace_file.c_str());
  std::printf("metrics: %s\n", rt.metrics().summary().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_summary();
  return 0;
}
