// E2 — task substitution (§4.2): the same task graph under every placement
// policy. Measures the end-to-end effect of each functionally-equivalent
// configuration ("the runtime can choose from a large number of
// functionally-equivalent configurations") and the cost of the substitution
// decision itself.
//
// Shape targets: GPU (fused) fastest at large n, CPU bytecode slowest,
// FPGA in between but dominated by RTL simulation cost per element (a real
// board would change the constant, not the structure); substitution
// decision time is microseconds — negligible against execution.
#include <benchmark/benchmark.h>

#include <fstream>
#include <string>

#include "bench/bench_util.h"
#include "obs/trace.h"
#include "runtime/liquid_runtime.h"
#include "util/output_path.h"
#include "workloads/workloads.h"

namespace {

using namespace lm;

const workloads::Workload& intpipe() {
  return workloads::pipeline_suite()[0];
}

void BM_Placement(benchmark::State& state) {
  auto placement = static_cast<runtime::Placement>(state.range(0));
  size_t n = static_cast<size_t>(state.range(1));
  workloads::register_native_kernels();
  auto cp = runtime::compile(intpipe().lime_source);
  auto args = intpipe().make_args(n, 1);
  runtime::RuntimeConfig rc;
  rc.placement = placement;
  for (auto _ : state) {
    runtime::LiquidRuntime rt(*cp, rc);
    benchmark::DoNotOptimize(rt.call(intpipe().entry, args));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  switch (placement) {
    case runtime::Placement::kCpuOnly: state.SetLabel("cpu-only"); break;
    case runtime::Placement::kGpuOnly: state.SetLabel("gpu-only"); break;
    case runtime::Placement::kFpgaOnly: state.SetLabel("fpga-only"); break;
    case runtime::Placement::kAuto: state.SetLabel("auto"); break;
    case runtime::Placement::kAdaptive: state.SetLabel("adaptive"); break;
  }
}
BENCHMARK(BM_Placement)
    ->Args({static_cast<long>(runtime::Placement::kCpuOnly), 16384})
    ->Args({static_cast<long>(runtime::Placement::kGpuOnly), 16384})
    ->Args({static_cast<long>(runtime::Placement::kFpgaOnly), 16384})
    ->Args({static_cast<long>(runtime::Placement::kAuto), 16384})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The substitution decision itself: construct + substitute + execute a
/// minimal graph; the delta against the 1-element execution bounds the
/// decision cost.
void BM_DecisionOverhead(benchmark::State& state) {
  auto cp = runtime::compile(intpipe().lime_source);
  auto args = intpipe().make_args(1, 1);
  runtime::RuntimeConfig rc;
  rc.scheduler_seed = 1;  // isolate decision cost from thread spawn
  for (auto _ : state) {
    runtime::LiquidRuntime rt(*cp, rc);
    benchmark::DoNotOptimize(rt.call(intpipe().entry, args));
  }
}
BENCHMARK(BM_DecisionOverhead);

/// Worker-pool start and dispatch overhead on a trivial graph.
void BM_ThreadScheduleOverhead(benchmark::State& state) {
  auto cp = runtime::compile(intpipe().lime_source);
  auto args = intpipe().make_args(1, 1);
  runtime::RuntimeConfig rc;
  for (auto _ : state) {
    runtime::LiquidRuntime rt(*cp, rc);
    benchmark::DoNotOptimize(rt.call(intpipe().entry, args));
  }
}
BENCHMARK(BM_ThreadScheduleOverhead)->UseRealTime();

void print_summary() {
  workloads::register_native_kernels();
  std::printf("\n=== E2: functionally-equivalent configurations of "
              "IntPipe (scale => clamp => offset), n = 16384 ===\n");
  lm::bench::Table table(
      {"placement", "substitution", "time (ms)", "vs cpu"});
  lm::bench::JsonReport json("substitution");
  auto cp = runtime::compile(intpipe().lime_source);
  auto args = intpipe().make_args(16384, 1);
  double cpu_time = 0;
  for (auto [placement, label] :
       {std::pair{runtime::Placement::kCpuOnly, "cpu-only"},
        std::pair{runtime::Placement::kFpgaOnly, "fpga-only"},
        std::pair{runtime::Placement::kGpuOnly, "gpu-only"},
        std::pair{runtime::Placement::kAuto, "auto"},
        std::pair{runtime::Placement::kAdaptive, "adaptive"}}) {
    runtime::RuntimeConfig rc;
    rc.placement = placement;
    std::string subs;
    lm::bench::SampleStats st = lm::bench::time_stats([&] {
      runtime::LiquidRuntime rt(*cp, rc);
      rt.call(intpipe().entry, args);
      subs.clear();
      for (const auto& s : rt.stats().substitutions) {
        if (!subs.empty()) subs += ", ";
        subs += s.task_ids;
        subs += "->";
        subs += runtime::to_string(s.device);
        if (s.fused) subs += "(fused)";
      }
    });
    double t = st.best_s;
    if (placement == runtime::Placement::kCpuOnly) cpu_time = t;
    json.add(label, {{"wall_ms", st.best_s * 1e3},
                     {"p50_ms", st.p50_s * 1e3},
                     {"p99_ms", st.p99_s * 1e3},
                     {"reps", static_cast<double>(st.reps)}});
    table.row({label, subs, lm::bench::fmt(t * 1e3),
               lm::bench::fmt(cpu_time / t, "x")});
  }
  table.print();
  const std::string json_file =
      util::resolve_output_path("BENCH_substitution.json");
  if (json.write(json_file)) {
    std::printf("json: %s\n", json_file.c_str());
  }

  // One traced adaptive run: the trace's "decision" events carry every
  // candidate artifact and its profiled score — the full E2 story in one
  // file (open in chrome://tracing / Perfetto).
  runtime::RuntimeConfig rc;
  rc.placement = runtime::Placement::kAdaptive;
  obs::TraceRecorder recorder;
  recorder.install();
  runtime::LiquidRuntime rt(*cp, rc);
  rt.call(intpipe().entry, args);
  recorder.uninstall();
  const std::string trace_file =
      util::resolve_output_path("bench_substitution_trace.json");
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
