// E5 — the paper's headline claim (§2.2): "We achieved end-to-end speedups
// of 12×–431× for a number of benchmarks co-executing between CPU and GPU."
//
// For every workload in the suite this harness measures the identical Lime
// program end to end (including marshaling and boundary crossings) in three
// configurations:
//   cpu       — bytecode interpretation only (the universal artifact),
//   gpu-ir    — simulated GPU executing compiled kernel IR,
//   gpu-nat   — simulated GPU running the pre-compiled native kernel (the
//               stand-in for the vendor OpenCL toolflow's machine code).
//
// Shape target (see EXPERIMENTS.md): accelerated runs win by one to three
// orders of magnitude, with the largest factors on compute-dense kernels
// (nbody, mandelbrot, black-scholes) and the smallest on memory-bound ones
// (vadd, saxpy) — the same ordering logic as the paper's 12×–431× range.
//
// Besides the table, the run writes BENCH_gpu.json: one row per
// (workload, config) with the best and median call time.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <vector>

#include "bench/bench_util.h"
#include "runtime/liquid_runtime.h"
#include "util/output_path.h"
#include "workloads/workloads.h"

namespace {

using namespace lm;
using workloads::Workload;

size_t problem_size(const std::string& name) {
  if (name == "nbody") return 448;
  if (name == "matmul") return 4900;  // 70x70 cells
  if (name == "mandelbrot") return 12288;
  if (name == "blackscholes") return 16384;
  if (name == "conv1d") return 32768;
  return 1u << 18;  // saxpy, vadd, sumreduce
}

struct Config {
  const char* label;
  runtime::Placement placement;
  bool native;
};

const Config kConfigs[] = {
    {"cpu", runtime::Placement::kCpuOnly, false},
    {"gpu-ir", runtime::Placement::kAuto, false},
    {"gpu-nat", runtime::Placement::kAuto, true},
};

/// Per-iteration call times (s) of each "workload/config".
std::map<std::string, std::vector<double>>& timings() {
  static auto* t = new std::map<std::string, std::vector<double>>();
  return *t;
}

double best_of(const std::vector<double>& samples) {
  return *std::min_element(samples.begin(), samples.end());
}

double median_of(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[(samples.size() - 1) / 2];
}

void bench_one(benchmark::State& state, const Workload& w, const Config& cfg) {
  if (cfg.native) workloads::register_native_kernels();
  runtime::CompileOptions copts;
  copts.use_native_kernels = cfg.native;
  auto cp = runtime::compile(w.lime_source, copts);
  if (!cp->ok()) {
    state.SkipWithError(cp->diags.to_string().c_str());
    return;
  }
  size_t n = problem_size(w.name);
  auto args = w.make_args(n, 2012);
  runtime::RuntimeConfig rc;
  rc.placement = cfg.placement;

  std::vector<double>& samples = timings()[w.name + "/" + cfg.label];
  samples.clear();
  for (auto _ : state) {
    runtime::LiquidRuntime rt(*cp, rc);
    double t = lm::bench::time_once(
        [&] { benchmark::DoNotOptimize(rt.call(w.entry, args)); });
    state.SetIterationTime(t);
    samples.push_back(t);
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) *
                          static_cast<int64_t>(state.iterations()));
  state.counters["elems"] = static_cast<double>(n);
}

void register_benchmarks() {
  for (const Workload& w : workloads::gpu_suite()) {
    for (const Config& cfg : kConfigs) {
      std::string name = "E5/" + w.name + "/" + cfg.label;
      benchmark::RegisterBenchmark(name.c_str(),
                                   [&w, &cfg](benchmark::State& s) {
                                     bench_one(s, w, cfg);
                                   })
          ->UseManualTime()
          ->Unit(benchmark::kMillisecond);
    }
  }
}

void print_speedup_table() {
  std::printf(
      "\n=== E5: end-to-end GPU speedups over CPU bytecode "
      "(paper: 12x-431x across its suite) ===\n");
  lm::bench::Table table({"workload", "n", "cpu (ms)", "gpu-ir (ms)",
                          "gpu-nat (ms)", "speedup ir", "speedup nat"});
  double min_nat = 1e300, max_nat = 0;
  for (const Workload& w : workloads::gpu_suite()) {
    auto best = [&](const char* config) {
      auto it = timings().find(w.name + "/" + config);
      return it == timings().end() || it->second.empty() ? 0.0
                                                         : best_of(it->second);
    };
    double cpu = best("cpu"), ir = best("gpu-ir"), nat = best("gpu-nat");
    if (cpu == 0 || ir == 0 || nat == 0) continue;
    double s_ir = cpu / ir;
    double s_nat = cpu / nat;
    min_nat = std::min(min_nat, s_nat);
    max_nat = std::max(max_nat, s_nat);
    table.row({w.name, std::to_string(problem_size(w.name)),
               lm::bench::fmt(cpu * 1e3), lm::bench::fmt(ir * 1e3),
               lm::bench::fmt(nat * 1e3), lm::bench::fmt(s_ir, "x"),
               lm::bench::fmt(s_nat, "x")});
  }
  table.print();
  if (max_nat > 0) {
    std::printf("\nmeasured native-kernel speedup range: %.0fx - %.0fx\n",
                min_nat, max_nat);
  }
}

void write_json() {
  lm::bench::JsonReport json("gpu");
  for (const Workload& w : workloads::gpu_suite()) {
    for (const Config& cfg : kConfigs) {
      auto it = timings().find(w.name + "/" + cfg.label);
      if (it == timings().end() || it->second.empty()) continue;
      json.add(it->first,
               {{"n", static_cast<double>(problem_size(w.name))},
                {"best_ms", best_of(it->second) * 1e3},
                {"p50_ms", median_of(it->second) * 1e3},
                {"iterations", static_cast<double>(it->second.size())}});
    }
  }
  const std::string json_file = util::resolve_output_path("BENCH_gpu.json");
  if (json.write(json_file)) std::printf("json: %s\n", json_file.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  register_benchmarks();
  // The CPU-interpreter baselines run hundreds of ms per iteration; a low
  // default min-time keeps the whole suite regenerable in minutes while
  // still letting --benchmark_min_time override it.
  std::vector<char*> args(argv, argv + argc);
  std::string default_min = "--benchmark_min_time=0.05";
  bool has_min = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_min_time", 0) == 0) {
      has_min = true;
    }
  }
  if (!has_min) args.push_back(default_min.data());
  int argc2 = static_cast<int>(args.size());
  benchmark::Initialize(&argc2, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_speedup_table();
  write_json();
  return 0;
}
