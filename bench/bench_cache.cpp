// E12 — persistent artifact cache (DESIGN.md §14): cold vs warm compiles.
//
// A cold compile with --cache=rw pays the full Fig. 2 toolchain plus the
// store writes; a warm compile replays the frontend (the canonicalizer
// that produces the content keys) and then serves every backend artifact
// from disk. The summary reports both the end-to-end speedup and the
// compile-phase speedup (frontend subtracted from both sides) — the
// latter is the acceptance metric: everything the cache can skip, it
// must skip.
//
// Writes BENCH_cache.json next to the other BENCH_*.json trend files.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "bench/bench_util.h"
#include "cache/artifact_cache.h"
#include "lime/frontend.h"
#include "runtime/liquid_compiler.h"
#include "util/output_path.h"
#include "workloads/workloads.h"

namespace {

using namespace lm;
namespace fs = std::filesystem;

struct Program {
  const char* label;
  std::string source;
};

/// A synthesis-heavy pipeline: `stages` filters, each with an
/// `unroll`-iteration loop the FPGA backend fully unrolls into a deep
/// combinational datapath. Device compilation dominates this program's
/// toolchain time, so it is where a warm cache has the most to skip.
std::string deep_unrolled_source(int stages, int unroll) {
  std::string src = "class Deep {\n";
  for (int i = 0; i < stages; ++i) {
    std::string si = std::to_string(i);
    src += "  local static int f" + si +
           "(int x) {\n"
           "    int acc = x;\n"
           "    for (int i = 0; i < " +
           std::to_string(unroll) +
           "; i += 1) {\n"
           "      acc = acc * 3 + i + " +
           si +
           ";\n"
           "    }\n"
           "    return acc & 16383;\n"
           "  }\n";
  }
  src += "  static void run(int[[]] in, int[] out) {\n    var g = in.source(1)";
  for (int i = 0; i < stages; ++i) {
    src += " => ([ task f" + std::to_string(i) + " ])";
  }
  src += " => out.<int>sink();\n    g.finish();\n  }\n}\n";
  return src;
}

std::vector<Program> programs() {
  return {
      {"intpipe", workloads::pipeline_suite()[0].lime_source},
      {"blackscholes", workloads::gpu_suite()[3].lime_source},
      {"deep-unrolled", deep_unrolled_source(48, 128)},
  };
}

fs::path bench_dir(const std::string& label) {
  return fs::temp_directory_path() /
         ("lm-bench-cache-" + label + "-" + std::to_string(::getpid()));
}

runtime::CompileOptions rw_options(const fs::path& dir) {
  runtime::CompileOptions o;
  o.cache.mode = cache::CacheMode::kReadWrite;
  o.cache.dir = dir.string();
  return o;
}

void BM_WarmCompile(benchmark::State& state) {
  Program p = programs()[static_cast<size_t>(state.range(0))];
  fs::path dir = bench_dir(std::string("bm-") + p.label);
  fs::remove_all(dir);
  { auto prime = runtime::compile(p.source, rw_options(dir)); }  // populate
  for (auto _ : state) {
    auto cp = runtime::compile(p.source, rw_options(dir));
    benchmark::DoNotOptimize(cp.get());
  }
  fs::remove_all(dir);
  state.SetLabel(p.label);
}
BENCHMARK(BM_WarmCompile)->Arg(0)->Arg(1)->Arg(2);

void print_summary() {
  std::printf("\n=== E12: artifact cache, cold vs warm compile ===\n");
  lm::bench::Table table({"program", "off (ms)", "cold rw (ms)",
                          "warm rw (ms)", "e2e speedup",
                          "compile-phase speedup"});
  lm::bench::JsonReport json("cache");
  for (const Program& p : programs()) {
    fs::path dir = bench_dir(p.label);

    // Frontend alone: shared by every variant; subtracting it isolates
    // the backend (device-compiler) phase the cache is allowed to skip.
    double frontend_s = lm::bench::time_stats([&] {
      auto fr = lime::compile_source(p.source);
      benchmark::DoNotOptimize(fr.program.get());
    }).best_s;

    double off_s = lm::bench::time_stats([&] {
      auto cp = runtime::compile(p.source);
      benchmark::DoNotOptimize(cp.get());
    }).best_s;

    // Cold: every rep starts from an empty directory (the remove_all is
    // measured too, but is noise next to the device compilers).
    double cold_s = lm::bench::time_stats([&] {
      fs::remove_all(dir);
      auto cp = runtime::compile(p.source, rw_options(dir));
      benchmark::DoNotOptimize(cp.get());
    }).best_s;

    double warm_s = lm::bench::time_stats([&] {
      auto cp = runtime::compile(p.source, rw_options(dir));
      benchmark::DoNotOptimize(cp.get());
    }).best_s;
    fs::remove_all(dir);

    double e2e = warm_s > 0 ? off_s / warm_s : 0;
    double off_phase = off_s - frontend_s;
    double warm_phase = warm_s - frontend_s;
    double phase = warm_phase > 1e-9 ? off_phase / warm_phase : 0;
    table.row({p.label, lm::bench::fmt(off_s * 1e3),
               lm::bench::fmt(cold_s * 1e3), lm::bench::fmt(warm_s * 1e3),
               lm::bench::fmt(e2e), lm::bench::fmt(phase)});
    json.add(p.label, {{"frontend_ms", frontend_s * 1e3},
                       {"off_ms", off_s * 1e3},
                       {"cold_ms", cold_s * 1e3},
                       {"warm_ms", warm_s * 1e3},
                       {"e2e_speedup", e2e},
                       {"compile_phase_speedup", phase}});
  }
  table.print();

  const std::string json_file =
      util::resolve_output_path("BENCH_cache.json");
  if (json.write(json_file.c_str())) {
    std::printf("json: %s\n", json_file.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_summary();
  return 0;
}
