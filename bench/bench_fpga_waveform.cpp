// E4 — Figure 4: the taskFlip task graph co-executing with the RTL
// simulator. Regenerates the waveform experiment as numbers:
//
//   * read/compute/publish latency (paper: 3 cycles, "the module I/O is
//     not fully pipelined"),
//   * initiation interval of the Fig. 4 FSM (3) vs the pipelined
//     microarchitecture (1) — the ablation of the paper's observation,
//   * RTL simulation throughput (bits/second through the simulated module).
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "fpga/device.h"
#include "fpga/synth.h"
#include "gpu/kernel_compiler.h"
#include "lime/frontend.h"
#include "util/rng.h"

namespace {

using namespace lm;

const char* kSource = R"(
public value enum bit {
  zero, one;
  public bit ~ this { return this == zero ? one : zero; }
}
class Bitflip {
  local static bit flip(bit b) { return ~b; }
}
)";

fpga::FpgaCompileResult make_artifact(bool pipelined) {
  static lime::FrontendResult fr = lime::compile_source(kSource);
  auto kernel = gpu::compile_kernel(
      *fr.program->find_class("Bitflip")->find_method("flip"));
  return fpga::synthesize(*kernel.program, {pipelined});
}

serde::CValue make_bits(size_t n) {
  SplitMix64 rng(4);
  serde::CValue in = serde::CValue::make(bc::ElemCode::kBit, true, n);
  for (size_t i = 0; i < n; ++i) in.bytes()[i] = rng.next_bool();
  return in;
}

void BM_StreamThroughModule(benchmark::State& state) {
  bool pipelined = state.range(0) != 0;
  size_t n = static_cast<size_t>(state.range(1));
  fpga::FpgaFilter filter(make_artifact(pipelined));
  serde::CValue in = make_bits(n);
  fpga::FpgaRunStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.process(in, &stats));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  state.counters["latency_cycles"] =
      static_cast<double>(stats.first_output_latency);
  state.counters["cycles_per_bit"] =
      static_cast<double>(stats.cycles) / static_cast<double>(n);
  state.SetLabel(pipelined ? "pipelined(II=1)" : "fig4-fsm(II=3)");
}
BENCHMARK(BM_StreamThroughModule)
    ->Args({0, 9})        // the literal Fig. 4 run: 9 bits, FSM
    ->Args({0, 1024})
    ->Args({0, 8192})
    ->Args({1, 9})
    ->Args({1, 1024})
    ->Args({1, 8192});

void BM_VcdCaptureOverhead(benchmark::State& state) {
  size_t n = 1024;
  serde::CValue in = make_bits(n);
  for (auto _ : state) {
    fpga::FpgaFilter filter(make_artifact(false));
    filter.enable_waveform();
    benchmark::DoNotOptimize(filter.process(in));
    benchmark::DoNotOptimize(filter.waveform().size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_VcdCaptureOverhead);

void print_fig4_summary() {
  std::printf("\n=== E4: Fig. 4 timing summary ===\n");
  lm::bench::Table table({"microarchitecture", "latency (cycles)",
                          "initiation interval", "cycles for 9 bits"});
  for (bool pipelined : {false, true}) {
    fpga::FpgaFilter filter(make_artifact(pipelined));
    serde::CValue in = make_bits(9);
    fpga::FpgaRunStats stats;
    filter.process(in, &stats);
    table.row({pipelined ? "3-stage pipeline" : "Fig. 4 FSM (read/compute/publish)",
               std::to_string(stats.first_output_latency),
               std::to_string(filter.ports().initiation_interval),
               std::to_string(stats.cycles)});
  }
  table.print();
  std::printf(
      "paper: \"one cycle to read, one cycle to compute, and one cycle to "
      "publish the result\" — latency 3, not fully pipelined.\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_fig4_summary();
  return 0;
}
