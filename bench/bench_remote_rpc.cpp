// E8 — the remote transport, measured (DESIGN.md §9): what a batch costs
// when the device lives in another process on the other end of a socket.
//
// Three questions the cost model (and anyone typing `lmc --remote=`) cares
// about:
//   1. The RTT floor: a minimal request/reply over loopback — the fixed
//      per-batch tax remote substitution must amortize.
//   2. Throughput vs payload: where the wire stops being latency-bound and
//      the bytes start to dominate (sets the device_batch sweet spot).
//   3. Pipelining: how much of the per-request tax keeping 16 exchanges
//      in flight on the poll loop's one connection buys back vs lock-step
//      request/reply.
//
// Serving and dialing happen in one process over 127.0.0.1, so numbers are
// an upper bound on what a real network link delivers.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "runtime/liquid_compiler.h"
#include "serde/batch.h"
#include "util/output_path.h"

namespace {

using namespace lm;

const char* kSource = R"(
  class B {
    local static int scale(int x) { return 3 * x; }
    static int[[]] run(int[[]] input) {
      int[] result = new int[input.length];
      var g = input.source(1) => ([ task scale ]) => result.<int>sink();
      g.finish();
      return new int[[]](result);
    }
  }
)";

/// One server + one session, shared by every benchmark in the binary.
struct Loopback {
  std::unique_ptr<runtime::CompiledProgram> program;
  std::unique_ptr<net::DeviceServer> server;
  std::shared_ptr<net::RemoteSession> session;

  Loopback() {
    program = runtime::compile(kSource);
    if (!program->ok()) {
      std::fprintf(stderr, "%s", program->diags.to_string().c_str());
      std::abort();
    }
    server = std::make_unique<net::DeviceServer>(*program);
    server->start();
    session = std::make_shared<net::RemoteSession>(
        "127.0.0.1", server->port(),
        net::program_fingerprint(program->store), net::SessionOptions{});
  }

  static Loopback& instance() {
    static Loopback lb;
    return lb;
  }
};

std::vector<uint8_t> packed_ints(size_t n) {
  std::vector<bc::Value> elems;
  elems.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    elems.push_back(bc::Value::i32(static_cast<int32_t>(i)));
  }
  return serde::pack_batch(elems, lime::Type::int_());
}

/// Issues every batch before taking any reply, so all of them are in
/// flight at once on the session's poll loop, then takes them in order.
std::vector<std::vector<uint8_t>> process_in_flight(
    net::RemoteSession& session,
    const std::vector<std::vector<uint8_t>>& batches) {
  std::vector<std::shared_ptr<net::PendingRpc>> rpcs;
  rpcs.reserve(batches.size());
  net::wait_for_completion([&](std::function<void()> all_done) {
    auto left = std::make_shared<std::atomic<size_t>>(batches.size());
    for (const auto& b : batches) {
      rpcs.push_back(session.process_async(
          "B.scale", runtime::DeviceKind::kGpu, b, [left, all_done] {
            if (left->fetch_sub(1, std::memory_order_acq_rel) == 1) {
              all_done();
            }
          }));
    }
  });
  std::vector<std::vector<uint8_t>> replies;
  replies.reserve(rpcs.size());
  for (auto& rpc : rpcs) replies.push_back(session.take(*rpc));
  return replies;
}

void BM_RemoteRtt(benchmark::State& state) {
  auto& lb = Loopback::instance();
  auto batch = packed_ints(1);
  for (auto _ : state) {
    auto reply =
        lb.session->process("B.scale", runtime::DeviceKind::kGpu, batch);
    benchmark::DoNotOptimize(reply.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RemoteRtt);

void BM_RemoteThroughput(benchmark::State& state) {
  auto& lb = Loopback::instance();
  size_t n = static_cast<size_t>(state.range(0));
  auto batch = packed_ints(n);
  for (auto _ : state) {
    auto reply =
        lb.session->process("B.scale", runtime::DeviceKind::kGpu, batch);
    benchmark::DoNotOptimize(reply.data());
  }
  // Payload crosses twice (request + reply).
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch.size()) * 2);
}
BENCHMARK(BM_RemoteThroughput)->RangeMultiplier(8)->Range(1 << 8, 1 << 20);

void BM_RemoteLockstep(benchmark::State& state) {
  auto& lb = Loopback::instance();
  const size_t batches = 16;
  auto batch = packed_ints(4096);
  for (auto _ : state) {
    for (size_t i = 0; i < batches; ++i) {
      auto reply =
          lb.session->process("B.scale", runtime::DeviceKind::kGpu, batch);
      benchmark::DoNotOptimize(reply.data());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * batches);
}
BENCHMARK(BM_RemoteLockstep);

void BM_RemotePipelined(benchmark::State& state) {
  auto& lb = Loopback::instance();
  std::vector<std::vector<uint8_t>> batches(16, packed_ints(4096));
  for (auto _ : state) {
    auto replies = process_in_flight(*lb.session, batches);
    benchmark::DoNotOptimize(replies.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batches.size()));
}
BENCHMARK(BM_RemotePipelined);

void print_summary() {
  std::printf("\n=== E8: remote RPC over loopback ===\n");
  auto& lb = Loopback::instance();
  lm::bench::JsonReport json("remote_rpc");

  // 1. RTT floor.
  auto one = packed_ints(1);
  double rtt = lm::bench::time_best([&] {
    auto r = lb.session->process("B.scale", runtime::DeviceKind::kGpu, one);
    benchmark::DoNotOptimize(r.data());
  });
  json.add("rtt_floor", {{"rtt_us", rtt * 1e6}});

  // 2. Throughput vs payload size.
  lm::bench::Table table(
      {"elements", "payload", "round trip (us)", "MB/s", "us/elem"});
  table.row({"1", "9 B", lm::bench::fmt(rtt * 1e6), "-", "-"});
  for (size_t n : {size_t{1} << 10, size_t{1} << 14, size_t{1} << 18}) {
    auto batch = packed_ints(n);
    double t = lm::bench::time_best([&] {
      auto r =
          lb.session->process("B.scale", runtime::DeviceKind::kGpu, batch);
      benchmark::DoNotOptimize(r.data());
    });
    double mbs = 2.0 * static_cast<double>(batch.size()) / t / 1e6;
    table.row({std::to_string(n),
               std::to_string(batch.size() / 1024) + " KiB",
               lm::bench::fmt(t * 1e6), lm::bench::fmt(mbs),
               lm::bench::fmt(t * 1e6 / static_cast<double>(n))});
    json.add("throughput_n" + std::to_string(n),
             {{"elements", static_cast<double>(n)},
              {"payload_bytes", static_cast<double>(batch.size())},
              {"round_trip_us", t * 1e6},
              {"mb_per_s", mbs},
              {"us_per_elem", t * 1e6 / static_cast<double>(n)}});
  }
  table.print();

  // 3. Pipelined vs lock-step, 16 x 4096-element batches.
  std::vector<std::vector<uint8_t>> batches(16, packed_ints(4096));
  double lockstep = lm::bench::time_best([&] {
    for (const auto& b : batches) {
      auto r = lb.session->process("B.scale", runtime::DeviceKind::kGpu, b);
      benchmark::DoNotOptimize(r.data());
    }
  });
  double pipelined = lm::bench::time_best([&] {
    auto r = process_in_flight(*lb.session, batches);
    benchmark::DoNotOptimize(r.data());
  });
  std::printf("16 x 4096-elem batches: lock-step %s us, 16 in flight %s us "
              "(%.2fx) — the per-request tax overlapping buys back.\n",
              lm::bench::fmt(lockstep * 1e6).c_str(),
              lm::bench::fmt(pipelined * 1e6).c_str(), lockstep / pipelined);
  json.add("pipelining",
           {{"lockstep_us", lockstep * 1e6},
            {"pipelined_us", pipelined * 1e6},
            {"speedup", lockstep / pipelined}});

  const std::string json_file = util::resolve_output_path("BENCH_remote.json");
  if (json.write(json_file)) {
    std::printf("wrote %s\n", json_file.c_str());
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
