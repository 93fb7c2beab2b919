// E13 — what watching a fleet costs (DESIGN.md §15).
//
// The fleet plane scrapes N endpoints per poll and merges the expositions
// into one snapshot. Two numbers decide whether that plane can run hot:
//   1. Fan-out latency: wall time of one full scrape cycle (N parallel
//      GET /metrics + /healthz, parse, ingest) vs endpoint count. The
//      scraper fans one thread per endpoint, so given cores the cycle
//      tracks the slowest endpoint, not the sum; core-starved hosts
//      degrade toward linear.
//   2. Aggregation overhead: of one endpoint's scrape, how much is spent
//      in parse_exposition + FleetView::ingest + snapshot (the CPU the
//      fleet layer adds) vs the HTTP round trip it would pay anyway.
//
// Everything runs over loopback in one process: the latencies are a lower
// bound on a real link, the aggregation share therefore an upper bound.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "net/scraper.h"
#include "net/telemetry_http.h"
#include "obs/fleet.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "util/output_path.h"

namespace {

using namespace lm;

/// One fake fleet member with a realistic series count: counters, the
/// per-task/per-FIFO gauge families and a native exec-latency histogram.
struct Member {
  obs::MetricsRegistry reg;
  obs::LatencyHistogram hist;
  obs::TelemetryHub hub;
  std::unique_ptr<net::TelemetryServer> server;

  Member() {
    for (int i = 0; i < 24; ++i) {
      reg.counter("bench.counter_" + std::to_string(i)).add(1000 + i);
    }
    reg.counter("net.heartbeat_misses");
    for (int i = 0; i < 1000; ++i) hist.record_ns(50000 + i * 997);
    hub.add_metrics(&reg);
    hub.add_collector([](std::vector<obs::GaugeSample>& out) {
      for (int t = 0; t < 16; ++t) {
        std::vector<std::pair<std::string, std::string>> labels = {
            {"task", "T.stage" + std::to_string(t)}, {"device", "gpu"}};
        out.emplace_back("task.batches", 100.0 + t, labels);
        out.emplace_back("task.in_flight", 0.0, labels);
      }
      out.emplace_back("executor.queue_depth", 3.0);
    });
    hub.add_histograms([this](std::vector<obs::HistogramSample>& out) {
      out.push_back(obs::HistogramSample::from("server.exec_us", hist));
    });
    hub.add_health([](std::vector<obs::HealthComponent>& out) {
      out.push_back({"bench", true, ""});
    });
    server = std::make_unique<net::TelemetryServer>(hub);
    server->start();
  }
};

struct Fleet {
  std::vector<std::unique_ptr<Member>> members;
  std::vector<std::string> endpoints;

  explicit Fleet(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      members.push_back(std::make_unique<Member>());
      endpoints.push_back(members.back()->server->endpoint());
    }
  }
};

void BM_ScrapeCycle(benchmark::State& state) {
  Fleet fleet(static_cast<size_t>(state.range(0)));
  net::TelemetryScraper scraper(fleet.endpoints);
  for (auto _ : state) {
    scraper.scrape_once();
  }
  obs::FleetSnapshot snap = scraper.snapshot();
  if (snap.up != fleet.endpoints.size()) {
    state.SkipWithError("fleet not fully up");
  }
}
BENCHMARK(BM_ScrapeCycle)->Arg(1)->Arg(4)->Arg(16);

void print_summary() {
  std::printf("\n=== E13: fleet scrape fan-out and aggregation ===\n");
  lm::bench::JsonReport json("fleet");
  lm::bench::Table table(
      {"endpoints", "cycle_us", "per_endpoint_us", "vs_n1"});

  // 1. Fan-out: one full scrape cycle vs endpoint count.
  double base = 0;
  for (size_t n : {1u, 2u, 4u, 8u, 16u}) {
    Fleet fleet(n);
    net::TelemetryScraper scraper(fleet.endpoints);
    scraper.scrape_once();  // warm-up: connects, pools, rate baselines
    double cycle = lm::bench::time_best([&] { scraper.scrape_once(); });
    if (n == 1) base = cycle;
    obs::FleetSnapshot snap = scraper.snapshot();
    if (snap.up != n) {
      std::fprintf(stderr, "fleet of %zu not fully up\n", n);
      std::abort();
    }
    table.row({std::to_string(n), lm::bench::fmt(cycle * 1e6),
               lm::bench::fmt(cycle * 1e6 / static_cast<double>(n)),
               lm::bench::fmt(cycle / base, "x")});
    json.add("scrape_cycle_n" + std::to_string(n),
             {{"endpoints", static_cast<double>(n)},
              {"cycle_us", cycle * 1e6},
              {"vs_n1", cycle / base}});
  }
  table.print();
  std::printf("fan-out is one thread per endpoint: with enough cores the "
              "cycle tracks the slowest endpoint; on few cores it degrades "
              "toward the serial sum plus thread-spawn overhead — vs_n1 "
              "against the endpoint count shows which regime this host is "
              "in.\n");

  // 2. Aggregation overhead: parse + ingest + snapshot as a share of the
  //    full single-endpoint scrape (which includes the HTTP round trips).
  Fleet one(1);
  net::TelemetryScraper scraper(one.endpoints);
  scraper.scrape_once();
  double full = lm::bench::time_best([&] { scraper.scrape_once(); });

  std::string body;
  std::string host = "127.0.0.1";
  uint16_t port = one.members[0]->server->port();
  net::http_get(host, port, "/metrics", &body);
  double aggregate = lm::bench::time_best([&] {
    obs::FleetView view;
    obs::FleetView::Reading r;
    r.endpoint = one.endpoints[0];
    r.ok = true;
    r.healthy = true;
    r.now_us = obs::FleetView::now_us();
    std::string err;
    if (!obs::parse_exposition(body, &r.scrape, &err)) std::abort();
    view.ingest(std::move(r));
    obs::FleetSnapshot snap = view.snapshot(obs::FleetView::now_us());
    benchmark::DoNotOptimize(&snap);
  });
  double pct = aggregate / full * 100;
  std::printf("single scrape %s us, of which parse+ingest+snapshot %s us "
              "(%.2f%%) — the rest is the HTTP round trips.\n",
              lm::bench::fmt(full * 1e6).c_str(),
              lm::bench::fmt(aggregate * 1e6).c_str(), pct);
  json.add("aggregation", {{"scrape_us", full * 1e6},
                           {"aggregate_us", aggregate * 1e6},
                           {"overhead_pct", pct},
                           {"body_bytes", static_cast<double>(body.size())}});

  const std::string json_file = util::resolve_output_path("BENCH_fleet.json");
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
