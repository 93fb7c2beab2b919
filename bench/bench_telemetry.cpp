// E9 — what observing the runtime costs (DESIGN.md §"Telemetry plane").
//
// The telemetry plane is only admissible if watching a run does not
// meaningfully change it. Three numbers pin that down:
//   1. Scrape latency: one `GET /metrics` end to end over loopback —
//      render + HTTP round trip — at a realistic series count. Sets the
//      ceiling on scrape frequency (lmtop polls at 1 Hz, check.sh at
//      10 Hz; both must be far below saturating one core).
//   2. Tracing overhead: the per-span cost with a recorder installed vs
//      the disarmed fast path (one relaxed load), the tax `--trace` adds
//      to every instrumented batch.
//   3. Scrape-under-load: wall time of a local pipeline run with a 100 Hz
//      scraper hammering the exporter vs the same run unobserved — the
//      number the EXPERIMENTS.md row reports.
//
// Serving and dialing happen in one process over 127.0.0.1, so the scrape
// numbers are an upper bound on what a real link delivers.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "net/telemetry_http.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "runtime/liquid_compiler.h"
#include "runtime/liquid_runtime.h"
#include "util/output_path.h"
#include "workloads/workloads.h"

namespace {

using namespace lm;

const workloads::Workload& pipeline_by_name(const std::string& name) {
  for (const auto& w : workloads::pipeline_suite()) {
    if (w.name == name) return w;
  }
  std::fprintf(stderr, "no pipeline workload named %s\n", name.c_str());
  std::abort();
}

/// A hub dressed to look like a busy runtime: a counter registry plus a
/// collector emitting the per-task / per-FIFO gauge families at the scale
/// of a real pipeline (16 tasks x 4 series + 8 queues x 2 series).
struct Fixture {
  obs::MetricsRegistry reg;
  obs::TelemetryHub hub;
  std::unique_ptr<net::TelemetryServer> server;

  Fixture() {
    for (int i = 0; i < 24; ++i) {
      reg.counter("bench.counter_" + std::to_string(i)).add(1000 + i);
    }
    hub.add_metrics(&reg);
    hub.add_collector([](std::vector<obs::GaugeSample>& out) {
      for (int t = 0; t < 16; ++t) {
        std::vector<std::pair<std::string, std::string>> labels = {
            {"task", "T.stage" + std::to_string(t)}, {"device", "gpu"}};
        out.emplace_back("task.batches", 100.0 + t, labels);
        out.emplace_back("task.elements", 1e5 + t, labels);
        out.emplace_back("task.in_flight", 0.0, labels);
        out.emplace_back("task.ewma_us_per_elem", 0.25, labels);
      }
      for (int q = 0; q < 8; ++q) {
        std::vector<std::pair<std::string, std::string>> labels = {
            {"graph", "0"}, {"queue", std::to_string(q)}};
        out.emplace_back("fifo.depth", 3.0, labels);
        out.emplace_back("fifo.capacity", 64.0, labels);
      }
    });
    hub.add_health([](std::vector<obs::HealthComponent>& out) {
      out.push_back({"bench", true, ""});
    });
    server = std::make_unique<net::TelemetryServer>(hub);
    server->start();
  }

  static Fixture& instance() {
    static Fixture f;
    return f;
  }
};

void BM_PrometheusRender(benchmark::State& state) {
  auto& f = Fixture::instance();
  for (auto _ : state) {
    std::string text = f.hub.prometheus_text();
    benchmark::DoNotOptimize(text.data());
  }
}
BENCHMARK(BM_PrometheusRender);

void BM_ScrapeMetrics(benchmark::State& state) {
  auto& f = Fixture::instance();
  std::string body;
  for (auto _ : state) {
    int status = net::http_get("127.0.0.1", f.server->port(), "/metrics",
                               &body);
    if (status != 200) state.SkipWithError("scrape failed");
    benchmark::DoNotOptimize(body.data());
  }
}
BENCHMARK(BM_ScrapeMetrics);

void BM_TraceSpanDisarmed(benchmark::State& state) {
  // No recorder installed: the span is one relaxed load + two null checks.
  for (auto _ : state) {
    obs::TraceSpan span("bench", "noop");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_TraceSpanDisarmed);

void BM_TraceSpanArmed(benchmark::State& state) {
  obs::TraceRecorder rec;
  rec.install();
  for (auto _ : state) {
    obs::TraceSpan span("bench", "noop");
    benchmark::DoNotOptimize(&span);
  }
  rec.uninstall();
}
BENCHMARK(BM_TraceSpanArmed);

void print_summary() {
  std::printf("\n=== E9: telemetry plane overhead ===\n");
  auto& f = Fixture::instance();
  lm::bench::JsonReport json("telemetry");

  // 1. Scrape latency (render alone, then the full HTTP round trip).
  double render = lm::bench::time_best([&] {
    std::string text = f.hub.prometheus_text();
    benchmark::DoNotOptimize(text.data());
  });
  std::string body;
  double scrape = lm::bench::time_best([&] {
    net::http_get("127.0.0.1", f.server->port(), "/metrics", &body);
    benchmark::DoNotOptimize(body.data());
  });
  size_t series = 0;
  for (size_t pos = 0; (pos = body.find('\n', pos)) != std::string::npos;
       ++pos) {
    ++series;
  }
  std::printf("render %s us, scrape %s us (%zu bytes, %zu lines) — "
              "10 Hz scraping costs %.3f%% of one core.\n",
              lm::bench::fmt(render * 1e6).c_str(),
              lm::bench::fmt(scrape * 1e6).c_str(), body.size(), series,
              scrape * 10 * 100);
  json.add("scrape", {{"render_us", render * 1e6},
                      {"scrape_us", scrape * 1e6},
                      {"body_bytes", static_cast<double>(body.size())},
                      {"core_pct_at_10hz", scrape * 10 * 100}});

  // 2. Per-span tracing tax: disarmed fast path vs recorder installed.
  const int spans = 1 << 16;
  double disarmed = lm::bench::time_best([&] {
    for (int i = 0; i < spans; ++i) {
      obs::TraceSpan span("bench", "noop");
      benchmark::DoNotOptimize(&span);
    }
  });
  obs::TraceRecorder rec;
  rec.install();
  double armed = lm::bench::time_best([&] {
    for (int i = 0; i < spans; ++i) {
      obs::TraceSpan span("bench", "noop");
      benchmark::DoNotOptimize(&span);
    }
  });
  rec.uninstall();
  std::printf("trace span: disarmed %s ns, armed %s ns.\n",
              lm::bench::fmt(disarmed / spans * 1e9).c_str(),
              lm::bench::fmt(armed / spans * 1e9).c_str());
  json.add("trace_span", {{"disarmed_ns", disarmed / spans * 1e9},
                          {"armed_ns", armed / spans * 1e9}});

  // 3. Scrape-under-load: one intpipe run unobserved vs the same run with
  //    a 100 Hz scraper on the live runtime's exporter. 100 Hz is 10x the
  //    check.sh soak rate, so the reported overhead is conservative.
  const workloads::Workload& w = pipeline_by_name("intpipe");
  auto prog = runtime::compile(w.lime_source);
  if (!prog->ok()) {
    std::fprintf(stderr, "%s", prog->diags.to_string().c_str());
    std::abort();
  }
  const size_t n = 1 << 15;
  auto run_once = [&](bool scraped) {
    runtime::LiquidRuntime rt(*prog);
    obs::TelemetryHub hub;
    hub.add_metrics(&rt.metrics());
    hub.add_collector([&rt](std::vector<obs::GaugeSample>& out) {
      rt.collect_telemetry(out);
    });
    std::unique_ptr<net::TelemetryServer> srv;
    std::atomic<bool> stop{false};
    std::thread scraper;
    if (scraped) {
      srv = std::make_unique<net::TelemetryServer>(hub);
      srv->start();
      scraper = std::thread([&] {
        std::string b;
        while (!stop.load(std::memory_order_acquire)) {
          net::http_get("127.0.0.1", srv->port(), "/metrics", &b);
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      });
    }
    double t = lm::bench::time_best([&] {
      auto out = rt.call(w.entry, w.make_args(n, 7));
      benchmark::DoNotOptimize(&out);
    });
    if (scraped) {
      stop.store(true, std::memory_order_release);
      scraper.join();
    }
    return t;
  };
  double bare = run_once(false);
  double watched = run_once(true);
  double pct = (watched / bare - 1.0) * 100;
  std::printf("intpipe n=%zu: unobserved %s us, scraped@100Hz %s us "
              "(%+.2f%%).\n",
              n, lm::bench::fmt(bare * 1e6).c_str(),
              lm::bench::fmt(watched * 1e6).c_str(), pct);
  json.add("scrape_under_load", {{"elements", static_cast<double>(n)},
                                 {"unobserved_us", bare * 1e6},
                                 {"scraped_100hz_us", watched * 1e6},
                                 {"overhead_pct", pct}});

  const std::string json_file =
      util::resolve_output_path("BENCH_telemetry.json");
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
