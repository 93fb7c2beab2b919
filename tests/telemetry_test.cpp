// The live telemetry plane (ISSUE 5): Prometheus exposition rendering and
// grammar validation, the HTTP exporter endpoints, health transitions
// across a forced remote disconnect, NTP-style clock alignment, and the
// histogram merge the report path uses to fold server-side latency in.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/attach.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/telemetry_http.h"
#include "obs/fleet.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "serde/buffer_pool.h"
#include "runtime/liquid_runtime.h"
#include "workloads/workloads.h"

namespace lm {
namespace {

using obs::GaugeSample;
using obs::HealthComponent;
using obs::TelemetryHub;

const workloads::Workload& pipeline_by_name(const std::string& name) {
  for (const auto& w : workloads::pipeline_suite()) {
    if (w.name == name) return w;
  }
  ADD_FAILURE() << "no pipeline workload named " << name;
  std::abort();
}

// -- exposition grammar ----------------------------------------------------

TEST(Prometheus, NameMangling) {
  EXPECT_EQ(obs::prometheus_name("net.requests"), "lm_net_requests");
  EXPECT_EQ(obs::prometheus_name("fifo.high_water"), "lm_fifo_high_water");
  EXPECT_EQ(obs::prometheus_name("weird-name!x"), "lm_weird_name_x");
}

TEST(Prometheus, LabelEscaping) {
  EXPECT_EQ(obs::prometheus_label_escape("plain"), "plain");
  EXPECT_EQ(obs::prometheus_label_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::prometheus_label_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::prometheus_label_escape("a\nb"), "a\\nb");
}

TEST(Prometheus, ValidatorAcceptsWellFormedText) {
  const std::string body =
      "# HELP lm_x total things\n"
      "# TYPE lm_x_total counter\n"
      "lm_x_total 42\n"
      "# TYPE lm_gauge gauge\n"
      "lm_gauge{a=\"b\",c=\"d\\\"e\"} 1.5\n"
      "lm_gauge{a=\"z\"} -0.25 1700000000000\n";
  std::string err;
  EXPECT_TRUE(obs::validate_prometheus_text(body, &err)) << err;
}

TEST(Prometheus, ValidatorRejectsMalformedText) {
  std::string err;
  // Missing trailing newline.
  EXPECT_FALSE(obs::validate_prometheus_text("# TYPE lm_a gauge\nlm_a 1",
                                             &err));
  // Sample without a TYPE for its family.
  EXPECT_FALSE(obs::validate_prometheus_text("lm_untyped 1\n", &err));
  EXPECT_NE(err.find("TYPE"), std::string::npos) << err;
  // Illegal metric name.
  EXPECT_FALSE(obs::validate_prometheus_text(
      "# TYPE 9bad gauge\n9bad 1\n", &err));
  // Unterminated label set.
  EXPECT_FALSE(obs::validate_prometheus_text(
      "# TYPE lm_a gauge\nlm_a{x=\"y\" 1\n", &err));
  // Non-numeric value.
  EXPECT_FALSE(obs::validate_prometheus_text(
      "# TYPE lm_a gauge\nlm_a pizza\n", &err));
}

// -- hub rendering ---------------------------------------------------------

TEST(TelemetryHub, RendersCountersGaugesAndCollectors) {
  obs::MetricsRegistry reg;
  reg.counter("net.requests").add(3);
  // The satellite bugfix: observability health counters must exist (and
  // therefore export) even at zero, so a scrape can never silently
  // under-report drops or missed heartbeats.
  reg.counter("trace.dropped_events");
  reg.counter("net.heartbeat_misses");
  reg.max_gauge("fifo.high_water").observe(17);

  TelemetryHub hub;
  hub.add_metrics(&reg);
  hub.add_collector([](std::vector<GaugeSample>& out) {
    out.emplace_back(
        "fifo.depth", 5.0,
        std::vector<std::pair<std::string, std::string>>{{"graph", "0"},
                                                         {"queue", "1"}});
    out.emplace_back(
        "remote.rtt_ewma_us", 123.5,
        std::vector<std::pair<std::string, std::string>>{
            {"endpoint", "127.0.0.1:9"}});
  });

  std::string text = hub.prometheus_text();
  std::string err;
  EXPECT_TRUE(obs::validate_prometheus_text(text, &err)) << err << "\n"
                                                         << text;
  EXPECT_NE(text.find("# TYPE lm_net_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("lm_net_requests_total 3"), std::string::npos);
  EXPECT_NE(text.find("lm_trace_dropped_events_total 0"), std::string::npos);
  EXPECT_NE(text.find("lm_net_heartbeat_misses_total 0"), std::string::npos);
  EXPECT_NE(text.find("lm_fifo_high_water 17"), std::string::npos);
  EXPECT_NE(text.find("lm_fifo_depth{graph=\"0\",queue=\"1\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("lm_remote_rtt_ewma_us{endpoint=\"127.0.0.1:9\"}"),
            std::string::npos);
}

TEST(TelemetryHub, MultipleRegistriesSumCounters) {
  obs::MetricsRegistry a, b;
  a.counter("net.requests").add(2);
  b.counter("net.requests").add(5);
  TelemetryHub hub;
  hub.add_metrics(&a);
  hub.add_metrics(&b);
  std::string text = hub.prometheus_text();
  EXPECT_NE(text.find("lm_net_requests_total 7"), std::string::npos) << text;
  // One TYPE line per family even with two source registries.
  size_t first = text.find("# TYPE lm_net_requests_total counter");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE lm_net_requests_total counter", first + 1),
            std::string::npos);
}

TEST(TelemetryHub, HealthAggregatesComponents) {
  TelemetryHub hub;
  bool remote_up = true;
  hub.add_health([&](std::vector<HealthComponent>& out) {
    out.push_back({"runtime", true, ""});
    out.push_back({"remote:127.0.0.1:9", remote_up,
                   remote_up ? "" : "endpoint down"});
  });
  bool healthy = false;
  std::string body = hub.health_json(&healthy);
  EXPECT_TRUE(healthy);
  EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos) << body;
  remote_up = false;
  body = hub.health_json(&healthy);
  EXPECT_FALSE(healthy);
  EXPECT_NE(body.find("\"status\":\"degraded\""), std::string::npos) << body;
  EXPECT_NE(body.find("endpoint down"), std::string::npos) << body;
}

// -- clock alignment -------------------------------------------------------

// Simulated ±50ms skew: the midpoint estimator recovers the offset exactly
// under symmetric delays, and per-exchange alignment keeps the server span
// inside the client's request window — the property the unified trace
// leans on.
TEST(ClockOffset, RecoversSimulatedSkewAndPreservesNesting) {
  for (double skew_us : {50000.0, -50000.0}) {
    // Client sends at 0, receives at 10000; symmetric 3ms one-way delay.
    double t0 = 0, t1 = 10000;
    double sr = 3000 + skew_us;   // server receive, server clock
    double ss = 7000 + skew_us;   // server send, server clock
    double off = obs::ClockOffsetEstimator::offset_from(t0, t1, sr, ss);
    EXPECT_NEAR(off, skew_us, 1e-9);
    // Aligned server window nests in [t0, t1].
    EXPECT_GE(sr - off, t0);
    EXPECT_LE(ss - off, t1);
  }
}

TEST(ClockOffset, NestingHoldsUnderAsymmetricDelays) {
  // 1ms out, 9ms back: the estimate is biased, but the nesting guarantee
  // is algebraic — it holds for any split as long as the server's
  // processing fits inside the observed round trip.
  const double skew_us = -50000.0;
  double t0 = 100, t1 = 10100;
  double sr = t0 + 1000 + skew_us;
  double ss = t1 - 9000 + 7900 + skew_us;  // server held it 7.9ms
  ASSERT_LE(ss - sr, t1 - t0);
  double off = obs::ClockOffsetEstimator::offset_from(t0, t1, sr, ss);
  EXPECT_GE(sr - off, t0);
  EXPECT_LE(ss - off, t1);
  // Spans the server reports in [sr, ss] stay ordered after alignment.
  EXPECT_LT(sr - off, ss - off);
}

TEST(ClockOffset, KeepsMinimumRttSample) {
  const double skew_us = 50000.0;
  obs::ClockOffsetEstimator est;
  EXPECT_EQ(est.samples(), 0u);
  EXPECT_EQ(est.offset_us(), 0.0);
  // Congested exchange: 19ms of unaccounted delay, badly asymmetric.
  est.update(0, 20000, 18000 + skew_us, 19000 + skew_us);
  // Clean exchange: 0.9ms unaccounted, near-true offset.
  est.update(0, 1000, 400 + skew_us, 500 + skew_us);
  // Another congested one must not displace the clean estimate.
  est.update(0, 30000, 29000 + skew_us, 29500 + skew_us);
  EXPECT_EQ(est.samples(), 3u);
  EXPECT_NEAR(est.best_rtt_us(), 900.0, 1e-9);
  EXPECT_NEAR(est.offset_us(), skew_us - 50.0, 1e-9);
}

// -- histogram merge -------------------------------------------------------

TEST(HistogramMerge, FoldsCountsAndPercentiles) {
  obs::LatencyHistogram a, b;
  for (int i = 0; i < 100; ++i) a.record_ns(1000);
  for (int i = 0; i < 100; ++i) b.record_ns(1000000);
  a.merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_EQ(a.max_ns(), 1000000u);
  // Half the mass at 1µs, half at 1ms: p25 low, p90 high.
  EXPECT_LT(a.percentile_us(25), 10.0);
  EXPECT_GT(a.percentile_us(90), 500.0);
  // b is untouched.
  EXPECT_EQ(b.count(), 100u);
}

// -- HTTP exporter ---------------------------------------------------------

TEST(TelemetryServer, ServesMetricsHealthzAndFlight) {
  obs::MetricsRegistry reg;
  reg.counter("server.requests").add(9);
  TelemetryHub hub;
  hub.add_metrics(&reg);
  bool component_ok = true;
  hub.add_health([&](std::vector<HealthComponent>& out) {
    out.push_back({"test", component_ok, component_ok ? "" : "broken"});
  });

  net::TelemetryServer srv(hub);
  srv.start();
  ASSERT_GT(srv.port(), 0);

  std::string body;
  int status = net::http_get("127.0.0.1", srv.port(), "/metrics", &body);
  EXPECT_EQ(status, 200);
  std::string err;
  EXPECT_TRUE(obs::validate_prometheus_text(body, &err)) << err;
  EXPECT_NE(body.find("lm_server_requests_total 9"), std::string::npos);

  status = net::http_get("127.0.0.1", srv.port(), "/healthz", &body);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos);

  // A health component flipping turns the same endpoint 503 — the live
  // transition, not just the static render.
  component_ok = false;
  status = net::http_get("127.0.0.1", srv.port(), "/healthz", &body);
  EXPECT_EQ(status, 503);
  EXPECT_NE(body.find("\"status\":\"degraded\""), std::string::npos);

  status = net::http_get("127.0.0.1", srv.port(), "/flight", &body);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body.front(), '{');

  status = net::http_get("127.0.0.1", srv.port(), "/nope", &body);
  EXPECT_EQ(status, 404);
  EXPECT_GT(srv.requests(), 4u);
  srv.stop();
}

// The /healthz acceptance transition: a scraped client exporter flips to
// 503 when its remote device server dies, and the miss/drop counters are
// present in /metrics so the outage is visible in both planes.
TEST(TelemetryServer, HealthzFlipsAcrossRemoteDisconnect) {
  const workloads::Workload& w = pipeline_by_name("intpipe");
  auto prog = runtime::compile(w.lime_source);
  ASSERT_TRUE(prog->ok());
  auto server = std::make_unique<net::DeviceServer>(*prog);
  server->start();

  std::string host;
  uint16_t port = 0;
  net::parse_endpoint(server->endpoint(), &host, &port);
  net::SessionOptions sopts;
  sopts.connect_timeout_ms = 500;
  sopts.request_timeout_ms = 500;
  sopts.heartbeat_interval_ms = 20;
  sopts.heartbeat_misses = 2;
  obs::MetricsRegistry reg;
  auto session = std::make_shared<net::RemoteSession>(
      host, port, net::program_fingerprint(prog->store), sopts, &reg);
  session->list();  // establish the connection
  session->start_heartbeat();

  TelemetryHub hub;
  hub.add_metrics(&reg);
  hub.add_collector([session](std::vector<GaugeSample>& out) {
    session->collect_telemetry(out);
  });
  hub.add_health([session](std::vector<HealthComponent>& out) {
    bool up = session->alive();
    out.push_back({"remote:" + session->endpoint(), up,
                   up ? "" : "endpoint down"});
  });
  net::TelemetryServer srv(hub);
  srv.start();

  std::string body;
  EXPECT_EQ(net::http_get("127.0.0.1", srv.port(), "/healthz", &body), 200);
  EXPECT_EQ(net::http_get("127.0.0.1", srv.port(), "/metrics", &body), 200);
  EXPECT_NE(body.find("lm_remote_alive"), std::string::npos) << body;
  EXPECT_NE(body.find("lm_net_heartbeat_misses_total"), std::string::npos);

  // Kill the device server under the heartbeat.
  server->abrupt_stop();
  for (int i = 0; i < 200 && session->alive(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_FALSE(session->alive()) << "heartbeat never noticed the outage";

  EXPECT_EQ(net::http_get("127.0.0.1", srv.port(), "/healthz", &body), 503);
  EXPECT_NE(body.find("endpoint down"), std::string::npos) << body;
  // The outage shows in the metrics plane too, and the exposition is
  // still well-formed mid-outage.
  EXPECT_EQ(net::http_get("127.0.0.1", srv.port(), "/metrics", &body), 200);
  std::string err;
  EXPECT_TRUE(obs::validate_prometheus_text(body, &err)) << err;
  EXPECT_NE(body.find("lm_net_heartbeat_misses_total"), std::string::npos);
  EXPECT_EQ(reg.value("net.heartbeat_misses"),
            reg.value("net.ping_failures"));
  srv.stop();
}

// -- runtime gauge collector ----------------------------------------------

TEST(RuntimeTelemetry, CollectorExportsTaskAndCounterSeries) {
  const workloads::Workload& w = pipeline_by_name("intpipe");
  auto prog = runtime::compile(w.lime_source);
  ASSERT_TRUE(prog->ok());
  runtime::LiquidRuntime rt(*prog);
  rt.call(w.entry, w.make_args(256, 21));

  std::vector<GaugeSample> out;
  rt.collect_telemetry(out);
  bool saw_task = false;
  for (const GaugeSample& s : out) {
    if (s.name != "task.batches" || s.value <= 0) continue;
    saw_task = true;
    bool has_task_label = false, has_device_label = false;
    for (const auto& [k, v] : s.labels) {
      has_task_label |= k == "task" && !v.empty();
      has_device_label |= k == "device" && !v.empty();
    }
    EXPECT_TRUE(has_task_label && has_device_label);
  }
  EXPECT_TRUE(saw_task);
  // In-flight gauges exist and are settled (nothing mid-batch now).
  for (const GaugeSample& s : out) {
    if (s.name == "task.in_flight") EXPECT_EQ(s.value, 0.0);
  }

  // The full hub render over a real runtime passes the validator and
  // carries the drop counter even when it is zero.
  TelemetryHub hub;
  hub.add_metrics(&rt.metrics());
  hub.add_collector([&rt](std::vector<GaugeSample>& o) {
    rt.collect_telemetry(o);
  });
  std::string text = hub.prometheus_text();
  std::string err;
  EXPECT_TRUE(obs::validate_prometheus_text(text, &err)) << err;
  EXPECT_NE(text.find("lm_trace_dropped_events_total"), std::string::npos);
  EXPECT_NE(text.find("lm_task_batches"), std::string::npos);
}

// -- native histogram export (ISSUE 10 satellite) --------------------------

TEST(TelemetryHub, NativeHistogramExposition) {
  obs::LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.record_ns(80 * 1000);      // ~80 µs
  for (int i = 0; i < 10; ++i) h.record_ns(30 * 1000 * 1000);  // ~30 ms
  h.record_ns(5000000000ull);  // 5 s — beyond every finite edge

  TelemetryHub hub;
  hub.add_histograms([&h](std::vector<obs::HistogramSample>& out) {
    out.push_back(obs::HistogramSample::from("server.exec_us", h));
  });
  std::string body = hub.prometheus_text();
  std::string err;
  ASSERT_TRUE(obs::validate_prometheus_text(body, &err)) << err;
  EXPECT_NE(body.find("# TYPE lm_server_exec_us histogram"),
            std::string::npos);

  // Round-trip through the fleet parser and check the format invariants:
  // cumulative buckets are monotone, `_count` equals the +Inf bucket, and
  // the quantile math lands where the recorded latencies are.
  obs::ParsedScrape scrape;
  ASSERT_TRUE(obs::parse_exposition(body, &scrape, &err)) << err;
  double inf_bucket = -1, count = -1, sum = -1, prev = 0;
  size_t finite_buckets = 0;
  for (const auto& s : scrape.samples) {
    if (s.name == "lm_server_exec_us_bucket") {
      ASSERT_EQ(s.labels.size(), 1u);
      if (s.labels[0].second == "+Inf") {
        inf_bucket = s.value;
      } else {
        EXPECT_GE(s.value, prev) << "le=" << s.labels[0].second;
        prev = s.value;
        ++finite_buckets;
      }
    } else if (s.name == "lm_server_exec_us_count") {
      count = s.value;
    } else if (s.name == "lm_server_exec_us_sum") {
      sum = s.value;
    }
  }
  EXPECT_EQ(finite_buckets,
            obs::HistogramSample::default_edges_us().size());
  EXPECT_EQ(inf_bucket, 111.0);
  EXPECT_EQ(count, inf_bucket);  // the format invariant scrapers rely on
  EXPECT_GT(sum, 100 * 80.0);
  // p50 sits with the 80 µs mass, p99 with the 30 ms mass.
  EXPECT_LE(obs::histogram_quantile(scrape, "lm_server_exec_us", 50), 250.0);
  EXPECT_GT(obs::histogram_quantile(scrape, "lm_server_exec_us", 99),
            10000.0);
}

TEST(TelemetryHub, ServerExportsHistogramNotLegacyPercentileGauges) {
  const workloads::Workload& w = pipeline_by_name("intpipe");
  auto prog = runtime::compile(w.lime_source);
  ASSERT_TRUE(prog->ok());
  net::DeviceServer server(*prog);
  std::vector<GaugeSample> gauges;
  server.collect_telemetry(gauges);
  for (const GaugeSample& s : gauges) {
    EXPECT_NE(s.name, "server.exec_p50_us");
    EXPECT_NE(s.name, "server.exec_p99_us");
  }
  // Execute latency is exported as a native histogram instead.
  std::vector<obs::HistogramSample> hists;
  server.collect_histograms(hists);
  ASSERT_EQ(hists.size(), 1u);
  EXPECT_EQ(hists[0].name, "server.exec_us");
}

// -- scrape-path allocation freedom (ISSUE 10 satellite) -------------------

// The /metrics hot path frames responses through serde::wire_pool() and
// recycles its body scratch: after a short warm-up, a 10 Hz scraper must
// not grow the heap per request. Same contract net_test pins for the
// wire-message path.
TEST(TelemetryServer, SteadyStateScrapeIsAllocationFree) {
  obs::MetricsRegistry reg;
  reg.counter("server.requests").add(3);
  obs::LatencyHistogram h;
  for (int i = 0; i < 32; ++i) h.record_ns(1000000);
  TelemetryHub hub;
  hub.add_metrics(&reg);
  hub.add_collector([](std::vector<GaugeSample>& out) {
    out.emplace_back("executor.queue_depth", 4.0);
  });
  hub.add_histograms([&h](std::vector<obs::HistogramSample>& out) {
    out.push_back(obs::HistogramSample::from("server.exec_us", h));
  });
  hub.add_health([](std::vector<HealthComponent>& out) {
    out.push_back({"test", true, ""});
  });

  net::TelemetryServer srv(hub);
  srv.start();
  std::string body;
  // Warm-up: grows the pooled response buffer and the body scratch to
  // their steady-state capacity.
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(net::http_get("127.0.0.1", srv.port(), "/metrics", &body),
              200);
  }
  const uint64_t allocs_before = serde::wire_pool().allocations();
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(net::http_get("127.0.0.1", srv.port(), "/metrics", &body),
              200);
    ASSERT_FALSE(body.empty());
  }
  EXPECT_EQ(serde::wire_pool().allocations(), allocs_before)
      << "scrape path allocated fresh wire buffers in steady state";
  EXPECT_GE(serde::wire_pool().reuses(), 100u);
  srv.stop();
}

}  // namespace
}  // namespace lm
