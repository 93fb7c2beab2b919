// Fleet telemetry plane (ISSUE 10): the hostile-input exposition parser
// (truncation at every offset, NaN/Inf, duplicate series, oversized lines,
// byte-level fuzz), histogram_quantile, FleetView state/health/rate
// semantics (counter resets clamp to zero, staleness deadlines, ranking),
// the SLO rules engine, and live integration against real TelemetryServer
// endpoints — including a mid-scrape connection drop and a killed server,
// which must become clean per-endpoint error state, never a crash or a
// poisoned FleetView.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/scraper.h"
#include "net/socket.h"
#include "net/telemetry_http.h"
#include "obs/fleet.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/error.h"

namespace lm {
namespace {

using obs::EndpointStatus;
using obs::FleetSnapshot;
using obs::FleetView;
using obs::ParsedScrape;

const std::string kWellFormed =
    "# HELP lm_x counted things\n"
    "# TYPE lm_x_total counter\n"
    "lm_x_total 42\n"
    "# TYPE lm_q gauge\n"
    "lm_q{worker=\"0\"} 3\n"
    "lm_q{worker=\"1\"} 5\n"
    "# TYPE lm_h histogram\n"
    "lm_h_bucket{le=\"100\"} 1\n"
    "lm_h_bucket{le=\"+Inf\"} 4\n"
    "lm_h_sum 900\n"
    "lm_h_count 4\n";

// -- parser ----------------------------------------------------------------

TEST(ExpositionParser, ParsesWellFormedText) {
  ParsedScrape s;
  std::string err;
  ASSERT_TRUE(obs::parse_exposition(kWellFormed, &s, &err)) << err;
  ASSERT_EQ(s.samples.size(), 7u);
  EXPECT_EQ(s.types.at("lm_x_total"), "counter");
  EXPECT_EQ(s.types.at("lm_q"), "gauge");
  EXPECT_EQ(s.types.at("lm_h"), "histogram");
  EXPECT_EQ(s.samples[0].name, "lm_x_total");
  EXPECT_EQ(s.samples[0].value, 42.0);
  EXPECT_EQ(s.samples[1].labels.size(), 1u);
  EXPECT_EQ(s.samples[1].labels[0].first, "worker");
  EXPECT_EQ(s.samples[3].labels[0].second, "100");
}

// Chopping a valid exposition at *every* byte offset must never crash and
// never hand back a partially-filled scrape: either the prefix is itself a
// valid exposition (cut exactly at a line boundary) or parsing fails and
// the output is empty.
TEST(ExpositionParser, TruncationAtEveryOffsetIsCleanOrValid) {
  for (size_t cut = 0; cut < kWellFormed.size(); ++cut) {
    std::string body = kWellFormed.substr(0, cut);
    ParsedScrape s;
    s.samples.push_back({});  // pre-poison: parse must clear or fill
    std::string err;
    bool ok = obs::parse_exposition(body, &s, &err);
    if (!body.empty() && body.back() != '\n') {
      EXPECT_FALSE(ok) << "cut=" << cut << " lacks trailing newline";
    }
    if (!ok) {
      EXPECT_TRUE(s.samples.empty()) << "cut=" << cut << ": partial parse";
      EXPECT_FALSE(err.empty());
    }
  }
}

TEST(ExpositionParser, RejectsNonFiniteValues) {
  for (const char* v : {"NaN", "+Inf", "-Inf", "nan", "inf"}) {
    std::string body = "# TYPE lm_g gauge\nlm_g " + std::string(v) + "\n";
    ParsedScrape s;
    std::string err;
    EXPECT_FALSE(obs::parse_exposition(body, &s, &err)) << v;
    EXPECT_TRUE(s.samples.empty());
  }
}

TEST(ExpositionParser, RejectsDuplicateSeries) {
  const std::string body =
      "# TYPE lm_g gauge\n"
      "lm_g{a=\"1\"} 1\n"
      "lm_g{a=\"1\"} 2\n";
  ParsedScrape s;
  std::string err;
  EXPECT_FALSE(obs::parse_exposition(body, &s, &err));
  EXPECT_NE(err.find("duplicate"), std::string::npos);
  // Same name, different labels: fine.
  const std::string ok =
      "# TYPE lm_g gauge\nlm_g{a=\"1\"} 1\nlm_g{a=\"2\"} 2\n";
  EXPECT_TRUE(obs::parse_exposition(ok, &s, &err)) << err;
}

TEST(ExpositionParser, RejectsOversizedLines) {
  std::string body = "# TYPE lm_g gauge\nlm_g{v=\"";
  body.append(obs::kMaxExpositionLineBytes, 'x');
  body += "\"} 1\n";
  ParsedScrape s;
  std::string err;
  EXPECT_FALSE(obs::parse_exposition(body, &s, &err));
  EXPECT_NE(err.find("oversized"), std::string::npos);
}

TEST(ExpositionParser, RejectsSamplesWithoutType) {
  ParsedScrape s;
  std::string err;
  EXPECT_FALSE(obs::parse_exposition("lm_orphan 1\n", &s, &err));
  EXPECT_NE(err.find("TYPE"), std::string::npos);
}

// Deterministic byte-level fuzz: random mutations of a valid body must
// never crash, and whenever the parse fails the output must be empty.
TEST(ExpositionParser, MutationFuzzNeverCrashes) {
  uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int round = 0; round < 2000; ++round) {
    std::string body = kWellFormed;
    size_t mutations = 1 + next() % 8;
    for (size_t m = 0; m < mutations; ++m) {
      size_t pos = next() % body.size();
      switch (next() % 3) {
        case 0: body[pos] = static_cast<char>(next() % 256); break;
        case 1: body.erase(pos, 1); break;
        default:
          body.insert(pos, 1, static_cast<char>(next() % 256));
          break;
      }
      if (body.empty()) body = "\n";
    }
    ParsedScrape s;
    std::string err;
    bool ok = obs::parse_exposition(body, &s, &err);
    if (!ok) {
      EXPECT_TRUE(s.samples.empty());
    }
  }
}

TEST(ExpositionParser, HistogramQuantileInterpolates) {
  const std::string body =
      "# TYPE lm_h histogram\n"
      "lm_h_bucket{le=\"100\"} 50\n"
      "lm_h_bucket{le=\"200\"} 100\n"
      "lm_h_bucket{le=\"+Inf\"} 100\n"
      "lm_h_sum 10000\n"
      "lm_h_count 100\n";
  ParsedScrape s;
  std::string err;
  ASSERT_TRUE(obs::parse_exposition(body, &s, &err)) << err;
  // p50 lands exactly on the first bucket's upper edge.
  EXPECT_NEAR(obs::histogram_quantile(s, "lm_h", 50), 100.0, 1e-9);
  // p75 interpolates halfway into [100, 200].
  EXPECT_NEAR(obs::histogram_quantile(s, "lm_h", 75), 150.0, 1e-9);
  // Mass in the +Inf bucket reports the highest finite edge.
  const std::string tail =
      "# TYPE lm_h histogram\n"
      "lm_h_bucket{le=\"100\"} 0\n"
      "lm_h_bucket{le=\"+Inf\"} 10\n";
  ASSERT_TRUE(obs::parse_exposition(tail, &s, &err)) << err;
  EXPECT_NEAR(obs::histogram_quantile(s, "lm_h", 99), 100.0, 1e-9);
  // Absent family → 0.
  EXPECT_EQ(obs::histogram_quantile(s, "lm_nope", 99), 0.0);
}

// -- FleetView -------------------------------------------------------------

FleetView::Reading ok_reading(const std::string& ep, double now_us,
                              const std::string& body) {
  FleetView::Reading r;
  r.endpoint = ep;
  r.ok = true;
  r.healthy = true;
  r.rtt_us = 500;
  r.now_us = now_us;
  std::string err;
  EXPECT_TRUE(obs::parse_exposition(body, &r.scrape, &err)) << err;
  return r;
}

std::string counter_body(double v) {
  return "# TYPE lm_net_heartbeat_misses_total counter\n"
         "lm_net_heartbeat_misses_total " +
         std::to_string(v) + "\n";
}

// A counter that goes backwards (server restart) must clamp the rate to
// zero and count a reset — never spike negative (or, negated, bogus
// positive).
TEST(FleetViewTest, CounterResetClampsRateToZero) {
  FleetView view;
  double t0 = 1e6;
  view.ingest(ok_reading("a", t0, counter_body(100)));
  view.ingest(ok_reading("a", t0 + 1e6, counter_body(150)));
  FleetSnapshot snap = view.snapshot(t0 + 1e6);
  ASSERT_EQ(snap.endpoints.size(), 1u);
  EXPECT_NEAR(snap.endpoints[0].rates.at("lm_net_heartbeat_misses_total"),
              50.0, 1e-6);
  EXPECT_EQ(snap.endpoints[0].counter_resets, 0u);

  // Restart: counter drops to 5. Rate must clamp to exactly zero.
  view.ingest(ok_reading("a", t0 + 2e6, counter_body(5)));
  snap = view.snapshot(t0 + 2e6);
  EXPECT_EQ(snap.endpoints[0].rates.at("lm_net_heartbeat_misses_total"),
            0.0);
  EXPECT_EQ(snap.endpoints[0].counter_resets, 1u);
  EXPECT_EQ(snap.endpoints[0].hb_miss_rate, 0.0);

  // And the window after the restart is healthy again.
  view.ingest(ok_reading("a", t0 + 3e6, counter_body(25)));
  snap = view.snapshot(t0 + 3e6);
  EXPECT_NEAR(snap.endpoints[0].rates.at("lm_net_heartbeat_misses_total"),
              20.0, 1e-6);
}

TEST(FleetViewTest, StateMachineUnknownUpStaleDown) {
  FleetView::Options opts;
  opts.staleness_us = 1e6;
  FleetView view(opts);
  view.track("a");
  FleetSnapshot snap = view.snapshot(0);
  ASSERT_EQ(snap.endpoints.size(), 1u);
  EXPECT_EQ(snap.endpoints[0].state, EndpointStatus::State::kUnknown);
  EXPECT_EQ(std::string(obs::to_string(snap.endpoints[0].state)),
            "unknown");

  double t0 = 1e6;
  view.ingest(ok_reading("a", t0, counter_body(1)));
  snap = view.snapshot(t0 + 1000);
  EXPECT_EQ(snap.endpoints[0].state, EndpointStatus::State::kUp);
  EXPECT_GT(snap.endpoints[0].health_score, 0.5);

  // No scrape for > deadline: stale, health zero.
  snap = view.snapshot(t0 + 2e6);
  EXPECT_EQ(snap.endpoints[0].state, EndpointStatus::State::kStale);
  EXPECT_EQ(snap.endpoints[0].health_score, 0.0);
  EXPECT_GT(snap.endpoints[0].staleness_us, 1e6);

  // Failed scrape: down, error retained.
  FleetView::Reading bad;
  bad.endpoint = "a";
  bad.error = "connection refused";
  bad.now_us = t0 + 3e6;
  view.ingest(std::move(bad));
  snap = view.snapshot(t0 + 3e6);
  EXPECT_EQ(snap.endpoints[0].state, EndpointStatus::State::kDown);
  EXPECT_EQ(snap.endpoints[0].last_error, "connection refused");
  EXPECT_EQ(snap.endpoints[0].scrapes_failed, 1u);
}

TEST(FleetViewTest, SnapshotRanksUpBeforeStaleBeforeDown) {
  FleetView::Options opts;
  opts.staleness_us = 1e6;
  FleetView view(opts);
  double t0 = 1e6;
  const std::string q_low =
      "# TYPE lm_executor_queue_depth gauge\n"
      "lm_executor_queue_depth{worker=\"0\"} 1\n";
  const std::string q_high =
      "# TYPE lm_executor_queue_depth gauge\n"
      "lm_executor_queue_depth{worker=\"0\"} 7\n"
      "lm_executor_queue_depth{worker=\"1\"} 6\n";
  // "stale" gets a fresh scrape at t0 but is old by snapshot time;
  // "down"'s last attempt failed; busy/idle are both up.
  view.ingest(ok_reading("stale", t0, q_low));
  FleetView::Reading bad;
  bad.endpoint = "down";
  bad.error = "refused";
  bad.now_us = t0 + 2e6;
  view.ingest(std::move(bad));
  view.ingest(ok_reading("busy", t0 + 2e6, q_high));
  view.ingest(ok_reading("idle", t0 + 2e6, q_low));

  FleetSnapshot snap = view.snapshot(t0 + 2.2e6);
  ASSERT_EQ(snap.endpoints.size(), 4u);
  EXPECT_EQ(snap.up, 2u);
  EXPECT_EQ(snap.stale, 1u);
  EXPECT_EQ(snap.down, 1u);
  // Both up endpoints first — same health, so the lower queue wins.
  EXPECT_EQ(snap.endpoints[0].endpoint, "idle");
  EXPECT_EQ(snap.endpoints[0].queue_depth, 1.0);
  EXPECT_EQ(snap.endpoints[1].endpoint, "busy");
  EXPECT_EQ(snap.endpoints[1].queue_depth, 13.0);  // label sets summed
  EXPECT_EQ(snap.endpoints[2].endpoint, "stale");
  EXPECT_EQ(snap.endpoints[3].endpoint, "down");
}

TEST(FleetViewTest, SnapshotJsonIsMachineReadable) {
  FleetView view;
  view.ingest(ok_reading("127.0.0.1:9", 1e6, counter_body(2)));
  std::string json = view.snapshot(1.1e6).to_json();
  EXPECT_NE(json.find("\"fleet\""), std::string::npos);
  EXPECT_NE(json.find("\"127.0.0.1:9\""), std::string::npos);
  EXPECT_NE(json.find("\"state\":\"up\""), std::string::npos);
  EXPECT_NE(json.find("\"up\":1"), std::string::npos);
  EXPECT_NE(json.find("lm_net_heartbeat_misses_total"), std::string::npos);
}

// -- SLO engine ------------------------------------------------------------

TEST(SloTest, ParsesRuleGrammar) {
  const std::string text =
      "# fleet objectives\n"
      "rate(net.heartbeat_misses) < 1/s\n"
      "gauge(executor.queue_depth) <= 64\n"
      "gauge(executor.queue_depth) p99 < 32\n"
      "scrape_staleness < 2x\n"
      "scrape_staleness <= 500ms   # absolute\n"
      "rate(server.requests) >= 0\n";
  std::vector<obs::SloRule> rules;
  std::string err;
  ASSERT_TRUE(obs::parse_slo_rules(text, &rules, &err)) << err;
  ASSERT_EQ(rules.size(), 6u);
  EXPECT_EQ(rules[0].kind, obs::SloRule::Kind::kRate);
  EXPECT_EQ(rules[0].prom_name, "lm_net_heartbeat_misses_total");
  EXPECT_EQ(rules[0].threshold, 1.0);
  EXPECT_EQ(rules[1].prom_name, "lm_executor_queue_depth");
  EXPECT_EQ(rules[2].percentile, 99.0);
  EXPECT_TRUE(rules[3].threshold_in_deadlines);
  EXPECT_EQ(rules[3].threshold, 2.0);
  EXPECT_FALSE(rules[4].threshold_in_deadlines);
  EXPECT_EQ(rules[4].threshold, 500e3);  // ms → µs
  EXPECT_EQ(rules[5].cmp, obs::SloRule::Cmp::kGe);

  for (const char* bad :
       {"quantile(x) < 1", "rate() < 1", "rate(x < 1", "gauge(x) p0 < 1",
        "gauge(x) ~ 1", "rate(x) < NaN", "scrape_staleness < 2parsecs",
        "gauge(x) < 1 trailing"}) {
    EXPECT_FALSE(obs::parse_slo_rules(bad, &rules, &err)) << bad;
  }
}

FleetSnapshot up_snapshot(double hb_rate, double queue,
                          double staleness_us = 0) {
  FleetSnapshot snap;
  snap.staleness_deadline_us = 1e6;
  EndpointStatus ep;
  ep.endpoint = "127.0.0.1:7";
  ep.state = EndpointStatus::State::kUp;
  ep.staleness_us = staleness_us;
  ep.rates["lm_net_heartbeat_misses_total"] = hb_rate;
  ep.gauges["lm_executor_queue_depth"] = queue;
  snap.up = 1;
  snap.endpoints.push_back(std::move(ep));
  return snap;
}

TEST(SloTest, WatchdogFlagsRateViolationAndRecordsIt) {
  std::vector<obs::SloRule> rules;
  std::string err;
  ASSERT_TRUE(obs::parse_slo_rules("rate(net.heartbeat_misses) < 1/s\n",
                                   &rules, &err))
      << err;
  obs::SloWatchdog dog(rules);
  EXPECT_TRUE(dog.evaluate(up_snapshot(0.2, 0)).empty());
  obs::TraceRecorder& flight = obs::TraceRecorder::flight();
  auto flight_total = [&] {
    return flight.event_count() + flight.dropped_events();
  };
  uint64_t flight_before = flight_total();
  auto violations = dog.evaluate(up_snapshot(3.5, 0));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].endpoint, "127.0.0.1:7");
  EXPECT_NEAR(violations[0].value, 3.5, 1e-9);
  EXPECT_EQ(dog.total_violations(), 1u);
  // The violation is in the flight recorder under category "slo".
  EXPECT_GT(flight_total(), flight_before);
  bool found = false;
  for (const auto& e : flight.events()) {
    if (std::string(e.category) == "slo") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(SloTest, StalenessRuleCountsDeadlineMultiples) {
  std::vector<obs::SloRule> rules;
  std::string err;
  ASSERT_TRUE(
      obs::parse_slo_rules("scrape_staleness < 2x\n", &rules, &err));
  obs::SloWatchdog dog(rules);
  // Fresh endpoint: fine. 3 deadlines stale: violation (even though up —
  // the rule judges staleness, not state).
  EXPECT_TRUE(dog.evaluate(up_snapshot(0, 0, 0.5e6)).empty());
  auto violations = dog.evaluate(up_snapshot(0, 0, 3e6));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].threshold, 2e6);  // resolved to absolute µs
}

TEST(SloTest, GaugePercentileUsesWindow) {
  std::vector<obs::SloRule> rules;
  std::string err;
  ASSERT_TRUE(obs::parse_slo_rules(
      "gauge(executor.queue_depth) p99 < 10\n", &rules, &err));
  obs::SloWatchdog dog(rules);
  // 20 quiet rounds, then a spike: p99 over the window crosses 10 only
  // once the spike value lands in the window.
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(dog.evaluate(up_snapshot(0, 2)).empty()) << i;
  }
  auto violations = dog.evaluate(up_snapshot(0, 50));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NEAR(violations[0].value, 50, 1e-9);
}

// -- live integration ------------------------------------------------------

struct LiveEndpoint {
  obs::TelemetryHub hub;
  obs::MetricsRegistry metrics;
  std::unique_ptr<net::TelemetryServer> server;
  std::string endpoint;

  explicit LiveEndpoint(double queue_depth = 1) {
    metrics.counter("net.heartbeat_misses");  // present from the start
    hub.add_metrics(&metrics);
    hub.add_collector([queue_depth](std::vector<obs::GaugeSample>& out) {
      out.emplace_back(
          "executor.queue_depth", queue_depth,
          std::vector<std::pair<std::string, std::string>>{
              {"worker", "0"}});
    });
    hub.add_health([](std::vector<obs::HealthComponent>& out) {
      out.push_back({"test", true, ""});
    });
    server = std::make_unique<net::TelemetryServer>(hub);
    server->start();
    endpoint = server->endpoint();
  }
};

TEST(ScraperTest, MergesLiveEndpointsIntoRankedSnapshot) {
  LiveEndpoint a(1), b(5), c(3);
  net::TelemetryScraper::Options opts;
  opts.interval_ms = 50;
  net::TelemetryScraper scraper({a.endpoint, b.endpoint, c.endpoint}, opts);
  scraper.scrape_once();
  scraper.scrape_once();
  FleetSnapshot snap = scraper.snapshot();
  ASSERT_EQ(snap.endpoints.size(), 3u);
  EXPECT_EQ(snap.up, 3u);
  // Ranked by queue depth (equal health, loopback RTTs comparable).
  EXPECT_EQ(snap.endpoints[0].endpoint, a.endpoint);
  EXPECT_EQ(snap.endpoints[0].queue_depth, 1.0);
  EXPECT_EQ(snap.endpoints[2].queue_depth, 5.0);
  for (const auto& ep : snap.endpoints) {
    EXPECT_TRUE(ep.healthy);
    EXPECT_GT(ep.rtt_ewma_us, 0.0);
    EXPECT_GE(ep.health_score, 0.9);
    EXPECT_TRUE(ep.rates.count("lm_net_heartbeat_misses_total"));
  }
}

TEST(ScraperTest, KilledServerFlipsDownOthersUnaffected) {
  LiveEndpoint a, b;
  net::TelemetryScraper::Options opts;
  opts.interval_ms = 50;
  net::TelemetryScraper scraper({a.endpoint, b.endpoint}, opts);
  scraper.scrape_once();
  EXPECT_EQ(scraper.snapshot().up, 2u);

  b.server->stop();  // the in-process analog of kill -9
  scraper.scrape_once();
  FleetSnapshot snap = scraper.snapshot();
  EXPECT_EQ(snap.up, 1u);
  EXPECT_EQ(snap.down, 1u);
  for (const auto& ep : snap.endpoints) {
    if (ep.endpoint == b.endpoint) {
      EXPECT_EQ(ep.state, EndpointStatus::State::kDown);
      EXPECT_FALSE(ep.last_error.empty());
    } else {
      EXPECT_EQ(ep.state, EndpointStatus::State::kUp);
      EXPECT_EQ(ep.scrapes_failed, 0u);
    }
  }
}

// A server that drops the connection mid-body (truncated transfer) must
// yield a per-endpoint parse error — not a crash, not a partial merge.
TEST(ScraperTest, MidScrapeConnectionDropIsCleanError) {
  net::Listener trap(0);
  std::thread trap_thread([&trap] {
    for (;;) {
      net::Socket s = trap.accept();
      if (!s.valid()) return;
      // Drain the request (so close sends FIN, not RST), claim a full
      // exposition, send half a line, then drop the connection.
      const std::string partial =
          "HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\n\r\n"
          "# TYPE lm_x gauge\nlm_x 1";
      try {
        uint8_t req[1024];
        s.recv_some({req, sizeof(req)}, net::deadline_in_ms(1000));
        s.send_all({reinterpret_cast<const uint8_t*>(partial.data()),
                    partial.size()},
                   net::deadline_in_ms(1000));
      } catch (const TransportError&) {
      }
      s.shutdown_both();
    }
  });

  LiveEndpoint good;
  std::string trap_ep = "127.0.0.1:" + std::to_string(trap.port());
  net::TelemetryScraper::Options opts;
  opts.interval_ms = 50;
  net::TelemetryScraper scraper({good.endpoint, trap_ep}, opts);
  scraper.scrape_once();
  FleetSnapshot snap = scraper.snapshot();
  ASSERT_EQ(snap.endpoints.size(), 2u);
  for (const auto& ep : snap.endpoints) {
    if (ep.endpoint == trap_ep) {
      EXPECT_EQ(ep.state, EndpointStatus::State::kDown);
      EXPECT_NE(ep.last_error.find("bad exposition"), std::string::npos)
          << ep.last_error;
      EXPECT_TRUE(ep.rates.empty());  // nothing from the poisoned body
    } else {
      EXPECT_EQ(ep.state, EndpointStatus::State::kUp);
    }
  }
  trap.close();
  trap_thread.join();
}

TEST(ScraperTest, RunFleetCheckFlagsSloViolations) {
  LiveEndpoint a;
  std::vector<obs::SloRule> rules;
  std::string err;
  // queue_depth is 1 and the rule demands > 100: every round violates.
  ASSERT_TRUE(obs::parse_slo_rules("gauge(executor.queue_depth) > 100\n",
                                   &rules, &err));
  obs::SloWatchdog dog(rules);
  net::TelemetryScraper::Options opts;
  opts.interval_ms = 20;
  net::FleetCheckResult result =
      net::run_fleet_check({a.endpoint}, &dog, 2, opts);
  EXPECT_EQ(result.snapshot.up, 1u);
  EXPECT_FALSE(result.violations.empty());
  EXPECT_EQ(dog.total_violations(), result.violations.size());
}

}  // namespace
}  // namespace lm
