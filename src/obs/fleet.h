// Fleet view: the cluster-wide half of the telemetry plane (ISSUE 10).
//
// PR 5 gave every process a /metrics + /healthz exporter; everything that
// read them saw exactly one process. This module is the *consumer* side:
// it parses Prometheus exposition text scraped from N endpoints and merges
// the per-endpoint series into one cluster snapshot — per-server up/down/
// stale state with staleness deadlines, a health score derived from scrape
// failures and heartbeat misses, queue-depth and in-flight gauges, RTT
// EWMA, and counter *rates* that are robust to server restarts (a counter
// reset clamps the rate to zero instead of spiking negative).
//
// Layering: obs parses and aggregates, src/net scrapes (net::
// TelemetryScraper feeds FleetView::ingest), tools/lmtop renders. The
// FleetSnapshot struct is deliberately the contract ROADMAP item 3's load
// balancer will route on: per-endpoint RTT, queue depth, in-flight and
// health in one POD-ish struct, cheap to copy per placement decision.
//
// The parser is written for hostile input: a fleet scraper talks to
// processes that crash, restart and get SIGKILLed mid-scrape, so a
// truncated body, a NaN value, a duplicate series or an oversized line
// must yield a per-endpoint error state — never a crash and never a
// poisoned FleetView (a failed parse is discarded whole; fleet_test fuzzes
// this at every truncation offset).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace lm::obs {

// ---------------------------------------------------------------------------
// Exposition parsing (scraper side)
// ---------------------------------------------------------------------------

/// One parsed sample line. `name` is the exported (already-mangled)
/// Prometheus name, e.g. "lm_executor_queue_depth". Labels keep exposition
/// order.
struct ParsedSample {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0;

  /// "name{k=v,k=v}" — the identity used for duplicate detection and
  /// counter-rate bookkeeping across scrapes.
  std::string series_key() const;
};

/// One parsed scrape: every sample plus the `# TYPE` declarations, which
/// the fleet layer needs to know what is a counter (rate math) and what is
/// a histogram (percentile math).
struct ParsedScrape {
  std::vector<ParsedSample> samples;
  std::map<std::string, std::string> types;  // family -> counter|gauge|...
};

/// Hard limits the parser enforces — exceeding any of them is a parse
/// error, not a best-effort partial result. An endpoint that emits a
/// 100 MB line is broken; treating it as data would let one bad server
/// balloon every scraper's memory.
inline constexpr size_t kMaxExpositionLineBytes = 64 * 1024;
inline constexpr size_t kMaxExpositionSamples = 1u << 16;

/// Parses Prometheus text exposition: the repo's one reader of it, which
/// validate_prometheus_text and lmtop call too. Returns false and sets
/// *error on the first problem: malformed grammar, non-finite sample value
/// (our exporters never emit NaN/Inf; from a scrape they mean corruption),
/// duplicate series, oversized line, sample without a preceding TYPE, or a
/// body that does not end in '\n' (truncated mid-transfer). On failure
/// *out is left empty — never partially filled; `out` may be null.
bool parse_exposition(std::string_view body, ParsedScrape* out,
                      std::string* error);

/// Percentile (q in [0,100]) from native Prometheus histogram series: the
/// `<family>_bucket{le="..."}` samples of `family` whose labels include
/// every pair in `labels`. Linear interpolation within the winning bucket,
/// like PromQL's histogram_quantile. Returns 0 when the family is absent
/// or empty.
double histogram_quantile(
    const ParsedScrape& scrape, const std::string& family, double q,
    const std::vector<std::pair<std::string, std::string>>& labels = {});

// ---------------------------------------------------------------------------
// FleetView
// ---------------------------------------------------------------------------

/// Per-endpoint row of a cluster snapshot. This is the cost signal the
/// future load balancer reads: keep it cheap to copy and free of internal
/// pointers.
struct EndpointStatus {
  enum class State {
    kUnknown,  // never scraped yet
    kUp,       // fresh successful scrape
    kStale,    // last success older than the staleness deadline
    kDown,     // last scrape attempt failed (refused / timeout / malformed)
  };

  std::string endpoint;
  State state = State::kUnknown;
  /// 1.0 = healthy; 0 when down/stale. Derived from recent scrape
  /// failures, /healthz and the heartbeat-miss rate (see DESIGN.md §15).
  double health_score = 0;
  /// EWMA of the scrape round-trip (connect + GET /metrics), µs.
  double rtt_ewma_us = 0;
  /// now − last successful scrape, µs (large when never scraped).
  double staleness_us = 0;
  /// Σ lm_executor_queue_depth, falling back to lm_server_active_
  /// connections for device servers that run no executor.
  double queue_depth = 0;
  /// Σ lm_task_in_flight.
  double in_flight = 0;
  /// rate(lm_net_heartbeat_misses_total), per second, clamped ≥ 0.
  double hb_miss_rate = 0;
  /// p99 of the native lm_server_exec_us histogram, µs (0 when absent).
  double exec_p99_us = 0;
  /// /healthz returned 200 on the last successful scrape.
  bool healthy = false;
  uint64_t scrapes_ok = 0;
  uint64_t scrapes_failed = 0;
  /// Counter resets observed (server restarts); each clamped a rate to 0.
  uint64_t counter_resets = 0;
  std::string last_error;  // empty when the last scrape succeeded

  /// Per-family counter rates (label sets summed), 1/s, clamped ≥ 0.
  std::map<std::string, double> rates;
  /// Per-family gauge values (label sets summed) — the drill-down table.
  std::map<std::string, double> gauges;
};

const char* to_string(EndpointStatus::State s);

/// Point-in-time merged view over every endpoint, ranked best-first:
/// up before stale before down; within a state by health desc, then queue
/// depth asc, then RTT asc — i.e. the order a balancer would try them.
struct FleetSnapshot {
  double now_us = 0;
  double staleness_deadline_us = 0;
  size_t up = 0, stale = 0, down = 0;
  std::vector<EndpointStatus> endpoints;

  /// Machine-readable snapshot (`lmc --fleet-snapshot=json`, lmtop
  /// --check): one {"fleet": {...}} object, endpoints in ranked order.
  std::string to_json() const;
};

class FleetView {
 public:
  struct Options {
    /// A successful scrape older than this makes the endpoint kStale.
    /// The scraper sets it to 2× its poll interval by default.
    double staleness_us = 2e6;
    /// EWMA smoothing for the scrape RTT.
    double rtt_alpha = 0.2;
    /// Scrape outcomes remembered per endpoint for the failure ratio in
    /// the health score.
    size_t outcome_window = 8;
  };

  /// What the scraper feeds per endpoint per poll. On failure (`ok ==
  /// false`) only `endpoint`, `error` and `now_us` are meaningful.
  struct Reading {
    std::string endpoint;
    bool ok = false;
    bool healthy = false;  // /healthz == 200
    std::string error;
    double rtt_us = 0;
    double now_us = 0;  // steady-clock µs, same epoch across readings
    ParsedScrape scrape;
  };

  FleetView() : FleetView(Options{}) {}
  explicit FleetView(Options opts);

  /// Declares an endpoint so it appears in snapshots (state kUnknown)
  /// before its first scrape completes.
  void track(const std::string& endpoint);

  /// Merges one scrape outcome. Thread-safe — the scraper fans out one
  /// thread per endpoint.
  void ingest(Reading r);

  /// Ranked cluster snapshot at `now_us`.
  FleetSnapshot snapshot(double now_us) const;

  /// Steady-clock microseconds, the epoch every Reading must share.
  static double now_us();

  const Options& options() const { return opts_; }

 private:
  struct PerEndpoint {
    EndpointStatus status;
    double last_ok_us = -1;
    double last_attempt_us = -1;
    /// Raw counter values from the previous successful scrape, keyed by
    /// series (name+labels), for rate computation.
    std::map<std::string, double> prev_counters;
    double prev_counters_us = -1;
    /// Ring of recent outcomes (true = ok) for the health score.
    std::vector<bool> outcomes;
  };

  void apply_scrape(PerEndpoint& pe, const Reading& r);

  Options opts_;
  mutable std::mutex mu_;
  std::map<std::string, PerEndpoint> endpoints_;
};

}  // namespace lm::obs
