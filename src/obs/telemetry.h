// Live telemetry export plane (ROADMAP: "traffic-serving system").
//
// The recorder and registry (PR 1–2) are post-mortem instruments: they are
// harvested once, after the run. This module makes the same state
// consumable *while the run is in flight*:
//
//   * TelemetryHub — aggregates MetricsRegistry snapshots, live gauge
//     collectors (FIFO depths, in-flight counts, remote RTT) and health
//     probes into Prometheus text exposition + a health JSON document.
//     The hub does no I/O; `src/net` mounts it behind an HTTP/1.0
//     endpoint (net::TelemetryServer) so the dependency arrow stays
//     obs <- net, never the reverse.
//   * ClockOffsetEstimator — NTP-style midpoint offset between this
//     process's steady clock and a remote peer's, fed by request/reply
//     timestamp quadruples (heartbeats and RPCs). The trace pipeline uses
//     it to place server-side spans on the client timeline.
//
// Everything here is thread-safe: collectors run on an exporter thread
// concurrently with the workload they observe.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace lm::obs {

class LatencyHistogram;

/// One live sample for the exposition. `name` is dotted lower-case
/// ("fifo.depth"); the renderer mangles it to a legal Prometheus name
/// ("lm_fifo_depth"). Labels distinguish instances of the same series.
struct GaugeSample {
  std::string name;
  double value = 0;
  std::vector<std::pair<std::string, std::string>> labels;

  GaugeSample() = default;
  GaugeSample(std::string n, double v,
              std::vector<std::pair<std::string, std::string>> l = {})
      : name(std::move(n)), value(v), labels(std::move(l)) {}
};

/// One native Prometheus histogram for the exposition: cumulative bucket
/// counts over ascending `le` edges (µs), plus the `_sum`/`_count` pair.
/// Built from a LatencyHistogram with from(), which re-buckets the
/// fine-grained HdrHistogram layout (976 buckets) into a small fixed `le`
/// ladder — fleet-side percentile math (histogram_quantile) is well-
/// defined on this, where the old opaque p50/p99 gauges were not
/// mergeable across servers at all.
struct HistogramSample {
  std::string name;  // dotted family, e.g. "server.exec_us"
  std::vector<std::pair<std::string, std::string>> labels;
  std::vector<double> le_us;         // ascending edges; +Inf is implicit
  std::vector<uint64_t> cumulative;  // count of samples <= le_us[i]
  uint64_t count = 0;                // == the implicit +Inf bucket
  double sum_us = 0;

  /// The default `le` ladder, µs: 50 µs … 1 s in 1-2.5-5 steps.
  static const std::vector<double>& default_edges_us();

  /// Snapshots `h` into exposition form. The bucket walk and the count
  /// are taken from the same pass so `_count` always equals the +Inf
  /// bucket, as the format requires, even while `h` is being recorded to.
  static HistogramSample from(
      std::string name, const LatencyHistogram& h,
      std::vector<std::pair<std::string, std::string>> labels = {});
};

/// One component's contribution to /healthz. Any !ok component turns the
/// whole endpoint 503 — a scraper needs a single bit, the JSON carries the
/// per-component detail.
struct HealthComponent {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// Mangles a dotted metric name into the Prometheus grammar:
/// "net.requests" → "lm_net_requests". Any character outside
/// [a-zA-Z0-9_:] becomes '_'; a leading digit gets an extra '_'.
std::string prometheus_name(const std::string& dotted);

/// Escapes a label value for the exposition format (backslash, quote,
/// newline).
std::string prometheus_label_escape(const std::string& v);

/// Validates the subset of the Prometheus text format we emit (and that
/// any conforming scraper must accept): `# HELP`/`# TYPE` comments, then
/// `name{labels} value` samples with legal names and finite decimal
/// values, every sample preceded by a TYPE for its family. It is
/// parse_exposition (obs/fleet.h) without the parsed result. Returns false
/// and sets *error to "line N: why" on the first malformed line. Used by
/// the tests AND `lmtop --check`, which is what tools/check.sh points at
/// the live endpoints at 10 Hz.
bool validate_prometheus_text(const std::string& body, std::string* error);

class TelemetryHub {
 public:
  using GaugeCollector = std::function<void(std::vector<GaugeSample>&)>;
  using HistogramCollector =
      std::function<void(std::vector<HistogramSample>&)>;
  using HealthCollector = std::function<void(std::vector<HealthComponent>&)>;

  /// Registers a registry to scrape. The pointer must outlive the hub (or
  /// at least every render). Counters export as `_total` counter series,
  /// MaxGauges as gauges.
  void add_metrics(const MetricsRegistry* m);
  /// Registers a live-gauge collector, called on every render.
  void add_collector(GaugeCollector c);
  /// Registers a native-histogram collector, called on every render;
  /// families export as `_bucket{le=…}`/`_sum`/`_count` series.
  void add_histograms(HistogramCollector c);
  /// Registers a health probe, called on every /healthz evaluation.
  void add_health(HealthCollector c);

  /// Renders the full Prometheus text exposition (0.0.4 text format).
  std::string prometheus_text() const;

  /// Appends the same exposition to `out` (which is NOT cleared). The
  /// scrape hot path hands in a recycled string so a 10 Hz scraper does
  /// not grow the heap per request — telemetry_test pins this with the
  /// serde::wire_pool() allocation counters.
  void render_prometheus(std::string& out) const;

  /// Renders {"status":"ok"|"degraded","components":[...]}; sets *healthy
  /// to false when any component reports !ok.
  std::string health_json(bool* healthy) const;

 private:
  mutable std::mutex mu_;
  std::vector<const MetricsRegistry*> registries_;
  std::vector<GaugeCollector> collectors_;
  std::vector<HistogramCollector> histograms_;
  std::vector<HealthCollector> health_;
};

/// NTP-style midpoint estimator of (server clock − client clock).
///
/// One exchange gives four timestamps: t0 client-send, t1 client-receive
/// (client clock), sr server-receive, ss server-send (server clock). The
/// midpoint estimate
///
///     offset = ((sr − t0) + (ss − t1)) / 2
///
/// is exact when the two one-way delays are symmetric; its error is
/// bounded by half the *unaccounted* RTT, rtt = (t1 − t0) − (ss − sr).
/// The estimator therefore keeps the sample with the smallest rtt — the
/// classic minimum-filter from NTP — as its best estimate.
///
/// Placing a server span at `ts − offset` with the *same exchange's*
/// offset guarantees nesting inside [t0, t1]: aligned(sr) = (t0 + t1 −
/// (ss − sr))/2 ≥ t0 and aligned(ss) = (t0 + t1 + (ss − sr))/2 ≤ t1,
/// because the server cannot spend longer processing than the client saw
/// round-trip. That algebra is what makes the unified trace's
/// "device-execute strictly inside the client request span" claim hold
/// deterministically, not just usually.
class ClockOffsetEstimator {
 public:
  /// The per-exchange midpoint offset (server − client), in whatever unit
  /// the four timestamps share.
  static double offset_from(double t0, double t1, double sr, double ss) {
    return ((sr - t0) + (ss - t1)) / 2.0;
  }

  /// Feeds one exchange (units: microseconds, any pair of epochs).
  void update(double t0_us, double t1_us, double sr_us, double ss_us);

  /// Best (minimum-RTT) offset estimate so far; 0 before any sample.
  double offset_us() const;
  /// Unaccounted RTT of the best sample; 0 before any sample.
  double best_rtt_us() const;
  uint64_t samples() const;

 private:
  mutable std::mutex mu_;
  double offset_us_ = 0;
  double best_rtt_us_ = 0;
  uint64_t samples_ = 0;
};

}  // namespace lm::obs
