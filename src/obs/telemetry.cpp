#include "obs/telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/fleet.h"
#include "obs/histogram.h"
#include "obs/trace.h"

namespace lm::obs {

namespace {

bool name_start_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}

bool name_char(char c) { return name_start_char(c) || (c >= '0' && c <= '9'); }

bool label_name_start_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

bool label_name_char(char c) {
  return label_name_start_char(c) || (c >= '0' && c <= '9');
}

void append_value(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "0";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  out += buf;
}

/// Label names share the metric alphabet minus ':' and get no "lm_"
/// prefix — they are scoped by their family already.
std::string sanitize_label_name(const std::string& k) {
  std::string out;
  out.reserve(k.size() + 1);
  for (char c : k) {
    out += label_name_char(c) ? c : '_';
  }
  if (out.empty() || !label_name_start_char(out[0])) out = "_" + out;
  return out;
}

void append_labels(
    std::string& out,
    const std::vector<std::pair<std::string, std::string>>& labels) {
  if (labels.empty()) return;
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += sanitize_label_name(k);
    out += "=\"";
    out += prometheus_label_escape(v);
    out += '"';
  }
  out += '}';
}

}  // namespace

// ---------------------------------------------------------------------------
// HistogramSample
// ---------------------------------------------------------------------------

const std::vector<double>& HistogramSample::default_edges_us() {
  static const std::vector<double> edges = {
      50,     100,    250,    500,     1000,   2500,  5000,
      10000,  25000,  50000,  100000,  250000, 500000, 1000000};
  return edges;
}

HistogramSample HistogramSample::from(
    std::string name, const LatencyHistogram& h,
    std::vector<std::pair<std::string, std::string>> labels) {
  HistogramSample s;
  s.name = std::move(name);
  s.labels = std::move(labels);
  s.le_us = default_edges_us();
  s.cumulative.assign(s.le_us.size(), 0);
  // One pass over the fine buckets; every count lands in the first edge
  // at or above the bucket's midpoint (or only in the implicit +Inf).
  // Deriving _count from the same pass keeps `_count == +Inf bucket`
  // true even while another thread is recording.
  std::vector<uint64_t> per_edge(s.le_us.size(), 0);
  for (size_t i = 0; i < h.bucket_count(); ++i) {
    uint64_t c = h.bucket_value(i);
    if (c == 0) continue;
    double us = LatencyHistogram::bucket_mid(i) / 1e3;
    size_t e = 0;
    while (e < s.le_us.size() && s.le_us[e] < us) ++e;
    if (e < per_edge.size()) per_edge[e] += c;
    s.count += c;
  }
  uint64_t running = 0;
  for (size_t e = 0; e < per_edge.size(); ++e) {
    running += per_edge[e];
    s.cumulative[e] = running;
  }
  s.sum_us = static_cast<double>(h.sum_ns()) / 1e3;
  return s;
}

std::string prometheus_name(const std::string& dotted) {
  std::string out;
  out.reserve(dotted.size() + 4);
  out += "lm_";
  for (char c : dotted) {
    out += name_char(c) && c != ':' ? c : '_';
  }
  return out;
}

std::string prometheus_label_escape(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// TelemetryHub
// ---------------------------------------------------------------------------

void TelemetryHub::add_metrics(const MetricsRegistry* m) {
  std::lock_guard<std::mutex> lock(mu_);
  registries_.push_back(m);
}

void TelemetryHub::add_collector(GaugeCollector c) {
  std::lock_guard<std::mutex> lock(mu_);
  collectors_.push_back(std::move(c));
}

void TelemetryHub::add_histograms(HistogramCollector c) {
  std::lock_guard<std::mutex> lock(mu_);
  histograms_.push_back(std::move(c));
}

void TelemetryHub::add_health(HealthCollector c) {
  std::lock_guard<std::mutex> lock(mu_);
  health_.push_back(std::move(c));
}

std::string TelemetryHub::prometheus_text() const {
  std::string out;
  render_prometheus(out);
  return out;
}

void TelemetryHub::render_prometheus(std::string& out) const {
  std::vector<const MetricsRegistry*> regs;
  std::vector<GaugeCollector> cols;
  std::vector<HistogramCollector> hists;
  {
    std::lock_guard<std::mutex> lock(mu_);
    regs = registries_;
    cols = collectors_;
    hists = histograms_;
  }

  // Registry instruments. Multiple registries (runtime + per-session) may
  // carry the same series; counters sum, high-water gauges take the max —
  // duplicate series lines would be malformed exposition.
  std::map<std::string, uint64_t> counters;
  std::map<std::string, uint64_t> gauges;
  for (const MetricsRegistry* r : regs) {
    for (const auto& [n, v] : r->snapshot_counters()) counters[n] += v;
    for (const auto& [n, v] : r->snapshot_gauges()) {
      auto& slot = gauges[n];
      slot = std::max(slot, v);
    }
  }

  std::vector<GaugeSample> samples;
  for (const auto& c : cols) c(samples);
  std::vector<HistogramSample> hsamples;
  for (const auto& c : hists) c(hsamples);

  for (const auto& [n, v] : counters) {
    std::string name = prometheus_name(n) + "_total";
    out += "# TYPE " + name + " counter\n";
    out += name + " " + std::to_string(v) + "\n";
  }
  for (const auto& [n, v] : gauges) {
    std::string name = prometheus_name(n);
    out += "# TYPE " + name + " gauge\n";
    out += name + " " + std::to_string(v) + "\n";
  }

  // Live samples, grouped per family (the text format requires all lines
  // of one metric family to be contiguous).
  std::stable_sort(samples.begin(), samples.end(),
                   [](const GaugeSample& a, const GaugeSample& b) {
                     return a.name < b.name;
                   });
  for (size_t i = 0; i < samples.size(); ++i) {
    std::string name = prometheus_name(samples[i].name);
    if (i == 0 || samples[i].name != samples[i - 1].name) {
      out += "# TYPE " + name + " gauge\n";
    }
    out += name;
    append_labels(out, samples[i].labels);
    out += ' ';
    append_value(out, samples[i].value);
    out += '\n';
  }

  // Native histograms: `family_bucket{...,le="edge"}` cumulative counts,
  // the implicit le="+Inf" bucket, then `_sum`/`_count`. Same family from
  // several collectors (e.g. one remote session per endpoint) stays
  // contiguous under one TYPE line.
  std::stable_sort(hsamples.begin(), hsamples.end(),
                   [](const HistogramSample& a, const HistogramSample& b) {
                     return a.name < b.name;
                   });
  for (size_t i = 0; i < hsamples.size(); ++i) {
    const HistogramSample& h = hsamples[i];
    std::string name = prometheus_name(h.name);
    if (i == 0 || h.name != hsamples[i - 1].name) {
      out += "# TYPE " + name + " histogram\n";
    }
    auto bucket_labels = [&](double le, bool inf) {
      out += '{';
      for (const auto& [k, v] : h.labels) {
        out += sanitize_label_name(k);
        out += "=\"";
        out += prometheus_label_escape(v);
        out += "\",";
      }
      out += "le=\"";
      if (inf) {
        out += "+Inf";
      } else {
        append_value(out, le);
      }
      out += "\"}";
    };
    for (size_t e = 0; e < h.le_us.size(); ++e) {
      out += name;
      out += "_bucket";
      bucket_labels(h.le_us[e], false);
      out += ' ';
      out += std::to_string(e < h.cumulative.size() ? h.cumulative[e] : 0);
      out += '\n';
    }
    out += name;
    out += "_bucket";
    bucket_labels(0, true);
    out += ' ';
    out += std::to_string(h.count);
    out += '\n';
    out += name;
    out += "_sum";
    append_labels(out, h.labels);
    out += ' ';
    append_value(out, h.sum_us);
    out += '\n';
    out += name;
    out += "_count";
    append_labels(out, h.labels);
    out += ' ';
    out += std::to_string(h.count);
    out += '\n';
  }
}

std::string TelemetryHub::health_json(bool* healthy) const {
  std::vector<HealthCollector> probes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    probes = health_;
  }
  std::vector<HealthComponent> comps;
  for (const auto& p : probes) p(comps);

  bool ok = true;
  for (const auto& c : comps) ok = ok && c.ok;
  if (healthy) *healthy = ok;

  std::string out = "{\"status\":\"";
  out += ok ? "ok" : "degraded";
  out += "\",\"components\":[";
  bool first = true;
  for (const auto& c : comps) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"" + json_escape(c.name) + "\",\"ok\":";
    out += c.ok ? "true" : "false";
    if (!c.detail.empty()) {
      out += ",\"detail\":\"" + json_escape(c.detail) + "\"";
    }
    out += '}';
  }
  out += "]}";
  return out;
}

// ---------------------------------------------------------------------------
// Prometheus text validation
// ---------------------------------------------------------------------------

bool validate_prometheus_text(const std::string& body, std::string* error) {
  return parse_exposition(body, nullptr, error);
}

// ---------------------------------------------------------------------------
// ClockOffsetEstimator
// ---------------------------------------------------------------------------

void ClockOffsetEstimator::update(double t0_us, double t1_us, double sr_us,
                                  double ss_us) {
  double rtt = (t1_us - t0_us) - (ss_us - sr_us);
  if (rtt < 0) rtt = 0;  // clock jitter can make the wire time go negative
  double offset = offset_from(t0_us, t1_us, sr_us, ss_us);
  std::lock_guard<std::mutex> lock(mu_);
  ++samples_;
  if (samples_ == 1 || rtt < best_rtt_us_) {
    best_rtt_us_ = rtt;
    offset_us_ = offset;
  }
}

double ClockOffsetEstimator::offset_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return offset_us_;
}

double ClockOffsetEstimator::best_rtt_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return best_rtt_us_;
}

uint64_t ClockOffsetEstimator::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

}  // namespace lm::obs
