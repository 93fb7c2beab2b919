#include "obs/slo.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "obs/telemetry.h"
#include "obs/trace.h"

namespace lm::obs {

namespace {

void skip_ws(const std::string& s, size_t& i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
}

bool parse_cmp(const std::string& s, size_t& i, SloRule::Cmp* out) {
  if (i >= s.size()) return false;
  if (s[i] == '<') {
    ++i;
    if (i < s.size() && s[i] == '=') {
      ++i;
      *out = SloRule::Cmp::kLe;
    } else {
      *out = SloRule::Cmp::kLt;
    }
    return true;
  }
  if (s[i] == '>') {
    ++i;
    if (i < s.size() && s[i] == '=') {
      ++i;
      *out = SloRule::Cmp::kGe;
    } else {
      *out = SloRule::Cmp::kGt;
    }
    return true;
  }
  return false;
}

bool holds(SloRule::Cmp cmp, double value, double threshold) {
  switch (cmp) {
    case SloRule::Cmp::kLt: return value < threshold;
    case SloRule::Cmp::kLe: return value <= threshold;
    case SloRule::Cmp::kGt: return value > threshold;
    case SloRule::Cmp::kGe: return value >= threshold;
  }
  return true;
}

/// Nearest-rank percentile over the window (q in (0,100]).
double window_percentile(const std::deque<double>& w, double q) {
  if (w.empty()) return 0;
  std::vector<double> v(w.begin(), w.end());
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q / 100.0 * v.size()));
  if (rank == 0) rank = 1;
  if (rank > v.size()) rank = v.size();
  return v[rank - 1];
}

}  // namespace

bool parse_slo_rules(const std::string& text, std::vector<SloRule>* out,
                     std::string* error) {
  std::vector<SloRule> rules;
  auto fail = [&](size_t lineno, const std::string& why) {
    if (error) *error = "line " + std::to_string(lineno) + ": " + why;
    return false;
  };

  size_t lineno = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t nl = text.find('\n', pos);
    std::string line = text.substr(
        pos, nl == std::string::npos ? std::string::npos : nl - pos);
    pos = nl == std::string::npos ? text.size() + 1 : nl + 1;
    ++lineno;
    // Strip a trailing comment and surrounding whitespace.
    size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    size_t b = line.find_first_not_of(" \t\r");
    if (b == std::string::npos) continue;
    size_t e = line.find_last_not_of(" \t\r");
    line = line.substr(b, e - b + 1);

    SloRule rule;
    rule.text = line;
    size_t i = 0;

    auto take_word = [&]() {
      size_t w0 = i;
      while (i < line.size() && (std::isalnum(line[i]) || line[i] == '_')) {
        ++i;
      }
      return line.substr(w0, i - w0);
    };

    std::string head = take_word();
    if (head == "rate" || head == "gauge") {
      rule.kind =
          head == "rate" ? SloRule::Kind::kRate : SloRule::Kind::kGauge;
      if (i >= line.size() || line[i] != '(') {
        return fail(lineno, "expected '(' after " + head);
      }
      ++i;
      size_t close = line.find(')', i);
      if (close == std::string::npos) {
        return fail(lineno, "missing ')' in " + head + "(...)");
      }
      rule.series = line.substr(i, close - i);
      if (rule.series.empty()) return fail(lineno, "empty series name");
      i = close + 1;
      rule.prom_name = prometheus_name(rule.series);
      if (rule.kind == SloRule::Kind::kRate) rule.prom_name += "_total";
      skip_ws(line, i);
      if (i < line.size() && line[i] == 'p' &&
          rule.kind == SloRule::Kind::kGauge) {
        ++i;
        char* end = nullptr;
        rule.percentile = std::strtod(line.c_str() + i, &end);
        if (!end || end == line.c_str() + i || rule.percentile <= 0 ||
            rule.percentile > 100) {
          return fail(lineno, "bad percentile in '" + rule.text + "'");
        }
        i = end - line.c_str();
        skip_ws(line, i);
      }
    } else if (head == "scrape_staleness") {
      rule.kind = SloRule::Kind::kStaleness;
      skip_ws(line, i);
    } else {
      return fail(lineno, "unknown rule '" + head +
                              "' (want rate/gauge/scrape_staleness)");
    }

    if (!parse_cmp(line, i, &rule.cmp)) {
      return fail(lineno, "expected comparator (< <= > >=)");
    }
    skip_ws(line, i);
    char* end = nullptr;
    rule.threshold = std::strtod(line.c_str() + i, &end);
    if (!end || end == line.c_str() + i || !std::isfinite(rule.threshold)) {
      return fail(lineno, "bad threshold in '" + rule.text + "'");
    }
    i = end - line.c_str();
    std::string unit = line.substr(i);
    size_t ue = unit.find_last_not_of(" \t");
    unit = ue == std::string::npos ? "" : unit.substr(0, ue + 1);
    if (rule.kind == SloRule::Kind::kStaleness) {
      if (unit == "x" || unit == "X") {
        rule.threshold_in_deadlines = true;
      } else if (unit == "s") {
        rule.threshold *= 1e6;
      } else if (unit == "ms") {
        rule.threshold *= 1e3;
      } else if (unit == "us" || unit.empty()) {
        // already µs
      } else {
        return fail(lineno, "bad staleness unit '" + unit +
                                "' (want x, s, ms or us)");
      }
    } else if (rule.kind == SloRule::Kind::kRate) {
      if (!unit.empty() && unit != "/s") {
        return fail(lineno, "bad rate unit '" + unit + "' (want /s)");
      }
    } else if (!unit.empty()) {
      return fail(lineno, "trailing garbage '" + unit + "'");
    }
    rules.push_back(std::move(rule));
  }

  *out = std::move(rules);
  return true;
}

SloWatchdog::SloWatchdog(std::vector<SloRule> rules)
    : rules_(std::move(rules)) {}

std::vector<SloViolation> SloWatchdog::evaluate(const FleetSnapshot& snap) {
  std::vector<SloViolation> violations;
  for (size_t ri = 0; ri < rules_.size(); ++ri) {
    const SloRule& rule = rules_[ri];
    for (const EndpointStatus& ep : snap.endpoints) {
      double value = 0;
      double threshold = rule.threshold;
      if (rule.kind == SloRule::Kind::kStaleness) {
        if (ep.state == EndpointStatus::State::kUnknown) continue;
        value = ep.staleness_us;
        if (rule.threshold_in_deadlines) {
          threshold = rule.threshold * snap.staleness_deadline_us;
        }
      } else {
        if (ep.state != EndpointStatus::State::kUp) continue;
        const auto& m =
            rule.kind == SloRule::Kind::kRate ? ep.rates : ep.gauges;
        auto it = m.find(rule.prom_name);
        value = it != m.end() ? it->second : 0;
        if (rule.percentile > 0) {
          std::deque<double>& w = windows_[{ri, ep.endpoint}];
          w.push_back(value);
          if (w.size() > kWindow) w.pop_front();
          value = window_percentile(w, rule.percentile);
        }
      }
      if (holds(rule.cmp, value, threshold)) continue;

      SloViolation v;
      v.endpoint = ep.endpoint;
      v.rule = rule.text;
      v.value = value;
      v.threshold = threshold;
      ++total_violations_;

      record_instant(TraceRecorder::current(), "slo", "slo:" + rule.text,
                     JsonArgs()
                         .add("endpoint", ep.endpoint)
                         .add("value", value)
                         .add("threshold", threshold)
                         .str());
      violations.push_back(std::move(v));
    }
  }
  return violations;
}

}  // namespace lm::obs
