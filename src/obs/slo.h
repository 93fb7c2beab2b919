// Declarative SLO watchdog over FleetSnapshots (ISSUE 10).
//
// A rules file is a line-oriented list of objectives the fleet must hold:
//
//   # comments and blank lines are skipped
//   rate(net.heartbeat_misses) < 1/s        # counter rate, per second
//   gauge(executor.queue_depth) < 64        # instantaneous gauge value
//   gauge(executor.queue_depth) p99 < 32    # pQQ over a sliding window
//   scrape_staleness < 2x                   # multiples of the staleness
//   scrape_staleness < 500ms                # ... or absolute ms / s
//
// Series are written in the dotted form the code registers
// ("executor.queue_depth"), not the mangled Prometheus name — the watchdog
// mangles with prometheus_name() (and appends "_total" for rates) exactly
// like the exporter does. Comparators: < <= > >=. A rule states the
// condition that must HOLD; a violation is recorded when it does not.
//
// Every rule is evaluated per endpoint against each FleetSnapshot.
// rate()/gauge() rules only judge kUp endpoints (a down server has no
// meaningful rate — scrape_staleness is the rule that catches it, and it
// judges every endpoint that has ever been scraped). Each new violation is
// one "slo" instant, recorded into the flight recorder and, when a
// TraceRecorder is installed, into the trace — so a soak's trace shows
// exactly when the fleet left its envelope. `lmtop --check` /
// `lmc --fleet-snapshot` turn a nonzero violation count into a nonzero
// exit for CI.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "obs/fleet.h"

namespace lm::obs {

struct SloRule {
  enum class Kind { kRate, kGauge, kStaleness };
  enum class Cmp { kLt, kLe, kGt, kGe };

  Kind kind = Kind::kGauge;
  Cmp cmp = Cmp::kLt;
  std::string series;     // dotted name as written ("" for staleness)
  std::string prom_name;  // mangled lookup key ("_total" appended for rates)
  /// 0 → compare the instantaneous value; else pQQ (e.g. 99) over the
  /// sliding window of recent values for that (rule, endpoint).
  double percentile = 0;
  double threshold = 0;  // staleness thresholds are µs or interval-multiples
  /// scrape_staleness only: threshold counts multiples of the snapshot's
  /// staleness deadline ("2x") rather than absolute µs.
  bool threshold_in_deadlines = false;
  std::string text;  // original rule line, for reports
};

struct SloViolation {
  std::string endpoint;
  std::string rule;  // original rule text
  double value = 0;
  double threshold = 0;  // resolved (absolute) threshold
};

/// Parses a rules file body. Returns false and sets *error ("line N: why")
/// on the first malformed rule; *out is untouched on failure.
bool parse_slo_rules(const std::string& text, std::vector<SloRule>* out,
                     std::string* error);

class SloWatchdog {
 public:
  /// Window of recent gauge values kept per (rule, endpoint) for
  /// percentile rules.
  static constexpr size_t kWindow = 128;

  explicit SloWatchdog(std::vector<SloRule> rules);

  /// Judges one snapshot. Returns this round's violations (also recorded
  /// as instants in the flight recorder and any installed trace), and
  /// accumulates total_violations().
  std::vector<SloViolation> evaluate(const FleetSnapshot& snap);

  uint64_t total_violations() const { return total_violations_; }
  const std::vector<SloRule>& rules() const { return rules_; }

 private:
  std::vector<SloRule> rules_;
  /// rule index + endpoint -> recent values, for pQQ rules.
  std::map<std::pair<size_t, std::string>, std::deque<double>> windows_;
  uint64_t total_violations_ = 0;
};

}  // namespace lm::obs
