// lmtop — live telemetry viewer for Liquid Metal processes.
//
// Polls the /metrics endpoint a runtime (`lmc --telemetry-port=N`) or a
// device server (`lmdev --telemetry-port N`) exports and renders a plain
// text dashboard: per-task throughput and in-flight batches, FIFO depths,
// remote-session health (RTT, reconnects, clock offset), and the headline
// counters. No curses, no curl — a scrape is one HTTP/1.0 GET.
//
//   lmtop host:port                poll every second, redraw
//   lmtop host:port --interval=250 poll every 250 ms
//   lmtop host:port --once         one scrape, one render, exit
//   lmtop host:port --raw          dump the exposition text verbatim
//   lmtop host:port --check        scrape once, validate the Prometheus
//                                  exposition grammar; exit 1 on malformed
//                                  output or an unreachable endpoint
//   lmtop host:port --check --check-series=a,b
//                                  additionally require each named series
//                                  to be present in the scrape
//
// --check is the machine mode: tools/check.sh points it at the live
// endpoints at 10 Hz during the loopback soaks, so a regression that
// breaks the exposition format (or wedges the exporter) fails CI.
// --check-series pins specific series (e.g. lm_attr_analyzed_graphs,
// lm_executor_queue_wait_us on a runtime exporter) so silently dropping
// a telemetry family also fails the gate.
//
// Fleet mode (ISSUE 10) watches N processes at once:
//
//   lmtop --fleet=h:p,h:p,…        ranked panel: state/health/queue/RTT
//                                  per endpoint, merged by obs::FleetView
//   … --drill=h:p                  drill-down: that endpoint's full
//                                  per-family rate/gauge tables
//   … --slo=rules.slo              evaluate SLO rules every round; violations
//                                  print, hit the flight recorder, and
//                                  (with --check) fail the exit code
//   … --check [--json]             machine mode: a few scrape cycles,
//                                  the cluster snapshot as JSON on
//                                  stdout, exit 1 on SLO violation or a
//                                  fleet with nothing up
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "net/client.h"
#include "net/scraper.h"
#include "net/telemetry_http.h"
#include "obs/fleet.h"
#include "obs/slo.h"
#include "obs/telemetry.h"
#include "util/strings.h"

namespace {

using namespace lm;

int usage() {
  std::cerr << "usage: lmtop <host:port> [--interval=ms] [--once] [--raw]\n"
               "             [--check] [--check-series=name,name..]\n"
               "       lmtop --fleet=host:port,.. [--interval=ms] [--once]\n"
               "             [--slo=file] [--drill=host:port] [--check]\n"
               "             [--json]\n";
  return 2;
}

struct Sample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0;
};

/// The samples of an exposition, labels keyed by name; empty when the body
/// does not parse (obs::parse_exposition is the one grammar).
std::vector<Sample> parse_metrics(const std::string& body) {
  std::vector<Sample> out;
  obs::ParsedScrape scrape;
  if (!obs::parse_exposition(body, &scrape, nullptr)) return out;
  for (obs::ParsedSample& p : scrape.samples) {
    out.push_back({std::move(p.name), {p.labels.begin(), p.labels.end()},
                   p.value});
  }
  return out;
}

double find_value(const std::vector<Sample>& ms, const std::string& name,
                  const std::map<std::string, std::string>& labels,
                  bool* found = nullptr) {
  for (const Sample& s : ms) {
    if (s.name != name) continue;
    bool match = true;
    for (const auto& [k, v] : labels) {
      auto it = s.labels.find(k);
      if (it == s.labels.end() || it->second != v) {
        match = false;
        break;
      }
    }
    if (match) {
      if (found) *found = true;
      return s.value;
    }
  }
  if (found) *found = false;
  return 0;
}

std::string fmt(double v) {
  char buf[32];
  if (v == static_cast<double>(static_cast<long long>(v)) && v < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f", v);
  }
  return buf;
}

/// One dashboard frame from a parsed scrape. `prev`/`dt_s` feed the
/// throughput column (delta elements over the poll interval).
void render(const std::string& endpoint, const std::string& health,
            const std::vector<Sample>& ms, const std::vector<Sample>& prev,
            double dt_s) {
  std::ostringstream os;
  os << "lmtop — " << endpoint << "   health: " << health << "\n\n";

  // Tasks: every (task, device) pair seen in the task.* gauge family.
  std::vector<std::pair<std::string, std::string>> tasks;
  for (const Sample& s : ms) {
    if (s.name != "lm_task_batches") continue;
    auto t = s.labels.find("task");
    auto d = s.labels.find("device");
    if (t == s.labels.end() || d == s.labels.end()) continue;
    tasks.emplace_back(t->second, d->second);
  }
  std::sort(tasks.begin(), tasks.end());
  if (!tasks.empty()) {
    os << "  task                     device              batches   "
          "elements    elem/s  inflight  us/elem\n";
    for (const auto& [task, dev] : tasks) {
      std::map<std::string, std::string> l = {{"task", task},
                                              {"device", dev}};
      double elems = find_value(ms, "lm_task_elements", l);
      double rate = 0;
      if (dt_s > 0) {
        bool had = false;
        double before = find_value(prev, "lm_task_elements", l, &had);
        if (had && elems >= before) rate = (elems - before) / dt_s;
      }
      char row[256];
      std::snprintf(row, sizeof(row),
                    "  %-24s %-18s %8s %10s %9s %9s %8s\n", task.c_str(),
                    dev.c_str(),
                    fmt(find_value(ms, "lm_task_batches", l)).c_str(),
                    fmt(elems).c_str(), fmt(rate).c_str(),
                    fmt(find_value(ms, "lm_task_in_flight", l)).c_str(),
                    fmt(find_value(ms, "lm_task_ewma_us_per_elem", l))
                        .c_str());
      os << row;
    }
    os << "\n";
  }

  // FIFOs: depth/capacity per (graph, queue).
  bool any_fifo = false;
  for (const Sample& s : ms) {
    if (s.name != "lm_fifo_depth") continue;
    if (!any_fifo) {
      os << "  fifo            depth / capacity\n";
      any_fifo = true;
    }
    auto g = s.labels.find("graph");
    auto q = s.labels.find("queue");
    std::string id = "g" + (g != s.labels.end() ? g->second : "?") + ".q" +
                     (q != s.labels.end() ? q->second : "?");
    double cap = find_value(ms, "lm_fifo_capacity", s.labels);
    char row[128];
    std::snprintf(row, sizeof(row), "  %-14s %6s / %s\n", id.c_str(),
                  fmt(s.value).c_str(), fmt(cap).c_str());
    os << row;
  }
  if (any_fifo) os << "\n";

  // Remote sessions: one row per endpoint label on remote.alive.
  bool any_remote = false;
  for (const Sample& s : ms) {
    if (s.name != "lm_remote_alive") continue;
    if (!any_remote) {
      os << "  remote               state     rtt_us  reconnects  "
            "clock_off_us\n";
      any_remote = true;
    }
    auto ep = s.labels.find("endpoint");
    std::string where = ep != s.labels.end() ? ep->second : "?";
    char row[192];
    std::snprintf(
        row, sizeof(row), "  %-20s %-8s %9s %11s %13s\n", where.c_str(),
        s.value > 0 ? "up" : "DOWN",
        fmt(find_value(ms, "lm_remote_rtt_ewma_us", s.labels)).c_str(),
        fmt(find_value(ms, "lm_remote_reconnects", s.labels)).c_str(),
        fmt(find_value(ms, "lm_remote_clock_offset_us", s.labels)).c_str());
    os << row;
  }
  if (any_remote) os << "\n";

  // Artifact cache (DESIGN.md §14): present when the scraped process
  // compiled with --cache. Hit rate is lifetime, not per-interval.
  bool have_cache = false;
  double chits = find_value(ms, "lm_cache_hits_total", {}, &have_cache);
  if (have_cache) {
    double cmiss = find_value(ms, "lm_cache_misses_total", {});
    double total = chits + cmiss;
    char row[256];
    std::snprintf(
        row, sizeof(row),
        "  cache:  hits %s  misses %s (%.1f%% hit)  stores %s  "
        "evictions %s  errors %s  %s byte(s) in %s entr%s\n\n",
        fmt(chits).c_str(), fmt(cmiss).c_str(),
        total > 0 ? 100.0 * chits / total : 0.0,
        fmt(find_value(ms, "lm_cache_stores_total", {})).c_str(),
        fmt(find_value(ms, "lm_cache_evictions_total", {})).c_str(),
        fmt(find_value(ms, "lm_cache_errors_total", {})).c_str(),
        fmt(find_value(ms, "lm_cache_bytes", {})).c_str(),
        fmt(find_value(ms, "lm_cache_entries", {})).c_str(),
        find_value(ms, "lm_cache_entries", {}) == 1.0 ? "y" : "ies");
    os << row;
  }

  // Critical-path attribution of the most recent graph run (lm_attr_*
  // gauges, exported once the runtime's attribution engine has analyzed a
  // completed executor graph).
  bool have_attr = false;
  double analyzed = find_value(ms, "lm_attr_analyzed_graphs", {}, &have_attr);
  if (have_attr && analyzed > 0) {
    double wall = find_value(ms, "lm_attr_wall_us", {});
    double cov = find_value(ms, "lm_attr_coverage", {});
    char head[160];
    std::snprintf(head, sizeof(head),
                  "  attribution (last of %s run(s)):  wall %s us   "
                  "coverage %.1f%%\n",
                  fmt(analyzed).c_str(), fmt(wall).c_str(), cov * 100.0);
    os << head;
    std::vector<std::pair<double, std::string>> cats;
    for (const Sample& s : ms) {
      if (s.name != "lm_attr_category_us") continue;
      auto c = s.labels.find("category");
      cats.emplace_back(s.value, c != s.labels.end() ? c->second : "?");
    }
    std::sort(cats.rbegin(), cats.rend());
    for (const auto& [us, cat] : cats) {
      char row[128];
      std::snprintf(row, sizeof(row), "    %-20s %12s us  %5.1f%%\n",
                    cat.c_str(), fmt(us).c_str(),
                    wall > 0 ? 100.0 * us / wall : 0.0);
      os << row;
    }
    os << "\n";
  }

  // Headline counters, when present.
  os << "  counters:";
  for (const char* name :
       {"lm_runtime_elements_streamed_total", "lm_net_requests_total",
        "lm_server_requests_total", "lm_trace_dropped_events_total",
        "lm_net_heartbeat_misses_total"}) {
    bool found = false;
    double v = find_value(ms, name, {}, &found);
    if (found) os << "  " << name << "=" << fmt(v);
  }
  os << "\n";
  std::cout << os.str();
  std::cout.flush();
}

// ---------------------------------------------------------------------------
// Fleet mode
// ---------------------------------------------------------------------------

/// Ranked cluster panel: FleetView already sorted endpoints best-first
/// (up > stale > down; then health desc, queue asc, RTT asc).
void render_fleet(const obs::FleetSnapshot& snap,
                  const std::vector<obs::SloViolation>& violations,
                  const std::string& drill) {
  std::ostringstream os;
  char head[160];
  std::snprintf(head, sizeof(head),
                "lmtop — fleet of %zu   up %zu  stale %zu  down %zu   "
                "staleness deadline %.0f ms\n\n",
                snap.endpoints.size(), snap.up, snap.stale, snap.down,
                snap.staleness_deadline_us / 1e3);
  os << head;
  os << "  endpoint              state    health   rtt_us   queue  "
        "inflight  hb_miss/s  exec_p99_us  ok/fail\n";
  for (const obs::EndpointStatus& e : snap.endpoints) {
    char row[256];
    std::snprintf(row, sizeof(row),
                  "  %-20s  %-7s  %6.2f  %7s  %6s  %8s  %9.2f  %11s  "
                  "%llu/%llu%s%s\n",
                  e.endpoint.c_str(), obs::to_string(e.state),
                  e.health_score, fmt(e.rtt_ewma_us).c_str(),
                  fmt(e.queue_depth).c_str(), fmt(e.in_flight).c_str(),
                  e.hb_miss_rate, fmt(e.exec_p99_us).c_str(),
                  static_cast<unsigned long long>(e.scrapes_ok),
                  static_cast<unsigned long long>(e.scrapes_failed),
                  e.last_error.empty() ? "" : "  ",
                  e.last_error.c_str());
    os << row;
  }
  if (!drill.empty()) {
    for (const obs::EndpointStatus& e : snap.endpoints) {
      if (e.endpoint != drill && drill != "all") continue;
      os << "\n  " << e.endpoint << " — drill-down\n";
      for (const auto& [name, v] : e.rates) {
        char row[160];
        std::snprintf(row, sizeof(row), "    rate   %-40s %12.3f /s\n",
                      name.c_str(), v);
        os << row;
      }
      for (const auto& [name, v] : e.gauges) {
        char row[160];
        std::snprintf(row, sizeof(row), "    gauge  %-40s %12s\n",
                      name.c_str(), fmt(v).c_str());
        os << row;
      }
      char foot[96];
      std::snprintf(foot, sizeof(foot),
                    "    counter resets observed: %llu\n",
                    static_cast<unsigned long long>(e.counter_resets));
      os << foot;
    }
  }
  if (!violations.empty()) {
    os << "\n  SLO violations this round:\n";
    for (const obs::SloViolation& v : violations) {
      char row[256];
      std::snprintf(row, sizeof(row), "    %-20s %s  (value %.6g vs %.6g)\n",
                    v.endpoint.c_str(), v.rule.c_str(), v.value,
                    v.threshold);
      os << row;
    }
  }
  os << "\n";
  std::cout << os.str();
  std::cout.flush();
}

int run_fleet(const std::vector<std::string>& endpoints, int interval_ms,
              bool once, bool check, bool json, const std::string& slo_path,
              const std::string& drill) {
  std::vector<obs::SloRule> rules;
  if (!slo_path.empty()) {
    std::ifstream in(slo_path);
    if (!in) {
      std::cerr << "lmtop: cannot read SLO rules: " << slo_path << "\n";
      return 2;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    std::string err;
    if (!obs::parse_slo_rules(ss.str(), &rules, &err)) {
      std::cerr << "lmtop: bad SLO rules (" << slo_path << "): " << err
                << "\n";
      return 2;
    }
  }
  obs::SloWatchdog watchdog(rules);

  net::TelemetryScraper::Options opts;
  opts.interval_ms = interval_ms;
  opts.timeout_ms = std::max(250, interval_ms);

  if (check) {
    // Machine mode: deterministic cycle count (3 rounds ≥ two rate
    // windows), snapshot JSON on stdout, violations → exit 1. check.sh
    // runs this against the live soak fleet.
    net::FleetCheckResult result =
        net::run_fleet_check(endpoints, &watchdog, 3, opts);
    std::cout << result.snapshot.to_json() << "\n";
    for (const obs::SloViolation& v : result.violations) {
      std::cerr << "lmtop: SLO violation: " << v.endpoint << ": " << v.rule
                << " (value " << v.value << ")\n";
    }
    if (result.snapshot.up == 0) {
      std::cerr << "lmtop: no endpoint up\n";
      return 1;
    }
    return result.violations.empty() ? 0 : 1;
  }

  net::TelemetryScraper scraper(endpoints, opts);
  const bool tty = ::isatty(STDOUT_FILENO) != 0;
  for (;;) {
    scraper.scrape_once();
    obs::FleetSnapshot snap = scraper.snapshot();
    std::vector<obs::SloViolation> violations = watchdog.evaluate(snap);
    if (json) {
      std::cout << snap.to_json() << "\n";
    } else {
      if (tty && !once) std::cout << "\033[H\033[2J";
      render_fleet(snap, violations, drill);
      if (!tty && !once) std::cout << "---\n";
    }
    if (once) {
      return 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string endpoint;
  int interval_ms = 1000;
  bool once = false, raw = false, check = false, json = false;
  std::vector<std::string> required_series;
  std::vector<std::string> fleet;
  std::string slo_path, drill;

  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--interval=", 0) == 0) {
      interval_ms = std::max(10, std::atoi(a.c_str() + 11));
    } else if (a == "--once") {
      once = true;
    } else if (a == "--raw") {
      raw = true;
    } else if (a == "--check") {
      check = true;
    } else if (a == "--json") {
      json = true;
    } else if (a.rfind("--fleet=", 0) == 0) {
      fleet = net::split_endpoint_list(a.substr(8));
    } else if (a.rfind("--slo=", 0) == 0) {
      slo_path = a.substr(6);
    } else if (a.rfind("--drill=", 0) == 0) {
      drill = a.substr(8);
    } else if (a.rfind("--check-series=", 0) == 0) {
      check = true;  // implies --check
      for (const auto& name : split(a.substr(15), ',')) {
        if (!name.empty()) required_series.push_back(name);
      }
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "lmtop: unknown flag " << a << "\n";
      return usage();
    } else {
      endpoint = a;
    }
  }
  if (!fleet.empty()) {
    return run_fleet(fleet, interval_ms, once, check, json, slo_path,
                     drill);
  }
  if (endpoint.empty()) return usage();

  std::string host;
  uint16_t port = 0;
  try {
    net::parse_endpoint(endpoint, &host, &port);
  } catch (const std::exception& e) {
    std::cerr << "lmtop: " << e.what() << "\n";
    return 2;
  }

  if (check) {
    // Machine mode: one scrape, grammar-checked. Any transport failure,
    // non-200, or exposition violation is a hard failure — this is what
    // the CI soak points at a live endpoint.
    try {
      std::string body;
      int status = net::http_get(host, port, "/metrics", &body);
      if (status != 200) {
        std::cerr << "lmtop: /metrics returned " << status << "\n";
        return 1;
      }
      std::string err;
      if (!obs::validate_prometheus_text(body, &err)) {
        std::cerr << "lmtop: malformed exposition: " << err << "\n";
        return 1;
      }
      std::vector<Sample> ms = parse_metrics(body);
      for (const std::string& name : required_series) {
        bool found = false;
        find_value(ms, name, {}, &found);
        if (!found) {
          std::cerr << "lmtop: required series " << name
                    << " missing from scrape\n";
          return 1;
        }
      }
      std::cout << "ok: " << ms.size() << " sample(s)";
      if (!required_series.empty()) {
        std::cout << ", " << required_series.size()
                  << " required series present";
      }
      std::cout << "\n";
      return 0;
    } catch (const std::exception& e) {
      std::cerr << "lmtop: scrape failed: " << e.what() << "\n";
      return 1;
    }
  }

  const bool tty = ::isatty(STDOUT_FILENO) != 0;
  std::vector<Sample> prev;
  auto prev_t = std::chrono::steady_clock::now();
  bool first = true;
  for (;;) {
    std::string body, health = "unreachable";
    std::vector<Sample> ms;
    try {
      int status = net::http_get(host, port, "/metrics", &body);
      if (status == 200) ms = parse_metrics(body);
      std::string hbody;
      int hstatus = net::http_get(host, port, "/healthz", &hbody);
      health = hstatus == 200 ? "ok" : "degraded (503)";
    } catch (const std::exception& e) {
      health = std::string("unreachable (") + e.what() + ")";
    }
    if (raw) {
      std::cout << body;
      if (once) return 0;
    } else {
      auto now = std::chrono::steady_clock::now();
      double dt_s =
          first ? 0 : std::chrono::duration<double>(now - prev_t).count();
      if (tty && !once) std::cout << "\033[H\033[2J";
      render(endpoint, health, ms, prev, dt_s);
      if (!tty && !once) std::cout << "---\n";
      prev = std::move(ms);
      prev_t = now;
      first = false;
      if (once) return 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}
