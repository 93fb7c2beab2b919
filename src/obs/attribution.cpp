#include "obs/attribution.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>

namespace lm::obs {

namespace {

constexpr double kEps = 1e-3;  // 1ns in recorder µs — boundary tolerance

/// Backward-walk state: collects segments in descending time order.
struct Walker {
  const GraphRun& run;
  std::vector<Attribution::Segment> segs;  // descending; reversed at end

  /// This graph's dispatch runs and their node, per thread row, by end.
  using RowRun = std::pair<const DispatchRun*, int>;
  std::map<uint32_t, std::vector<RowRun>> by_row;

  explicit Walker(const GraphRun& r) : run(r) {
    for (size_t i = 0; i < run.tasks.size(); ++i) {
      for (const DispatchRun& d : run.tasks[i].runs) {
        by_row[d.tid].emplace_back(&d, static_cast<int>(i));
      }
    }
    for (auto& [row, runs] : by_row) {
      std::sort(runs.begin(), runs.end(), [](const RowRun& a, const RowRun& b) {
        return a.first->end < b.first->end;
      });
    }
  }

  /// The run of another task that held thread `row` last before `t`,
  /// ending after `lo`: what a task queued for that thread waited behind.
  /// Null when the thread ran nothing of this graph in (lo, t].
  const RowRun* holder(int node, uint32_t row, double lo, double t) const {
    auto it = by_row.find(row);
    if (it == by_row.end()) return nullptr;
    const std::vector<RowRun>& runs = it->second;
    auto h = std::upper_bound(
        runs.begin(), runs.end(), t + kEps,
        [](double v, const RowRun& x) { return v < x.first->end; });
    while (h != runs.begin() && (--h)->first->end > lo + kEps) {
      if (h->second != node && h->first->start < t) return &*h;
    }
    return nullptr;
  }

  void emit(int node, const char* cat, double lo, double hi) {
    emit(node, std::string(cat), lo, hi);
  }
  void emit(int node, std::string cat, double lo, double hi) {
    if (hi - lo < kEps) return;
    Attribution::Segment s;
    s.task = node >= 0 && node < static_cast<int>(run.tasks.size())
                 ? run.tasks[static_cast<size_t>(node)].label
                 : "?";
    s.category = std::move(cat);
    s.t0_us = lo;
    s.t1_us = hi;
    segs.push_back(std::move(s));
  }

  /// Splits a remote drain slice into rpc-wait (covered by a round-trip
  /// span) and serde (marshal/unmarshal around it).
  void attribute_remote_drain(int node, double lo, double hi) {
    double x = hi;
    for (auto it = run.rpcs.rbegin(); it != run.rpcs.rend() && x > lo + kEps;
         ++it) {
      if (it->first >= x) continue;
      if (it->second <= lo) break;
      double rhi = std::min(x, it->second);
      double rlo = std::max(lo, it->first);
      if (rhi < x) emit(node, "serde", rhi, x);
      emit(node, "rpc-wait", rlo, rhi);
      x = rlo;
    }
    if (x > lo) emit(node, "serde", lo, x);
  }

  /// Attributes a running slice [lo,hi]: drain time by backend, the rest
  /// serde (device tasks) or interpreter compute.
  void consume_running(int node, const TaskTimeline& tl, double lo,
                       double hi) {
    const char* base = tl.is_device() ? "serde" : "compute:cpu";
    double x = hi;
    for (auto it = tl.drains.rbegin(); it != tl.drains.rend() && x > lo + kEps;
         ++it) {
      if (it->t0 >= x) continue;
      if (it->t1 <= lo) break;
      double dhi = std::min(x, it->t1);
      double dlo = std::max(lo, it->t0);
      if (dhi < x) emit(node, base, dhi, x);
      if (dhi > dlo) {
        if (it->device.find('@') != std::string::npos) {
          attribute_remote_drain(node, dlo, dhi);
        } else {
          emit(node, "compute:" + it->device, dlo, dhi);
        }
      }
      x = dlo;
    }
    if (x > lo) emit(node, base, lo, x);
  }

  void walk() {
    const double t0 = run.t0_us;
    if (run.tasks.empty()) {
      emit(-1, "sched", t0, run.t1_us);
      return;
    }
    int cur = static_cast<int>(run.tasks.size()) - 1;  // the sink
    double t = run.t1_us;
    int redirects = 0;
    const int max_redirects = static_cast<int>(run.tasks.size()) + 2;
    // Hard cap: segments are bounded by total dispatch phases + forced
    // fifo-blocked fallbacks; this is a corrupted-trace backstop.
    size_t budget = 0;
    for (const TaskTimeline& tl : run.tasks) budget += tl.runs.size();
    budget = budget * 8 + 4096;
    while (t > t0 + kEps && budget-- > 0) {
      const TaskTimeline& tl = run.tasks[static_cast<size_t>(cur)];
      // Last dispatch whose park0 is strictly before t — per task the
      // [park0,end] intervals tile its active region, so this locates the
      // phase containing the instant just before t.
      const DispatchRun* d = nullptr;
      {
        auto it = std::upper_bound(
            tl.runs.begin(), tl.runs.end(), t,
            [](double v, const DispatchRun& r) { return v <= r.park0; });
        if (it != tl.runs.begin()) d = &*std::prev(it);
      }
      if (d == nullptr) {
        // Before the task's first dispatch: the task existed but was never
        // woken. For any non-source task that means upstream hadn't
        // produced yet — the producer's timeline carries the critical path
        // (this is how a device drain that finishes before the sink's
        // first wake still lands on the path). The source's own
        // pre-dispatch window is genuine executor/startup overhead.
        if (cur > 0 && ++redirects <= max_redirects) {
          --cur;
          continue;
        }
        emit(cur, "sched", t0, t);
        t = t0;
        break;
      }
      if (t > d->end + kEps) {
        // Past the task's recorded activity (teardown, or a peer redirect
        // landed after the peer finished).
        emit(cur, "sched", std::max(d->end, t0), t);
        t = d->end;
        redirects = 0;
        continue;
      }
      if (t > d->start) {
        consume_running(cur, tl, std::max(d->start, t0), t);
        t = d->start;
        redirects = 0;
        continue;
      }
      if (t > d->enq) {
        // Queued for a thread that was running another task of this graph
        // (a seeded run's only thread, or the worker whose local queue the
        // wake landed in): that task held the thread, so the path goes on
        // through its run. The gap between the two is dispatch overhead.
        if (const RowRun* h = holder(cur, d->tid, std::max(d->enq, t0), t)) {
          const double hi = std::min(t, h->first->end);
          const double lo = std::max(h->first->start, t0);
          emit(cur, "sched", hi, t);
          cur = h->second;
          consume_running(cur, run.tasks[static_cast<size_t>(cur)], lo, hi);
          t = lo;
          redirects = 0;
          continue;
        }
        emit(cur, "queue-wait", std::max(d->enq, t0), t);
        t = d->enq;
        redirects = 0;
        continue;
      }
      // Park phase [park0, enq).
      switch (d->reason) {
        case ParkReason::kRpc:
          emit(cur, "rpc-wait", std::max(d->park0, t0), t);
          t = d->park0;
          redirects = 0;
          break;
        case ParkReason::kPop:
        case ParkReason::kPush: {
          int peer = cur + (d->reason == ParkReason::kPop ? -1 : 1);
          if (peer >= 0 && peer < static_cast<int>(run.tasks.size()) &&
              ++redirects <= max_redirects) {
            cur = peer;  // the peer owed us data/space: walk its timeline
          } else {
            emit(cur, "fifo-blocked", std::max(d->park0, t0), t);
            t = d->park0;
            redirects = 0;
          }
          break;
        }
        case ParkReason::kNone:
          emit(cur, "sched", std::max(d->park0, t0), t);
          t = d->park0;
          redirects = 0;
          break;
      }
    }
    if (t > t0 + kEps) emit(cur, "sched", t0, t);  // budget exhausted
  }
};

void fmt(std::string& out, const char* f, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof(buf), f, ap);
  va_end(ap);
  out += buf;
}

std::string fmt_us(double us) {
  char buf[64];
  if (us >= 1000.0) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", us / 1000.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f us", us);
  }
  return buf;
}

}  // namespace

Attribution analyze_run(const GraphRun& run) {
  Attribution a;
  a.gid = run.gid;
  a.t0_us = run.t0_us;
  a.t1_us = run.t1_us;
  a.wall_us = run.wall_us();
  a.edges = run.edges;

  for (const TaskTimeline& tl : run.tasks) {
    Attribution::TaskShape shape;
    shape.task = tl.label.empty() ? "?" : tl.label;
    shape.dispatches = tl.runs.size();
    for (const DispatchRun& r : tl.runs) shape.steps += r.steps;
    shape.parks_pop = tl.parks_pop;
    shape.parks_push = tl.parks_push;
    shape.parks_rpc = tl.parks_rpc;
    a.tasks.push_back(std::move(shape));

    for (const DrainSpan& d : tl.drains) {
      double lo = std::max(d.t0, run.t0_us);
      double hi = std::min(d.t1, run.t1_us);
      if (hi <= lo) continue;
      auto it = std::find_if(
          a.devices.begin(), a.devices.end(),
          [&](const Attribution::DeviceUse& u) { return u.device == d.device; });
      if (it == a.devices.end()) {
        a.devices.push_back({d.device, hi - lo});
      } else {
        it->busy_us += hi - lo;
      }
    }
  }
  std::sort(a.devices.begin(), a.devices.end(),
            [](const Attribution::DeviceUse& x, const Attribution::DeviceUse& y) {
              return x.busy_us > y.busy_us;
            });

  if (a.wall_us <= 0) return a;

  Walker w(run);
  w.walk();
  std::reverse(w.segs.begin(), w.segs.end());
  a.segments = std::move(w.segs);

  std::map<std::string, double> by_cat;
  std::map<std::pair<std::string, std::string>, std::pair<double, uint64_t>>
      by_task_cat;
  for (const Attribution::Segment& s : a.segments) {
    by_cat[s.category] += s.t1_us - s.t0_us;
    auto& slot = by_task_cat[{s.task, s.category}];
    slot.first += s.t1_us - s.t0_us;
    ++slot.second;
  }
  for (auto& [name, us] : by_cat) a.categories.push_back({name, us});
  std::sort(a.categories.begin(), a.categories.end(),
            [](const Attribution::Category& x, const Attribution::Category& y) {
              return x.us > y.us;
            });
  for (auto& [key, val] : by_task_cat) {
    a.critical_path.push_back({key.first, key.second, val.first, val.second});
  }
  std::sort(a.critical_path.begin(), a.critical_path.end(),
            [](const Attribution::Contributor& x,
               const Attribution::Contributor& y) { return x.us > y.us; });
  return a;
}

std::vector<Attribution> attribute_trace(
    const std::vector<TraceEvent>& events) {
  std::vector<Attribution> out;
  for (const GraphRun& run : reconstruct_runs(events)) {
    out.push_back(analyze_run(run));
  }
  return out;
}

double Attribution::coverage() const {
  if (wall_us <= 0) return 0;
  double sum = 0;
  for (const Category& c : categories) sum += c.us;
  return sum / wall_us;
}

std::string Attribution::to_text() const {
  std::string out;
  fmt(out, "== attribution: graph %llu — wall %s ==\n",
      static_cast<unsigned long long>(gid), fmt_us(wall_us).c_str());
  out += "critical path (top contributors):\n";
  size_t shown = 0;
  for (const Contributor& c : critical_path) {
    if (shown++ >= 10) break;
    fmt(out, "  %-18s %-14s %12s  %5.1f%%  (%llu segment%s)\n",
        c.task.c_str(), c.category.c_str(), fmt_us(c.us).c_str(),
        wall_us > 0 ? 100.0 * c.us / wall_us : 0.0,
        static_cast<unsigned long long>(c.segments),
        c.segments == 1 ? "" : "s");
  }
  out += "category breakdown (sums to wall):\n";
  for (const Category& c : categories) {
    fmt(out, "  %-18s %12s  %5.1f%%\n", c.name.c_str(), fmt_us(c.us).c_str(),
        wall_us > 0 ? 100.0 * c.us / wall_us : 0.0);
  }
  if (!devices.empty()) {
    out += "device utilization:\n";
    for (const DeviceUse& d : devices) {
      fmt(out, "  %-24s busy %12s  %5.1f%%\n", d.device.c_str(),
          fmt_us(d.busy_us).c_str(),
          wall_us > 0 ? 100.0 * d.busy_us / wall_us : 0.0);
    }
  }
  if (!edges.empty()) {
    out += "fifo edges (blocked producer/consumer, high water):\n";
    for (const EdgeStat& e : edges) {
      fmt(out, "  edge %-3d prod %12s  cons %12s  hw %llu/%llu\n", e.edge,
          fmt_us(e.producer_blocked_us).c_str(),
          fmt_us(e.consumer_blocked_us).c_str(),
          static_cast<unsigned long long>(e.high_water),
          static_cast<unsigned long long>(e.capacity));
    }
  }
  fmt(out, "coverage: %.1f%% of wall attributed\n", 100.0 * coverage());
  return out;
}

std::string Attribution::to_json(bool structural) const {
  std::string out = "{";
  char buf[64];
  if (!structural) {
    fmt(out, "\"gid\":%llu,", static_cast<unsigned long long>(gid));
    std::snprintf(buf, sizeof(buf), "%.3f", wall_us);
    out += "\"wall_us\":";
    out += buf;
    std::snprintf(buf, sizeof(buf), "%.4f", coverage());
    out += ",\"coverage\":";
    out += buf;
    out += ",\"categories\":[";
    bool first = true;
    for (const Category& c : categories) {
      if (!first) out += ',';
      first = false;
      fmt(out, "{\"name\":\"%s\",\"us\":%.3f}", json_escape(c.name).c_str(),
          c.us);
    }
    out += "],\"critical_path\":[";
    first = true;
    for (const Contributor& c : critical_path) {
      if (!first) out += ',';
      first = false;
      fmt(out, "{\"task\":\"%s\",\"category\":\"%s\",\"us\":%.3f,"
          "\"segments\":%llu}",
          json_escape(c.task).c_str(), json_escape(c.category).c_str(), c.us,
          static_cast<unsigned long long>(c.segments));
    }
    out += "],\"segments\":[";
    first = true;
    for (const Segment& s : segments) {
      if (!first) out += ',';
      first = false;
      fmt(out, "{\"task\":\"%s\",\"category\":\"%s\",\"t0_us\":%.3f,"
          "\"t1_us\":%.3f}",
          json_escape(s.task).c_str(), json_escape(s.category).c_str(),
          s.t0_us, s.t1_us);
    }
    out += "],\"devices\":[";
    first = true;
    for (const DeviceUse& d : devices) {
      if (!first) out += ',';
      first = false;
      fmt(out, "{\"device\":\"%s\",\"busy_us\":%.3f}",
          json_escape(d.device).c_str(), d.busy_us);
    }
    out += "],";
  } else {
    out += "\"structural\":true,";
  }
  out += "\"tasks\":[";
  bool first = true;
  for (const TaskShape& t : tasks) {
    if (!first) out += ',';
    first = false;
    fmt(out,
        "{\"task\":\"%s\",\"dispatches\":%llu,\"steps\":%llu,"
        "\"parks_pop\":%llu,\"parks_push\":%llu,\"parks_rpc\":%llu}",
        json_escape(t.task).c_str(),
        static_cast<unsigned long long>(t.dispatches),
        static_cast<unsigned long long>(t.steps),
        static_cast<unsigned long long>(t.parks_pop),
        static_cast<unsigned long long>(t.parks_push),
        static_cast<unsigned long long>(t.parks_rpc));
  }
  out += "],\"edges\":[";
  first = true;
  for (const EdgeStat& e : edges) {
    if (!first) out += ',';
    first = false;
    if (structural) {
      fmt(out, "{\"edge\":%d,\"high_water\":%llu,\"capacity\":%llu}", e.edge,
          static_cast<unsigned long long>(e.high_water),
          static_cast<unsigned long long>(e.capacity));
    } else {
      fmt(out,
          "{\"edge\":%d,\"producer_blocked_us\":%.3f,"
          "\"consumer_blocked_us\":%.3f,\"high_water\":%llu,"
          "\"capacity\":%llu}",
          e.edge, e.producer_blocked_us, e.consumer_blocked_us,
          static_cast<unsigned long long>(e.high_water),
          static_cast<unsigned long long>(e.capacity));
    }
  }
  out += "]}";
  return out;
}

}  // namespace lm::obs
