#include "obs/critical_path.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string_view>

namespace lm::obs {

namespace {

/// Locates the value position of `"key":` in an args body, or npos.
/// Stack-built pattern: this runs per key per event, so a heap-allocated
/// std::string here dominated the whole reconstruction pass.
size_t find_value(const std::string& args, const char* key) {
  char pat[40];
  size_t klen = std::strlen(key);
  if (klen + 4 > sizeof pat) return std::string::npos;
  pat[0] = '"';
  std::memcpy(pat + 1, key, klen);
  pat[klen + 1] = '"';
  pat[klen + 2] = ':';
  pat[klen + 3] = '\0';
  size_t pos = args.find(pat);
  return pos == std::string::npos ? std::string::npos : pos + klen + 3;
}

ParkReason parse_reason(const std::string& s) {
  if (s == "pop") return ParkReason::kPop;
  if (s == "push") return ParkReason::kPush;
  if (s == "rpc") return ParkReason::kRpc;
  return ParkReason::kNone;
}

}  // namespace

bool args_number(const std::string& args, const char* key, double* out) {
  size_t pos = find_value(args, key);
  if (pos == std::string::npos) return false;
  const char* start = args.c_str() + pos;
  char* end = nullptr;
  double v = std::strtod(start, &end);
  if (end == start) return false;
  *out = v;
  return true;
}

bool args_string(const std::string& args, const char* key, std::string* out) {
  size_t pos = find_value(args, key);
  if (pos == std::string::npos || pos >= args.size() || args[pos] != '"') {
    return false;
  }
  std::string v;
  for (size_t i = pos + 1; i < args.size(); ++i) {
    char c = args[i];
    if (c == '\\' && i + 1 < args.size()) {
      v += args[++i];  // args bodies only ever escape '"' and '\\'
      continue;
    }
    if (c == '"') {
      *out = std::move(v);
      return true;
    }
    v += c;
  }
  return false;
}

std::vector<GraphRun> reconstruct_runs(const std::vector<TraceEvent>& events) {
  std::map<uint64_t, GraphRun> runs;
  // Pass 1: the graph.run windows define which gids exist.
  for (const TraceEvent& e : events) {
    if (e.phase != TraceEvent::Phase::kComplete) continue;
    if (std::string_view(e.category) != "runtime" || e.name != "graph.run") {
      continue;
    }
    double gid = 0;
    if (!args_number(e.args, "gid", &gid) || gid <= 0) continue;
    GraphRun& run = runs[static_cast<uint64_t>(gid)];
    run.gid = static_cast<uint64_t>(gid);
    run.t0_us = e.ts_us;
    run.t1_us = e.ts_us + e.dur_us;
  }
  if (runs.empty()) return {};

  auto task_for = [](GraphRun& run, int node,
                     const std::string& label) -> TaskTimeline& {
    if (node >= static_cast<int>(run.tasks.size())) {
      run.tasks.resize(static_cast<size_t>(node) + 1);
    }
    TaskTimeline& tl = run.tasks[static_cast<size_t>(node)];
    tl.node = node;
    if (tl.label.empty()) tl.label = label;
    return tl;
  };

  for (const TraceEvent& e : events) {
    const std::string_view cat(e.category);
    if (cat == "exec" && e.phase == TraceEvent::Phase::kComplete) {
      double gid = 0, node = -1;
      if (!args_number(e.args, "gid", &gid) ||
          !args_number(e.args, "node", &node) || node < 0) {
        continue;
      }
      auto it = runs.find(static_cast<uint64_t>(gid));
      if (it == runs.end()) continue;
      TaskTimeline& tl = task_for(it->second, static_cast<int>(node), e.name);
      DispatchRun r;
      r.tid = e.tid;
      r.start = e.ts_us;
      r.end = e.ts_us + e.dur_us;
      double queue_us = 0, park_us = 0, steps = 0;
      args_number(e.args, "queue_us", &queue_us);
      r.enq = r.start - std::max(0.0, queue_us);
      if (args_number(e.args, "park_us", &park_us)) {
        std::string reason;
        args_string(e.args, "reason", &reason);
        r.reason = parse_reason(reason);
        r.park0 = r.enq - std::max(0.0, park_us);
      } else {
        r.park0 = r.enq;
      }
      if (args_number(e.args, "steps", &steps)) {
        r.steps = static_cast<uint64_t>(steps);
      }
      switch (r.reason) {
        case ParkReason::kPop: ++tl.parks_pop; break;
        case ParkReason::kPush: ++tl.parks_push; break;
        case ParkReason::kRpc: ++tl.parks_rpc; break;
        case ParkReason::kNone: break;
      }
      tl.runs.push_back(r);
    } else if (cat == "task" && e.phase == TraceEvent::Phase::kComplete &&
               e.name.rfind("drain:", 0) == 0) {
      double gid = 0, node = -1;
      std::string device;
      if (!args_number(e.args, "gid", &gid) ||
          !args_number(e.args, "node", &node) || node < 0 ||
          !args_string(e.args, "device", &device)) {
        continue;
      }
      auto it = runs.find(static_cast<uint64_t>(gid));
      if (it == runs.end()) continue;
      TaskTimeline& tl = task_for(it->second, static_cast<int>(node), "");
      tl.drains.push_back({e.ts_us, e.ts_us + e.dur_us, std::move(device)});
    } else if (cat == "fifo" && e.name.rfind("edge:", 0) == 0) {
      double gid = 0, edge = -1;
      if (!args_number(e.args, "gid", &gid) ||
          !args_number(e.args, "edge", &edge) || edge < 0) {
        continue;
      }
      auto it = runs.find(static_cast<uint64_t>(gid));
      if (it == runs.end()) continue;
      EdgeStat s;
      s.edge = static_cast<int>(edge);
      args_number(e.args, "producer_blocked_us", &s.producer_blocked_us);
      args_number(e.args, "consumer_blocked_us", &s.consumer_blocked_us);
      double hw = 0, cap = 0;
      if (args_number(e.args, "high_water", &hw)) {
        s.high_water = static_cast<uint64_t>(hw);
      }
      if (args_number(e.args, "capacity", &cap)) {
        s.capacity = static_cast<uint64_t>(cap);
      }
      it->second.edges.push_back(s);
    } else if (cat == "net" && e.phase == TraceEvent::Phase::kComplete &&
               e.name.rfind("rpc:", 0) == 0) {
      // Remote round-trips carry a trace id but no gid; attach by time
      // containment to every overlapping run (blind spot: concurrent
      // multi-graph remote traffic, see DESIGN.md §12).
      for (auto& [gid, run] : runs) {
        if (e.ts_us + e.dur_us > run.t0_us && e.ts_us < run.t1_us) {
          run.rpcs.emplace_back(e.ts_us, e.ts_us + e.dur_us);
        }
      }
    }
  }

  std::vector<GraphRun> out;
  out.reserve(runs.size());
  for (auto& [gid, run] : runs) {
    for (TaskTimeline& tl : run.tasks) {
      std::sort(tl.runs.begin(), tl.runs.end(),
                [](const DispatchRun& a, const DispatchRun& b) {
                  return a.start < b.start;
                });
      std::sort(tl.drains.begin(), tl.drains.end(),
                [](const DrainSpan& a, const DrainSpan& b) {
                  return a.t0 < b.t0;
                });
    }
    std::sort(run.edges.begin(), run.edges.end(),
              [](const EdgeStat& a, const EdgeStat& b) {
                return a.edge < b.edge;
              });
    std::sort(run.rpcs.begin(), run.rpcs.end());
    out.push_back(std::move(run));
  }
  return out;
}

}  // namespace lm::obs
