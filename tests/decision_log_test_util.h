// One-line rendering of a runtime's placement decisions, for golden tests.
// A row lists every SubstitutionRecord in decision order, then the
// (task, device) cost-model rows that drained batches: which nodes really
// ran as device nodes.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "runtime/liquid_runtime.h"

namespace lm::testing {

/// `endpoint`, when non-empty, is rendered as "<ep>" so rows taken over a
/// loopback server do not depend on its port.
inline std::string decision_row(const runtime::LiquidRuntime& rt,
                                const std::string& endpoint = {}) {
  auto mask = [&](std::string s) {
    if (endpoint.empty()) return s;
    for (size_t p = s.find(endpoint); p != std::string::npos;
         p = s.find(endpoint, p)) {
      s.replace(p, endpoint.size(), "<ep>");
    }
    return s;
  };
  std::string out;
  for (const runtime::SubstitutionRecord& s : rt.stats().substitutions) {
    char score[32];
    std::snprintf(score, sizeof(score), "%.6g", s.score_us_per_elem);
    if (!out.empty()) out += "; ";
    out += s.task_ids + "->" + runtime::to_string(s.device);
    if (s.fused) out += " fused";
    if (s.remote) out += " remote";
    out += " src=" + (s.source.empty() ? std::string("-") : s.source);
    out += " score=" + std::string(score);
  }
  std::vector<std::string> ran;
  for (const obs::PerfReport::TaskRow& row : rt.report().tasks) {
    if (row.batches > 0) ran.push_back(row.task + "@" + mask(row.device));
  }
  std::sort(ran.begin(), ran.end());
  out += " | ran:";
  for (const std::string& r : ran) out += " " + r;
  return out;
}

}  // namespace lm::testing
