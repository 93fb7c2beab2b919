// Whole-program static analysis over the Lime AST and task graphs.
//
// The analyses share the per-method CFG (cfg.h) and the stable LM
// error-code scheme (DESIGN.md §S11):
//
//   LM101–LM103  use before assignment, out-of-bounds indices and
//                out-of-range shifts, from the one interval solve of each
//                method body (intervals.h)
//   LM110–LM111  interprocedural effect/isolation verification (effects.h);
//                violating tasks are *demoted* to bytecode-only placement
//   LM201–LM205  task-graph hazards (dangling graphs, self-connections,
//                duplicate connections, rate mismatches, shared state
//                across relocation brackets)
//   LM210–LM214  FIFO capacity / deadlock verification over static
//                push/pop rates (deadlock.h)
//
// runtime::compile() calls analyze_program on every compile. It runs
// every analysis above and builds the static cost model (cost_estimate.h,
// from the same interval solves' loop trip counts); the findings
// merge into the program's DiagnosticEngine and the demoted set gates
// backend artifact creation. The backends' IRs are not checked here: each
// has one always-on validator of its own (gpu::validate and
// rtl::Module::validate, DESIGN.md §8).
#pragma once

#include <unordered_set>
#include <vector>

#include "analysis/cost_estimate.h"
#include "analysis/deadlock.h"
#include "ir/task_graph.h"
#include "lime/ast.h"
#include "util/diagnostics.h"

namespace lm::analysis {

struct AnalysisOptions {
  /// FIFO capacity the deadlock verifier proves against; <= 0 → the
  /// runtime default (kDefaultFifoCapacity).
  int64_t fifo_capacity = 0;
};

struct AnalysisResult {
  DiagnosticEngine diags;
  /// Qualified method names whose accelerator artifacts must not be built:
  /// the effect verifier proved the method touches shared mutable state,
  /// so a relocated artifact could diverge from bytecode (§2.1, §3).
  std::unordered_set<std::string> demoted;
  /// Per-graph FIFO capacity verdicts (LM212's structured form).
  std::vector<GraphCapacityReport> capacity_reports;
  /// Static cost estimates the runtime seeds its cost models with.
  StaticCostModel static_costs;
};

AnalysisResult analyze_program(const lime::Program& program,
                               const ir::ProgramTaskGraphs& graphs,
                               const AnalysisOptions& opts = {});

}  // namespace lm::analysis
