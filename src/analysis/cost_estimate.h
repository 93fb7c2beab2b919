// Static per-(task, device) cost estimation (DESIGN.md §13).
//
// Multiplies abstract operation counts — derived from the method AST with
// loop bodies weighted by the interval pass's trip-count bounds
// (intervals.h) — by per-device cost tables, producing a µs-per-element
// score comparable to the runtime's measured EWMA cost models
// (obs/cost_model.h). The runtime seeds its CostModelRegistry with these
// estimates so cold-start placement can rank candidates before the first
// calibration batch has run (decision-logged as source=static, flipping to
// source=measured once real batches land).
//
// The tables model this repo's actual executors, not hypothetical silicon:
// the CPU "device" is the bytecode interpreter (dispatch-dominated — cost
// tracks AST node count), the GPU is the flat kernel-IR register machine
// (cheap per op, plus marshaling per element), and the FPGA is the
// cycle-accurate RTL simulator (every module evaluation walks the whole
// netlist — by far the most expensive per firing).
#pragma once

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ir/task_graph.h"
#include "lime/ast.h"

namespace lm::analysis {

struct RangeFacts;  // intervals.h

/// Trip multiplier assumed for a loop the interval pass could not bound.
/// Estimates built on this guess are flagged `bounded = false`.
constexpr int64_t kDefaultTripGuess = 16;

/// Abstract operation mix of one task firing (one method call), with loop
/// bodies multiplied by trip-count bounds. The split mirrors what the
/// device cost tables weight differently.
struct OpMix {
  double arith = 0;      // binary/unary arithmetic and bitwise ops
  double cmp = 0;        // comparisons and logical connectives
  double mem = 0;        // name/field/index reads and writes
  double branch = 0;     // if/loop/ternary decisions
  double call = 0;       // resolved user-method invocations (flattened)
  double intrinsic = 0;  // math builtins (sqrt, exp, ...)
  double alloc = 0;      // array allocations
  /// False when any contributing loop's trip count was guessed.
  bool bounded = true;

  double total() const {
    return arith + cmp + mem + branch + call + intrinsic + alloc;
  }
};

/// Interval facts per method body, each body solved once.
using MethodRanges = std::unordered_map<const lime::MethodDecl*, RangeFacts>;

/// Counts the weighted operation mix of one firing of `m`. Resolved callees
/// with bodies are flattened in (depth-limited); their loops weight too.
/// Trip bounds come from `ranges`; a method missing there is solved once
/// and added (nullptr: a map local to this call).
OpMix count_ops(const lime::MethodDecl& m, MethodRanges* ranges = nullptr);

/// One (task, device) prediction, unit-compatible with CostEntry's EWMA.
struct StaticCostEstimate {
  std::string task_id;  // "IntPipe.scale" or "seg:IntPipe.scale:..."
  std::string device;   // "cpu" / "gpu" / "fpga"
  double us_per_elem = 0;
  /// All trip counts proven; false when kDefaultTripGuess filled a gap.
  bool bounded = true;
  /// The weighted op count behind the estimate (introspection / tests).
  double ops_per_fire = 0;
};

struct StaticCostModel {
  std::vector<StaticCostEstimate> estimates;

  /// The estimate for (task, device), or nullptr.
  const StaticCostEstimate* find(const std::string& task_id,
                                 const std::string& device) const;
};

/// Estimates every filter task of every extracted graph on all three
/// devices, plus every relocated multi-filter segment (ids matching
/// ArtifactStore::segment_id so the runtime can look fused candidates up
/// directly). Tasks in `demoted` get no GPU/FPGA rows — the compiler builds
/// no accelerator artifacts for them, so a seed would rank phantoms.
/// Trip bounds come from `ranges` as in count_ops.
StaticCostModel estimate_static_costs(
    const ir::ProgramTaskGraphs& graphs,
    const std::unordered_set<std::string>& demoted, MethodRanges& ranges);

}  // namespace lm::analysis
