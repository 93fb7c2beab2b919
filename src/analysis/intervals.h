// Interval (value-range) abstract interpretation over Lime method bodies:
// the one per-method abstract interpreter of the analysis tier (DESIGN.md
// §8, §13).
//
// Each local slot carries an interval and a may-be-unassigned bit. An
// integer slot's interval bounds its value; an array slot's bounds its
// length (set by `new T[k]`, bit literals and freezes, read by `.length`).
// Intervals form infinite ascending chains, so the worklist over the CFG
// (cfg.h) widens at back-edge targets after a few precise joins, then runs
// bounded narrowing passes to recover the precision widening threw away.
// One replay of each reachable block from the fixpoint then reports
// LM101 (a read of a slot that may be unassigned), LM102 (a single-value
// index outside a single-value length) and LM103 (a single-value shift
// amount outside [0, width)), and joins the return range.
//
// Consumers: analyze_program, which solves each method body once and
// reports the findings, and the static cost estimator (cost_estimate.cpp),
// which reads the loop trip-count bounds. The return range is read only by
// the tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/cfg.h"
#include "lime/ast.h"
#include "util/diagnostics.h"

namespace lm::analysis {

/// A signed 64-bit integer interval. `kNegInf`/`kPosInf` are Long's own
/// bounds, so a long endpoint is the value it is; for an int they mean
/// "unbounded" (widening jumps there). Arithmetic whose exact result leaves
/// 64 bits is top, the whole long range.
struct Interval {
  static constexpr int64_t kNegInf = INT64_MIN;
  static constexpr int64_t kPosInf = INT64_MAX;

  /// Bottom means "no value reaches here" (dead path, or a slot never
  /// assigned on it). lo/hi are meaningless when bot is set.
  bool bot = true;
  int64_t lo = 0;
  int64_t hi = 0;

  static Interval bottom() { return {}; }
  static Interval top() { return {false, kNegInf, kPosInf}; }
  static Interval constant(int64_t v) { return {false, v, v}; }
  static Interval range(int64_t lo, int64_t hi) {
    if (lo > hi) return bottom();
    return {false, lo, hi};
  }

  bool is_bottom() const { return bot; }
  bool is_top() const { return !bot && lo == kNegInf && hi == kPosInf; }

  bool operator==(const Interval& o) const {
    if (bot || o.bot) return bot == o.bot;
    return lo == o.lo && hi == o.hi;
  }

  std::string to_string() const;
};

// Lattice operations.
Interval join(const Interval& a, const Interval& b);   // least upper bound
Interval meet(const Interval& a, const Interval& b);   // greatest lower bound
/// Standard widening: endpoints that grew since `prev` jump to infinity.
Interval widen(const Interval& prev, const Interval& next);

// Abstract arithmetic (exact, or top when a result leaves 64 bits;
// division/remainder by a range containing zero degrades to top rather
// than guessing).
Interval iv_add(const Interval& a, const Interval& b);
Interval iv_sub(const Interval& a, const Interval& b);
Interval iv_mul(const Interval& a, const Interval& b);
Interval iv_div(const Interval& a, const Interval& b);
Interval iv_rem(const Interval& a, const Interval& b);
Interval iv_neg(const Interval& a);
Interval iv_min(const Interval& a, const Interval& b);
Interval iv_max(const Interval& a, const Interval& b);
Interval iv_abs(const Interval& a);

/// The representable range of a Lime static type (int → 32-bit range,
/// bit/boolean → [0,1], long → top, arrays → their possible lengths,
/// floats/refs → top).
Interval type_range(const lime::TypeRef& t);

/// Trip-count bound for one loop statement, derived from the interval facts
/// at its head block.
struct LoopBound {
  const lime::Stmt* stmt = nullptr;  // the ForStmt / WhileStmt
  SourceLoc loc;
  int depth = 0;          // nesting depth; outermost loop = 0
  bool bounded = false;   // max_trips is a proven upper bound
  int64_t max_trips = 0;  // valid only when bounded
};

/// Everything the interval pass learned about one method.
struct RangeFacts {
  const lime::MethodDecl* method = nullptr;
  std::vector<LoopBound> loops;   // in AST pre-order
  Interval return_range;          // join over all reachable returns
  /// Solver introspection, asserted by the widening-termination stress test:
  /// total block visits until fixpoint (bounded even for 10k-iteration
  /// nested loops thanks to widening) and whether a fixpoint was reached.
  int solver_visits = 0;
  bool converged = false;

  /// Upper trip bound for `stmt`, or `fallback` when unbounded/unknown.
  int64_t trips_or(const lime::Stmt* stmt, int64_t fallback) const;
};

/// Runs the interval analysis over `m` (which must have a body); with
/// `diags` set, also reports LM101–LM103 there. Parameters start at their
/// type range.
RangeFacts analyze_ranges(const lime::MethodDecl& m,
                          DiagnosticEngine* diags = nullptr);

}  // namespace lm::analysis
