#include "analysis/cost_estimate.h"

#include <algorithm>

#include "analysis/intervals.h"

namespace lm::analysis {

namespace {

using lime::as;
using lime::ExprKind;
using lime::StmtKind;

/// Callee flattening depth. Past this, a call is charged as opaque
/// overhead instead of its body — deep recursion would otherwise loop.
constexpr int kMaxCallDepth = 4;

/// A trip count "proven" only by an operand's type range (e.g. `i < n`
/// with `n` an int parameter gives ~2^31) is sound but worthless as a cost
/// weight; anything past this cap is treated as unproven instead.
constexpr int64_t kTripCredibilityCap = int64_t{1} << 20;

/// Per-device weights, µs per abstract operation. Calibrated against this
/// repo's executors on the pipeline workload suite: the absolute scale is
/// rough, but the *ranking* across (task, device) pairs is what cold-start
/// placement consumes, and the Spearman property test pins that.
struct DeviceCostTable {
  const char* device;
  double firing_us;     // fixed dispatch per firing
  double arith_us;
  double cmp_us;
  double mem_us;
  double branch_us;
  double call_us;       // residual per flattened/opaque call
  double intrinsic_us;
  double alloc_us;
  double per_elem_us;   // marshaling / handoff per stream element
};

// CPU: every AST/bytecode node is a dispatched virtual step with boxed
// values — uniform, fairly expensive per op, but no marshaling.
constexpr DeviceCostTable kCpuTable = {
    "cpu", 0.30, 0.020, 0.020, 0.025, 0.030, 0.200, 0.080, 0.500, 0.0};
// GPU: flat register-machine loop over a batch — cheap ops, but every
// element is marshaled into and out of CValue buffers.
constexpr DeviceCostTable kGpuTable = {
    "gpu", 0.10, 0.004, 0.004, 0.006, 0.008, 0.050, 0.020, 0.400, 0.060};
// FPGA: the RTL simulator evaluates the synthesized netlist cycle by
// cycle — each abstract op became gates that are re-evaluated every cycle,
// so per-op cost dwarfs both interpreters.
constexpr DeviceCostTable kFpgaTable = {
    "fpga", 2.00, 0.600, 0.600, 0.700, 0.800, 1.500, 2.400, 3.000, 0.250};

double firing_cost(const OpMix& ops, const DeviceCostTable& t) {
  return t.firing_us + ops.arith * t.arith_us + ops.cmp * t.cmp_us +
         ops.mem * t.mem_us + ops.branch * t.branch_us + ops.call * t.call_us +
         ops.intrinsic * t.intrinsic_us + ops.alloc * t.alloc_us;
}

void scale(OpMix& m, double k) {
  m.arith *= k;
  m.cmp *= k;
  m.mem *= k;
  m.branch *= k;
  m.call *= k;
  m.intrinsic *= k;
  m.alloc *= k;
}

void accumulate(OpMix& into, const OpMix& from) {
  into.arith += from.arith;
  into.cmp += from.cmp;
  into.mem += from.mem;
  into.branch += from.branch;
  into.call += from.call;
  into.intrinsic += from.intrinsic;
  into.alloc += from.alloc;
  into.bounded = into.bounded && from.bounded;
}

/// Weighted op-mix walk of one method body. Loop bodies multiply by the
/// interval pass's trip bound (or kDefaultTripGuess, clearing `bounded`).
class OpCounter {
 public:
  OpCounter(MethodRanges& ranges, int depth)
      : ranges_(ranges), depth_(depth) {}

  OpMix count(const lime::MethodDecl& m) {
    if (!m.body) return mix_;
    auto it = ranges_.find(&m);
    if (it == ranges_.end()) it = ranges_.emplace(&m, analyze_ranges(m)).first;
    facts_ = &it->second;
    walk_stmt(*m.body, 1.0);
    return mix_;
  }

 private:
  void charge_loop(const lime::Stmt& s, double weight,
                   const lime::Expr* cond, const lime::Stmt& body,
                   const lime::Stmt* init, const lime::Expr* update) {
    int64_t trips = facts_->trips_or(&s, -1);
    if (trips < 0 || trips > kTripCredibilityCap) {
      trips = kDefaultTripGuess;
      mix_.bounded = false;
    }
    if (init) walk_stmt(*init, weight);
    double per_iter = weight * static_cast<double>(trips);
    // The condition runs trips+1 times; fold that into the branch charge.
    if (cond) walk_expr(*cond, per_iter + weight);
    mix_.branch += per_iter + weight;
    if (update) walk_expr(*update, per_iter);
    walk_stmt(body, per_iter);
  }

  void walk_stmt(const lime::Stmt& s, double weight) {
    switch (s.kind) {
      case StmtKind::kBlock:
        for (const auto& c : as<lime::BlockStmt>(s).stmts) {
          if (c) walk_stmt(*c, weight);
        }
        return;
      case StmtKind::kExpr:
        if (as<lime::ExprStmt>(s).expr) {
          walk_expr(*as<lime::ExprStmt>(s).expr, weight);
        }
        return;
      case StmtKind::kVarDecl: {
        const auto& vd = as<lime::VarDeclStmt>(s);
        mix_.mem += weight;
        if (vd.init) walk_expr(*vd.init, weight);
        return;
      }
      case StmtKind::kIf: {
        const auto& is = as<lime::IfStmt>(s);
        walk_expr(*is.cond, weight);
        mix_.branch += weight;
        // Both arms cannot run in one firing; charge the average.
        walk_stmt(*is.then_stmt, weight * 0.5);
        if (is.else_stmt) walk_stmt(*is.else_stmt, weight * 0.5);
        return;
      }
      case StmtKind::kWhile: {
        const auto& ws = as<lime::WhileStmt>(s);
        charge_loop(s, weight, ws.cond.get(), *ws.body, nullptr, nullptr);
        return;
      }
      case StmtKind::kFor: {
        const auto& fs = as<lime::ForStmt>(s);
        charge_loop(s, weight, fs.cond.get(), *fs.body, fs.init.get(),
                    fs.update.get());
        return;
      }
      case StmtKind::kReturn:
        if (as<lime::ReturnStmt>(s).value) {
          walk_expr(*as<lime::ReturnStmt>(s).value, weight);
        }
        return;
      default:
        return;
    }
  }

  void walk_expr(const lime::Expr& e, double weight) {
    switch (e.kind) {
      case ExprKind::kName:
      case ExprKind::kField: {
        mix_.mem += weight;
        if (e.kind == ExprKind::kField) {
          const auto& f = as<lime::FieldExpr>(e);
          if (f.object) walk_expr(*f.object, weight);
        }
        return;
      }
      case ExprKind::kIndex: {
        const auto& ix = as<lime::IndexExpr>(e);
        mix_.mem += weight;
        walk_expr(*ix.array, weight);
        walk_expr(*ix.index, weight);
        return;
      }
      case ExprKind::kUnary: {
        const auto& u = as<lime::UnaryExpr>(e);
        mix_.arith += weight;
        walk_expr(*u.operand, weight);
        if (u.user_method) charge_call(u.user_method, weight);
        return;
      }
      case ExprKind::kBinary: {
        const auto& b = as<lime::BinaryExpr>(e);
        if (lime::is_comparison(b.op) || b.op == lime::BinOp::kLAnd ||
            b.op == lime::BinOp::kLOr) {
          mix_.cmp += weight;
        } else {
          mix_.arith += weight;
        }
        walk_expr(*b.lhs, weight);
        walk_expr(*b.rhs, weight);
        return;
      }
      case ExprKind::kAssign: {
        const auto& a = as<lime::AssignExpr>(e);
        mix_.mem += weight;
        if (a.compound) mix_.arith += weight;
        walk_expr(*a.target, weight);
        walk_expr(*a.value, weight);
        return;
      }
      case ExprKind::kTernary: {
        const auto& t = as<lime::TernaryExpr>(e);
        mix_.branch += weight;
        walk_expr(*t.cond, weight);
        walk_expr(*t.then_expr, weight * 0.5);
        walk_expr(*t.else_expr, weight * 0.5);
        return;
      }
      case ExprKind::kCall: {
        const auto& c = as<lime::CallExpr>(e);
        if (c.receiver) walk_expr(*c.receiver, weight);
        for (const auto& a : c.args) walk_expr(*a, weight);
        if (c.builtin != lime::CallExpr::Builtin::kNone) {
          mix_.intrinsic += weight;
          return;
        }
        charge_call(c.resolved, weight);
        return;
      }
      case ExprKind::kCast:
        mix_.arith += weight;
        walk_expr(*as<lime::CastExpr>(e).operand, weight);
        return;
      case ExprKind::kNewArray: {
        const auto& n = as<lime::NewArrayExpr>(e);
        mix_.alloc += weight;
        if (n.length) walk_expr(*n.length, weight);
        if (n.from_array) walk_expr(*n.from_array, weight);
        return;
      }
      case ExprKind::kMap:
      case ExprKind::kReduce: {
        // Data-parallel over an array of statically unknown length: charge
        // the element method at the default guess and mark unbounded.
        const lime::MethodDecl* m =
            e.kind == ExprKind::kMap ? as<lime::MapExpr>(e).resolved
                                     : as<lime::ReduceExpr>(e).resolved;
        const auto& args = e.kind == ExprKind::kMap
                               ? as<lime::MapExpr>(e).args
                               : as<lime::ReduceExpr>(e).args;
        for (const auto& a : args) walk_expr(*a, weight);
        mix_.bounded = false;
        charge_call(m, weight * static_cast<double>(kDefaultTripGuess));
        return;
      }
      default:
        return;  // literals, this, task/connect — free or not per-firing
    }
  }

  void charge_call(const lime::MethodDecl* callee, double weight) {
    mix_.call += weight;
    if (!callee || !callee->body || depth_ >= kMaxCallDepth) return;
    OpCounter inner(ranges_, depth_ + 1);
    OpMix body = inner.count(*callee);
    scale(body, weight);
    accumulate(mix_, body);
  }

  MethodRanges& ranges_;
  int depth_;
  const RangeFacts* facts_ = nullptr;
  OpMix mix_;
};

}  // namespace

OpMix count_ops(const lime::MethodDecl& m, MethodRanges* ranges) {
  MethodRanges local;
  return OpCounter(ranges ? *ranges : local, 0).count(m);
}

const StaticCostEstimate* StaticCostModel::find(
    const std::string& task_id, const std::string& device) const {
  for (const auto& e : estimates) {
    if (e.task_id == task_id && e.device == device) return &e;
  }
  return nullptr;
}

namespace {

StaticCostEstimate make_estimate(const std::string& id,
                                 const DeviceCostTable& t, const OpMix& ops,
                                 int arity) {
  StaticCostEstimate e;
  e.task_id = id;
  e.device = t.device;
  e.bounded = ops.bounded;
  e.ops_per_fire = ops.total();
  double per_fire = firing_cost(ops, t);
  e.us_per_elem =
      per_fire / static_cast<double>(std::max(arity, 1)) + t.per_elem_us;
  return e;
}

}  // namespace

StaticCostModel estimate_static_costs(
    const ir::ProgramTaskGraphs& graphs,
    const std::unordered_set<std::string>& demoted, MethodRanges& ranges) {
  StaticCostModel model;
  std::unordered_set<std::string> done;
  // Per-method mixes are reused by the segment pass; keyed by task id.
  std::vector<std::pair<std::string, OpMix>> mixes;
  auto mix_of = [&](const ir::TaskNodeInfo& n) -> const OpMix& {
    for (const auto& [id, m] : mixes) {
      if (id == n.task_id) return m;
    }
    mixes.emplace_back(n.task_id, count_ops(*n.method, &ranges));
    return mixes.back().second;
  };

  for (const auto& g : graphs.graphs) {
    for (const auto& n : g.nodes) {
      if (n.kind != ir::TaskNodeInfo::Kind::kFilter || !n.method) continue;
      if (!done.insert(n.task_id).second) continue;
      const OpMix& ops = mix_of(n);
      model.estimates.push_back(
          make_estimate(n.task_id, kCpuTable, ops, n.arity));
      if (!demoted.count(n.task_id)) {
        model.estimates.push_back(
            make_estimate(n.task_id, kGpuTable, ops, n.arity));
        model.estimates.push_back(
            make_estimate(n.task_id, kFpgaTable, ops, n.arity));
      }
    }
    // Fused relocated segments: one dispatch covers the whole chain and the
    // inter-member handoff never leaves the device — the "prefer larger"
    // bias the measured models also exhibit.
    for (const auto& [first, last] : g.relocated_segments()) {
      if (last - first + 1 < 2) continue;
      std::string seg_id = "seg";  // must match ArtifactStore::segment_id
      OpMix sum;
      bool seg_demoted = false;
      int arity = g.nodes[static_cast<size_t>(first)].arity;
      for (int i = first; i <= last; ++i) {
        const auto& n = g.nodes[static_cast<size_t>(i)];
        seg_id += ":" + n.task_id;
        seg_demoted = seg_demoted || demoted.count(n.task_id) > 0;
        if (n.method) accumulate(sum, mix_of(n));
      }
      if (seg_demoted || !done.insert(seg_id).second) continue;
      for (const auto* t : {&kGpuTable, &kFpgaTable}) {
        StaticCostEstimate e = make_estimate(seg_id, *t, sum, arity);
        // N members share one firing dispatch; refund the extra N-1.
        e.us_per_elem -= t->firing_us * (last - first) /
                         static_cast<double>(std::max(arity, 1));
        e.us_per_elem = std::max(e.us_per_elem, 0.001);
        model.estimates.push_back(std::move(e));
      }
    }
  }
  return model;
}

}  // namespace lm::analysis
