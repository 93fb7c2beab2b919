#include "rtl/netlist.h"

#include <functional>
#include <unordered_set>

namespace lm::rtl {

namespace {

bool is_comparison(HBinOp op) {
  switch (op) {
    case HBinOp::kEq: case HBinOp::kNe: case HBinOp::kLtS:
    case HBinOp::kLeS: case HBinOp::kGtS: case HBinOp::kGeS:
      return true;
    default:
      return false;
  }
}

}  // namespace

HExpr::~HExpr() {
  std::vector<HExprPtr> owned;
  auto detach = [&owned](HExprPtr& p) {
    if (p && p.use_count() == 1) owned.push_back(std::move(p));
  };
  detach(a);
  detach(b);
  detach(c);
  while (!owned.empty()) {
    HExprPtr n = std::move(owned.back());
    owned.pop_back();
    // The last owner may take the operands of the node it frees.
    auto& node = const_cast<HExpr&>(*n);
    detach(node.a);
    detach(node.b);
    detach(node.c);
  }
}

HExprPtr h_const(int width, uint64_t value) {
  auto e = std::make_shared<HExpr>();
  e->kind = HKind::kConst;
  e->width = width;
  e->value = mask_to_width(value, width);
  return e;
}

HExprPtr h_sig(SigId sig, int width) {
  auto e = std::make_shared<HExpr>();
  e->kind = HKind::kSig;
  e->width = width;
  e->sig = sig;
  return e;
}

HExprPtr h_unary(HUnOp op, HExprPtr a) {
  LM_CHECK(a != nullptr);
  LM_CHECK_MSG(op == HUnOp::kNot || op == HUnOp::kNeg,
               "width-changing ops go through h_resize");
  if (a->is_const()) {
    return h_const(a->width, fold_unary(op, a->value, a->width, a->width));
  }
  auto e = std::make_shared<HExpr>();
  e->kind = HKind::kUnary;
  e->width = a->width;
  e->un_op = op;
  e->a = std::move(a);
  return e;
}

HExprPtr h_resize(HExprPtr a, int width, bool is_signed) {
  LM_CHECK(a != nullptr && width >= 1 && width <= 64);
  if (a->width == width) return a;
  HUnOp op = width < a->width ? HUnOp::kTrunc
             : is_signed      ? HUnOp::kSext
                              : HUnOp::kZext;
  if (a->is_const()) {
    return h_const(width, fold_unary(op, a->value, width, a->width));
  }
  auto e = std::make_shared<HExpr>();
  e->kind = HKind::kUnary;
  e->width = width;
  e->un_op = op;
  e->a = std::move(a);
  return e;
}

HExprPtr h_binary(HBinOp op, HExprPtr a, HExprPtr b) {
  LM_CHECK(a != nullptr && b != nullptr);
  bool shift = op == HBinOp::kShl || op == HBinOp::kShrL || op == HBinOp::kShrA;
  if (!shift) {
    LM_CHECK_MSG(a->width == b->width, "width mismatch in netlist binop: "
                                           << a->width << " vs " << b->width);
  }
  int out_w = is_comparison(op) ? 1 : a->width;
  if (a->is_const() && b->is_const()) {
    return h_const(out_w, fold_binary(op, a->value, b->value, a->width));
  }
  auto e = std::make_shared<HExpr>();
  e->kind = HKind::kBinary;
  e->width = out_w;
  e->bin_op = op;
  e->a = std::move(a);
  e->b = std::move(b);
  return e;
}

HExprPtr h_mux(HExprPtr cond, HExprPtr then_e, HExprPtr else_e) {
  LM_CHECK(cond != nullptr && then_e != nullptr && else_e != nullptr);
  LM_CHECK_MSG(cond->width == 1, "mux condition must be 1 bit");
  LM_CHECK_MSG(then_e->width == else_e->width, "mux branch width mismatch");
  if (cond->is_const()) return cond->value ? then_e : else_e;
  auto e = std::make_shared<HExpr>();
  e->kind = HKind::kMux;
  e->width = then_e->width;
  e->a = std::move(cond);
  e->b = std::move(then_e);
  e->c = std::move(else_e);
  return e;
}

uint64_t h_eval(const HExpr& e, const std::vector<uint64_t>& sigs) {
  switch (e.kind) {
    case HKind::kConst:
      return e.value;
    case HKind::kSig:
      return sigs[static_cast<size_t>(e.sig)];
    case HKind::kUnary:
      return fold_unary(e.un_op, h_eval(*e.a, sigs), e.width, e.a->width);
    case HKind::kBinary:
      return fold_binary(e.bin_op, h_eval(*e.a, sigs), h_eval(*e.b, sigs),
                         e.a->width);
    case HKind::kMux:
      return h_eval(*e.a, sigs) ? h_eval(*e.b, sigs) : h_eval(*e.c, sigs);
  }
  return 0;
}

SigId Module::add_signal(const std::string& sig_name, int width, SigKind kind,
                         uint64_t init) {
  LM_CHECK_MSG(find(sig_name) < 0, "duplicate signal '" << sig_name << "'");
  LM_CHECK(width >= 1 && width <= 64);
  signals.push_back({sig_name, width, kind, init});
  return static_cast<int>(signals.size()) - 1;
}

SigId Module::find(const std::string& sig_name) const {
  for (size_t i = 0; i < signals.size(); ++i) {
    if (signals[i].name == sig_name) return static_cast<int>(i);
  }
  return -1;
}

void Module::assign(SigId target, HExprPtr expr) {
  const Signal& s = sig(target);
  LM_CHECK_MSG(s.kind == SigKind::kWire || s.kind == SigKind::kOutput,
               "comb assign target '" << s.name << "' must be wire/output");
  LM_CHECK_MSG(expr && expr->width == s.width,
               "comb assign width mismatch on '" << s.name << "'");
  comb.push_back({target, std::move(expr)});
}

void Module::assign_next(SigId reg, HExprPtr next) {
  const Signal& s = sig(reg);
  LM_CHECK_MSG(s.kind == SigKind::kReg, "seq assign target '" << s.name
                                                              << "' must be reg");
  LM_CHECK_MSG(next && next->width == s.width,
               "seq assign width mismatch on '" << s.name << "'");
  seq.push_back({reg, std::move(next)});
}

namespace {
/// The signals an expression reads, visiting each distinct node once:
/// synthesized datapaths share nodes along exponentially many paths.
std::vector<SigId> collect_sigs(const HExpr& root) {
  std::vector<SigId> out;
  std::unordered_set<const HExpr*> seen;
  std::vector<const HExpr*> stack{&root};
  while (!stack.empty()) {
    const HExpr* n = stack.back();
    stack.pop_back();
    if (!seen.insert(n).second) continue;
    if (n->kind == HKind::kSig) out.push_back(n->sig);
    for (const HExpr* child : {n->c.get(), n->b.get(), n->a.get()}) {
      if (child) stack.push_back(child);
    }
  }
  return out;
}
}  // namespace

std::vector<int> Module::validate() const {
  // Each wire/output assigned exactly once; each reg has exactly one next.
  std::vector<int> comb_for(signals.size(), -1);
  for (size_t i = 0; i < comb.size(); ++i) {
    SigId t = comb[i].target;
    LM_CHECK_MSG(comb_for[static_cast<size_t>(t)] < 0,
                 "signal '" << sig(t).name << "' assigned more than once");
    comb_for[static_cast<size_t>(t)] = static_cast<int>(i);
  }
  std::vector<bool> has_next(signals.size(), false);
  for (const auto& s : seq) {
    LM_CHECK_MSG(!has_next[static_cast<size_t>(s.target)],
                 "register '" << sig(s.target).name << "' driven twice");
    has_next[static_cast<size_t>(s.target)] = true;
  }
  for (size_t i = 0; i < signals.size(); ++i) {
    const Signal& s = signals[i];
    if (s.kind == SigKind::kReg) {
      LM_CHECK_MSG(has_next[i], "register '" << s.name << "' has no driver");
    }
    if ((s.kind == SigKind::kWire || s.kind == SigKind::kOutput)) {
      LM_CHECK_MSG(comb_for[i] >= 0, "signal '" << s.name << "' undriven");
    }
  }

  // Topological sort of comb assigns; detect combinational cycles.
  std::vector<int> order;
  order.reserve(comb.size());
  std::vector<int> state(comb.size(), 0);  // 0 new, 1 visiting, 2 done
  std::function<void(int)> visit = [&](int ci) {
    if (state[static_cast<size_t>(ci)] == 2) return;
    LM_CHECK_MSG(state[static_cast<size_t>(ci)] != 1,
                 "combinational cycle through '"
                     << sig(comb[static_cast<size_t>(ci)].target).name << "'");
    state[static_cast<size_t>(ci)] = 1;
    for (SigId d : collect_sigs(*comb[static_cast<size_t>(ci)].expr)) {
      const Signal& s = sig(d);
      if (s.kind == SigKind::kWire || s.kind == SigKind::kOutput) {
        int dep_ci = comb_for[static_cast<size_t>(d)];
        LM_CHECK(dep_ci >= 0);
        visit(dep_ci);
      }
    }
    state[static_cast<size_t>(ci)] = 2;
    order.push_back(ci);
  };
  for (size_t i = 0; i < comb.size(); ++i) visit(static_cast<int>(i));
  return order;
}

}  // namespace lm::rtl
