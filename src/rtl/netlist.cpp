#include "rtl/netlist.h"

#include <iterator>
#include <unordered_map>

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

/// Operands (a, then b, then c) a node reads, by HKind.
constexpr int kArity[] = {0, 0, 1, 2, 3};
static_assert(std::size(kArity) == static_cast<size_t>(HKind::kMux) + 1);

/// Whether a node's width agrees with its operands'. A unary node changes
/// width only as its operator says; a binary node's operands agree (a
/// shift distance excepted) and a comparison is 1 bit; a mux selects on 1
/// bit between operands of its own width.
bool widths_agree(const HExpr& n) {
  switch (n.kind) {
    case HKind::kUnary:
      switch (n.un_op) {
        case HUnOp::kNot:
        case HUnOp::kNeg: return n.width == n.a->width;
        case HUnOp::kTrunc: return n.width <= n.a->width;
        case HUnOp::kZext:
        case HUnOp::kSext: return n.width >= n.a->width;
      }
      return false;
    case HKind::kBinary: {
      const bool shift = n.bin_op == HBinOp::kShl ||
                         n.bin_op == HBinOp::kShrL || n.bin_op == HBinOp::kShrA;
      return (shift || n.b->width == n.a->width) &&
             n.width == (is_comparison(n.bin_op) ? 1 : n.a->width);
    }
    case HKind::kMux:
      return n.a->width == 1 && n.b->width == n.width &&
             n.c->width == n.width;
    default:
      return true;
  }
}

}  // namespace

std::vector<int> Module::validate() const {
  auto fail = [this](const std::string& what) {
    throw RuntimeError("module '" + name + "': " + what);
  };
  const auto nsig = static_cast<SigId>(signals.size());
  auto in_range = [nsig](SigId id) { return id >= 0 && id < nsig; };
  for (const Signal& s : signals) {
    if (s.width < 1 || s.width > 64 || s.kind > SigKind::kReg) {
      fail("signal '" + s.name + "' has an unknown kind or width");
    }
  }

  // Drivers: one combinational driver per wire and output, one next-value
  // per register, none for an input; each as wide as what it drives.
  std::vector<int> comb_for(signals.size(), -1);
  for (size_t i = 0; i < comb.size(); ++i) {
    const SigId t = comb[i].target;
    if (!in_range(t)) fail("combinational assignment to a missing signal");
    const Signal& s = sig(t);
    if (s.kind != SigKind::kWire && s.kind != SigKind::kOutput) {
      fail("'" + s.name + "' has a combinational driver but is no wire or "
           "output");
    }
    if (comb_for[static_cast<size_t>(t)] >= 0) {
      fail("signal '" + s.name + "' assigned more than once");
    }
    if (!comb[i].expr || comb[i].expr->width != s.width) {
      fail("signal '" + s.name + "' and its driver differ in width");
    }
    comb_for[static_cast<size_t>(t)] = static_cast<int>(i);
  }
  std::vector<char> has_next(signals.size(), 0);
  for (const SeqAssign& a : seq) {
    if (!in_range(a.target)) fail("register assignment to a missing signal");
    const Signal& s = sig(a.target);
    if (s.kind != SigKind::kReg) fail("'" + s.name + "' is no register");
    if (has_next[static_cast<size_t>(a.target)]) {
      fail("register '" + s.name + "' driven twice");
    }
    if (!a.next || a.next->width != s.width) {
      fail("register '" + s.name + "' and its next-value differ in width");
    }
    has_next[static_cast<size_t>(a.target)] = 1;
  }
  for (size_t i = 0; i < signals.size(); ++i) {
    const Signal& s = signals[i];
    if (s.kind == SigKind::kReg && !has_next[i]) {
      fail("register '" + s.name + "' has no driver");
    }
    if ((s.kind == SigKind::kWire || s.kind == SigKind::kOutput) &&
        comb_for[i] < 0) {
      fail("signal '" + s.name + "' undriven");
    }
  }

  // One depth-first walk over the combinational assignments and the
  // expression nodes, checking and entering each distinct node once, so a
  // node that many assignments share is walked once, not once per
  // assignment. A kSig leaf of a wire or output leads to that signal's
  // assignment: an assignment closes after every one it reads, and the
  // closing order is the evaluation order. Reaching an open assignment or
  // node again is a combinational cycle. Register next-values are walked
  // last, as roots that no assignment reads.
  enum : char { kNew, kOpen, kDone };
  std::unordered_map<const HExpr*, char> node_state;
  std::vector<char> assign_state(comb.size(), kNew);
  struct Frame {
    const HExpr* node;  // null: the assignment comb[assign]
    int assign;
    char* state;
    int next = 0;       // the operand (or a leaf's assignment) to enter next
  };
  std::vector<Frame> stack;
  std::vector<int> order;
  order.reserve(comb.size());
  auto open_assign = [&](int i) {
    char& st = assign_state[static_cast<size_t>(i)];
    if (st == kOpen) {
      fail("combinational cycle through '" +
           sig(comb[static_cast<size_t>(i)].target).name + "'");
    }
    if (st == kNew) {
      st = kOpen;
      stack.push_back({nullptr, i, &st});
    }
  };
  auto enter = [&](const HExpr* n) {
    char& st = node_state[n];
    if (st == kOpen) fail("combinational cycle through a shared node");
    if (st == kDone) return;
    if (n->kind > HKind::kMux || n->width < 1 || n->width > 64) {
      fail("expression node of unknown kind or width " +
           std::to_string(n->width));
    }
    const HExpr* operands[] = {n->a.get(), n->b.get(), n->c.get()};
    for (int i = 0; i < kArity[static_cast<int>(n->kind)]; ++i) {
      if (!operands[i]) fail("expression node lacks an operand");
    }
    if ((n->kind == HKind::kUnary && n->un_op > HUnOp::kSext) ||
        (n->kind == HKind::kBinary && n->bin_op > HBinOp::kGeS)) {
      fail("expression node has an unknown operator");
    }
    if (n->kind == HKind::kSig &&
        (!in_range(n->sig) || sig(n->sig).width != n->width)) {
      fail("expression reads signal " + std::to_string(n->sig) +
           ", which is missing or of another width");
    }
    if (!widths_agree(*n)) fail("expression node's widths disagree");
    st = kOpen;
    stack.push_back({n, -1, &st});
  };
  auto walk = [&]() {
    while (!stack.empty()) {
      Frame& f = stack.back();
      const int k = f.next++;
      if (!f.node) {
        if (k == 0) {
          enter(comb[static_cast<size_t>(f.assign)].expr.get());
          continue;
        }
        order.push_back(f.assign);
      } else if (f.node->kind == HKind::kSig) {
        const int reads = comb_for[static_cast<size_t>(f.node->sig)];
        if (k == 0 && reads >= 0) {
          open_assign(reads);
          continue;
        }
      } else if (k < kArity[static_cast<int>(f.node->kind)]) {
        enter(k == 0 ? f.node->a.get() : k == 1 ? f.node->b.get()
                                                : f.node->c.get());
        continue;
      }
      *f.state = kDone;
      stack.pop_back();
    }
  };
  for (size_t i = 0; i < comb.size(); ++i) {
    open_assign(static_cast<int>(i));
    walk();
  }
  for (const SeqAssign& a : seq) {
    enter(a.next.get());
    walk();
  }
  return order;
}

}  // namespace lm::rtl
