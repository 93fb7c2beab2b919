// Interval abstract interpretation with widening/narrowing (intervals.h).
//
// Solver shape: intervals are not a lattice of finite height, so the
// worklist widens at back-edge targets once a block has absorbed
// kWidenDelay precise joins, which forces every chain to stabilize in a
// bounded number of visits, and then runs kNarrowPasses decreasing passes
// to pull the infinities back to the loop bounds the conditions actually
// imply. The may-be-unassigned bits ride along as a finite lattice.
#include "analysis/intervals.h"

#include <algorithm>
#include <deque>
#include <initializer_list>
#include <utility>

#include "util/error.h"

namespace lm::analysis {

using lime::as;
using lime::BinOp;
using lime::ExprKind;
using lime::StmtKind;
using lime::TypeKind;
using lime::UnOp;

namespace {

constexpr int64_t kNegInf = Interval::kNegInf;
constexpr int64_t kPosInf = Interval::kPosInf;

bool is_inf(int64_t v) { return v == kNegInf || v == kPosInf; }

/// Saturating add of two endpoints of the same kind (lo+lo or hi+hi), for
/// bounds that are never values themselves (comparison refinement, trip
/// spans). The infinities absorb; a finite overflow saturates toward its
/// sign.
int64_t sat_add(int64_t a, int64_t b) {
  if (a == kNegInf || b == kNegInf) return kNegInf;
  if (a == kPosInf || b == kPosInf) return kPosInf;
  int64_t r;
  if (__builtin_add_overflow(a, b, &r)) return a > 0 ? kPosInf : kNegInf;
  return r;
}

int64_t sat_neg(int64_t a) {
  if (a == kNegInf) return kPosInf;
  if (a == kPosInf) return kNegInf;
  return -a;
}

/// The hull of endpoint results, or top when one overflowed: Java's long
/// arithmetic wraps, so an overflowing result may be any long.
Interval hull(std::initializer_list<int64_t> ends, bool overflow) {
  if (overflow) return Interval::top();
  return {false, std::min(ends), std::max(ends)};
}

}  // namespace

std::string Interval::to_string() const {
  if (bot) return "⊥";
  std::string s = "[";
  s += lo == kNegInf ? "-inf" : std::to_string(lo);
  s += ", ";
  s += hi == kPosInf ? "+inf" : std::to_string(hi);
  s += "]";
  return s;
}

Interval join(const Interval& a, const Interval& b) {
  if (a.bot) return b;
  if (b.bot) return a;
  return {false, std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

Interval meet(const Interval& a, const Interval& b) {
  if (a.bot || b.bot) return Interval::bottom();
  return Interval::range(std::max(a.lo, b.lo), std::min(a.hi, b.hi));
}

Interval widen(const Interval& prev, const Interval& next) {
  if (prev.bot) return next;
  if (next.bot) return prev;
  return {false, next.lo < prev.lo ? kNegInf : prev.lo,
          next.hi > prev.hi ? kPosInf : prev.hi};
}

Interval iv_add(const Interval& a, const Interval& b) {
  if (a.bot || b.bot) return Interval::bottom();
  int64_t lo, hi;
  bool ov = __builtin_add_overflow(a.lo, b.lo, &lo);
  ov |= __builtin_add_overflow(a.hi, b.hi, &hi);
  return hull({lo, hi}, ov);
}

Interval iv_sub(const Interval& a, const Interval& b) {
  if (a.bot || b.bot) return Interval::bottom();
  int64_t lo, hi;
  bool ov = __builtin_sub_overflow(a.lo, b.hi, &lo);
  ov |= __builtin_sub_overflow(a.hi, b.lo, &hi);
  return hull({lo, hi}, ov);
}

Interval iv_neg(const Interval& a) {
  if (a.bot) return a;
  return iv_sub(Interval::constant(0), a);
}

Interval iv_mul(const Interval& a, const Interval& b) {
  if (a.bot || b.bot) return Interval::bottom();
  int64_t c[4];
  bool ov = __builtin_mul_overflow(a.lo, b.lo, &c[0]);
  ov |= __builtin_mul_overflow(a.lo, b.hi, &c[1]);
  ov |= __builtin_mul_overflow(a.hi, b.lo, &c[2]);
  ov |= __builtin_mul_overflow(a.hi, b.hi, &c[3]);
  return hull({c[0], c[1], c[2], c[3]}, ov);
}

Interval iv_div(const Interval& a, const Interval& b) {
  if (a.bot || b.bot) return Interval::bottom();
  // A divisor range containing zero (or unbounded) degrades to top.
  if (b.lo <= 0 && b.hi >= 0) return Interval::top();
  if (is_inf(b.lo) || is_inf(b.hi)) return Interval::top();
  // Truncating division is monotone in each operand away from a zero
  // divisor, so the corners bound it; only MIN_VALUE / -1 overflows.
  if (a.lo == kNegInf && b.hi == -1) return Interval::top();
  return hull({a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi}, false);
}

Interval iv_rem(const Interval& a, const Interval& b) {
  if (a.bot || b.bot) return Interval::bottom();
  if (b.lo <= 0 && b.hi >= 0) return Interval::top();
  // |a % b| < |b|, and the result keeps a's sign (C++/Lime semantics).
  int64_t m = std::max(b.hi == kPosInf ? kPosInf : b.hi,
                       b.lo == kNegInf ? kPosInf : sat_neg(b.lo));
  if (m == kPosInf) return Interval::top();
  int64_t lo = a.lo < 0 ? sat_add(sat_neg(m), 1) : 0;
  int64_t hi = a.hi > 0 ? m - 1 : 0;
  return Interval::range(lo, hi);
}

Interval iv_min(const Interval& a, const Interval& b) {
  if (a.bot || b.bot) return Interval::bottom();
  return {false, std::min(a.lo, b.lo), std::min(a.hi, b.hi)};
}

Interval iv_max(const Interval& a, const Interval& b) {
  if (a.bot || b.bot) return Interval::bottom();
  return {false, std::max(a.lo, b.lo), std::max(a.hi, b.hi)};
}

Interval iv_abs(const Interval& a) {
  if (a.bot) return a;
  if (a.lo >= 0) return a;
  // Math.abs(MIN_VALUE) is MIN_VALUE. An unbounded lower end may be
  // Long.MIN_VALUE; an int's |MIN_VALUE| = 2^31 lies past INT_MAX, so
  // fit_type widens the result to the whole int range.
  if (a.lo == kNegInf) return Interval::top();
  if (a.hi <= 0) return iv_neg(a);
  return {false, 0, std::max(a.hi, sat_neg(a.lo))};
}

Interval type_range(const lime::TypeRef& t) {
  if (!t) return Interval::top();
  switch (t->kind) {
    case TypeKind::kInt:
      return Interval::range(INT32_MIN, INT32_MAX);
    case TypeKind::kLong:
      return Interval::top();
    case TypeKind::kBoolean:
    case TypeKind::kBit:
      return Interval::range(0, 1);
    case TypeKind::kArray:
    case TypeKind::kValueArray:
      return Interval::range(0, INT32_MAX);  // the length
    default:
      // Floats, classes, graphs: not in the integer domain. Top keeps any
      // accidental consumer conservative.
      return Interval::top();
  }
}

namespace {

/// `v` as a value of type `t`. Java arithmetic wraps, so a result that
/// leaves the type's range may be any value of it: it widens to the range.
/// A floating value carries no interval, since converting to it may round.
Interval fit_type(Interval v, const lime::TypeRef& t) {
  if (v.bot) return v;
  Interval range = type_range(t);
  if (t && t->is_floating()) return range;
  return v.lo < range.lo || v.hi > range.hi ? range : v;
}

constexpr int kWidenDelay = 2;   // precise joins absorbed before widening
constexpr int kNarrowPasses = 2; // bounded decreasing iterations

struct IntervalState {
  bool feasible = true;
  std::vector<Interval> slots;  // bottom = no value here yet
  std::vector<char> unassigned;  // 1 = may be unassigned here (LM101)
};

/// Joins `from` into `into`; with `widen_only` set (a widening point past
/// its delay), a grown slot it marks jumps to infinity instead (an empty
/// vector marks every slot). True when `into` changed.
bool join_into(IntervalState& into, const IntervalState& from,
               const std::vector<char>* widen_only = nullptr) {
  if (!from.feasible) return false;
  if (!into.feasible) {
    into = from;
    return true;
  }
  bool changed = false;
  for (size_t i = 0; i < into.slots.size(); ++i) {
    Interval j = join(into.slots[i], from.slots[i]);
    if (!(j == into.slots[i])) {
      bool widens = widen_only && (i >= widen_only->size() || (*widen_only)[i]);
      into.slots[i] = widens ? widen(into.slots[i], j) : j;
      changed = true;
    }
    if (from.unassigned[i] && !into.unassigned[i]) {
      into.unassigned[i] = 1;
      changed = true;
    }
  }
  return changed;
}

/// Expression walk in evaluation order: returns the value interval and
/// applies assignment side effects to the state. With a DiagnosticEngine
/// it also reports LM101–LM103: the solver runs it silently to fixpoint,
/// then one replay of each reachable block reports from the fixpoint.
class IntervalEvaluator {
 public:
  explicit IntervalEvaluator(IntervalState& st,
                             DiagnosticEngine* diags = nullptr)
      : st_(st), diags_(diags) {}

  /// Runs one CFG item; the value of its expression (bottom for a
  /// declaration).
  Interval step(const CfgItem& item) {
    if (item.decl) {
      declare(*item.decl);
      return Interval::bottom();
    }
    return item.expr ? eval(*item.expr) : Interval::bottom();
  }

  Interval eval(const lime::Expr& e) {
    switch (e.kind) {
      case ExprKind::kIntLit:
        return Interval::constant(as<lime::IntLitExpr>(e).value);
      case ExprKind::kBoolLit:
        return Interval::constant(as<lime::BoolLitExpr>(e).value ? 1 : 0);
      case ExprKind::kBitLit:
        return Interval::constant(
            static_cast<int64_t>(as<lime::BitLitExpr>(e).bits.width()));
      case ExprKind::kFloatLit:
      case ExprKind::kThis:
        return type_range(e.type);
      case ExprKind::kName: {
        const auto& n = as<lime::NameExpr>(e);
        if (n.ref == lime::NameRefKind::kEnumConst) {
          return Interval::constant(n.enum_ordinal);
        }
        if (n.ref != lime::NameRefKind::kLocal) return type_range(e.type);
        Interval v = read(n, e.loc);
        return v.bot ? type_range(e.type) : v;
      }
      case ExprKind::kUnary: {
        const auto& u = as<lime::UnaryExpr>(e);
        Interval v = eval(*u.operand);
        switch (u.op) {
          case UnOp::kNeg:
            return fit_type(iv_neg(v), e.type);
          case UnOp::kNot: {
            Interval b = meet(v, Interval::range(0, 1));
            if (b.bot) return Interval::range(0, 1);
            if (b.lo == b.hi) return Interval::constant(1 - b.lo);
            return Interval::range(0, 1);
          }
          case UnOp::kBitNot:
            // ~x == -x - 1
            return fit_type(iv_sub(iv_neg(v), Interval::constant(1)), e.type);
          case UnOp::kUserOp:
            return type_range(e.type);
        }
        return type_range(e.type);
      }
      case ExprKind::kBinary:
        return eval_binary(as<lime::BinaryExpr>(e));
      case ExprKind::kAssign:
        return eval_assign(as<lime::AssignExpr>(e));
      case ExprKind::kTernary: {
        const auto& t = as<lime::TernaryExpr>(e);
        eval(*t.cond);
        IntervalState base = st_;
        assume(*t.cond, true);
        Interval a = st_.feasible ? eval(*t.then_expr) : Interval::bottom();
        IntervalState after_then = st_;
        st_ = std::move(base);
        assume(*t.cond, false);
        Interval b = st_.feasible ? eval(*t.else_expr) : Interval::bottom();
        join_into(st_, after_then);
        return join(a, b);
      }
      case ExprKind::kCall: {
        const auto& c = as<lime::CallExpr>(e);
        if (c.receiver) eval(*c.receiver);
        std::vector<Interval> args;
        args.reserve(c.args.size());
        for (const auto& a : c.args) args.push_back(eval(*a));
        using B = lime::CallExpr::Builtin;
        if (e.type && e.type->is_integral()) {
          if (c.builtin == B::kMin && args.size() == 2) {
            return iv_min(args[0], args[1]);
          }
          if (c.builtin == B::kMax && args.size() == 2) {
            return iv_max(args[0], args[1]);
          }
          if (c.builtin == B::kAbs && args.size() == 1) {
            return fit_type(iv_abs(args[0]), e.type);
          }
        }
        return type_range(e.type);
      }
      case ExprKind::kIndex: {
        const auto& ix = as<lime::IndexExpr>(e);
        Interval len = eval(*ix.array);
        check_index(len, eval(*ix.index), ix.index->loc);
        return type_range(e.type);
      }
      case ExprKind::kField: {
        const auto& f = as<lime::FieldExpr>(e);
        Interval obj = f.object ? eval(*f.object) : Interval::bottom();
        if (f.enum_ordinal >= 0) return Interval::constant(f.enum_ordinal);
        if (f.is_array_length) {
          return obj.bot ? Interval::range(0, INT32_MAX) : obj;
        }
        return type_range(e.type);
      }
      case ExprKind::kNewArray: {
        const auto& n = as<lime::NewArrayExpr>(e);
        // `new T[k]` has length k, and a freeze keeps its source's.
        Interval len = Interval::bottom();
        if (n.length) len = fit_type(eval(*n.length), e.type);
        if (n.from_array) len = eval(*n.from_array);
        return len.bot ? type_range(e.type) : len;
      }
      case ExprKind::kCast: {
        const auto& c = as<lime::CastExpr>(e);
        // A narrowing cast wraps and a floating one may round; fit_type
        // keeps the operand range only when it provably survives.
        Interval v = eval(*c.operand);
        return v.bot ? type_range(c.target) : fit_type(v, c.target);
      }
      case ExprKind::kMap:
      case ExprKind::kReduce: {
        const auto& args = e.kind == ExprKind::kMap
                               ? as<lime::MapExpr>(e).args
                               : as<lime::ReduceExpr>(e).args;
        for (const auto& a : args) eval(*a);
        return type_range(e.type);
      }
      case ExprKind::kTask:
        return type_range(e.type);
      case ExprKind::kRelocate:
        return eval(*as<lime::RelocateExpr>(e).inner);
      case ExprKind::kConnect: {
        const auto& c = as<lime::ConnectExpr>(e);
        eval(*c.lhs);
        eval(*c.rhs);
        return type_range(e.type);
      }
    }
    return Interval::top();
  }

  void declare(const lime::VarDeclStmt& vd) {
    if (vd.init) {
      Interval v = eval(*vd.init);
      assign(vd.slot, fit_type(v, vd.declared_type ? vd.declared_type
                                                   : vd.init->type));
    } else if (valid(vd.slot)) {
      // A bare declaration (re)opens the slot as unassigned.
      st_.slots[static_cast<size_t>(vd.slot)] = Interval::bottom();
      st_.unassigned[static_cast<size_t>(vd.slot)] = 1;
    }
  }

  /// Refines the state under "e evaluated to `truth`". Only shrinks
  /// intervals and reports nothing; never executes side effects
  /// (conditions were already evaluated by the caller).
  void assume(const lime::Expr& e, bool truth) {
    switch (e.kind) {
      case ExprKind::kBoolLit:
        if (as<lime::BoolLitExpr>(e).value != truth) st_.feasible = false;
        return;
      case ExprKind::kName: {
        const auto& n = as<lime::NameExpr>(e);
        if (n.ref == lime::NameRefKind::kLocal) {
          refine_slot(n.slot, Interval::constant(truth ? 1 : 0));
        }
        return;
      }
      case ExprKind::kUnary: {
        const auto& u = as<lime::UnaryExpr>(e);
        if (u.op == UnOp::kNot) assume(*u.operand, !truth);
        return;
      }
      case ExprKind::kBinary: {
        const auto& b = as<lime::BinaryExpr>(e);
        if (b.op == BinOp::kLAnd) {
          if (truth) {
            assume(*b.lhs, true);
            assume(*b.rhs, true);
          }
          return;
        }
        if (b.op == BinOp::kLOr) {
          if (!truth) {
            assume(*b.lhs, false);
            assume(*b.rhs, false);
          }
          return;
        }
        if (!lime::is_comparison(b.op)) return;
        DiagnosticEngine* quiet = std::exchange(diags_, nullptr);
        assume_cmp(b, truth);
        diags_ = quiet;
        return;
      }
      default:
        return;
    }
  }

 private:
  bool valid(int slot) const {
    return slot >= 0 && slot < static_cast<int>(st_.slots.size());
  }

  /// A local's interval; reports LM101 when it may be unassigned here.
  Interval read(const lime::NameExpr& n, SourceLoc loc) {
    if (!valid(n.slot)) return Interval::top();
    auto s = static_cast<size_t>(n.slot);
    if (diags_ && st_.unassigned[s]) {
      diags_->report(Severity::kWarning, "LM101", loc,
                     "variable '" + n.name +
                         "' may be used before it is initialized");
    }
    return st_.slots[s];
  }

  void assign(int slot, Interval v) {
    if (!valid(slot)) return;
    st_.slots[static_cast<size_t>(slot)] = v;
    st_.unassigned[static_cast<size_t>(slot)] = 0;
  }

  /// LM102: a single-value index outside a single-value length.
  void check_index(const Interval& len, const Interval& idx, SourceLoc loc) {
    if (!diags_ || len.bot || idx.bot) return;
    if (len.lo != len.hi || idx.lo != idx.hi) return;
    if (idx.lo < 0 || idx.lo >= len.lo) {
      diags_->report(Severity::kWarning, "LM102", loc,
                     "constant index " + std::to_string(idx.lo) +
                         " is out of bounds for an array of known length " +
                         std::to_string(len.lo));
    }
  }

  /// LM103: a single-value shift amount outside [0, width) of an int or
  /// long operand (Java masks it, which is rarely what was meant).
  void check_shift(const lime::BinaryExpr& b, const Interval& amount) {
    if (!diags_ || amount.bot || amount.lo != amount.hi) return;
    TypeKind k = b.lhs->type ? b.lhs->type->kind : TypeKind::kInt;
    if (k != TypeKind::kInt && k != TypeKind::kLong) return;
    int width = k == TypeKind::kLong ? 64 : 32;
    if (amount.lo < 0 || amount.lo >= width) {
      diags_->report(Severity::kWarning, "LM103", b.loc,
                     "constant shift amount " + std::to_string(amount.lo) +
                         " is out of range for a " + std::to_string(width) +
                         "-bit operand");
    }
  }

  /// Meets the slot with `bound`; an empty result marks the path infeasible
  /// (the condition can't hold for any value the slot may carry).
  void refine_slot(int slot, Interval bound) {
    if (!valid(slot)) return;
    Interval& cur = st_.slots[static_cast<size_t>(slot)];
    if (cur.bot) return;  // unassigned here; nothing to refine
    Interval m = meet(cur, bound);
    if (m.bot) {
      st_.feasible = false;
      return;
    }
    cur = m;
  }

  /// `x ⟨op⟩ bound` assumed true: the interval x must additionally lie in.
  static Interval cmp_bound(BinOp op, const Interval& bound) {
    if (bound.bot) return Interval::top();
    switch (op) {
      case BinOp::kLt:
        return Interval::range(kNegInf, sat_add(bound.hi, -1));
      case BinOp::kLe:
        return Interval::range(kNegInf, bound.hi);
      case BinOp::kGt:
        return Interval::range(sat_add(bound.lo, 1), kPosInf);
      case BinOp::kGe:
        return Interval::range(bound.lo, kPosInf);
      case BinOp::kEq:
        return bound;
      case BinOp::kNe:
      default:
        return Interval::top();  // can't express a hole in one interval
    }
  }

  static BinOp negate_cmp(BinOp op) {
    switch (op) {
      case BinOp::kLt: return BinOp::kGe;
      case BinOp::kLe: return BinOp::kGt;
      case BinOp::kGt: return BinOp::kLe;
      case BinOp::kGe: return BinOp::kLt;
      case BinOp::kEq: return BinOp::kNe;
      case BinOp::kNe: return BinOp::kEq;
      default: return op;
    }
  }

  static BinOp swap_cmp(BinOp op) {
    switch (op) {
      case BinOp::kLt: return BinOp::kGt;
      case BinOp::kLe: return BinOp::kGe;
      case BinOp::kGt: return BinOp::kLt;
      case BinOp::kGe: return BinOp::kLe;
      default: return op;  // kEq / kNe symmetric
    }
  }

  void assume_cmp(const lime::BinaryExpr& b, bool truth) {
    // Only refine integral comparisons; float compares carry no interval
    // facts (and NaN breaks trichotomy).
    if (b.lhs->type && b.lhs->type->is_floating()) return;
    BinOp op = truth ? b.op : negate_cmp(b.op);
    // Side-effect-free re-evaluation: conditions with embedded assignments
    // are not refined (eval would double-apply the effect).
    if (has_assign(*b.lhs) || has_assign(*b.rhs)) return;
    Interval lv = eval(*b.lhs);
    Interval rv = eval(*b.rhs);
    if (const auto* n = local_name(*b.lhs)) {
      refine_slot(n->slot, cmp_bound(op, rv));
    }
    if (const auto* n = local_name(*b.rhs)) {
      refine_slot(n->slot, cmp_bound(swap_cmp(op), lv));
    }
  }

  static const lime::NameExpr* local_name(const lime::Expr& e) {
    if (e.kind != ExprKind::kName) return nullptr;
    const auto& n = as<lime::NameExpr>(e);
    return n.ref == lime::NameRefKind::kLocal ? &n : nullptr;
  }

  static bool has_assign(const lime::Expr& e) {
    switch (e.kind) {
      case ExprKind::kAssign:
        return true;
      case ExprKind::kUnary:
        return has_assign(*as<lime::UnaryExpr>(e).operand);
      case ExprKind::kBinary: {
        const auto& b = as<lime::BinaryExpr>(e);
        return has_assign(*b.lhs) || has_assign(*b.rhs);
      }
      case ExprKind::kTernary: {
        const auto& t = as<lime::TernaryExpr>(e);
        return has_assign(*t.cond) || has_assign(*t.then_expr) ||
               has_assign(*t.else_expr);
      }
      case ExprKind::kCast:
        return has_assign(*as<lime::CastExpr>(e).operand);
      case ExprKind::kCall: {
        const auto& c = as<lime::CallExpr>(e);
        if (c.receiver && has_assign(*c.receiver)) return true;
        for (const auto& a : c.args) {
          if (has_assign(*a)) return true;
        }
        return false;
      }
      case ExprKind::kIndex: {
        const auto& ix = as<lime::IndexExpr>(e);
        return has_assign(*ix.array) || has_assign(*ix.index);
      }
      case ExprKind::kField: {
        const auto& f = as<lime::FieldExpr>(e);
        return f.object && has_assign(*f.object);
      }
      default:
        return false;
    }
  }

  Interval eval_binary(const lime::BinaryExpr& b) {
    if (b.op == BinOp::kLAnd || b.op == BinOp::kLOr) {
      eval(*b.lhs);
      IntervalState skipped = st_;
      // The rhs runs only when the lhs did not decide the result.
      assume(*b.lhs, b.op == BinOp::kLAnd);
      if (st_.feasible) eval(*b.rhs);
      join_into(st_, skipped);
      return Interval::range(0, 1);
    }
    Interval l = eval(*b.lhs);
    Interval r = eval(*b.rhs);
    if (b.op == BinOp::kShl || b.op == BinOp::kShr) check_shift(b, r);
    if (lime::is_comparison(b.op)) return Interval::range(0, 1);
    bool integral = b.type ? b.type->is_integral()
                           : (!b.lhs->type || !b.lhs->type->is_floating());
    if (!integral) return type_range(b.type);
    Interval v = arith(b.op, l, r);
    return fit_type(v, b.type);
  }

  static Interval arith(BinOp op, const Interval& l, const Interval& r) {
    switch (op) {
      case BinOp::kAdd: return iv_add(l, r);
      case BinOp::kSub: return iv_sub(l, r);
      case BinOp::kMul: return iv_mul(l, r);
      case BinOp::kDiv: return iv_div(l, r);
      case BinOp::kRem: return iv_rem(l, r);
      case BinOp::kShl:
        if (!r.bot && r.lo == r.hi && r.lo >= 0 && r.lo < 32) {
          return iv_mul(l, Interval::constant(int64_t{1} << r.lo));
        }
        return Interval::top();
      case BinOp::kShr:
        if (!r.bot && r.lo == r.hi && r.lo >= 0 && r.lo < 32 && !l.bot &&
            l.lo >= 0) {
          return iv_div(l, Interval::constant(int64_t{1} << r.lo));
        }
        return Interval::top();
      case BinOp::kAnd:
        // x & mask with both non-negative: bounded by min of the two his.
        if (!l.bot && !r.bot && l.lo >= 0 && r.lo >= 0) {
          return Interval::range(0, std::min(l.hi, r.hi));
        }
        return Interval::top();
      case BinOp::kOr:
      case BinOp::kXor:
        return Interval::top();
      default:
        return Interval::top();
    }
  }

  Interval eval_assign(const lime::AssignExpr& a) {
    if (a.target->kind == ExprKind::kName) {
      const auto& n = as<lime::NameExpr>(*a.target);
      if (n.ref == lime::NameRefKind::kLocal) {
        // A compound assignment reads the target first.
        Interval cur = a.compound ? read(n, a.target->loc) : Interval();
        Interval v = eval(*a.value);
        Interval result = v;
        if (a.compound) {
          Interval base = cur.bot ? type_range(a.target->type) : cur;
          result = arith(a.op, base, v);
        }
        result = fit_type(result, a.target->type);
        assign(n.slot, result);
        return result;
      }
      eval(*a.target);
      return eval(*a.value);
    }
    if (a.target->kind == ExprKind::kIndex) {
      const auto& ix = as<lime::IndexExpr>(*a.target);
      Interval len = eval(*ix.array);
      check_index(len, eval(*ix.index), ix.index->loc);
      return eval(*a.value);
    }
    eval(*a.target);
    return eval(*a.value);
  }

  IntervalState& st_;
  DiagnosticEngine* diags_;
};

/// Which of `num_slots` local slots `loop` assigns (its init, condition,
/// update and body included).
std::vector<char> slots_assigned_in(const lime::Stmt& loop, int num_slots);

/// The custom widening worklist plus narrowing passes. Keeps per-block
/// in-states; out-states are recomputed on demand (transfer is cheap).
class IntervalSolver {
 public:
  IntervalSolver(const Cfg& cfg, const lime::MethodDecl& m)
      : cfg_(cfg), method_(m) {
    size_t n = cfg.blocks.size();
    in_.resize(n);
    reachable_.assign(n, 0);
    rpo_ = reverse_post_order(cfg);
    rpo_pos_.assign(n, -1);
    for (size_t i = 0; i < rpo_.size(); ++i) {
      rpo_pos_[static_cast<size_t>(rpo_[i])] = static_cast<int>(i);
    }
    // Widening points: targets of back edges (pred not earlier in RPO).
    widen_point_.assign(n, 0);
    for (int b : rpo_) {
      for (int p : cfg.blocks[static_cast<size_t>(b)].preds) {
        int pp = rpo_pos_[static_cast<size_t>(p)];
        if (pp < 0 || pp >= rpo_pos_[static_cast<size_t>(b)]) {
          widen_point_[static_cast<size_t>(b)] = 1;
        }
      }
    }
    // A loop head widens only the slots its loop assigns. A slot the loop
    // leaves alone changes there only as an enclosing loop changes it, and
    // that loop's head widens it; widening it here too would drop the bound
    // the enclosing loop's condition gives it, and an int slot pushed to
    // +inf wraps on its next increment (fit_type).
    loop_slots_.resize(n);
    for (const auto& [stmt, head] : cfg.loop_heads) {
      loop_slots_[static_cast<size_t>(head)] =
          slots_assigned_in(*stmt, m.num_slots);
    }
    in_[Cfg::kEntry] = boundary();
    reachable_[Cfg::kEntry] = 1;
  }

  void solve() {
    join_count_.assign(cfg_.blocks.size(), 0);
    std::deque<int> work(rpo_.begin(), rpo_.end());
    std::vector<char> queued(cfg_.blocks.size(), 1);
    // Widening guarantees convergence; the cap is a belt-and-braces bound
    // that the termination stress test asserts is never approached.
    const int max_visits = static_cast<int>(cfg_.blocks.size()) * 64 + 4096;
    while (!work.empty() && visits_ < max_visits) {
      int b = work.front();
      work.pop_front();
      queued[static_cast<size_t>(b)] = 0;
      if (!reachable_[static_cast<size_t>(b)]) continue;
      ++visits_;
      for_each_edge(b, [&](int s, IntervalState&& edge_state) {
        if (!edge_state.feasible) return;
        bool changed;
        auto su = static_cast<size_t>(s);
        if (!reachable_[su]) {
          in_[su] = std::move(edge_state);
          reachable_[su] = 1;
          changed = true;
        } else {
          bool widening = widen_point_[su] && join_count_[su] >= kWidenDelay;
          changed = join_into(in_[su], edge_state,
                              widening ? &loop_slots_[su] : nullptr);
          if (changed && widen_point_[su]) {
            ++join_count_[su];
            widened_ |= widening;
          }
        }
        if (changed && !queued[su]) {
          work.push_back(s);
          queued[su] = 1;
        }
      });
    }
    converged_ = work.empty();
    // Narrowing: bounded decreasing passes recomputing each in-state from
    // its predecessors without widening. Sound after stabilization; each
    // pass can only tighten. Without widening the fixpoint is already the
    // least one, which narrowing would recompute unchanged.
    if (!widened_ && converged_) return;
    for (int pass = 0; pass < kNarrowPasses; ++pass) {
      for (int b : rpo_) {
        if (b == Cfg::kEntry) continue;
        auto bu = static_cast<size_t>(b);
        if (!reachable_[bu]) continue;
        IntervalState fresh;
        fresh.feasible = false;
        for (int p : cfg_.blocks[bu].preds) {
          if (!reachable_[static_cast<size_t>(p)]) continue;
          for_each_edge(p, [&](int s, IntervalState&& edge_state) {
            if (s == b && edge_state.feasible) join_into(fresh, edge_state);
          });
        }
        if (fresh.feasible) in_[bu] = std::move(fresh);
      }
    }
  }

  const IntervalState& in(int b) const {
    return in_[static_cast<size_t>(b)];
  }
  bool reachable(int b) const {
    return reachable_[static_cast<size_t>(b)] != 0;
  }
  int visits() const { return visits_; }
  bool converged() const { return converged_; }

  /// Replays each reachable block from its fixpoint in-state, reporting
  /// LM101–LM103 to `diags` when set, and returns the joined interval of
  /// every reachable `return <expr>` value.
  Interval replay(DiagnosticEngine* diags) const {
    Interval r = Interval::bottom();
    for (int b : rpo_) {
      auto bu = static_cast<size_t>(b);
      if (!reachable_[bu]) continue;
      const auto& blk = cfg_.blocks[bu];
      bool to_exit = false;
      for (int s : blk.succs) to_exit |= s == Cfg::kExit;
      if (!diags && !to_exit) continue;
      IntervalState st = in_[bu];
      IntervalEvaluator ev(st, diags);
      Interval last = Interval::bottom();
      for (const CfgItem& item : blk.items) last = ev.step(item);
      if (to_exit) r = join(r, last);
    }
    return fit_type(r, method_.return_type);
  }

 private:
  /// Parameters at their type range; every other slot is not yet in
  /// scope (its declaration decides whether it starts assigned).
  IntervalState boundary() const {
    IntervalState s;
    auto n = static_cast<size_t>(std::max(method_.num_slots, 0));
    s.slots.assign(n, Interval::bottom());
    s.unassigned.assign(n, 0);
    for (const lime::Param& p : method_.params) {
      if (p.slot < 0 || p.slot >= static_cast<int>(n)) continue;
      s.slots[static_cast<size_t>(p.slot)] = type_range(p.type);
    }
    return s;
  }

  /// Transfers block `b` and hands each outgoing edge its (possibly
  /// branch-refined) state. A block ending in a condition has exactly two
  /// successors by construction (cfg.cpp): succs[0] is the true edge.
  template <typename Fn>
  void for_each_edge(int b, Fn&& fn) const {
    auto bu = static_cast<size_t>(b);
    const CfgBlock& blk = cfg_.blocks[bu];
    IntervalState out = in_[bu];
    IntervalEvaluator ev(out);
    for (const CfgItem& item : blk.items) ev.step(item);
    const lime::Expr* cond =
        blk.succs.size() == 2 && !blk.items.empty() && !blk.items.back().decl
            ? blk.items.back().expr
            : nullptr;
    for (size_t i = 0; i < blk.succs.size(); ++i) {
      IntervalState edge_state =
          i + 1 < blk.succs.size() ? out : std::move(out);
      if (cond) {
        IntervalEvaluator refine(edge_state);
        refine.assume(*cond, i == 0);
      }
      fn(blk.succs[i], std::move(edge_state));
    }
  }

  const Cfg& cfg_;
  const lime::MethodDecl& method_;
  std::vector<IntervalState> in_;
  std::vector<char> reachable_;
  std::vector<int> rpo_;
  std::vector<int> rpo_pos_;
  std::vector<char> widen_point_;
  /// Per loop head: the slots it widens (empty: every slot).
  std::vector<std::vector<char>> loop_slots_;
  std::vector<int> join_count_;
  int visits_ = 0;
  bool converged_ = false;
  bool widened_ = false;
};

// ---------------------------------------------------------------------------
// Trip counts
// ---------------------------------------------------------------------------

const lime::NameExpr* as_local(const lime::Expr& e) {
  if (e.kind != ExprKind::kName) return nullptr;
  const auto& n = as<lime::NameExpr>(e);
  return n.ref == lime::NameRefKind::kLocal ? &n : nullptr;
}

/// Recognizes `i = i ± c`, `i += c`, `i -= c` for local slot `slot`;
/// returns the signed step via `step` (c must be a literal constant).
bool match_step(const lime::Expr& e, int slot, int64_t* step) {
  if (e.kind != ExprKind::kAssign) return false;
  const auto& a = as<lime::AssignExpr>(e);
  const auto* t = as_local(*a.target);
  if (!t || t->slot != slot) return false;
  auto lit = [](const lime::Expr& x, int64_t* v) {
    if (x.kind == ExprKind::kIntLit) {
      *v = as<lime::IntLitExpr>(x).value;
      return true;
    }
    return false;
  };
  int64_t c = 0;
  if (a.compound) {
    if (!lit(*a.value, &c)) return false;
    if (a.op == BinOp::kAdd) { *step = c; return true; }
    if (a.op == BinOp::kSub) { *step = -c; return true; }
    return false;
  }
  if (a.value->kind != ExprKind::kBinary) return false;
  const auto& b = as<lime::BinaryExpr>(*a.value);
  const auto* l = as_local(*b.lhs);
  const auto* r = as_local(*b.rhs);
  if (b.op == BinOp::kAdd) {
    if (l && l->slot == slot && lit(*b.rhs, &c)) { *step = c; return true; }
    if (r && r->slot == slot && lit(*b.lhs, &c)) { *step = c; return true; }
    return false;
  }
  if (b.op == BinOp::kSub) {
    if (l && l->slot == slot && lit(*b.rhs, &c)) { *step = -c; return true; }
    return false;
  }
  return false;
}

/// Counts assignments (of any shape) to `slot` inside a statement subtree,
/// and remembers the single step-shaped one if that's all there is. With
/// `assigned` set, also marks every slot the subtree assigns.
struct StepScan {
  int slot;
  int assigns = 0;
  int steps = 0;
  int64_t step = 0;
  std::vector<char>* assigned = nullptr;

  void mark(int s) const {
    if (assigned && s >= 0 && static_cast<size_t>(s) < assigned->size()) {
      (*assigned)[static_cast<size_t>(s)] = 1;
    }
  }

  void expr(const lime::Expr& e) {
    switch (e.kind) {
      case ExprKind::kAssign: {
        const auto& a = as<lime::AssignExpr>(e);
        const auto* t = as_local(*a.target);
        if (t) mark(t->slot);
        if (t && t->slot == slot) {
          ++assigns;
          int64_t s = 0;
          if (match_step(e, slot, &s)) {
            ++steps;
            step = s;
          }
        }
        expr(*a.target);
        expr(*a.value);
        return;
      }
      case ExprKind::kUnary:
        expr(*as<lime::UnaryExpr>(e).operand);
        return;
      case ExprKind::kBinary: {
        const auto& b = as<lime::BinaryExpr>(e);
        expr(*b.lhs);
        expr(*b.rhs);
        return;
      }
      case ExprKind::kTernary: {
        const auto& t = as<lime::TernaryExpr>(e);
        expr(*t.cond);
        expr(*t.then_expr);
        expr(*t.else_expr);
        return;
      }
      case ExprKind::kCall: {
        const auto& c = as<lime::CallExpr>(e);
        if (c.receiver) expr(*c.receiver);
        for (const auto& a : c.args) expr(*a);
        return;
      }
      case ExprKind::kIndex: {
        const auto& ix = as<lime::IndexExpr>(e);
        expr(*ix.array);
        expr(*ix.index);
        return;
      }
      case ExprKind::kField: {
        const auto& f = as<lime::FieldExpr>(e);
        if (f.object) expr(*f.object);
        return;
      }
      case ExprKind::kNewArray: {
        const auto& n = as<lime::NewArrayExpr>(e);
        if (n.length) expr(*n.length);
        if (n.from_array) expr(*n.from_array);
        return;
      }
      case ExprKind::kCast:
        expr(*as<lime::CastExpr>(e).operand);
        return;
      case ExprKind::kMap:
      case ExprKind::kReduce: {
        const auto& args = e.kind == ExprKind::kMap
                               ? as<lime::MapExpr>(e).args
                               : as<lime::ReduceExpr>(e).args;
        for (const auto& a : args) expr(*a);
        return;
      }
      case ExprKind::kRelocate:
        expr(*as<lime::RelocateExpr>(e).inner);
        return;
      case ExprKind::kConnect: {
        const auto& c = as<lime::ConnectExpr>(e);
        expr(*c.lhs);
        expr(*c.rhs);
        return;
      }
      default:
        return;
    }
  }

  void stmt(const lime::Stmt& s) {
    switch (s.kind) {
      case StmtKind::kBlock:
        for (const auto& c : as<lime::BlockStmt>(s).stmts) {
          if (c) stmt(*c);
        }
        return;
      case StmtKind::kExpr:
        if (as<lime::ExprStmt>(s).expr) expr(*as<lime::ExprStmt>(s).expr);
        return;
      case StmtKind::kVarDecl: {
        const auto& vd = as<lime::VarDeclStmt>(s);
        mark(vd.slot);
        if (vd.slot == slot) ++assigns;  // redeclaration resets the slot
        if (vd.init) expr(*vd.init);
        return;
      }
      case StmtKind::kIf: {
        const auto& is = as<lime::IfStmt>(s);
        expr(*is.cond);
        stmt(*is.then_stmt);
        if (is.else_stmt) stmt(*is.else_stmt);
        return;
      }
      case StmtKind::kWhile: {
        const auto& ws = as<lime::WhileStmt>(s);
        expr(*ws.cond);
        stmt(*ws.body);
        return;
      }
      case StmtKind::kFor: {
        const auto& fs = as<lime::ForStmt>(s);
        if (fs.init) stmt(*fs.init);
        if (fs.cond) expr(*fs.cond);
        if (fs.update) expr(*fs.update);
        stmt(*fs.body);
        return;
      }
      case StmtKind::kReturn:
        if (as<lime::ReturnStmt>(s).value) {
          expr(*as<lime::ReturnStmt>(s).value);
        }
        return;
      default:
        return;
    }
  }
};

std::vector<char> slots_assigned_in(const lime::Stmt& loop, int num_slots) {
  std::vector<char> assigned(static_cast<size_t>(std::max(num_slots, 0)), 0);
  StepScan scan{-1};
  scan.assigned = &assigned;
  scan.stmt(loop);
  return assigned;
}

/// Derives an upper trip bound for one loop from the interval state at its
/// head block. `head_state` already over-approximates every iteration, so
/// the induction variable's head interval contains its initial value and
/// the bound expression's interval contains every bound the loop ever
/// compares against — the division below is therefore a sound upper bound.
bool derive_trips(const lime::Stmt& loop, const IntervalState& head_state,
                  int64_t* out_trips) {
  const lime::Expr* cond = nullptr;
  const lime::Expr* update = nullptr;
  const lime::Stmt* body = nullptr;
  if (loop.kind == StmtKind::kFor) {
    const auto& fs = as<lime::ForStmt>(loop);
    cond = fs.cond.get();
    update = fs.update.get();
    body = fs.body.get();
  } else if (loop.kind == StmtKind::kWhile) {
    const auto& ws = as<lime::WhileStmt>(loop);
    cond = ws.cond.get();
    body = ws.body.get();
  }
  if (!cond || !body) return false;
  if (cond->kind == ExprKind::kBoolLit) {
    if (!as<lime::BoolLitExpr>(*cond).value) {
      *out_trips = 0;
      return true;
    }
    return false;  // while(true)
  }
  if (cond->kind != ExprKind::kBinary) return false;
  const auto& b = as<lime::BinaryExpr>(*cond);
  if (!lime::is_comparison(b.op)) return false;
  // Canonicalize to  i ⟨op⟩ bound  with i a local.
  const lime::NameExpr* iv = as_local(*b.lhs);
  const lime::Expr* bound_expr = b.rhs.get();
  BinOp op = b.op;
  if (!iv) {
    iv = as_local(*b.rhs);
    bound_expr = b.lhs.get();
    op = iv ? [](BinOp o) {
      switch (o) {
        case BinOp::kLt: return BinOp::kGt;
        case BinOp::kLe: return BinOp::kGe;
        case BinOp::kGt: return BinOp::kLt;
        case BinOp::kGe: return BinOp::kLe;
        default: return o;
      }
    }(op) : op;
  }
  if (!iv) return false;
  if (b.lhs->type && b.lhs->type->is_floating()) return false;

  // The induction step: for-loops require the update expression to be the
  // only writer of i; while-loops require exactly one step-shaped writer in
  // the body.
  int64_t step = 0;
  StepScan scan{iv->slot};
  scan.stmt(*body);
  if (loop.kind == StmtKind::kFor) {
    if (scan.assigns != 0) return false;
    if (!update || !match_step(*update, iv->slot, &step)) return false;
  } else {
    if (scan.assigns != 1 || scan.steps != 1) return false;
    step = scan.step;
  }
  if (step == 0) return false;

  StepScan probe{iv->slot};
  probe.expr(*bound_expr);
  if (probe.assigns != 0) return false;  // bound expression mutates i — bail
  IntervalState st = head_state;
  IntervalEvaluator ev(st);
  Interval bound = ev.eval(*bound_expr);
  Interval ivr = st.slots.size() > static_cast<size_t>(iv->slot) &&
                         iv->slot >= 0
                     ? st.slots[static_cast<size_t>(iv->slot)]
                     : Interval::top();
  if (bound.bot || ivr.bot) return false;

  int64_t span;  // worst-case distance the induction var must cover
  if (step > 0) {
    if (op != BinOp::kLt && op != BinOp::kLe) return false;
    if (bound.hi == kPosInf || ivr.lo == kNegInf) return false;
    span = sat_add(bound.hi, sat_neg(ivr.lo));
    if (op == BinOp::kLe) span = sat_add(span, 1);
  } else {
    if (op != BinOp::kGt && op != BinOp::kGe) return false;
    if (bound.lo == kNegInf || ivr.hi == kPosInf) return false;
    span = sat_add(ivr.hi, sat_neg(bound.lo));
    if (op == BinOp::kGe) span = sat_add(span, 1);
  }
  if (span <= 0) {
    *out_trips = 0;
    return true;
  }
  if (is_inf(span)) return false;
  int64_t mag = step > 0 ? step : -step;
  *out_trips = (span + mag - 1) / mag;
  return true;
}

/// AST pre-order walk collecting loops with nesting depth.
void collect_loops(const lime::Stmt& s, int depth,
                   std::vector<std::pair<const lime::Stmt*, int>>* out) {
  switch (s.kind) {
    case StmtKind::kBlock:
      for (const auto& c : as<lime::BlockStmt>(s).stmts) {
        if (c) collect_loops(*c, depth, out);
      }
      return;
    case StmtKind::kIf: {
      const auto& is = as<lime::IfStmt>(s);
      collect_loops(*is.then_stmt, depth, out);
      if (is.else_stmt) collect_loops(*is.else_stmt, depth, out);
      return;
    }
    case StmtKind::kWhile:
      out->emplace_back(&s, depth);
      collect_loops(*as<lime::WhileStmt>(s).body, depth + 1, out);
      return;
    case StmtKind::kFor:
      out->emplace_back(&s, depth);
      collect_loops(*as<lime::ForStmt>(s).body, depth + 1, out);
      return;
    default:
      return;
  }
}

}  // namespace

int64_t RangeFacts::trips_or(const lime::Stmt* stmt, int64_t fallback) const {
  for (const LoopBound& lb : loops) {
    if (lb.stmt == stmt) return lb.bounded ? lb.max_trips : fallback;
  }
  return fallback;
}

RangeFacts analyze_ranges(const lime::MethodDecl& m,
                          DiagnosticEngine* diags) {
  RangeFacts facts;
  facts.method = &m;
  if (!m.body) return facts;
  Cfg cfg = build_cfg(m);
  IntervalSolver solver(cfg, m);
  solver.solve();
  facts.solver_visits = solver.visits();
  facts.converged = solver.converged();
  facts.return_range = solver.replay(diags);

  std::vector<std::pair<const lime::Stmt*, int>> loops;
  collect_loops(*m.body, 0, &loops);
  for (const auto& [stmt, depth] : loops) {
    LoopBound lb;
    lb.stmt = stmt;
    lb.loc = stmt->loc;
    lb.depth = depth;
    int head = -1;
    for (const auto& [ls, hb] : cfg.loop_heads) {
      if (ls == stmt) head = hb;
    }
    if (head >= 0 && solver.reachable(head)) {
      int64_t trips = 0;
      if (derive_trips(*stmt, solver.in(head), &trips)) {
        lb.bounded = true;
        lb.max_trips = trips;
      }
    } else if (head >= 0) {
      lb.bounded = true;  // statically unreachable loop never fires
      lb.max_trips = 0;
    }
    facts.loops.push_back(lb);
  }
  return facts;
}

}  // namespace lm::analysis
