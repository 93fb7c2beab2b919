#include "fpga/synth.h"

#include <functional>
#include <unordered_map>

#include "bytecode/compiler.h"
#include "bytecode/ops.h"
#include "util/error.h"

namespace lm::fpga {

using lime::as;
using lime::BinOp;
using lime::ExprKind;
using lime::StmtKind;
using lime::TypeKind;
using lime::TypeRef;
using lime::UnOp;
using rtl::h_binary;
using rtl::h_const;
using rtl::h_mux;
using rtl::h_resize;
using rtl::h_sig;
using rtl::h_unary;
using rtl::HBinOp;
using rtl::HExprPtr;
using rtl::HUnOp;

namespace {

struct Exclude {
  std::string reason;
  /// Position of the offending construct; line 0 means "the method as a
  /// whole" and the catch site substitutes the method's declaration loc.
  SourceLoc loc{};
};

constexpr int kMaxInlineDepth = 8;

bool is_signed_type(const TypeRef& t) {
  return t->kind == TypeKind::kInt || t->kind == TypeKind::kLong;
}

/// The symbolic machine state during if-converted execution.
struct ExecState {
  std::unordered_map<int, HExprPtr> env;  // local slot → value
  HExprPtr returned;  // 1-bit flag: a return already fired on this path
  HExprPtr result;    // accumulated return value
};

class Synthesizer {
 public:
  Synthesizer(const FpgaSynthOptions& options) : options_(options) {}

  /// Symbolically executes `m` with the given parameter value expressions
  /// and returns the datapath expression for its result.
  HExprPtr run(const lime::MethodDecl& m, const std::vector<HExprPtr>& args) {
    return inline_method(m, args);
  }

 private:
  HExprPtr inline_method(const lime::MethodDecl& m,
                         const std::vector<HExprPtr>& args) {
    if (static_cast<int>(call_stack_.size()) > kMaxInlineDepth) {
      throw Exclude{"inline depth exceeded"};
    }
    for (const auto* f : call_stack_) {
      if (f == &m) throw Exclude{"recursive call to " + m.qualified_name()};
    }
    if (!m.body) throw Exclude{"method has no body"};
    call_stack_.push_back(&m);

    ExecState st;
    st.returned = h_const(1, 0);
    st.result = h_const(fpga_width(m.return_type), 0);
    size_t ai = 0;
    // Instance methods (value-enum operators) bind `this` at slot 0.
    if (!m.is_static) {
      LM_CHECK(!args.empty());
      st.env[0] = args[ai++];
    }
    for (const auto& p : m.params) {
      LM_CHECK(ai < args.size());
      st.env[p.slot] = h_resize(args[ai++], fpga_width(p.type),
                                is_signed_type(p.type));
    }
    exec_block(*m.body, st);
    call_stack_.pop_back();
    return st.result;
  }

  // -- statements --
  void exec_block(const lime::BlockStmt& b, ExecState& st) {
    for (const auto& s : b.stmts) {
      if (s) exec_stmt(*s, st);
    }
  }

  void exec_stmt(const lime::Stmt& s, ExecState& st) {
    switch (s.kind) {
      case StmtKind::kBlock:
        exec_block(as<lime::BlockStmt>(s), st);
        return;
      case StmtKind::kExpr: {
        const auto& es = as<lime::ExprStmt>(s);
        if (es.expr) eval(*es.expr, st);
        return;
      }
      case StmtKind::kVarDecl: {
        const auto& vd = as<lime::VarDeclStmt>(s);
        // `var` declarations carry no declared type; the initializer's
        // synthesis excludes any unsupported construct on its own.
        if (!vd.declared_type) {
          if (!vd.init) throw Exclude{"'var' local without initializer"};
          st.env[vd.slot] = eval(*vd.init, st);
          return;
        }
        switch (vd.declared_type->kind) {
          case lime::TypeKind::kBit:
          case lime::TypeKind::kBoolean:
          case lime::TypeKind::kInt:
          case lime::TypeKind::kClass:
          case lime::TypeKind::kLong:
            break;
          default:
            throw Exclude{"local '" + vd.name + "' of type " +
                              vd.declared_type->to_string() +
                              " is not synthesizable",
                          vd.loc};
        }
        int w = fpga_width(vd.declared_type);
        st.env[vd.slot] = vd.init ? eval(*vd.init, st) : h_const(w, 0);
        return;
      }
      case StmtKind::kIf: {
        const auto& is = as<lime::IfStmt>(s);
        HExprPtr cond = eval(*is.cond, st);
        if (cond->is_const()) {
          if (cond->value) {
            exec_stmt(*is.then_stmt, st);
          } else if (is.else_stmt) {
            exec_stmt(*is.else_stmt, st);
          }
          return;
        }
        // If-conversion: run both arms on clones, mux-join the state.
        ExecState then_st = st;
        ExecState else_st = st;
        exec_stmt(*is.then_stmt, then_st);
        if (is.else_stmt) exec_stmt(*is.else_stmt, else_st);
        merge(cond, then_st, else_st, st);
        return;
      }
      case StmtKind::kFor: {
        const auto& fs = as<lime::ForStmt>(s);
        if (fs.init) exec_stmt(*fs.init, st);
        int iterations = 0;
        for (;;) {
          if (fs.cond) {
            HExprPtr c = eval(*fs.cond, st);
            if (!c->is_const()) {
              throw Exclude{
                  "loop bound is not a compile-time constant (cannot unroll)"};
            }
            if (!c->value) break;
          }
          if (++iterations > options_.max_unroll) {
            throw Exclude{"loop exceeds the unroll budget of " +
                          std::to_string(options_.max_unroll)};
          }
          exec_stmt(*fs.body, st);
          if (fs.update) eval(*fs.update, st);
        }
        return;
      }
      case StmtKind::kWhile: {
        const auto& ws = as<lime::WhileStmt>(s);
        int iterations = 0;
        for (;;) {
          HExprPtr c = eval(*ws.cond, st);
          if (!c->is_const()) {
            throw Exclude{"while condition is not a compile-time constant"};
          }
          if (!c->value) break;
          if (++iterations > options_.max_unroll) {
            throw Exclude{"loop exceeds the unroll budget"};
          }
          exec_stmt(*ws.body, st);
        }
        return;
      }
      case StmtKind::kReturn: {
        const auto& rs = as<lime::ReturnStmt>(s);
        if (!rs.value) throw Exclude{"void return in a filter"};
        HExprPtr v = eval(*rs.value, st);
        // First-return-wins under if-conversion.
        st.result = h_mux(st.returned, st.result, v);
        st.returned = h_const(1, 1);
        return;
      }
      case StmtKind::kBreak:
      case StmtKind::kContinue:
        throw Exclude{"break/continue is not synthesizable here"};
    }
  }

  void merge(const HExprPtr& cond, const ExecState& t, const ExecState& e,
             ExecState& out) {
    out.env.clear();
    // Slots present in either arm (seeded from the pre-branch state which
    // both clones extend).
    for (const auto& [slot, tv] : t.env) {
      auto it = e.env.find(slot);
      if (it == e.env.end()) continue;  // branch-local variable, drop
      out.env[slot] =
          tv == it->second ? tv : h_mux(cond, tv, it->second);
    }
    out.returned = h_mux(cond, t.returned, e.returned);
    out.result = h_mux(cond, t.result, e.result);
  }

  // -- expressions --
  HExprPtr eval(const lime::Expr& ex, ExecState& st) {
    switch (ex.kind) {
      case ExprKind::kIntLit: {
        const auto& l = as<lime::IntLitExpr>(ex);
        return h_const(l.is_long ? 64 : 32, static_cast<uint64_t>(l.value));
      }
      case ExprKind::kFloatLit:
        throw Exclude{"floating point is not supported by the FPGA backend"};
      case ExprKind::kBoolLit:
        return h_const(1, as<lime::BoolLitExpr>(ex).value ? 1 : 0);
      case ExprKind::kBitLit:
        throw Exclude{"bit-array literal in a filter body"};
      case ExprKind::kName: {
        const auto& n = as<lime::NameExpr>(ex);
        if (n.ref == lime::NameRefKind::kLocal) {
          auto it = st.env.find(n.slot);
          if (it == st.env.end()) throw Exclude{"use of array-typed local"};
          return it->second;
        }
        if (n.ref == lime::NameRefKind::kEnumConst) {
          return h_const(32, static_cast<uint64_t>(n.enum_ordinal));
        }
        if (auto v = bc::eval_const_expr(n)) return const_to_hexpr(*v);
        throw Exclude{"field access in a filter body"};
      }
      case ExprKind::kThis: {
        auto it = st.env.find(0);
        LM_CHECK(it != st.env.end());
        return it->second;
      }
      case ExprKind::kUnary: {
        const auto& u = as<lime::UnaryExpr>(ex);
        if (u.op == UnOp::kUserOp) {
          HExprPtr recv = eval(*u.operand, st);
          return inline_method(*u.user_method, {recv});
        }
        HExprPtr v = eval(*u.operand, st);
        switch (u.op) {
          case UnOp::kNeg:
            check_integral(u.operand->type, "negation");
            return h_unary(HUnOp::kNeg, v);
          case UnOp::kNot:
            return h_unary(HUnOp::kNot, v);
          case UnOp::kBitNot:
            return h_unary(HUnOp::kNot, v);
          case UnOp::kUserOp:
            break;
        }
        LM_UNREACHABLE("bad unary");
      }
      case ExprKind::kBinary:
        return eval_binary(as<lime::BinaryExpr>(ex), st);
      case ExprKind::kAssign: {
        const auto& a = as<lime::AssignExpr>(ex);
        if (a.target->kind != ExprKind::kName) {
          throw Exclude{"assignment through memory in a filter body"};
        }
        const auto& n = as<lime::NameExpr>(*a.target);
        LM_CHECK(n.ref == lime::NameRefKind::kLocal);
        HExprPtr v = eval(*a.value, st);
        if (a.compound) {
          auto it = st.env.find(n.slot);
          LM_CHECK(it != st.env.end());
          v = apply_binop(a.op, a.target->type, it->second, v);
        }
        st.env[n.slot] = v;
        return v;
      }
      case ExprKind::kTernary: {
        const auto& t = as<lime::TernaryExpr>(ex);
        HExprPtr c = eval(*t.cond, st);
        HExprPtr a = eval(*t.then_expr, st);
        HExprPtr b = eval(*t.else_expr, st);
        return h_mux(c, a, b);
      }
      case ExprKind::kCall: {
        const auto& c = as<lime::CallExpr>(ex);
        using B = lime::CallExpr::Builtin;
        switch (c.builtin) {
          case B::kNone:
            break;
          case B::kAbs: {
            check_integral(c.type, "Math.abs");
            HExprPtr v = eval(*c.args[0], st);
            HExprPtr zero = h_const(v->width, 0);
            return h_mux(h_binary(HBinOp::kLtS, v, zero),
                         h_unary(HUnOp::kNeg, v), v);
          }
          case B::kMin: case B::kMax: {
            check_integral(c.type, "Math.min/max");
            HExprPtr a = eval(*c.args[0], st);
            HExprPtr b = eval(*c.args[1], st);
            HExprPtr a_lt = h_binary(HBinOp::kLtS, a, b);
            return c.builtin == B::kMin ? h_mux(a_lt, a, b)
                                        : h_mux(a_lt, b, a);
          }
          default:
            throw Exclude{"Math intrinsic '" + c.method +
                          "' is not synthesizable (floating point)"};
        }
        LM_CHECK(c.resolved != nullptr);
        if (!c.resolved->is_pure) {
          throw Exclude{"call to impure method '" +
                        c.resolved->qualified_name() + "'"};
        }
        std::vector<HExprPtr> args;
        if (!c.resolved->is_static) {
          LM_CHECK(c.receiver != nullptr);
          args.push_back(eval(*c.receiver, st));
        }
        for (const auto& a : c.args) args.push_back(eval(*a, st));
        return inline_method(*c.resolved, args);
      }
      case ExprKind::kCast: {
        const auto& c = as<lime::CastExpr>(ex);
        if (c.target->is_floating() || c.operand->type->is_floating()) {
          throw Exclude{"floating point is not supported by the FPGA backend"};
        }
        HExprPtr v = eval(*c.operand, st);
        return h_resize(v, fpga_width(c.target),
                        is_signed_type(c.operand->type));
      }
      case ExprKind::kField: {
        const auto& f = as<lime::FieldExpr>(ex);
        if (f.enum_ordinal >= 0) {
          return h_const(f.enum_class ? 32 : 1,
                         static_cast<uint64_t>(f.enum_ordinal));
        }
        if (auto v = bc::eval_const_expr(f)) return const_to_hexpr(*v);
        throw Exclude{"field access in a filter body", f.loc};
      }
      case ExprKind::kIndex:
        throw Exclude{"array access in a filter body (no memory "
                      "inference in this backend)",
                      ex.loc};
      case ExprKind::kNewArray:
        throw Exclude{"array allocation in a filter body", ex.loc};
      case ExprKind::kMap: case ExprKind::kReduce: case ExprKind::kTask:
      case ExprKind::kRelocate: case ExprKind::kConnect:
        throw Exclude{"task/map/reduce operator in a filter body", ex.loc};
    }
    LM_UNREACHABLE("unhandled expression");
  }

  /// Materializes a compile-time constant as a netlist literal.
  static HExprPtr const_to_hexpr(const bc::Value& v) {
    switch (v.kind()) {
      case bc::ValueKind::kInt:
        return h_const(32, static_cast<uint32_t>(v.as_i32()));
      case bc::ValueKind::kLong:
        return h_const(64, static_cast<uint64_t>(v.as_i64()));
      case bc::ValueKind::kBool:
        return h_const(1, v.as_bool() ? 1 : 0);
      case bc::ValueKind::kBit:
        return h_const(1, v.as_bit() ? 1 : 0);
      default:
        throw Exclude{"constant type not representable on the FPGA"};
    }
  }

  void check_integral(const TypeRef& t, const char* what) {
    if (t->is_floating()) {
      throw Exclude{std::string(what) +
                    " on floating point is not synthesizable"};
    }
  }

  /// Java masks a shift distance to the operand width (& 31 for int, & 63
  /// for long), as the VM and the GPU simulator do. A constant distance
  /// folds here, so the datapath keeps its constant shift.
  static HExprPtr shift_distance(const HExprPtr& l, const HExprPtr& r) {
    HExprPtr d = h_resize(r, l->width, false);
    return h_binary(HBinOp::kAnd, d,
                    h_const(l->width, l->width > 32 ? 63 : 31));
  }

  HExprPtr apply_binop(BinOp op, const TypeRef& operand_type, HExprPtr l,
                       HExprPtr r) {
    switch (op) {
      case BinOp::kAdd: return h_binary(HBinOp::kAdd, l, r);
      case BinOp::kSub: return h_binary(HBinOp::kSub, l, r);
      case BinOp::kMul: return h_binary(HBinOp::kMul, l, r);
      case BinOp::kDiv:
      case BinOp::kRem:
        // Constant folding may still succeed (unrolled loops with constant
        // operands); otherwise there is no combinational divider.
        if (l->is_const() && r->is_const()) {
          if (r->value == 0) throw Exclude{"constant division by zero"};
          int64_t v = bc::ops::div_rem(
              op == BinOp::kDiv ? bc::ArithOp::kDiv : bc::ArithOp::kRem,
              rtl::sign_extend(l->value, l->width),
              rtl::sign_extend(r->value, r->width));
          return h_const(l->width, static_cast<uint64_t>(v));
        }
        throw Exclude{"integer division has no combinational form here"};
      case BinOp::kAnd: return h_binary(HBinOp::kAnd, l, r);
      case BinOp::kOr: return h_binary(HBinOp::kOr, l, r);
      case BinOp::kXor: return h_binary(HBinOp::kXor, l, r);
      case BinOp::kShl:
        return h_binary(HBinOp::kShl, l, shift_distance(l, r));
      case BinOp::kShr:
        // Lime follows Java: >> on signed ints is arithmetic.
        return h_binary(is_signed_type(operand_type) ? HBinOp::kShrA
                                                     : HBinOp::kShrL,
                        l, shift_distance(l, r));
      case BinOp::kLAnd: return h_binary(HBinOp::kAnd, l, r);
      case BinOp::kLOr: return h_binary(HBinOp::kOr, l, r);
      case BinOp::kEq: return h_binary(HBinOp::kEq, l, r);
      case BinOp::kNe: return h_binary(HBinOp::kNe, l, r);
      case BinOp::kLt: return h_binary(HBinOp::kLtS, l, r);
      case BinOp::kLe: return h_binary(HBinOp::kLeS, l, r);
      case BinOp::kGt: return h_binary(HBinOp::kGtS, l, r);
      case BinOp::kGe: return h_binary(HBinOp::kGeS, l, r);
    }
    LM_UNREACHABLE("bad binop");
  }

  HExprPtr eval_binary(const lime::BinaryExpr& b, ExecState& st) {
    if (b.lhs->type->is_floating()) {
      throw Exclude{"floating point is not supported by the FPGA backend"};
    }
    HExprPtr l = eval(*b.lhs, st);
    HExprPtr r = eval(*b.rhs, st);
    return apply_binop(b.op, b.lhs->type, l, r);
  }

  const FpgaSynthOptions& options_;
  std::vector<const lime::MethodDecl*> call_stack_;
};

}  // namespace

int fpga_width(const TypeRef& type) {
  switch (type->kind) {
    case TypeKind::kBit:
    case TypeKind::kBoolean:
      return 1;
    case TypeKind::kInt:
    case TypeKind::kClass:  // enum ordinal
      return 32;
    case TypeKind::kLong:
      return 64;
    default:
      throw InternalError("type " + type->to_string() +
                          " has no FPGA representation");
  }
}

namespace {

void check_filter_suitable(const lime::MethodDecl& method) {
  if (!method.is_pure) {
    throw Exclude{"method " + method.qualified_name() + " is not pure"};
  }
  if (method.return_type->is_floating()) {
    throw Exclude{"floating point is not supported by the FPGA backend"};
  }
  for (const auto& p : method.params) {
    if (p.type->is_floating()) {
      throw Exclude{"floating point is not supported by the FPGA backend"};
    }
    if (p.type->is_array_like()) {
      throw Exclude{"array parameters are not synthesizable here"};
    }
  }
}

/// Wraps a datapath over the first method's parameters in the Fig. 4
/// read/compute/publish handshake (or the pipelined variant). The datapath
/// callback receives the input-register expressions in parameter order.
FpgaCompileResult wrap_datapath(
    const std::string& module_name, const lime::MethodDecl& head,
    const lime::TypeRef& result_type, const FpgaSynthOptions& options,
    const std::function<rtl::HExprPtr(Synthesizer&,
                                      const std::vector<HExprPtr>&)>& build) {
  FpgaCompileResult result;
  auto module = std::make_unique<rtl::Module>();
  module->name = module_name;

  using rtl::SigKind;
  rtl::SigId rst = module->add_signal("rst", 1, SigKind::kInput);
  rtl::SigId in_ready = module->add_signal("inReady", 1, SigKind::kInput);

  FpgaPortMeta ports;
  ports.arity = static_cast<int>(head.params.size());
  ports.pipelined = options.pipelined;
  ports.latency = 3;
  ports.initiation_interval = options.pipelined ? 1 : 3;
  ports.out_width = fpga_width(result_type);

  std::vector<rtl::SigId> in_data, in_regs;
  for (size_t i = 0; i < head.params.size(); ++i) {
    int w = fpga_width(head.params[i].type);
    std::string pname = "inData" + std::to_string(i);
    in_data.push_back(module->add_signal(pname, w, SigKind::kInput));
    in_regs.push_back(
        module->add_signal("in_reg" + std::to_string(i), w, SigKind::kReg));
    ports.in_data.push_back(pname);
    ports.in_widths.push_back(w);
  }
  rtl::SigId out_ready = module->add_signal("outReady", 1, SigKind::kOutput);
  rtl::SigId out_data =
      module->add_signal("outData", ports.out_width, SigKind::kOutput);
  rtl::SigId in_take = module->add_signal("inTake", 1, SigKind::kOutput);
  rtl::SigId result_reg =
      module->add_signal("result", ports.out_width, SigKind::kReg);

  Synthesizer synth(options);
  std::vector<HExprPtr> args;
  for (size_t i = 0; i < in_regs.size(); ++i) {
    args.push_back(h_sig(in_regs[i], module->sig(in_regs[i]).width));
  }
  HExprPtr datapath = build(synth, args);
  datapath =
      h_resize(datapath, ports.out_width, is_signed_type(result_type));

  HExprPtr rst_e = h_sig(rst, 1);
  HExprPtr in_ready_e = h_sig(in_ready, 1);
  HExprPtr not_rst = h_unary(HUnOp::kNot, rst_e);

  if (!options.pipelined) {
    // Fig. 4 FSM: IDLE(0) -> COMPUTE(1) -> PUBLISH(2) -> IDLE.
    rtl::SigId state = module->add_signal("state", 2, SigKind::kReg);
    HExprPtr state_e = h_sig(state, 2);
    HExprPtr s_idle = h_binary(HBinOp::kEq, state_e, h_const(2, 0));
    HExprPtr s_comp = h_binary(HBinOp::kEq, state_e, h_const(2, 1));
    HExprPtr s_pub = h_binary(HBinOp::kEq, state_e, h_const(2, 2));
    HExprPtr taking = h_binary(
        HBinOp::kAnd, h_binary(HBinOp::kAnd, s_idle, in_ready_e), not_rst);

    for (size_t i = 0; i < in_regs.size(); ++i) {
      int w = module->sig(in_regs[i]).width;
      module->assign_next(
          in_regs[i],
          h_mux(taking, h_sig(in_data[i], w), h_sig(in_regs[i], w)));
    }
    module->assign_next(
        state,
        h_mux(rst_e, h_const(2, 0),
              h_mux(taking, h_const(2, 1),
                    h_mux(s_comp, h_const(2, 2),
                          h_mux(s_pub, h_const(2, 0), state_e)))));
    module->assign_next(
        result_reg,
        h_mux(s_comp, datapath, h_sig(result_reg, ports.out_width)));
    module->assign(out_ready, h_binary(HBinOp::kAnd, s_pub, not_rst));
    module->assign(out_data, h_sig(result_reg, ports.out_width));
    module->assign(in_take, h_binary(HBinOp::kAnd, s_idle, not_rst));
  } else {
    // 3-stage pipeline (read -> compute -> publish), II = 1.
    rtl::SigId v0 = module->add_signal("v0_valid", 1, SigKind::kReg);
    rtl::SigId v1 = module->add_signal("v1_valid", 1, SigKind::kReg);

    HExprPtr accept = h_binary(HBinOp::kAnd, in_ready_e, not_rst);
    for (size_t i = 0; i < in_regs.size(); ++i) {
      int w = module->sig(in_regs[i]).width;
      module->assign_next(
          in_regs[i],
          h_mux(accept, h_sig(in_data[i], w), h_sig(in_regs[i], w)));
    }
    module->assign_next(v0, h_mux(rst_e, h_const(1, 0), accept));
    module->assign_next(v1, h_mux(rst_e, h_const(1, 0), h_sig(v0, 1)));
    module->assign_next(
        result_reg,
        h_mux(h_sig(v0, 1), datapath, h_sig(result_reg, ports.out_width)));
    module->assign(out_ready, h_sig(v1, 1));
    module->assign(out_data, h_sig(result_reg, ports.out_width));
    module->assign(in_take, not_rst);
  }

  module->validate();
  result.module = std::move(module);
  result.ports = std::move(ports);
  return result;
}

std::string module_name_for(const std::string& qualified) {
  std::string s = qualified;
  for (char& c : s) {
    if (c == '.' || c == ':') c = '_';
  }
  return s;
}

}  // namespace

FpgaCompileResult synthesize_filter(const lime::MethodDecl& method,
                                    const FpgaSynthOptions& options) {
  try {
    check_filter_suitable(method);
    return wrap_datapath(
        module_name_for(method.qualified_name()), method, method.return_type,
        options,
        [&method](Synthesizer& synth, const std::vector<HExprPtr>& args) {
          return synth.run(method, args);
        });
  } catch (const Exclude& ex) {
    FpgaCompileResult result;
    result.exclusion_reason = ex.reason;
    result.exclusion_loc = ex.loc.line > 0 ? ex.loc : method.loc;
    return result;
  }
}

FpgaCompileResult synthesize_segment(
    const std::vector<const lime::MethodDecl*>& chain,
    const FpgaSynthOptions& options) {
  LM_CHECK(!chain.empty());
  if (chain.size() == 1) return synthesize_filter(*chain[0], options);
  try {
    std::string name = "seg";
    for (const auto* m : chain) {
      check_filter_suitable(*m);
      name += "_" + module_name_for(m->qualified_name());
    }
    for (size_t i = 1; i < chain.size(); ++i) {
      if (chain[i]->params.size() != 1) {
        throw Exclude{"fused segment stage '" + chain[i]->qualified_name() +
                      "' must be unary"};
      }
    }
    return wrap_datapath(
        name, *chain[0], chain.back()->return_type, options,
        [&chain](Synthesizer& synth, const std::vector<HExprPtr>& args) {
          // Compose the datapaths combinationally, resizing at each stage
          // boundary exactly as a value would convert.
          HExprPtr cur = synth.run(*chain[0], args);
          for (size_t i = 1; i < chain.size(); ++i) {
            cur = h_resize(cur, fpga_width(chain[i]->params[0].type),
                           is_signed_type(chain[i - 1]->return_type));
            cur = synth.run(*chain[i], {cur});
          }
          return cur;
        });
  } catch (const Exclude& ex) {
    FpgaCompileResult result;
    result.exclusion_reason = ex.reason;
    result.exclusion_loc = ex.loc.line > 0 ? ex.loc : chain[0]->loc;
    return result;
  }
}

}  // namespace lm::fpga
