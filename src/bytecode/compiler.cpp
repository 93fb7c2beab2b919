#include "bytecode/compiler.h"

#include <optional>
#include <unordered_map>

#include "bytecode/interp.h"
#include "util/error.h"

namespace lm::bc {

using lime::as;
using lime::BinOp;
using lime::ExprKind;
using lime::StmtKind;
using lime::TypeKind;
using lime::TypeRef;
using lime::UnOp;

NumType num_type_for(const TypeRef& t) {
  LM_CHECK(t != nullptr);
  switch (t->kind) {
    case TypeKind::kInt: return NumType::kI32;
    case TypeKind::kLong: return NumType::kI64;
    case TypeKind::kFloat: return NumType::kF32;
    case TypeKind::kDouble: return NumType::kF64;
    case TypeKind::kBoolean: return NumType::kBool;
    case TypeKind::kBit: return NumType::kBit;
    case TypeKind::kClass: return NumType::kI32;  // enum ordinal
    default:
      LM_UNREACHABLE("no NumType for " + t->to_string());
  }
}

ArithOp arith_for(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return ArithOp::kAdd;
    case BinOp::kSub: return ArithOp::kSub;
    case BinOp::kMul: return ArithOp::kMul;
    case BinOp::kDiv: return ArithOp::kDiv;
    case BinOp::kRem: return ArithOp::kRem;
    case BinOp::kAnd: return ArithOp::kAnd;
    case BinOp::kOr: return ArithOp::kOr;
    case BinOp::kXor: return ArithOp::kXor;
    case BinOp::kShl: return ArithOp::kShl;
    case BinOp::kShr: return ArithOp::kShr;
    default:
      LM_UNREACHABLE("not an arithmetic op");
  }
}

CmpOp cmp_for(BinOp op) {
  switch (op) {
    case BinOp::kEq: return CmpOp::kEq;
    case BinOp::kNe: return CmpOp::kNe;
    case BinOp::kLt: return CmpOp::kLt;
    case BinOp::kLe: return CmpOp::kLe;
    case BinOp::kGt: return CmpOp::kGt;
    case BinOp::kGe: return CmpOp::kGe;
    default:
      LM_UNREACHABLE("not a comparison op");
  }
}

Intrinsic intrinsic_for(lime::CallExpr::Builtin b) {
  using B = lime::CallExpr::Builtin;
  switch (b) {
    case B::kSqrt: return Intrinsic::kSqrt;
    case B::kExp: return Intrinsic::kExp;
    case B::kLog: return Intrinsic::kLog;
    case B::kSin: return Intrinsic::kSin;
    case B::kCos: return Intrinsic::kCos;
    case B::kPow: return Intrinsic::kPow;
    case B::kAbs: return Intrinsic::kAbs;
    case B::kMin: return Intrinsic::kMin;
    case B::kMax: return Intrinsic::kMax;
    case B::kFloor: return Intrinsic::kFloor;
    default:
      LM_UNREACHABLE("not a math intrinsic");
  }
}

/// The constant folder: the constant expressions of JLS §15.29 that the
/// Lime subset has. Each operator runs through the VM's own functions
/// (interp.h) with the NumType this compiler emits for the node, so a folded
/// constant is what the VM computes at run time. A zero divisor leaves the
/// expression unfolded.
std::optional<Value> eval_const_expr(const lime::Expr& e) {
  switch (e.kind) {
    case ExprKind::kIntLit: {
      const auto& l = as<lime::IntLitExpr>(e);
      return l.is_long ? Value::i64(l.value)
                       : Value::i32(static_cast<int32_t>(l.value));
    }
    case ExprKind::kFloatLit: {
      const auto& l = as<lime::FloatLitExpr>(e);
      return l.is_double ? Value::f64(l.value)
                         : Value::f32(static_cast<float>(l.value));
    }
    case ExprKind::kBoolLit:
      return Value::boolean(as<lime::BoolLitExpr>(e).value);
    case ExprKind::kName: {
      const auto& n = as<lime::NameExpr>(e);
      if (n.ref == lime::NameRefKind::kEnumConst) {
        return Value::i32(n.enum_ordinal);
      }
      if (n.ref == lime::NameRefKind::kField && n.field &&
          n.field->is_static && n.field->is_final && n.field->init) {
        return eval_const_expr(*n.field->init);
      }
      return std::nullopt;
    }
    case ExprKind::kField: {
      const auto& f = as<lime::FieldExpr>(e);
      if (f.enum_ordinal >= 0) {
        return f.enum_class ? Value::i32(f.enum_ordinal)
                            : Value::bit(f.enum_ordinal == 1);
      }
      if (f.field && f.field->is_static && f.field->is_final &&
          f.field->init) {
        return eval_const_expr(*f.field->init);
      }
      return std::nullopt;
    }
    case ExprKind::kCast: {
      const auto& c = as<lime::CastExpr>(e);
      auto v = eval_const_expr(*c.operand);
      if (!v) return std::nullopt;
      NumType from = num_type_for(c.operand->type);
      NumType to = num_type_for(c.target);
      return from == to ? v : cast(from, to, *v);
    }
    case ExprKind::kUnary: {
      const auto& u = as<lime::UnaryExpr>(e);
      if (u.op == UnOp::kUserOp) return std::nullopt;
      auto v = eval_const_expr(*u.operand);
      if (!v) return std::nullopt;
      NumType t = num_type_for(u.operand->type);
      switch (u.op) {
        case UnOp::kNeg: return arith(ArithOp::kNeg, t, *v, *v);
        case UnOp::kNot: return Value::boolean(!v->as_bool());
        case UnOp::kBitNot:
          if (t == NumType::kBit) return Value::bit(!v->as_bit());
          return arith(ArithOp::kXor, t, *v,
                       t == NumType::kI64 ? Value::i64(-1) : Value::i32(-1));
        case UnOp::kUserOp: break;
      }
      return std::nullopt;
    }
    case ExprKind::kBinary: {
      const auto& b = as<lime::BinaryExpr>(e);
      auto l = eval_const_expr(*b.lhs);
      auto r = eval_const_expr(*b.rhs);
      if (!l || !r) return std::nullopt;
      if (b.op == BinOp::kLAnd || b.op == BinOp::kLOr) {
        return Value::boolean(b.op == BinOp::kLAnd
                                  ? l->as_bool() && r->as_bool()
                                  : l->as_bool() || r->as_bool());
      }
      NumType t = num_type_for(b.lhs->type);
      if (lime::is_comparison(b.op)) {
        return Value::boolean(compare(cmp_for(b.op), t, *l, *r));
      }
      try {
        return arith(arith_for(b.op), t, *l, *r);
      } catch (const RuntimeError&) {
        return std::nullopt;  // zero divisor: fails at run time instead
      }
    }
    case ExprKind::kTernary: {
      const auto& t = as<lime::TernaryExpr>(e);
      auto c = eval_const_expr(*t.cond);
      auto a = eval_const_expr(*t.then_expr);
      auto b = eval_const_expr(*t.else_expr);
      if (!c || !a || !b) return std::nullopt;
      return c->as_bool() ? a : b;
    }
    default:
      return std::nullopt;
  }
}

namespace {

/// Marker exception used internally to abandon a single method's lowering;
/// the method is emitted as a trap instead.
struct Unsupported {
  std::string reason;
};

/// Per-method code generator.
class MethodCompiler {
 public:
  using StaticCellMap = std::unordered_map<const lime::FieldDecl*, Value>;

  MethodCompiler(BytecodeModule& module,
                 const std::unordered_map<const lime::MethodDecl*, int>& index,
                 StaticCellMap& static_cells)
      : module_(module), method_index_(index), static_cells_(static_cells) {}

  void compile(const lime::MethodDecl& m, CompiledMethod& out) {
    code_ = &out.code;
    if (m.body) compile_block(*m.body);
    // Implicit return for void methods falling off the end.
    emit(Op::kReturnVoid);
  }

 private:
  // -- emission helpers --
  int emit(Op op, int32_t a = 0, int32_t b = 0, int32_t c = 0) {
    code_->push_back({op, a, b, c});
    return static_cast<int>(code_->size()) - 1;
  }
  int here() const { return static_cast<int>(code_->size()); }
  void patch(int instr_index, int target) { (*code_)[instr_index].a = target; }
  void emit_const(const Value& v) { emit(Op::kConst, module_.add_const(v)); }

  int method_idx(const lime::MethodDecl* m) {
    auto it = method_index_.find(m);
    if (it == method_index_.end()) {
      throw Unsupported{"call to method with no compiled body: " +
                        (m ? m->qualified_name() : "<null>")};
    }
    return it->second;
  }

  /// Materializes a `static final T[] f = new T[K]` field as one shared
  /// array cell (Java semantics: the reference is final, the elements are
  /// not). Every reference site aliases the same storage, so element writes
  /// are visible program-wide — exactly the shared state the effect
  /// verifier demotes accelerated placement for. Returns nullptr when the
  /// initializer is not a constant-length allocation.
  const Value* static_array_cell(const lime::FieldDecl* f) {
    auto it = static_cells_.find(f);
    if (it != static_cells_.end()) return &it->second;
    if (!f->init || f->init->kind != ExprKind::kNewArray) return nullptr;
    const auto& na = as<lime::NewArrayExpr>(*f->init);
    if (na.is_value_array || !na.length) return nullptr;
    auto len = eval_const_expr(*na.length);
    if (!len || len->kind() != ValueKind::kInt || len->as_i32() < 0) {
      return nullptr;
    }
    ArrayRef cell = make_array(elem_code_for(na.elem_type),
                               static_cast<size_t>(len->as_i32()));
    auto [pos, inserted] =
        static_cells_.emplace(f, Value::array(std::move(cell)));
    (void)inserted;
    return &pos->second;
  }

  // -- statements --
  void compile_block(const lime::BlockStmt& b) {
    for (const auto& s : b.stmts) {
      if (s) compile_stmt(*s);
    }
  }

  void compile_stmt(const lime::Stmt& s) {
    switch (s.kind) {
      case StmtKind::kBlock:
        compile_block(as<lime::BlockStmt>(s));
        return;
      case StmtKind::kExpr: {
        const auto& es = as<lime::ExprStmt>(s);
        if (!es.expr) return;
        bool pushed = compile_expr(*es.expr, /*want_value=*/false);
        if (pushed) emit(Op::kPop);
        return;
      }
      case StmtKind::kVarDecl: {
        const auto& vd = as<lime::VarDeclStmt>(s);
        if (vd.init) {
          compile_expr(*vd.init, true);
          emit(Op::kStore, vd.slot);
        } else {
          // Default-initialize so the slot always holds a typed value.
          emit_default(vd.declared_type);
          emit(Op::kStore, vd.slot);
        }
        return;
      }
      case StmtKind::kIf: {
        const auto& is = as<lime::IfStmt>(s);
        compile_expr(*is.cond, true);
        int jfalse = emit(Op::kJumpIfFalse);
        compile_stmt(*is.then_stmt);
        if (is.else_stmt) {
          int jend = emit(Op::kJump);
          patch(jfalse, here());
          compile_stmt(*is.else_stmt);
          patch(jend, here());
        } else {
          patch(jfalse, here());
        }
        return;
      }
      case StmtKind::kWhile: {
        const auto& ws = as<lime::WhileStmt>(s);
        int top = here();
        compile_expr(*ws.cond, true);
        int jexit = emit(Op::kJumpIfFalse);
        loops_.push_back({top, {}, {}});
        compile_stmt(*ws.body);
        emit(Op::kJump, top);
        patch(jexit, here());
        close_loop();
        return;
      }
      case StmtKind::kFor: {
        const auto& fs = as<lime::ForStmt>(s);
        if (fs.init) compile_stmt(*fs.init);
        int top = here();
        int jexit = -1;
        if (fs.cond) {
          compile_expr(*fs.cond, true);
          jexit = emit(Op::kJumpIfFalse);
        }
        loops_.push_back({-1, {}, {}});  // continue target patched below
        compile_stmt(*fs.body);
        int cont_target = here();
        loops_.back().continue_target = cont_target;
        if (fs.update) {
          bool pushed = compile_expr(*fs.update, false);
          if (pushed) emit(Op::kPop);
        }
        emit(Op::kJump, top);
        if (jexit >= 0) patch(jexit, here());
        close_loop();
        return;
      }
      case StmtKind::kReturn: {
        const auto& rs = as<lime::ReturnStmt>(s);
        if (rs.value) {
          compile_expr(*rs.value, true);
          emit(Op::kReturn);
        } else {
          emit(Op::kReturnVoid);
        }
        return;
      }
      case StmtKind::kBreak:
        LM_CHECK(!loops_.empty());
        loops_.back().break_jumps.push_back(emit(Op::kJump));
        return;
      case StmtKind::kContinue: {
        LM_CHECK(!loops_.empty());
        if (loops_.back().continue_target >= 0) {
          emit(Op::kJump, loops_.back().continue_target);
        } else {
          loops_.back().continue_jumps.push_back(emit(Op::kJump));
        }
        return;
      }
    }
  }

  void emit_default(const TypeRef& t) {
    switch (t->kind) {
      case TypeKind::kInt: emit_const(Value::i32(0)); return;
      case TypeKind::kLong: emit_const(Value::i64(0)); return;
      case TypeKind::kFloat: emit_const(Value::f32(0)); return;
      case TypeKind::kDouble: emit_const(Value::f64(0)); return;
      case TypeKind::kBoolean: emit_const(Value::boolean(false)); return;
      case TypeKind::kBit: emit_const(Value::bit(false)); return;
      case TypeKind::kClass: emit_const(Value::i32(0)); return;  // enum
      default:
        // Arrays/task handles must be explicitly initialized before use;
        // push a void placeholder.
        emit_const(Value::void_());
        return;
    }
  }

  // -- expressions --
  // Returns true when a value was pushed onto the stack.
  bool compile_expr(const lime::Expr& e, bool want_value) {
    switch (e.kind) {
      case ExprKind::kIntLit: {
        const auto& l = as<lime::IntLitExpr>(e);
        emit_const(l.is_long ? Value::i64(l.value)
                             : Value::i32(static_cast<int32_t>(l.value)));
        return true;
      }
      case ExprKind::kFloatLit: {
        const auto& l = as<lime::FloatLitExpr>(e);
        emit_const(l.is_double ? Value::f64(l.value)
                               : Value::f32(static_cast<float>(l.value)));
        return true;
      }
      case ExprKind::kBoolLit:
        emit_const(Value::boolean(as<lime::BoolLitExpr>(e).value));
        return true;
      case ExprKind::kBitLit: {
        const auto& l = as<lime::BitLitExpr>(e);
        std::vector<uint8_t> bits(l.bits.width());
        for (size_t i = 0; i < l.bits.width(); ++i) bits[i] = l.bits.get(i);
        emit_const(Value::array(make_bit_array(std::move(bits), true)));
        return true;
      }
      case ExprKind::kName:
        return compile_name(as<lime::NameExpr>(e));
      case ExprKind::kThis:
        emit(Op::kLoad, 0);
        return true;
      case ExprKind::kUnary:
        return compile_unary(as<lime::UnaryExpr>(e));
      case ExprKind::kBinary:
        return compile_binary(as<lime::BinaryExpr>(e));
      case ExprKind::kAssign:
        return compile_assign(as<lime::AssignExpr>(e), want_value);
      case ExprKind::kTernary: {
        const auto& t = as<lime::TernaryExpr>(e);
        compile_expr(*t.cond, true);
        int jelse = emit(Op::kJumpIfFalse);
        compile_expr(*t.then_expr, true);
        int jend = emit(Op::kJump);
        patch(jelse, here());
        compile_expr(*t.else_expr, true);
        patch(jend, here());
        return true;
      }
      case ExprKind::kCall:
        return compile_call(as<lime::CallExpr>(e));
      case ExprKind::kIndex: {
        const auto& ix = as<lime::IndexExpr>(e);
        compile_expr(*ix.array, true);
        compile_expr(*ix.index, true);
        emit(Op::kArrayLoad);
        return true;
      }
      case ExprKind::kField:
        return compile_field(as<lime::FieldExpr>(e));
      case ExprKind::kNewArray: {
        const auto& n = as<lime::NewArrayExpr>(e);
        if (n.from_array) {
          compile_expr(*n.from_array, true);
          emit(Op::kFreeze);
        } else {
          compile_expr(*n.length, true);
          emit(Op::kNewArray, static_cast<int>(elem_code_for(n.elem_type)));
        }
        return true;
      }
      case ExprKind::kCast: {
        const auto& c = as<lime::CastExpr>(e);
        compile_expr(*c.operand, true);
        NumType from = num_type_for(c.operand->type);
        NumType to = num_type_for(c.target);
        if (from != to) {
          emit(Op::kCast, static_cast<int>(from), static_cast<int>(to));
        }
        return true;
      }
      case ExprKind::kMap: {
        const auto& m = as<lime::MapExpr>(e);
        // Mask: which operands are mapped elementwise. An array argument
        // whose parameter is itself array-typed is a *whole-array
        // broadcast* (matmul's matrices), not an elementwise stream.
        int mask = 0;
        for (size_t i = 0; i < m.args.size(); ++i) {
          compile_expr(*m.args[i], true);
          if (m.args[i]->type->is_array_like() &&
              !m.resolved->params[i].type->is_array_like()) {
            mask |= 1 << i;
          }
        }
        emit(Op::kMap, method_idx(m.resolved),
             static_cast<int>(m.args.size()), mask);
        return true;
      }
      case ExprKind::kReduce: {
        const auto& r = as<lime::ReduceExpr>(e);
        compile_expr(*r.args[0], true);
        emit(Op::kReduce, method_idx(r.resolved));
        return true;
      }
      case ExprKind::kTask: {
        const auto& t = as<lime::TaskExpr>(e);
        int id = module_.add_task_id(t.resolved->qualified_name());
        emit(Op::kMakeTask, method_idx(t.resolved),
             relocate_depth_ > 0 ? 1 : 0, id);
        return true;
      }
      case ExprKind::kRelocate: {
        const auto& r = as<lime::RelocateExpr>(e);
        ++relocate_depth_;
        bool pushed = compile_expr(*r.inner, want_value);
        --relocate_depth_;
        return pushed;
      }
      case ExprKind::kConnect: {
        const auto& c = as<lime::ConnectExpr>(e);
        compile_expr(*c.lhs, true);
        compile_expr(*c.rhs, true);
        emit(Op::kConnectTasks);
        return true;
      }
    }
    LM_UNREACHABLE("unhandled expression kind");
  }

  bool compile_name(const lime::NameExpr& n) {
    switch (n.ref) {
      case lime::NameRefKind::kLocal:
        emit(Op::kLoad, n.slot);
        return true;
      case lime::NameRefKind::kEnumConst:
        emit_const(Value::i32(n.enum_ordinal));
        return true;
      case lime::NameRefKind::kField: {
        const lime::FieldDecl* f = n.field;
        if (f->is_static && f->is_final && f->init) {
          if (auto v = eval_const_expr(*f->init)) {
            emit_const(*v);
            return true;
          }
          if (const Value* cell = static_array_cell(f)) {
            emit_const(*cell);
            return true;
          }
          throw Unsupported{"static final field '" + f->name +
                            "' has a non-constant initializer"};
        }
        throw Unsupported{"instance fields are not executable in this "
                          "subset (field '" + f->name + "')"};
      }
      default:
        throw Unsupported{"unresolved name '" + n.name + "'"};
    }
  }

  bool compile_field(const lime::FieldExpr& f) {
    if (f.is_array_length) {
      compile_expr(*f.object, true);
      emit(Op::kArrayLen);
      return true;
    }
    if (f.enum_ordinal >= 0) {
      if (f.enum_class) {
        emit_const(Value::i32(f.enum_ordinal));
      } else {
        emit_const(Value::bit(f.enum_ordinal == 1));  // bit.zero / bit.one
      }
      return true;
    }
    if (f.field && f.field->is_static && f.field->is_final &&
        f.field->init) {
      if (auto v = eval_const_expr(*f.field->init)) {
        emit_const(*v);
        return true;
      }
      if (const Value* cell = static_array_cell(f.field)) {
        emit_const(*cell);
        return true;
      }
    }
    throw Unsupported{"field access '" + f.name +
                      "' is not executable in this subset"};
  }

  bool compile_unary(const lime::UnaryExpr& u) {
    if (u.op == UnOp::kUserOp) {
      // User-defined operator method: receiver is the operand.
      compile_expr(*u.operand, true);
      emit(Op::kCall, method_idx(u.user_method));
      return true;
    }
    compile_expr(*u.operand, true);
    NumType t = num_type_for(u.operand->type);
    switch (u.op) {
      case UnOp::kNeg:
        emit(Op::kArith, static_cast<int>(ArithOp::kNeg),
             static_cast<int>(t));
        return true;
      case UnOp::kNot:
        emit(Op::kNot);
        return true;
      case UnOp::kBitNot:
        if (t == NumType::kBit) {
          emit(Op::kBitFlip);
        } else {
          // ~x lowers to x ^ -1 (two's complement identity).
          emit_const(t == NumType::kI64 ? Value::i64(-1) : Value::i32(-1));
          emit(Op::kArith, static_cast<int>(ArithOp::kXor),
               static_cast<int>(t));
        }
        return true;
      case UnOp::kUserOp:
        break;
    }
    LM_UNREACHABLE("bad unary op");
  }

  bool compile_binary(const lime::BinaryExpr& b) {
    if (b.op == BinOp::kLAnd || b.op == BinOp::kLOr) {
      // Short-circuit: evaluate lhs; on the deciding value skip rhs.
      compile_expr(*b.lhs, true);
      emit(Op::kDup);
      int jshort = emit(b.op == BinOp::kLAnd ? Op::kJumpIfFalse
                                             : Op::kJumpIfTrue);
      emit(Op::kPop);
      compile_expr(*b.rhs, true);
      patch(jshort, here());
      return true;
    }
    compile_expr(*b.lhs, true);
    compile_expr(*b.rhs, true);
    NumType t = num_type_for(b.lhs->type);
    if (lime::is_comparison(b.op)) {
      emit(Op::kCmp, static_cast<int>(cmp_for(b.op)), static_cast<int>(t));
    } else {
      emit(Op::kArith, static_cast<int>(arith_for(b.op)),
           static_cast<int>(t));
    }
    return true;
  }

  bool compile_assign(const lime::AssignExpr& a, bool want_value) {
    if (a.target->kind == ExprKind::kName) {
      const auto& n = as<lime::NameExpr>(*a.target);
      LM_CHECK_MSG(n.ref == lime::NameRefKind::kLocal,
                   "non-local assignment target survived sema");
      if (a.compound) {
        emit(Op::kLoad, n.slot);
        compile_expr(*a.value, true);
        emit(Op::kArith, static_cast<int>(arith_for(a.op)),
             static_cast<int>(num_type_for(a.target->type)));
      } else {
        compile_expr(*a.value, true);
      }
      if (want_value) emit(Op::kDup);
      emit(Op::kStore, n.slot);
      return want_value;
    }
    if (a.target->kind == ExprKind::kIndex) {
      const auto& ix = as<lime::IndexExpr>(*a.target);
      compile_expr(*ix.array, true);
      compile_expr(*ix.index, true);
      if (a.compound) {
        emit(Op::kDup2);
        emit(Op::kArrayLoad);
        compile_expr(*a.value, true);
        emit(Op::kArith, static_cast<int>(arith_for(a.op)),
             static_cast<int>(num_type_for(a.target->type)));
      } else {
        compile_expr(*a.value, true);
      }
      if (want_value) {
        throw Unsupported{
            "array-element assignment used as a value expression"};
      }
      emit(Op::kArrayStore);
      return false;
    }
    throw Unsupported{"assignment to fields is not executable in this "
                      "subset"};
  }

  bool compile_call(const lime::CallExpr& c) {
    using B = lime::CallExpr::Builtin;
    switch (c.builtin) {
      case B::kNone:
        break;
      case B::kSource: {
        compile_expr(*c.receiver, true);
        compile_expr(*c.args[0], true);
        emit(Op::kMakeSource);
        return true;
      }
      case B::kSink: {
        compile_expr(*c.receiver, true);
        emit(Op::kMakeSink);
        return true;
      }
      case B::kStart: {
        compile_expr(*c.receiver, true);
        emit(Op::kStartGraph);
        return false;
      }
      case B::kFinish: {
        compile_expr(*c.receiver, true);
        emit(Op::kFinishGraph);
        return false;
      }
      default: {  // Math intrinsics
        for (const auto& arg : c.args) compile_expr(*arg, true);
        emit(Op::kIntrinsic, static_cast<int>(intrinsic_for(c.builtin)),
             static_cast<int>(num_type_for(c.type)));
        return true;
      }
    }
    // Plain method call; for instance calls the receiver occupies slot 0 of
    // the callee frame, so it is pushed before the arguments.
    LM_CHECK_MSG(c.resolved != nullptr, "unresolved call survived sema");
    if (!c.resolved->is_static) {
      if (c.receiver) {
        compile_expr(*c.receiver, true);
      } else {
        emit(Op::kLoad, 0);  // implicit `this`
      }
    }
    for (const auto& arg : c.args) compile_expr(*arg, true);
    emit(Op::kCall, method_idx(c.resolved));
    return c.type->kind != TypeKind::kVoid;
  }

  void close_loop() {
    Loop& l = loops_.back();
    for (int j : l.break_jumps) patch(j, here());
    // Any deferred continues in a for-loop jump to the update block, whose
    // position was recorded when it was emitted.
    for (int j : l.continue_jumps) patch(j, l.continue_target);
    loops_.pop_back();
  }

  struct Loop {
    int continue_target;  // -1 until known (for-loop update block)
    std::vector<int> break_jumps;
    std::vector<int> continue_jumps;
  };

  BytecodeModule& module_;
  const std::unordered_map<const lime::MethodDecl*, int>& method_index_;
  StaticCellMap& static_cells_;
  std::vector<Instr>* code_ = nullptr;
  std::vector<Loop> loops_;
  int relocate_depth_ = 0;
};

}  // namespace

std::unique_ptr<BytecodeModule> compile_program(const lime::Program& program,
                                                DiagnosticEngine& diags) {
  auto module = std::make_unique<BytecodeModule>();
  std::unordered_map<const lime::MethodDecl*, int> index;
  MethodCompiler::StaticCellMap static_cells;

  // Pass 1: allocate method slots (so calls can be emitted in any order).
  for (const auto& cls : program.classes) {
    if (cls->name == "bit") continue;  // builtin; `~` lowers to kBitFlip
    for (const auto& m : cls->methods) {
      CompiledMethod cm;
      cm.qualified_name = m->qualified_name();
      cm.is_static = m->is_static;
      cm.is_pure = m->is_pure;
      cm.num_params =
          static_cast<int>(m->params.size()) + (m->is_static ? 0 : 1);
      cm.num_slots = m->num_slots;
      for (const auto& p : m->params) cm.param_types.push_back(p.type);
      cm.return_type = m->return_type;
      index[m.get()] = static_cast<int>(module->methods.size());
      module->method_index[cm.qualified_name] =
          static_cast<int>(module->methods.size());
      module->methods.push_back(std::move(cm));
    }
  }

  // Pass 2: lower bodies.
  for (const auto& cls : program.classes) {
    if (cls->name == "bit") continue;
    for (const auto& m : cls->methods) {
      CompiledMethod& cm = module->methods[index[m.get()]];
      try {
        MethodCompiler mc(*module, index, static_cells);
        mc.compile(*m, cm);
      } catch (const Unsupported& u) {
        cm.code.clear();
        cm.unsupported_reason = u.reason;
        diags.warning(m->loc, "method " + cm.qualified_name +
                                  " compiled as trap: " + u.reason);
      }
    }
  }
  return module;
}

}  // namespace lm::bc
