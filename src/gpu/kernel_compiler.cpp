#include "gpu/kernel_compiler.h"

#include <unordered_map>

#include "bytecode/compiler.h"
#include "gpu/lowered.h"
#include "gpu/opencl_emit.h"
#include "util/error.h"

namespace lm::gpu {

using bc::arith_for;
using bc::cmp_for;
using bc::intrinsic_for;
using bc::num_type_for;
using lime::as;
using lime::BinOp;
using lime::ExprKind;
using lime::StmtKind;
using lime::TypeKind;
using lime::UnOp;

namespace {

constexpr int kMaxInlineDepth = 8;

struct Exclude {
  std::string reason;
  /// Where the offending construct sits; default (line 0) means "the
  /// method as a whole" and the catch site substitutes the method's loc.
  SourceLoc loc{};
};

class Lowering {
 public:
  explicit Lowering(KernelProgram& out) : prog_(out) {}

  /// Lowers `m` as the top-level kernel body. `param_regs[i]` is the
  /// register holding parameter i (scalars) or ~param_index (arrays).
  void lower_top(const lime::MethodDecl& m, const std::vector<int>& param_regs) {
    Frame f;
    f.method = &m;
    f.is_top = true;
    bind_params(m, param_regs, f);
    frames_.push_back(std::move(f));
    lower_block(*m.body);
    frames_.pop_back();
  }

  /// Lowers `m` inline; its return value lands in the returned register.
  /// `arg_regs` holds the receiver first for an instance method, then one
  /// entry per parameter (see bind_params).
  int lower_inline(const lime::MethodDecl& m,
                   const std::vector<int>& arg_regs) {
    if (!m.body) throw Exclude{"call to bodyless method"};
    if (static_cast<int>(frames_.size()) > kMaxInlineDepth) {
      throw Exclude{"inline depth exceeds " + std::to_string(kMaxInlineDepth)};
    }
    for (const auto& fr : frames_) {
      if (fr.method == &m) {
        throw Exclude{"recursive call to " + m.qualified_name()};
      }
    }
    Frame f;
    f.method = &m;
    f.is_top = false;
    f.ret_reg = alloc_reg();
    bind_params(m, arg_regs, f);
    frames_.push_back(std::move(f));
    lower_block(*m.body);
    Frame done = std::move(frames_.back());
    frames_.pop_back();
    for (int j : done.ret_jumps) patch(j, here());
    return done.ret_reg;
  }

  int alloc_reg() { return prog_.num_regs++; }
  int here() const { return static_cast<int>(prog_.code.size()); }

 private:
  struct Frame {
    const lime::MethodDecl* method = nullptr;
    bool is_top = true;
    int ret_reg = -1;
    std::vector<int> ret_jumps;
    // Local slot → register (fresh per frame).
    std::unordered_map<int, int> slot2reg;
    // Param slot → whole-array kernel param index (arrays only).
    std::unordered_map<int, int> slot2array;
  };

  /// Binds a call's receiver (`this`, slot 0), when arg_regs carries one
  /// first, and each parameter to the next entry: a scalar is copied into a
  /// fresh register, so callee-side assignment cannot clobber the caller's
  /// value; an array arrives as the bitwise complement of its kernel param
  /// index, kept plain in slot2array.
  void bind_params(const lime::MethodDecl& m, const std::vector<int>& arg_regs,
                   Frame& f) {
    const size_t receiver = arg_regs.size() - m.params.size();
    LM_CHECK(receiver <= (m.is_static ? 0u : 1u));
    auto copy = [&](int slot, int reg) {
      int r = alloc_reg();
      emit3(KOp::kMov, r, reg);
      f.slot2reg[slot] = r;
    };
    if (receiver) copy(0, arg_regs[0]);
    for (size_t i = 0; i < m.params.size(); ++i) {
      const int reg = arg_regs[receiver + i];
      if (m.params[i].type->is_array_like()) {
        if (reg >= 0) throw Exclude{"array argument mismatch"};
        f.slot2array[m.params[i].slot] = ~reg;
      } else {
        copy(m.params[i].slot, reg);
      }
    }
  }

  void emit(KInstr k) { prog_.code.push_back(k); }
  void emit3(KOp op, int dst, int a, int b = 0, uint8_t aux = 0,
             NumType t = NumType::kI32, NumType t2 = NumType::kI32,
             int32_t imm = 0) {
    emit({op, static_cast<uint16_t>(dst), static_cast<uint16_t>(a),
          static_cast<uint16_t>(b), aux, t, t2, imm});
  }

  int emit_jump(KOp op, int cond_reg = 0) {
    emit3(op, 0, cond_reg);
    return here() - 1;
  }
  void patch(int at, int target) {
    prog_.code[static_cast<size_t>(at)].imm = target;
  }

  int add_const(NumType t, KReg v) {
    prog_.consts.push_back({v, t});
    int idx = static_cast<int>(prog_.consts.size()) - 1;
    int r = alloc_reg();
    emit3(KOp::kLoadConst, r, idx);
    return r;
  }
  int const_i32(int32_t v) { KReg r; r.i32 = v; return add_const(NumType::kI32, r); }

  int reg_for_slot(int slot) {
    Frame& f = frames_.back();
    auto it = f.slot2reg.find(slot);
    if (it != f.slot2reg.end()) return it->second;
    int r = alloc_reg();
    f.slot2reg[slot] = r;
    return r;
  }

  /// Whole-array kernel param index for a local slot, or -1.
  int array_for_slot(int slot) {
    Frame& f = frames_.back();
    auto it = f.slot2array.find(slot);
    return it == f.slot2array.end() ? -1 : it->second;
  }

  // -- statements --
  void lower_block(const lime::BlockStmt& b) {
    for (const auto& s : b.stmts) {
      if (s) lower_stmt(*s);
    }
  }

  void lower_stmt(const lime::Stmt& s) {
    switch (s.kind) {
      case StmtKind::kBlock:
        lower_block(as<lime::BlockStmt>(s));
        return;
      case StmtKind::kExpr: {
        const auto& es = as<lime::ExprStmt>(s);
        if (es.expr) lower_expr(*es.expr);
        return;
      }
      case StmtKind::kVarDecl: {
        const auto& vd = as<lime::VarDeclStmt>(s);
        if (vd.declared_type->is_array_like()) {
          throw Exclude{"array-typed local '" + vd.name +
                        "' inside a kernel"};
        }
        int dst = reg_for_slot(vd.slot);
        if (vd.init) {
          int v = lower_expr(*vd.init);
          emit3(KOp::kMov, dst, v);
        } else {
          KReg zero{};
          int c = add_const(num_type_for(vd.declared_type), zero);
          emit3(KOp::kMov, dst, c);
        }
        return;
      }
      case StmtKind::kIf: {
        const auto& is = as<lime::IfStmt>(s);
        int cond = lower_expr(*is.cond);
        int jf = emit_jump(KOp::kJumpIfFalse, cond);
        lower_stmt(*is.then_stmt);
        if (is.else_stmt) {
          int je = emit_jump(KOp::kJump);
          patch(jf, here());
          lower_stmt(*is.else_stmt);
          patch(je, here());
        } else {
          patch(jf, here());
        }
        return;
      }
      case StmtKind::kWhile: {
        const auto& ws = as<lime::WhileStmt>(s);
        int top = here();
        // A constant-true condition (`while (true)`) gets no exit branch:
        // the loop leaves only by break or return, and validate() sees no
        // path out of it that no run takes.
        auto c = bc::eval_const_expr(*ws.cond);
        int jexit = -1;
        if (!c || !c->as_bool()) {
          int cond = lower_expr(*ws.cond);
          jexit = emit_jump(KOp::kJumpIfFalse, cond);
        }
        loops_.push_back({top, {}});
        lower_stmt(*ws.body);
        emit3(KOp::kJump, 0, 0, 0, 0, NumType::kI32, NumType::kI32, top);
        if (jexit >= 0) patch(jexit, here());
        close_loop();
        return;
      }
      case StmtKind::kFor: {
        const auto& fs = as<lime::ForStmt>(s);
        if (fs.init) lower_stmt(*fs.init);
        int top = here();
        int jexit = -1;
        if (fs.cond) {
          int cond = lower_expr(*fs.cond);
          jexit = emit_jump(KOp::kJumpIfFalse, cond);
        }
        loops_.push_back({-1, {}});
        lower_stmt(*fs.body);
        int cont = here();
        loops_.back().continue_target = cont;
        if (fs.update) lower_expr(*fs.update);
        emit3(KOp::kJump, 0, 0, 0, 0, NumType::kI32, NumType::kI32, top);
        if (jexit >= 0) patch(jexit, here());
        close_loop();
        return;
      }
      case StmtKind::kReturn: {
        const auto& rs = as<lime::ReturnStmt>(s);
        if (!rs.value) throw Exclude{"void return inside a kernel"};
        // NOTE: lower_expr may inline further calls, growing frames_ and
        // invalidating references — re-fetch the frame afterwards.
        int v = lower_expr(*rs.value);
        Frame& f = frames_.back();
        if (f.is_top) {
          emit3(KOp::kRet, 0, v);
        } else {
          emit3(KOp::kMov, f.ret_reg, v);
          f.ret_jumps.push_back(emit_jump(KOp::kJump));
        }
        return;
      }
      case StmtKind::kBreak:
        LM_CHECK(!loops_.empty());
        loops_.back().break_jumps.push_back(emit_jump(KOp::kJump));
        return;
      case StmtKind::kContinue: {
        LM_CHECK(!loops_.empty());
        Loop& l = loops_.back();
        if (l.continue_target >= 0) {
          emit3(KOp::kJump, 0, 0, 0, 0, NumType::kI32, NumType::kI32,
                l.continue_target);
        } else {
          l.continue_jumps.push_back(emit_jump(KOp::kJump));
        }
        return;
      }
    }
  }

  // -- expressions; returns the result register --
  int lower_expr(const lime::Expr& e) {
    switch (e.kind) {
      case ExprKind::kIntLit: {
        const auto& l = as<lime::IntLitExpr>(e);
        KReg r{};
        if (l.is_long) {
          r.i64 = l.value;
          return add_const(NumType::kI64, r);
        }
        r.i32 = static_cast<int32_t>(l.value);
        return add_const(NumType::kI32, r);
      }
      case ExprKind::kFloatLit: {
        const auto& l = as<lime::FloatLitExpr>(e);
        KReg r{};
        if (l.is_double) {
          r.f64 = l.value;
          return add_const(NumType::kF64, r);
        }
        r.f32 = static_cast<float>(l.value);
        return add_const(NumType::kF32, r);
      }
      case ExprKind::kBoolLit: {
        KReg r{};
        r.b = as<lime::BoolLitExpr>(e).value ? 1 : 0;
        return add_const(NumType::kBool, r);
      }
      case ExprKind::kBitLit:
        throw Exclude{"bit-array literal inside a kernel"};
      case ExprKind::kName:
        return lower_name(as<lime::NameExpr>(e));
      case ExprKind::kThis: {
        // `this` of a value-enum instance method: its ordinal register.
        return reg_for_slot(0);
      }
      case ExprKind::kUnary: {
        const auto& u = as<lime::UnaryExpr>(e);
        if (u.op == UnOp::kUserOp) {
          int recv = lower_expr(*u.operand);
          return lower_inline(*u.user_method, {recv});
        }
        int v = lower_expr(*u.operand);
        int dst = alloc_reg();
        NumType t = num_type_for(u.operand->type);
        switch (u.op) {
          case UnOp::kNeg:
            emit3(KOp::kNeg, dst, v, 0, 0, t);
            return dst;
          case UnOp::kNot:
            emit3(KOp::kNot, dst, v);
            return dst;
          case UnOp::kBitNot:
            if (t == NumType::kBit) {
              emit3(KOp::kBitFlip, dst, v);
              return dst;
            } else {
              KReg m{};
              int ones;
              if (t == NumType::kI64) {
                m.i64 = -1;
                ones = add_const(NumType::kI64, m);
              } else {
                m.i32 = -1;
                ones = add_const(NumType::kI32, m);
              }
              emit3(KOp::kArith, dst, v, ones,
                    static_cast<uint8_t>(ArithOp::kXor), t);
              return dst;
            }
          case UnOp::kUserOp:
            break;
        }
        LM_UNREACHABLE("bad unary");
      }
      case ExprKind::kBinary:
        return lower_binary(as<lime::BinaryExpr>(e));
      case ExprKind::kAssign:
        return lower_assign(as<lime::AssignExpr>(e));
      case ExprKind::kTernary: {
        const auto& t = as<lime::TernaryExpr>(e);
        int out = alloc_reg();
        int cond = lower_expr(*t.cond);
        int jf = emit_jump(KOp::kJumpIfFalse, cond);
        int a = lower_expr(*t.then_expr);
        emit3(KOp::kMov, out, a);
        int je = emit_jump(KOp::kJump);
        patch(jf, here());
        int b = lower_expr(*t.else_expr);
        emit3(KOp::kMov, out, b);
        patch(je, here());
        return out;
      }
      case ExprKind::kCall:
        return lower_call(as<lime::CallExpr>(e));
      case ExprKind::kIndex: {
        const auto& ix = as<lime::IndexExpr>(e);
        int ap = lower_array_ref(*ix.array);
        int idx = lower_expr(*ix.index);
        int dst = alloc_reg();
        emit3(KOp::kLoadElem, dst, ap, idx, 0,
              num_type_for(ix.array->type->elem));
        return dst;
      }
      case ExprKind::kField: {
        const auto& f = as<lime::FieldExpr>(e);
        if (f.is_array_length) {
          int ap = lower_array_ref(*f.object);
          int dst = alloc_reg();
          emit3(KOp::kArrayLen, dst, ap);
          return dst;
        }
        if (f.enum_ordinal >= 0) {
          KReg r{};
          if (f.enum_class) {
            r.i32 = f.enum_ordinal;
            return add_const(NumType::kI32, r);
          }
          r.b = f.enum_ordinal == 1 ? 1 : 0;
          return add_const(NumType::kBit, r);
        }
        if (auto v = bc::eval_const_expr(f)) return const_from_value(*v);
        throw Exclude{"field access inside a kernel", f.loc};
      }
      case ExprKind::kCast: {
        const auto& c = as<lime::CastExpr>(e);
        int v = lower_expr(*c.operand);
        NumType from = num_type_for(c.operand->type);
        NumType to = num_type_for(c.target);
        if (from == to) return v;
        int dst = alloc_reg();
        emit3(KOp::kCast, dst, v, 0, 0, from, to);
        return dst;
      }
      case ExprKind::kNewArray:
        throw Exclude{"array allocation inside a kernel", e.loc};
      case ExprKind::kMap:
      case ExprKind::kReduce:
        throw Exclude{"nested map/reduce inside a kernel", e.loc};
      case ExprKind::kTask:
      case ExprKind::kRelocate:
      case ExprKind::kConnect:
        throw Exclude{"task-graph construction inside a kernel", e.loc};
    }
    LM_UNREACHABLE("unhandled kernel expression");
  }

  int lower_name(const lime::NameExpr& n) {
    switch (n.ref) {
      case lime::NameRefKind::kLocal: {
        if (array_for_slot(n.slot) >= 0) {
          throw Exclude{"array value used as a scalar"};
        }
        return reg_for_slot(n.slot);
      }
      case lime::NameRefKind::kEnumConst: {
        KReg r{};
        r.i32 = n.enum_ordinal;
        return add_const(NumType::kI32, r);
      }
      case lime::NameRefKind::kField: {
        // Static-final constants fold (sema guarantees local methods touch
        // nothing else among fields).
        if (auto v = bc::eval_const_expr(n)) return const_from_value(*v);
        throw Exclude{"field '" + n.name + "' inside a kernel", n.loc};
      }
      default:
        throw Exclude{"unresolved name inside a kernel", n.loc};
    }
  }

  /// Materializes a compile-time bc::Value as a kernel constant register.
  int const_from_value(const bc::Value& v) {
    KReg r{};
    switch (v.kind()) {
      case bc::ValueKind::kInt:
        r.i32 = v.as_i32();
        return add_const(NumType::kI32, r);
      case bc::ValueKind::kLong:
        r.i64 = v.as_i64();
        return add_const(NumType::kI64, r);
      case bc::ValueKind::kFloat:
        r.f32 = v.as_f32();
        return add_const(NumType::kF32, r);
      case bc::ValueKind::kDouble:
        r.f64 = v.as_f64();
        return add_const(NumType::kF64, r);
      case bc::ValueKind::kBool:
        r.b = v.as_bool() ? 1 : 0;
        return add_const(NumType::kBool, r);
      case bc::ValueKind::kBit:
        r.b = v.as_bit() ? 1 : 0;
        return add_const(NumType::kBit, r);
      default:
        throw Exclude{"non-scalar constant inside a kernel"};
    }
  }

  /// Resolves an expression that must denote a whole-array kernel param.
  int lower_array_ref(const lime::Expr& e) {
    if (e.kind == ExprKind::kName) {
      const auto& n = as<lime::NameExpr>(e);
      if (n.ref == lime::NameRefKind::kLocal) {
        int ap = array_for_slot(n.slot);
        if (ap >= 0) return ap;
      }
    }
    throw Exclude{"computed array reference inside a kernel"};
  }

  int lower_binary(const lime::BinaryExpr& b) {
    if (b.op == BinOp::kLAnd || b.op == BinOp::kLOr) {
      int out = alloc_reg();
      int l = lower_expr(*b.lhs);
      emit3(KOp::kMov, out, l);
      int skip;
      if (b.op == BinOp::kLAnd) {
        skip = emit_jump(KOp::kJumpIfFalse, l);
      } else {
        // skip when l is true: jz over an unconditional jump
        int jz = emit_jump(KOp::kJumpIfFalse, l);
        skip = emit_jump(KOp::kJump);
        patch(jz, here());
      }
      int r = lower_expr(*b.rhs);
      emit3(KOp::kMov, out, r);
      patch(skip, here());
      return out;
    }
    int l = lower_expr(*b.lhs);
    int r = lower_expr(*b.rhs);
    int dst = alloc_reg();
    NumType t = num_type_for(b.lhs->type);
    if (lime::is_comparison(b.op)) {
      emit3(KOp::kCmp, dst, l, r, static_cast<uint8_t>(cmp_for(b.op)), t);
    } else {
      emit3(KOp::kArith, dst, l, r, static_cast<uint8_t>(arith_for(b.op)), t);
    }
    return dst;
  }

  int lower_assign(const lime::AssignExpr& a) {
    if (a.target->kind != ExprKind::kName) {
      throw Exclude{"assignment through memory inside a kernel", a.loc};
    }
    const auto& n = as<lime::NameExpr>(*a.target);
    LM_CHECK(n.ref == lime::NameRefKind::kLocal);
    int dst = reg_for_slot(n.slot);
    if (a.compound) {
      int v = lower_expr(*a.value);
      emit3(KOp::kArith, dst, dst, v, static_cast<uint8_t>(arith_for(a.op)),
            num_type_for(a.target->type));
    } else {
      int v = lower_expr(*a.value);
      emit3(KOp::kMov, dst, v);
    }
    return dst;
  }

  int lower_call(const lime::CallExpr& c) {
    using B = lime::CallExpr::Builtin;
    switch (c.builtin) {
      case B::kNone:
        break;
      case B::kSource: case B::kSink: case B::kStart: case B::kFinish:
        throw Exclude{"task-graph operation inside a kernel", c.loc};
      default: {
        std::vector<int> regs;
        for (const auto& arg : c.args) regs.push_back(lower_expr(*arg));
        int dst = alloc_reg();
        emit3(KOp::kIntrinsic, dst, regs[0], regs.size() > 1 ? regs[1] : 0,
              static_cast<uint8_t>(intrinsic_for(c.builtin)),
              num_type_for(c.type));
        return dst;
      }
    }
    LM_CHECK(c.resolved != nullptr);
    if (!c.resolved->is_pure) {
      throw Exclude{"call to impure method '" +
                        c.resolved->qualified_name() + "' inside a kernel",
                    c.loc};
    }
    std::vector<int> arg_regs;
    if (!c.resolved->is_static) {
      LM_CHECK(c.receiver != nullptr);
      arg_regs.push_back(lower_expr(*c.receiver));
    }
    for (const auto& arg : c.args) {
      if (arg->type && arg->type->is_array_like()) {
        // Arrays are passed by kernel-param index, encoded as ~index.
        arg_regs.push_back(~lower_array_ref(*arg));
      } else {
        arg_regs.push_back(lower_expr(*arg));
      }
    }
    return lower_inline(*c.resolved, arg_regs);
  }

  struct Loop {
    int continue_target;
    std::vector<int> break_jumps;
    std::vector<int> continue_jumps;

    Loop(int ct, std::vector<int> bj) : continue_target(ct),
                                        break_jumps(std::move(bj)) {}
  };
  void close_loop() {
    Loop& l = loops_.back();
    for (int j : l.break_jumps) patch(j, here());
    for (int j : l.continue_jumps) patch(j, l.continue_target);
    loops_.pop_back();
  }

  KernelProgram& prog_;
  std::vector<Frame> frames_;
  std::vector<Loop> loops_;
};

void check_task_suitable(const lime::MethodDecl& m) {
  if (!m.is_pure) {
    throw Exclude{"method " + m.qualified_name() +
                  " is not pure (local+static with value arguments)"};
  }
  if (!m.body) throw Exclude{"method has no body"};
  switch (m.return_type->kind) {
    case TypeKind::kInt: case TypeKind::kLong: case TypeKind::kFloat:
    case TypeKind::kDouble: case TypeKind::kBoolean: case TypeKind::kBit:
    case TypeKind::kClass:
      break;
    default:
      throw Exclude{"non-scalar return type " + m.return_type->to_string()};
  }
  // A task's work item binds only the method's parameters: no caller
  // passes a receiver (an operator is inlined where it is used instead).
  if (!m.is_static) {
    throw Exclude{"instance method " + m.qualified_name() +
                  " has no receiver to bind"};
  }
}

/// Hands back `prog` if it passes validate(). One that fails has a path
/// that may end without returning (sema has no missing-return check, and
/// only data may rule the path out) or is past the validation budget; its
/// task runs on the CPU, where the path matters only if a run takes it.
std::unique_ptr<KernelProgram> admit(std::unique_ptr<KernelProgram> prog) {
  try {
    validate(*prog);
  } catch (const RuntimeError& e) {
    throw Exclude{e.what()};
  }
  return prog;
}

}  // namespace

KernelCompileResult compile_kernel(const lime::MethodDecl& method) {
  KernelCompileResult result;
  try {
    check_task_suitable(method);
    auto prog = std::make_unique<KernelProgram>();
    prog->task_id = method.qualified_name();
    prog->ret_type = num_type_for(method.return_type);
    prog->in_stride = 1;

    Lowering lw(*prog);
    std::vector<int> param_regs;
    for (size_t i = 0; i < method.params.size(); ++i) {
      KernelParam kp;
      const auto& t = method.params[i].type;
      if (t->is_array_like()) {
        kp.mode = ParamMode::kWholeArray;
        kp.type = num_type_for(t->elem);
        param_regs.push_back(~static_cast<int>(i));  // encoded array index
      } else {
        kp.mode = ParamMode::kScalar;  // launch may override to elementwise
        kp.type = num_type_for(t);
        param_regs.push_back(lw.alloc_reg());
      }
      prog->params.push_back(kp);
    }
    // Scalar params arrive pre-loaded: emit explicit loads so the executor
    // only fills a fixed "incoming" register window.
    for (size_t i = 0; i < method.params.size(); ++i) {
      if (!method.params[i].type->is_array_like()) {
        prog->code.push_back({KOp::kLoadParam,
                              static_cast<uint16_t>(param_regs[i]),
                              static_cast<uint16_t>(i), 0, 0, NumType::kI32,
                              NumType::kI32, 0});
      }
    }
    lw.lower_top(method, param_regs);
    prog->opencl_source = emit_opencl(method);
    result.program = admit(std::move(prog));
  } catch (const Exclude& ex) {
    result.exclusion_reason = ex.reason;
    result.exclusion_loc = ex.loc.line > 0 ? ex.loc : method.loc;
  }
  return result;
}

KernelCompileResult compile_segment_kernel(
    const std::vector<const lime::MethodDecl*>& chain) {
  KernelCompileResult result;
  LM_CHECK(!chain.empty());
  if (chain.size() == 1) return compile_kernel(*chain[0]);
  try {
    for (const auto* m : chain) check_task_suitable(*m);
    for (size_t i = 1; i < chain.size(); ++i) {
      if (chain[i]->params.size() != 1) {
        throw Exclude{"fused segment stage '" + chain[i]->qualified_name() +
                      "' must be unary"};
      }
    }
    auto prog = std::make_unique<KernelProgram>();
    prog->task_id = "seg";
    for (const auto* m : chain) prog->task_id += ":" + m->qualified_name();
    prog->ret_type = num_type_for(chain.back()->return_type);
    prog->in_stride = static_cast<int>(chain[0]->params.size());

    Lowering lw(*prog);
    // The segment kernel's params are the first filter's params, all
    // elementwise with stride k and offsets 0..k-1.
    std::vector<int> param_regs;
    for (size_t i = 0; i < chain[0]->params.size(); ++i) {
      const auto& t = chain[0]->params[i].type;
      if (t->is_array_like()) {
        throw Exclude{"array-consuming filter cannot be fused"};
      }
      KernelParam kp;
      kp.mode = ParamMode::kElementwise;
      kp.type = num_type_for(t);
      kp.stride = prog->in_stride;
      kp.offset = static_cast<int>(i);
      prog->params.push_back(kp);
      int r = lw.alloc_reg();
      prog->code.push_back({KOp::kLoadParam, static_cast<uint16_t>(r),
                            static_cast<uint16_t>(i), 0, 0, NumType::kI32,
                            NumType::kI32, 0});
      param_regs.push_back(r);
    }
    int cur = lw.lower_inline(*chain[0], param_regs);
    for (size_t i = 1; i < chain.size(); ++i) {
      cur = lw.lower_inline(*chain[i], {cur});
    }
    prog->code.push_back({KOp::kRet, 0, static_cast<uint16_t>(cur), 0, 0,
                          NumType::kI32, NumType::kI32, 0});
    prog->opencl_source = emit_opencl_segment(chain);
    result.program = admit(std::move(prog));
  } catch (const Exclude& ex) {
    result.exclusion_reason = ex.reason;
    result.exclusion_loc = ex.loc.line > 0 ? ex.loc : chain[0]->loc;
  }
  return result;
}

}  // namespace lm::gpu
