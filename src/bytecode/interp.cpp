#include "bytecode/interp.h"

#include "bytecode/ops.h"
#include "util/error.h"

namespace lm::bc {

namespace {

constexpr int kMaxCallDepth = 512;

[[noreturn]] void fail(const std::string& msg) { throw RuntimeError(msg); }

/// Math intrinsics on the value's scalar; a unary function ignores y.
Value intrinsic(Intrinsic fn, NumType t, const Value* args, int argc) {
  const Value& x = args[0];
  const Value& y = args[argc - 1];
  switch (t) {
    case NumType::kI32:
      return Value::i32(ops::intrinsic(fn, x.as_i32(), y.as_i32()));
    case NumType::kI64:
      return Value::i64(ops::intrinsic(fn, x.as_i64(), y.as_i64()));
    case NumType::kF32:
      return Value::f32(ops::intrinsic(fn, x.as_f32(), y.as_f32()));
    case NumType::kF64:
      return Value::f64(ops::intrinsic(fn, x.as_f64(), y.as_f64()));
    default:
      LM_UNREACHABLE("bad intrinsic type");
  }
}

}  // namespace

Value arith(ArithOp op, NumType t, const Value& a, const Value& b) {
  switch (t) {
    case NumType::kI32:
      return Value::i32(ops::arith(op, a.as_i32(), b.as_i32()));
    case NumType::kI64:
      return Value::i64(ops::arith(op, a.as_i64(), b.as_i64()));
    case NumType::kF32:
      return Value::f32(ops::arith(op, a.as_f32(), b.as_f32()));
    case NumType::kF64:
      return Value::f64(ops::arith(op, a.as_f64(), b.as_f64()));
    case NumType::kBool:
      return Value::boolean(ops::arith(op, a.as_bool(), b.as_bool()));
    case NumType::kBit:
      return Value::bit(ops::arith(op, a.as_bit(), b.as_bit()));
  }
  LM_UNREACHABLE("bad arith type");
}

bool compare(CmpOp op, NumType t, const Value& a, const Value& b) {
  switch (t) {
    case NumType::kI32: return ops::compare(op, a.as_i32(), b.as_i32());
    case NumType::kI64: return ops::compare(op, a.as_i64(), b.as_i64());
    case NumType::kF32: return ops::compare(op, a.as_f32(), b.as_f32());
    case NumType::kF64: return ops::compare(op, a.as_f64(), b.as_f64());
    case NumType::kBool: return ops::compare(op, a.as_bool(), b.as_bool());
    case NumType::kBit: return ops::compare(op, a.as_bit(), b.as_bit());
  }
  LM_UNREACHABLE("bad compare type");
}

Value cast(NumType from, NumType to, const Value& v) {
  auto convert = [to](auto x) {
    switch (to) {
      case NumType::kI32: return Value::i32(ops::cast<int32_t>(x));
      case NumType::kI64: return Value::i64(ops::cast<int64_t>(x));
      case NumType::kF32: return Value::f32(ops::cast<float>(x));
      case NumType::kF64: return Value::f64(ops::cast<double>(x));
      case NumType::kBool: return Value::boolean(ops::cast<bool>(x));
      case NumType::kBit: return Value::bit(ops::to_bit(x));
    }
    LM_UNREACHABLE("bad cast target");
  };
  // Widening an integer to long or a float to double is exact, so
  // converting the wide value gives Java's result for the narrow one.
  switch (from) {
    case NumType::kI32: return convert(int64_t{v.as_i32()});
    case NumType::kI64: return convert(v.as_i64());
    case NumType::kF32: return convert(double{v.as_f32()});
    case NumType::kF64: return convert(v.as_f64());
    case NumType::kBool: return convert(int64_t{v.as_bool()});
    case NumType::kBit: return convert(int64_t{v.as_bit()});
  }
  LM_UNREACHABLE("bad cast source");
}

Interpreter::Interpreter(const BytecodeModule& module) : module_(module) {}

Value Interpreter::call(const std::string& qualified_name,
                        std::vector<Value> args) {
  int idx = module_.index_of(qualified_name);
  if (idx < 0) fail("no such method: " + qualified_name);
  return call(idx, std::move(args));
}

Value Interpreter::call(int method_index, std::vector<Value> args) {
  LM_CHECK(method_index >= 0 &&
           method_index < static_cast<int>(module_.methods.size()));
  const CompiledMethod& m = module_.methods[method_index];
  if (!m.unsupported_reason.empty()) {
    fail("method " + m.qualified_name + " is not executable: " +
         m.unsupported_reason);
  }
  if (static_cast<int>(args.size()) != m.num_params) {
    fail("method " + m.qualified_name + " expects " +
         std::to_string(m.num_params) + " argument(s), got " +
         std::to_string(args.size()));
  }
  std::vector<Value> locals(static_cast<size_t>(m.num_slots));
  for (size_t i = 0; i < args.size(); ++i) locals[i] = std::move(args[i]);
  return run_frame(m, std::move(locals));
}

Value Interpreter::run_map(int method_index, std::span<const Value> args,
                           uint32_t array_mask) {
  const CompiledMethod& m = module_.methods[method_index];
  // Determine the iteration length from the array operands.
  size_t n = 0;
  bool have_n = false;
  for (size_t i = 0; i < args.size(); ++i) {
    if (array_mask & (1u << i)) {
      size_t len = args[i].as_array()->size();
      if (have_n && len != n) {
        fail("map arrays disagree on length: " + std::to_string(n) + " vs " +
             std::to_string(len));
      }
      n = len;
      have_n = true;
    }
  }
  if (!have_n) fail("map with no array argument");

  ArrayRef out = make_array(elem_code_for(m.return_type), n, /*is_value=*/true);
  std::vector<Value> call_args(args.size());
  for (size_t i = 0; i < n; ++i) {
    for (size_t a = 0; a < args.size(); ++a) {
      call_args[a] = (array_mask & (1u << a))
                         ? array_get(*args[a].as_array(), i)
                         : args[a];
    }
    Value r = call(method_index, call_args);
    // Writing through the const is safe here: `out` is freshly allocated
    // and becomes immutable only once published.
    out->is_value = false;
    array_set(*out, i, r);
    out->is_value = true;
  }
  return Value::array(std::move(out));
}

Value Interpreter::run_reduce(int method_index, const Value& array) {
  const ArrayRef& a = array.as_array();
  size_t n = a->size();
  if (n == 0) fail("reduce of an empty array");
  Value acc = array_get(*a, 0);
  for (size_t i = 1; i < n; ++i) {
    acc = call(method_index, {acc, array_get(*a, i)});
  }
  return acc;
}

Value Interpreter::run_frame(const CompiledMethod& m,
                             std::vector<Value> locals) {
  if (++call_depth_ > kMaxCallDepth) {
    --call_depth_;
    fail("call stack overflow in " + m.qualified_name);
  }
  struct DepthGuard {
    int& d;
    ~DepthGuard() { --d; }
  } guard{call_depth_};

  std::vector<Value> stack;
  stack.reserve(16);
  auto pop = [&stack]() {
    LM_CHECK_MSG(!stack.empty(), "operand stack underflow");
    Value v = std::move(stack.back());
    stack.pop_back();
    return v;
  };

  size_t pc = 0;
  const auto& code = m.code;
  while (pc < code.size()) {
    const Instr& in = code[pc];
    ++icount_;
    switch (in.op) {
      case Op::kConst:
        stack.push_back(module_.const_pool[static_cast<size_t>(in.a)]);
        break;
      case Op::kLoad:
        stack.push_back(locals[static_cast<size_t>(in.a)]);
        break;
      case Op::kStore:
        locals[static_cast<size_t>(in.a)] = pop();
        break;
      case Op::kDup:
        LM_CHECK_MSG(!stack.empty(), "operand stack underflow");
        stack.push_back(stack.back());
        break;
      case Op::kDup2: {
        LM_CHECK(stack.size() >= 2);
        Value b = stack[stack.size() - 1];
        Value a = stack[stack.size() - 2];
        stack.push_back(std::move(a));
        stack.push_back(std::move(b));
        break;
      }
      case Op::kPop:
        pop();
        break;
      case Op::kArith: {
        auto aop = static_cast<ArithOp>(in.a);
        auto t = static_cast<NumType>(in.b);
        if (aop == ArithOp::kNeg) {
          Value v = pop();
          stack.push_back(arith(aop, t, v, v));
        } else {
          Value rhs = pop();
          Value lhs = pop();
          stack.push_back(arith(aop, t, lhs, rhs));
        }
        break;
      }
      case Op::kCmp: {
        Value rhs = pop();
        Value lhs = pop();
        stack.push_back(Value::boolean(compare(static_cast<CmpOp>(in.a),
                                               static_cast<NumType>(in.b),
                                               lhs, rhs)));
        break;
      }
      case Op::kNot: {
        Value v = pop();
        stack.push_back(Value::boolean(!v.as_bool()));
        break;
      }
      case Op::kBitFlip: {
        Value v = pop();
        stack.push_back(Value::bit(!v.as_bit()));
        break;
      }
      case Op::kCast: {
        Value v = pop();
        stack.push_back(cast(static_cast<NumType>(in.a),
                             static_cast<NumType>(in.b), v));
        break;
      }
      case Op::kJump:
        pc = static_cast<size_t>(in.a);
        continue;
      case Op::kJumpIfFalse: {
        Value v = pop();
        if (!v.as_bool()) {
          pc = static_cast<size_t>(in.a);
          continue;
        }
        break;
      }
      case Op::kJumpIfTrue: {
        Value v = pop();
        if (v.as_bool()) {
          pc = static_cast<size_t>(in.a);
          continue;
        }
        break;
      }
      case Op::kCall: {
        const CompiledMethod& callee =
            module_.methods[static_cast<size_t>(in.a)];
        std::vector<Value> args(static_cast<size_t>(callee.num_params));
        for (int i = callee.num_params - 1; i >= 0; --i) {
          args[static_cast<size_t>(i)] = pop();
        }
        Value r = call(in.a, std::move(args));
        if (!r.is_void()) stack.push_back(std::move(r));
        break;
      }
      case Op::kIntrinsic: {
        auto fn = static_cast<Intrinsic>(in.a);
        auto t = static_cast<NumType>(in.b);
        int argc = (fn == Intrinsic::kPow || fn == Intrinsic::kMin ||
                    fn == Intrinsic::kMax)
                       ? 2
                       : 1;
        Value args[2];
        for (int i = argc - 1; i >= 0; --i) args[i] = pop();
        stack.push_back(intrinsic(fn, t, args, argc));
        break;
      }
      case Op::kReturn:
        return pop();
      case Op::kReturnVoid:
        // Sema admits a non-void method whose end is reachable; falling
        // off it is a Lime-level fault, not a void value.
        if (m.return_type && m.return_type->kind != lime::TypeKind::kVoid) {
          fail("method " + m.qualified_name +
               " ended without returning a value");
        }
        return Value::void_();
      case Op::kNewArray: {
        Value len = pop();
        int32_t n = len.as_i32();
        if (n < 0) fail("negative array length");
        stack.push_back(Value::array(
            make_array(static_cast<ElemCode>(in.a), static_cast<size_t>(n))));
        break;
      }
      case Op::kArrayLoad: {
        Value idx = pop();
        Value arr = pop();
        int32_t i = idx.as_i32();
        const ArrayRef& a = arr.as_array();
        if (i < 0 || static_cast<size_t>(i) >= a->size()) {
          fail("array index " + std::to_string(i) + " out of bounds " +
               std::to_string(a->size()) + " in " + m.qualified_name);
        }
        stack.push_back(array_get(*a, static_cast<size_t>(i)));
        break;
      }
      case Op::kArrayStore: {
        Value val = pop();
        Value idx = pop();
        Value arr = pop();
        int32_t i = idx.as_i32();
        const ArrayRef& a = arr.as_array();
        if (i < 0 || static_cast<size_t>(i) >= a->size()) {
          fail("array index " + std::to_string(i) + " out of bounds " +
               std::to_string(a->size()) + " in " + m.qualified_name);
        }
        if (a->is_value) fail("attempt to mutate a value array");
        array_set(*a, static_cast<size_t>(i), val);
        break;
      }
      case Op::kArrayLen: {
        Value arr = pop();
        stack.push_back(
            Value::i32(static_cast<int32_t>(arr.as_array()->size())));
        break;
      }
      case Op::kFreeze: {
        Value arr = pop();
        stack.push_back(Value::array(freeze_array(*arr.as_array())));
        break;
      }
      case Op::kMap: {
        int argc = in.b;
        std::vector<Value> args(static_cast<size_t>(argc));
        for (int i = argc - 1; i >= 0; --i) args[static_cast<size_t>(i)] = pop();
        const std::string& id =
            module_.methods[static_cast<size_t>(in.a)].qualified_name;
        Value out;
        if (hooks_ && hooks_->try_map(id, args, static_cast<uint32_t>(in.c),
                                      &out)) {
          stack.push_back(std::move(out));
        } else {
          stack.push_back(run_map(in.a, args, static_cast<uint32_t>(in.c)));
        }
        break;
      }
      case Op::kReduce: {
        Value arr = pop();
        const std::string& id =
            module_.methods[static_cast<size_t>(in.a)].qualified_name;
        Value out;
        if (hooks_ && hooks_->try_reduce(id, arr, &out)) {
          stack.push_back(std::move(out));
        } else {
          stack.push_back(run_reduce(in.a, arr));
        }
        break;
      }
      case Op::kMakeSource: {
        Value rate = pop();
        Value arr = pop();
        stack.push_back(host().make_source(arr, rate.as_i32()));
        break;
      }
      case Op::kMakeSink: {
        Value arr = pop();
        stack.push_back(host().make_sink(arr));
        break;
      }
      case Op::kMakeTask: {
        const std::string& id = module_.task_ids[static_cast<size_t>(in.c)];
        stack.push_back(host().make_task(id, in.a, in.b != 0));
        break;
      }
      case Op::kConnectTasks: {
        Value rhs = pop();
        Value lhs = pop();
        stack.push_back(host().connect(lhs, rhs));
        break;
      }
      case Op::kStartGraph:
        host().start(pop());
        break;
      case Op::kFinishGraph:
        host().finish(pop());
        break;
    }
    ++pc;
  }
  return Value::void_();
}

// ---------------------------------------------------------------------------
// DefaultTaskHost
// ---------------------------------------------------------------------------

namespace {

struct InlineNode {
  enum class Kind { kSource, kSink, kFilter };
  Kind kind;
  Value array;       // source input / sink output
  int rate = 1;
  int method_index = -1;
  std::string task_id;
  bool relocated = false;
};

struct InlineGraph {
  std::vector<InlineNode> nodes;
  bool executed = false;
};

using GraphRef = std::shared_ptr<InlineGraph>;

GraphRef graph_of(const Value& v) {
  auto p = std::static_pointer_cast<InlineGraph>(v.as_opaque());
  LM_CHECK_MSG(p != nullptr, "value is not a task graph");
  return p;
}

Value wrap(GraphRef g) {
  return Value::opaque(std::static_pointer_cast<void>(std::move(g)));
}

}  // namespace

Value DefaultTaskHost::make_source(Value array, int rate) {
  auto g = std::make_shared<InlineGraph>();
  InlineNode n;
  n.kind = InlineNode::Kind::kSource;
  n.array = std::move(array);
  n.rate = rate;
  g->nodes.push_back(std::move(n));
  return wrap(std::move(g));
}

Value DefaultTaskHost::make_sink(Value array) {
  auto g = std::make_shared<InlineGraph>();
  InlineNode n;
  n.kind = InlineNode::Kind::kSink;
  n.array = std::move(array);
  g->nodes.push_back(std::move(n));
  return wrap(std::move(g));
}

Value DefaultTaskHost::make_task(const std::string& task_id, int method_index,
                                 bool relocated) {
  auto g = std::make_shared<InlineGraph>();
  InlineNode n;
  n.kind = InlineNode::Kind::kFilter;
  n.method_index = method_index;
  n.task_id = task_id;
  n.relocated = relocated;
  g->nodes.push_back(std::move(n));
  return wrap(std::move(g));
}

Value DefaultTaskHost::connect(Value lhs, Value rhs) {
  GraphRef a = graph_of(lhs);
  GraphRef b = graph_of(rhs);
  auto g = std::make_shared<InlineGraph>();
  g->nodes = a->nodes;
  g->nodes.insert(g->nodes.end(), b->nodes.begin(), b->nodes.end());
  return wrap(std::move(g));
}

void DefaultTaskHost::start(Value graph) {
  // Inline host has no threads; start behaves like finish (the semantics of
  // a fully drained graph are identical).
  finish(std::move(graph));
}

void DefaultTaskHost::finish(Value graph) {
  GraphRef g = graph_of(graph);
  if (g->executed) return;
  g->executed = true;

  if (g->nodes.size() < 2 || g->nodes.front().kind != InlineNode::Kind::kSource ||
      g->nodes.back().kind != InlineNode::Kind::kSink) {
    throw RuntimeError(
        "task graph must be source => filters... => sink to execute");
  }
  for (size_t i = 1; i + 1 < g->nodes.size(); ++i) {
    if (g->nodes[i].kind != InlineNode::Kind::kFilter) {
      throw RuntimeError("interior task-graph nodes must be filters");
    }
  }

  const ArrayRef& src = g->nodes.front().array.as_array();
  std::vector<Value> stream;
  stream.reserve(src->size());
  for (size_t i = 0; i < src->size(); ++i) stream.push_back(array_get(*src, i));

  // Stream through each filter. A filter with k parameters consumes k
  // consecutive elements per firing (§2.2: the actor fires when the port
  // holds enough data to satisfy the method's arguments).
  for (size_t fi = 1; fi + 1 < g->nodes.size(); ++fi) {
    const InlineNode& f = g->nodes[fi];
    const CompiledMethod& m =
        interp_.module().methods[static_cast<size_t>(f.method_index)];
    size_t k = static_cast<size_t>(m.num_params);
    LM_CHECK(k >= 1);
    std::vector<Value> next;
    next.reserve(stream.size() / k + 1);
    for (size_t i = 0; i + k <= stream.size(); i += k) {
      std::vector<Value> args(stream.begin() + static_cast<long>(i),
                              stream.begin() + static_cast<long>(i + k));
      next.push_back(interp_.call(f.method_index, std::move(args)));
    }
    stream = std::move(next);
  }

  const ArrayRef& dst = g->nodes.back().array.as_array();
  if (stream.size() > dst->size()) {
    throw RuntimeError("sink array too small: produced " +
                       std::to_string(stream.size()) + " elements into " +
                       std::to_string(dst->size()));
  }
  for (size_t i = 0; i < stream.size(); ++i) array_set(*dst, i, stream[i]);
}

TaskGraphHost& Interpreter::host() {
  if (task_host_) return *task_host_;
  if (!default_host_) default_host_ = std::make_unique<DefaultTaskHost>(*this);
  return *default_host_;
}

}  // namespace lm::bc
