#include "cache/serialize.h"

#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "rtl/netlist.h"
#include "util/error.h"

namespace lm::cache {

namespace {

// Refuses a declared element count the remaining bytes cannot possibly
// hold — a corrupt length prefix must become a clean decode error, never a
// multi-gigabyte allocation.
void check_count(const ByteReader& r, uint64_t n, size_t min_elem_bytes) {
  if (min_elem_bytes == 0) min_elem_bytes = 1;
  if (n > r.remaining() / min_elem_bytes) {
    throw RuntimeError("cache payload declares " + std::to_string(n) +
                       " elements with only " +
                       std::to_string(r.remaining()) + " bytes left");
  }
}

// -- lime::TypeRef ---------------------------------------------------------
// Tag byte is the TypeKind (0xff = null ref). Class types round-trip by
// name only; decl stays nullptr (see the header comment).

constexpr uint8_t kNullType = 0xff;

void write_type(const lime::TypeRef& t, ByteWriter& w) {
  if (!t) {
    w.u8(kNullType);
    return;
  }
  w.u8(static_cast<uint8_t>(t->kind));
  switch (t->kind) {
    case lime::TypeKind::kArray:
    case lime::TypeKind::kValueArray:
      write_type(t->elem, w);
      break;
    case lime::TypeKind::kClass:
      w.str(t->class_name);
      break;
    default:
      break;
  }
}

lime::TypeRef read_type(ByteReader& r) {
  uint8_t tag = r.u8();
  if (tag == kNullType) return nullptr;
  auto kind = static_cast<lime::TypeKind>(tag);
  switch (kind) {
    case lime::TypeKind::kVoid: return lime::Type::void_();
    case lime::TypeKind::kInt: return lime::Type::int_();
    case lime::TypeKind::kLong: return lime::Type::long_();
    case lime::TypeKind::kFloat: return lime::Type::float_();
    case lime::TypeKind::kDouble: return lime::Type::double_();
    case lime::TypeKind::kBoolean: return lime::Type::boolean();
    case lime::TypeKind::kBit: return lime::Type::bit();
    case lime::TypeKind::kTaskGraph: return lime::Type::task_graph();
    case lime::TypeKind::kArray: return lime::Type::array(read_type(r));
    case lime::TypeKind::kValueArray:
      return lime::Type::value_array(read_type(r));
    case lime::TypeKind::kClass: return lime::Type::class_(r.str());
  }
  throw RuntimeError("cache payload carries unknown type kind " +
                     std::to_string(tag));
}

// -- bc::Value (const pool) ------------------------------------------------

void write_value(const bc::Value& v, ByteWriter& w) {
  w.u8(static_cast<uint8_t>(v.kind()));
  switch (v.kind()) {
    case bc::ValueKind::kVoid: return;
    case bc::ValueKind::kInt: w.i32(v.as_i32()); return;
    case bc::ValueKind::kLong: w.i64(v.as_i64()); return;
    case bc::ValueKind::kFloat: w.f32(v.as_f32()); return;
    case bc::ValueKind::kDouble: w.f64(v.as_f64()); return;
    case bc::ValueKind::kBool: w.u8(v.as_bool()); return;
    case bc::ValueKind::kBit: w.u8(v.as_bit()); return;
    case bc::ValueKind::kArray: {
      const bc::ArrayRef& a = v.as_array();
      w.u8(static_cast<uint8_t>(a->elem));
      w.u8(a->is_value ? 1 : 0);
      w.u64(a->size());
      switch (a->elem) {
        case bc::ElemCode::kI32: {
          const auto& d = std::get<std::vector<int32_t>>(a->data);
          w.raw(d.data(), d.size() * sizeof(int32_t));
          return;
        }
        case bc::ElemCode::kI64: {
          const auto& d = std::get<std::vector<int64_t>>(a->data);
          w.raw(d.data(), d.size() * sizeof(int64_t));
          return;
        }
        case bc::ElemCode::kF32: {
          const auto& d = std::get<std::vector<float>>(a->data);
          w.raw(d.data(), d.size() * sizeof(float));
          return;
        }
        case bc::ElemCode::kF64: {
          const auto& d = std::get<std::vector<double>>(a->data);
          w.raw(d.data(), d.size() * sizeof(double));
          return;
        }
        case bc::ElemCode::kBool:
        case bc::ElemCode::kBit: {
          const auto& d = std::get<std::vector<uint8_t>>(a->data);
          w.raw(d.data(), d.size());
          return;
        }
        case bc::ElemCode::kBoxed: {
          const auto& d = std::get<std::vector<bc::Value>>(a->data);
          for (const auto& e : d) write_value(e, w);
          return;
        }
      }
      return;
    }
    case bc::ValueKind::kOpaque:
      // Opaque values are process-local handles; a const pool never holds
      // one, and persisting one would be meaningless.
      throw InternalError("cannot serialize an opaque value");
  }
}

bc::Value read_value(ByteReader& r) {
  auto kind = static_cast<bc::ValueKind>(r.u8());
  switch (kind) {
    case bc::ValueKind::kVoid: return bc::Value::void_();
    case bc::ValueKind::kInt: return bc::Value::i32(r.i32());
    case bc::ValueKind::kLong: return bc::Value::i64(r.i64());
    case bc::ValueKind::kFloat: return bc::Value::f32(r.f32());
    case bc::ValueKind::kDouble: return bc::Value::f64(r.f64());
    case bc::ValueKind::kBool: return bc::Value::boolean(r.u8() != 0);
    case bc::ValueKind::kBit: return bc::Value::bit(r.u8() != 0);
    case bc::ValueKind::kArray: {
      const uint8_t code = r.u8();
      if (code > static_cast<uint8_t>(bc::ElemCode::kBoxed)) {
        throw RuntimeError("cache payload carries unknown element code");
      }
      auto elem = static_cast<bc::ElemCode>(code);
      bool is_value = r.u8() != 0;
      uint64_t n = r.u64();
      size_t min_bytes = 1;
      switch (elem) {
        case bc::ElemCode::kI32: min_bytes = 4; break;
        case bc::ElemCode::kI64: min_bytes = 8; break;
        case bc::ElemCode::kF32: min_bytes = 4; break;
        case bc::ElemCode::kF64: min_bytes = 8; break;
        default: min_bytes = 1; break;
      }
      check_count(r, n, min_bytes);
      // Built mutable, filled, then flagged: array_set refuses writes to
      // value arrays.
      bc::ArrayRef a = bc::make_array(elem, n);
      switch (elem) {
        case bc::ElemCode::kI32:
          r.raw(std::get<std::vector<int32_t>>(a->data).data(), n * 4);
          break;
        case bc::ElemCode::kI64:
          r.raw(std::get<std::vector<int64_t>>(a->data).data(), n * 8);
          break;
        case bc::ElemCode::kF32:
          r.raw(std::get<std::vector<float>>(a->data).data(), n * 4);
          break;
        case bc::ElemCode::kF64:
          r.raw(std::get<std::vector<double>>(a->data).data(), n * 8);
          break;
        case bc::ElemCode::kBool:
        case bc::ElemCode::kBit:
          r.raw(std::get<std::vector<uint8_t>>(a->data).data(), n);
          break;
        case bc::ElemCode::kBoxed: {
          auto& d = std::get<std::vector<bc::Value>>(a->data);
          for (uint64_t i = 0; i < n; ++i) d[i] = read_value(r);
          break;
        }
      }
      a->is_value = is_value;
      return bc::Value::array(std::move(a));
    }
    case bc::ValueKind::kOpaque:
      break;
  }
  throw RuntimeError("cache payload carries unknown value kind");
}

// -- bc::CompiledMethod ----------------------------------------------------

void write_method(const bc::CompiledMethod& m, ByteWriter& w) {
  w.str(m.qualified_name);
  w.u8(m.is_static ? 1 : 0);
  w.u8(m.is_pure ? 1 : 0);
  w.i32(m.num_params);
  w.i32(m.num_slots);
  w.str(m.unsupported_reason);
  w.u32(static_cast<uint32_t>(m.code.size()));
  for (const auto& ins : m.code) {
    w.u8(static_cast<uint8_t>(ins.op));
    w.i32(ins.a);
    w.i32(ins.b);
    w.i32(ins.c);
  }
  w.u32(static_cast<uint32_t>(m.param_types.size()));
  for (const auto& t : m.param_types) write_type(t, w);
  write_type(m.return_type, w);
}

bc::CompiledMethod read_method(ByteReader& r) {
  bc::CompiledMethod m;
  m.qualified_name = r.str();
  m.is_static = r.u8() != 0;
  m.is_pure = r.u8() != 0;
  m.num_params = r.i32();
  m.num_slots = r.i32();
  m.unsupported_reason = r.str();
  uint32_t ncode = r.u32();
  check_count(r, ncode, 13);  // 1 op byte + 3×4 operand bytes
  m.code.reserve(ncode);
  for (uint32_t i = 0; i < ncode; ++i) {
    bc::Instr ins;
    ins.op = static_cast<bc::Op>(r.u8());
    ins.a = r.i32();
    ins.b = r.i32();
    ins.c = r.i32();
    m.code.push_back(ins);
  }
  uint32_t nparams = r.u32();
  check_count(r, nparams, 1);
  m.param_types.reserve(nparams);
  for (uint32_t i = 0; i < nparams; ++i) m.param_types.push_back(read_type(r));
  m.return_type = read_type(r);
  return m;
}

// The VM trusts every operand it uses as an index or an enum: slots, the
// constant pool, methods, task ids, jump targets and the operator, type and
// element selectors. A payload is outside input (DESIGN.md §14), so each of
// them is range-checked here, per instruction. Operand-stack depth is not.
constexpr int32_t kMaxSlots = 1 << 16;

template <typename Enum>
bool within(int32_t v, Enum last) {
  return v >= 0 && v <= static_cast<int32_t>(last);
}

bool below(int32_t v, size_t n) {
  return v >= 0 && static_cast<size_t>(v) < n;
}

void check_operands(const bc::BytecodeModule& m) {
  using bc::Op;
  const bc::NumType kLastType = bc::NumType::kBit;
  for (const bc::CompiledMethod& cm : m.methods) {
    if (cm.num_slots < 0 || cm.num_slots > kMaxSlots || cm.num_params < 0 ||
        cm.num_params > cm.num_slots) {
      throw RuntimeError("bytecode-module payload: " + cm.qualified_name +
                         " declares " + std::to_string(cm.num_params) +
                         " parameter(s) in " + std::to_string(cm.num_slots) +
                         " slot(s)");
    }
    for (size_t pc = 0; pc < cm.code.size(); ++pc) {
      const bc::Instr& in = cm.code[pc];
      bool ok = within(static_cast<int32_t>(in.op), Op::kFinishGraph);
      if (ok) {
        switch (in.op) {
          case Op::kConst: ok = below(in.a, m.const_pool.size()); break;
          case Op::kLoad:
          case Op::kStore:
            ok = below(in.a, static_cast<size_t>(cm.num_slots));
            break;
          case Op::kArith:
            ok = within(in.a, bc::ArithOp::kNeg) && within(in.b, kLastType);
            break;
          case Op::kCmp:
            ok = within(in.a, bc::CmpOp::kGe) && within(in.b, kLastType);
            break;
          case Op::kCast:
            ok = within(in.a, kLastType) && within(in.b, kLastType);
            break;
          case Op::kIntrinsic:
            ok = within(in.a, bc::Intrinsic::kFloor) &&
                 within(in.b, kLastType);
            break;
          case Op::kJump:
          case Op::kJumpIfFalse:
          case Op::kJumpIfTrue:
            ok = in.a >= 0 && static_cast<size_t>(in.a) <= cm.code.size();
            break;
          case Op::kCall:
          case Op::kReduce:
            ok = below(in.a, m.methods.size());
            break;
          case Op::kMap:
            // b arguments, c a bitmask over them: at most 32.
            ok = below(in.a, m.methods.size()) && in.b >= 0 && in.b <= 32;
            break;
          case Op::kNewArray: ok = within(in.a, bc::ElemCode::kBoxed); break;
          case Op::kMakeTask:
            ok = below(in.a, m.methods.size()) &&
                 below(in.c, m.task_ids.size());
            break;
          default: break;
        }
      }
      if (!ok) {
        throw RuntimeError(
            "bytecode-module payload: " + cm.qualified_name + " pc " +
            std::to_string(pc) + " (op " +
            std::to_string(static_cast<int>(in.op)) + " " +
            std::to_string(in.a) + " " + std::to_string(in.b) + " " +
            std::to_string(in.c) + ") has an operand out of range");
      }
    }
  }
}

}  // namespace

// -- BytecodeModule --------------------------------------------------------

std::vector<uint8_t> encode_bytecode_module(const bc::BytecodeModule& m) {
  ByteWriter w;
  w.u32(static_cast<uint32_t>(m.methods.size()));
  for (const auto& cm : m.methods) write_method(cm, w);
  w.u32(static_cast<uint32_t>(m.const_pool.size()));
  for (const auto& v : m.const_pool) write_value(v, w);
  w.u32(static_cast<uint32_t>(m.task_ids.size()));
  for (const auto& id : m.task_ids) w.str(id);
  return w.take();
}

std::unique_ptr<bc::BytecodeModule> decode_bytecode_module(
    std::span<const uint8_t> bytes) {
  ByteReader r(bytes);
  auto m = std::make_unique<bc::BytecodeModule>();
  uint32_t nmethods = r.u32();
  check_count(r, nmethods, 1);
  m->methods.reserve(nmethods);
  for (uint32_t i = 0; i < nmethods; ++i) {
    m->methods.push_back(read_method(r));
    m->method_index[m->methods.back().qualified_name] = static_cast<int>(i);
  }
  uint32_t nconsts = r.u32();
  check_count(r, nconsts, 1);
  m->const_pool.reserve(nconsts);
  for (uint32_t i = 0; i < nconsts; ++i) m->const_pool.push_back(read_value(r));
  uint32_t ntasks = r.u32();
  check_count(r, ntasks, 1);
  m->task_ids.reserve(ntasks);
  for (uint32_t i = 0; i < ntasks; ++i) m->task_ids.push_back(r.str());
  if (!r.done()) {
    throw RuntimeError("bytecode-module payload has trailing bytes");
  }
  check_operands(*m);
  return m;
}

// -- gpu::KernelProgram ----------------------------------------------------

std::vector<uint8_t> encode_kernel_program(const gpu::KernelProgram& p) {
  ByteWriter w;
  w.str(p.task_id);
  w.u32(static_cast<uint32_t>(p.code.size()));
  for (const auto& ins : p.code) {
    w.u8(static_cast<uint8_t>(ins.op));
    w.u16(ins.dst);
    w.u16(ins.a);
    w.u16(ins.b);
    w.u8(ins.aux);
    w.u8(static_cast<uint8_t>(ins.t));
    w.u8(static_cast<uint8_t>(ins.t2));
    w.i32(ins.imm);
  }
  w.u32(static_cast<uint32_t>(p.consts.size()));
  for (const auto& c : p.consts) {
    // The union's raw 8 bytes: this repo's dense layouts are host-order by
    // design (see byte_buffer.h), and a cache entry never leaves the host.
    w.raw(&c.value, sizeof(c.value));
    w.u8(static_cast<uint8_t>(c.type));
  }
  w.u32(static_cast<uint32_t>(p.params.size()));
  for (const auto& pr : p.params) {
    w.u8(static_cast<uint8_t>(pr.mode));
    w.u8(static_cast<uint8_t>(pr.type));
    w.i32(pr.stride);
    w.i32(pr.offset);
  }
  w.i32(p.num_regs);
  w.u8(static_cast<uint8_t>(p.ret_type));
  w.i32(p.in_stride);
  w.str(p.opencl_source);
  return w.take();
}

std::unique_ptr<gpu::KernelProgram> decode_kernel_program(
    std::span<const uint8_t> bytes) {
  ByteReader r(bytes);
  auto p = std::make_unique<gpu::KernelProgram>();
  p->task_id = r.str();
  uint32_t ncode = r.u32();
  check_count(r, ncode, 14);
  p->code.reserve(ncode);
  for (uint32_t i = 0; i < ncode; ++i) {
    gpu::KInstr ins;
    ins.op = static_cast<gpu::KOp>(r.u8());
    ins.dst = r.u16();
    ins.a = r.u16();
    ins.b = r.u16();
    ins.aux = r.u8();
    ins.t = static_cast<bc::NumType>(r.u8());
    ins.t2 = static_cast<bc::NumType>(r.u8());
    ins.imm = r.i32();
    p->code.push_back(ins);
  }
  uint32_t nconsts = r.u32();
  check_count(r, nconsts, 9);
  p->consts.reserve(nconsts);
  for (uint32_t i = 0; i < nconsts; ++i) {
    gpu::KConst c;
    r.raw(&c.value, sizeof(c.value));
    c.type = static_cast<bc::NumType>(r.u8());
    p->consts.push_back(c);
  }
  uint32_t nparams = r.u32();
  check_count(r, nparams, 10);
  p->params.reserve(nparams);
  for (uint32_t i = 0; i < nparams; ++i) {
    gpu::KernelParam pr;
    pr.mode = static_cast<gpu::ParamMode>(r.u8());
    pr.type = static_cast<bc::NumType>(r.u8());
    pr.stride = r.i32();
    pr.offset = r.i32();
    p->params.push_back(pr);
  }
  p->num_regs = r.i32();
  p->ret_type = static_cast<bc::NumType>(r.u8());
  p->in_stride = r.i32();
  p->opencl_source = r.str();
  if (!r.done()) throw RuntimeError("kernel payload has trailing bytes");
  return p;
}

// -- fpga::FpgaCompileResult ----------------------------------------------

namespace {

/// Serializes the comb/seq expression DAG as a node table in dependency
/// order, preserving sharing: unrolled datapaths reuse subexpressions
/// heavily, and expanding the DAG to a tree could blow up the entry size.
class ExprTableWriter {
 public:
  uint32_t id_of(const rtl::HExprPtr& e) {
    LM_CHECK_MSG(e != nullptr, "netlist expression has a null operand");
    auto it = ids_.find(e.get());
    if (it != ids_.end()) return it->second;
    // Iterative postorder: children are assigned ids before their parent.
    std::vector<const rtl::HExpr*> stack{e.get()};
    while (!stack.empty()) {
      const rtl::HExpr* n = stack.back();
      if (ids_.count(n)) {
        stack.pop_back();
        continue;
      }
      bool ready = true;
      for (const auto& child : {n->a, n->b, n->c}) {
        if (child && !ids_.count(child.get())) {
          stack.push_back(child.get());
          ready = false;
        }
      }
      if (!ready) continue;
      stack.pop_back();
      ids_.emplace(n, static_cast<uint32_t>(nodes_.size()));
      nodes_.push_back(n);
    }
    return ids_.at(e.get());
  }

  void write(ByteWriter& w) const {
    w.u32(static_cast<uint32_t>(nodes_.size()));
    for (const rtl::HExpr* n : nodes_) {
      w.u8(static_cast<uint8_t>(n->kind));
      w.i32(n->width);
      switch (n->kind) {
        case rtl::HKind::kConst:
          w.u64(n->value);
          break;
        case rtl::HKind::kSig:
          w.i32(n->sig);
          break;
        case rtl::HKind::kUnary:
          w.u8(static_cast<uint8_t>(n->un_op));
          w.u32(ids_.at(n->a.get()));
          break;
        case rtl::HKind::kBinary:
          w.u8(static_cast<uint8_t>(n->bin_op));
          w.u32(ids_.at(n->a.get()));
          w.u32(ids_.at(n->b.get()));
          break;
        case rtl::HKind::kMux:
          w.u32(ids_.at(n->a.get()));
          w.u32(ids_.at(n->b.get()));
          w.u32(ids_.at(n->c.get()));
          break;
      }
    }
  }

 private:
  std::unordered_map<const rtl::HExpr*, uint32_t> ids_;
  std::vector<const rtl::HExpr*> nodes_;
};

std::vector<rtl::HExprPtr> read_expr_table(ByteReader& r) {
  uint32_t n = r.u32();
  check_count(r, n, 5);
  std::vector<rtl::HExprPtr> nodes;
  nodes.reserve(n);
  auto child = [&](uint32_t id) -> rtl::HExprPtr {
    if (id >= nodes.size()) {
      throw RuntimeError("netlist payload references a forward expression");
    }
    return nodes[id];
  };
  for (uint32_t i = 0; i < n; ++i) {
    // Nodes are rebuilt field-for-field (not via the folding h_* factories)
    // so the decoded DAG is structurally identical to what was stored.
    auto e = std::make_shared<rtl::HExpr>();
    e->kind = static_cast<rtl::HKind>(r.u8());
    e->width = r.i32();
    switch (e->kind) {
      case rtl::HKind::kConst:
        e->value = r.u64();
        break;
      case rtl::HKind::kSig:
        e->sig = r.i32();
        break;
      case rtl::HKind::kUnary:
        e->un_op = static_cast<rtl::HUnOp>(r.u8());
        e->a = child(r.u32());
        break;
      case rtl::HKind::kBinary:
        e->bin_op = static_cast<rtl::HBinOp>(r.u8());
        e->a = child(r.u32());
        e->b = child(r.u32());
        break;
      case rtl::HKind::kMux:
        e->a = child(r.u32());
        e->b = child(r.u32());
        e->c = child(r.u32());
        break;
      default:
        throw RuntimeError("netlist payload carries unknown expr kind");
    }
    nodes.push_back(std::move(e));
  }
  return nodes;
}

/// Rejects port metadata that does not describe its module. FpgaFilter and
/// the simulator trust both, so a payload that fails here must become a
/// cache miss, not a failed check on the compile or run path.
void check_ports(const rtl::Module& m, const fpga::FpgaPortMeta& p) {
  auto expect_port = [&m](const std::string& name, rtl::SigKind kind,
                          int width) {
    rtl::SigId id = m.find(name);
    if (id < 0 || m.sig(id).kind != kind || m.sig(id).width != width) {
      throw RuntimeError("netlist payload port '" + name +
                         "' does not match its module");
    }
  };
  if (p.arity < 1 || static_cast<size_t>(p.arity) != p.in_data.size() ||
      p.in_data.size() != p.in_widths.size()) {
    throw RuntimeError("netlist payload arity disagrees with its inputs");
  }
  for (size_t i = 0; i < p.in_data.size(); ++i) {
    expect_port(p.in_data[i], rtl::SigKind::kInput, p.in_widths[i]);
  }
  expect_port(p.out_data, rtl::SigKind::kOutput, p.out_width);
  expect_port("inReady", rtl::SigKind::kInput, 1);
  expect_port("inTake", rtl::SigKind::kOutput, 1);
  expect_port("outReady", rtl::SigKind::kOutput, 1);
  if (p.latency < 1 || p.initiation_interval < 1) {
    throw RuntimeError("netlist payload declares a zero-cycle handshake");
  }
}

}  // namespace

std::vector<uint8_t> encode_fpga_result(const fpga::FpgaCompileResult& r) {
  LM_CHECK_MSG(r.module != nullptr, "cannot serialize an excluded result");
  return encode_fpga_parts(*r.module, r.ports);
}

std::vector<uint8_t> encode_fpga_parts(const rtl::Module& m,
                                       const fpga::FpgaPortMeta& p) {
  ByteWriter w;
  w.str(m.name);
  w.u32(static_cast<uint32_t>(m.signals.size()));
  for (const auto& s : m.signals) {
    w.str(s.name);
    w.i32(s.width);
    w.u8(static_cast<uint8_t>(s.kind));
    w.u64(s.init);
  }
  ExprTableWriter exprs;
  std::vector<std::pair<int32_t, uint32_t>> comb, seq;
  for (const auto& a : m.comb) {
    comb.emplace_back(a.target, exprs.id_of(a.expr));
  }
  for (const auto& a : m.seq) {
    seq.emplace_back(a.target, exprs.id_of(a.next));
  }
  exprs.write(w);
  w.u32(static_cast<uint32_t>(comb.size()));
  for (const auto& [target, id] : comb) {
    w.i32(target);
    w.u32(id);
  }
  w.u32(static_cast<uint32_t>(seq.size()));
  for (const auto& [target, id] : seq) {
    w.i32(target);
    w.u32(id);
  }
  w.u32(static_cast<uint32_t>(p.in_data.size()));
  for (const auto& s : p.in_data) w.str(s);
  w.u32(static_cast<uint32_t>(p.in_widths.size()));
  for (int x : p.in_widths) w.i32(x);
  w.str(p.out_data);
  w.i32(p.out_width);
  w.i32(p.arity);
  w.u8(p.pipelined ? 1 : 0);
  w.i32(p.latency);
  w.i32(p.initiation_interval);
  return w.take();
}

fpga::FpgaCompileResult decode_fpga_result(std::span<const uint8_t> bytes) {
  ByteReader r(bytes);
  auto m = std::make_unique<rtl::Module>();
  m->name = r.str();
  uint32_t nsignals = r.u32();
  check_count(r, nsignals, 4);
  m->signals.reserve(nsignals);
  for (uint32_t i = 0; i < nsignals; ++i) {
    rtl::Signal s;
    s.name = r.str();
    s.width = r.i32();
    s.kind = static_cast<rtl::SigKind>(r.u8());
    s.init = r.u64();
    m->signals.push_back(std::move(s));
  }
  std::vector<rtl::HExprPtr> exprs = read_expr_table(r);
  auto expr_at = [&](uint32_t id) -> rtl::HExprPtr {
    if (id >= exprs.size()) {
      throw RuntimeError("netlist payload references a missing expression");
    }
    return exprs[id];
  };
  uint32_t ncomb = r.u32();
  check_count(r, ncomb, 8);
  m->comb.reserve(ncomb);
  for (uint32_t i = 0; i < ncomb; ++i) {
    rtl::SigId target = r.i32();
    m->comb.push_back({target, expr_at(r.u32())});
  }
  uint32_t nseq = r.u32();
  check_count(r, nseq, 8);
  m->seq.reserve(nseq);
  for (uint32_t i = 0; i < nseq; ++i) {
    rtl::SigId target = r.i32();
    m->seq.push_back({target, expr_at(r.u32())});
  }
  fpga::FpgaCompileResult out;
  fpga::FpgaPortMeta& p = out.ports;
  uint32_t nin = r.u32();
  check_count(r, nin, 4);
  p.in_data.reserve(nin);
  for (uint32_t i = 0; i < nin; ++i) p.in_data.push_back(r.str());
  uint32_t nwid = r.u32();
  check_count(r, nwid, 4);
  p.in_widths.reserve(nwid);
  for (uint32_t i = 0; i < nwid; ++i) p.in_widths.push_back(r.i32());
  p.out_data = r.str();
  p.out_width = r.i32();
  p.arity = r.i32();
  p.pipelined = r.u8() != 0;
  p.latency = r.i32();
  p.initiation_interval = r.i32();
  if (!r.done()) throw RuntimeError("netlist payload has trailing bytes");
  // The netlist's one check: a bit-rotted or lying one is rejected here.
  m->validate();
  check_ports(*m, p);
  out.module = std::move(m);
  return out;
}

// -- canonical content bytes ----------------------------------------------

namespace {

/// Emits one method's canonical form and enqueues its callees. Returns
/// false when the method is missing, failed to lower, or references an
/// out-of-range pool entry (uncacheable — the caller compiles fresh).
bool canonical_one(const bc::BytecodeModule& module, const std::string& name,
                   ByteWriter& out, std::deque<std::string>& queue,
                   std::unordered_set<std::string>& seen) {
  int idx = module.index_of(name);
  if (idx < 0) return false;
  const bc::CompiledMethod& m = module.methods[static_cast<size_t>(idx)];
  if (!m.unsupported_reason.empty()) return false;

  auto method_name = [&](int32_t mi) -> const std::string* {
    if (mi < 0 || mi >= static_cast<int32_t>(module.methods.size())) {
      return nullptr;
    }
    return &module.methods[static_cast<size_t>(mi)].qualified_name;
  };
  auto task_id = [&](int32_t ti) -> const std::string* {
    if (ti < 0 || ti >= static_cast<int32_t>(module.task_ids.size())) {
      return nullptr;
    }
    return &module.task_ids[static_cast<size_t>(ti)];
  };

  out.str(m.qualified_name);
  out.u8(m.is_static ? 1 : 0);
  out.u8(m.is_pure ? 1 : 0);
  out.i32(m.num_params);
  out.i32(m.num_slots);
  for (const auto& t : m.param_types) write_type(t, out);
  write_type(m.return_type, out);
  out.u32(static_cast<uint32_t>(m.code.size()));
  for (const auto& ins : m.code) {
    out.u8(static_cast<uint8_t>(ins.op));
    switch (ins.op) {
      case bc::Op::kConst: {
        // Inline the constant itself: the pool index is module-global
        // noise, the value is the content.
        if (ins.a < 0 ||
            ins.a >= static_cast<int32_t>(module.const_pool.size())) {
          return false;
        }
        write_value(module.const_pool[static_cast<size_t>(ins.a)], out);
        out.i32(ins.b);
        out.i32(ins.c);
        break;
      }
      case bc::Op::kCall:
      case bc::Op::kMap:
      case bc::Op::kReduce: {
        const std::string* callee = method_name(ins.a);
        if (!callee) return false;
        out.str(*callee);
        out.i32(ins.b);
        out.i32(ins.c);
        if (seen.insert(*callee).second) queue.push_back(*callee);
        break;
      }
      case bc::Op::kMakeTask: {
        const std::string* callee = method_name(ins.a);
        const std::string* tid = task_id(ins.c);
        if (!callee || !tid) return false;
        out.str(*callee);
        out.i32(ins.b);
        out.str(*tid);
        if (seen.insert(*callee).second) queue.push_back(*callee);
        break;
      }
      case bc::Op::kMakeSource:
      case bc::Op::kMakeSink: {
        const std::string* tid = task_id(ins.a);
        if (!tid) return false;
        out.str(*tid);
        out.i32(ins.b);
        out.i32(ins.c);
        break;
      }
      default:
        out.i32(ins.a);
        out.i32(ins.b);
        out.i32(ins.c);
        break;
    }
  }
  return true;
}

}  // namespace

bool canonical_method_bytes(const bc::BytecodeModule& module,
                            const std::string& root, ByteWriter& out) {
  std::deque<std::string> queue{root};
  std::unordered_set<std::string> seen{root};
  while (!queue.empty()) {
    std::string name = std::move(queue.front());
    queue.pop_front();
    if (!canonical_one(module, name, out, queue, seen)) return false;
  }
  return true;
}

bool canonical_chain_bytes(const bc::BytecodeModule& module,
                           const std::vector<std::string>& roots,
                           ByteWriter& out) {
  uint32_t stage = 0;
  for (const auto& root : roots) {
    // Stage separators keep (ab, c) and (a, bc) chains from colliding.
    out.str("stage");
    out.u32(stage++);
    if (!canonical_method_bytes(module, root, out)) return false;
  }
  return true;
}

}  // namespace lm::cache
