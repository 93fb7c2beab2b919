#include "gpu/device.h"

#include <thread>

#include "bytecode/ops.h"
#include "obs/trace.h"
#include "util/error.h"

namespace lm::gpu {

using bc::ElemCode;
using serde::CValue;

void NativeKernelRegistry::add(const std::string& task_id, NativeKernelFn fn) {
  kernels_[task_id] = std::move(fn);
}

const NativeKernelFn* NativeKernelRegistry::find(
    const std::string& task_id) const {
  auto it = kernels_.find(task_id);
  return it == kernels_.end() ? nullptr : &it->second;
}

NativeKernelRegistry& NativeKernelRegistry::global() {
  static auto* kRegistry = new NativeKernelRegistry();
  return *kRegistry;
}

ElemCode elem_code_for(NumType t) {
  switch (t) {
    case NumType::kI32: return ElemCode::kI32;
    case NumType::kI64: return ElemCode::kI64;
    case NumType::kF32: return ElemCode::kF32;
    case NumType::kF64: return ElemCode::kF64;
    case NumType::kBool: return ElemCode::kBool;
    case NumType::kBit: return ElemCode::kBit;
  }
  LM_UNREACHABLE("bad NumType");
}

namespace {

/// Reads element `i` of a CValue as a register of the given type.
inline KReg load_elem(const CValue& cv, size_t i, NumType t) {
  KReg r{};
  switch (t) {
    case NumType::kI32: r.i32 = cv.i32s()[i]; break;
    case NumType::kI64: r.i64 = cv.i64s()[i]; break;
    case NumType::kF32: r.f32 = cv.f32s()[i]; break;
    case NumType::kF64: r.f64 = cv.f64s()[i]; break;
    case NumType::kBool:
    case NumType::kBit: r.b = cv.bytes()[i]; break;
  }
  return r;
}

inline void store_elem(CValue& cv, size_t i, NumType t, KReg v) {
  switch (t) {
    case NumType::kI32: cv.i32s()[i] = v.i32; break;
    case NumType::kI64: cv.i64s()[i] = v.i64; break;
    case NumType::kF32: cv.f32s()[i] = v.f32; break;
    case NumType::kF64: cv.f64s()[i] = v.f64; break;
    case NumType::kBool:
    case NumType::kBit: cv.bytes()[i] = v.b; break;
  }
}

// KReg adapters over bytecode/ops.h, the operator rules the VM runs. They
// stay inline (ops::div_rem is out of line), so each one inlines into the
// per-element loop below.

inline KReg do_arith(ArithOp op, NumType t, KReg a, KReg b) {
  KReg r{};
  switch (t) {
    case NumType::kI32: r.i32 = bc::ops::arith(op, a.i32, b.i32); break;
    case NumType::kI64: r.i64 = bc::ops::arith(op, a.i64, b.i64); break;
    case NumType::kF32: r.f32 = bc::ops::arith(op, a.f32, b.f32); break;
    case NumType::kF64: r.f64 = bc::ops::arith(op, a.f64, b.f64); break;
    case NumType::kBool:
    case NumType::kBit:
      r.b = bc::ops::arith(op, a.b != 0, b.b != 0);
      break;
  }
  return r;
}

inline bool do_cmp(CmpOp op, NumType t, KReg a, KReg b) {
  switch (t) {
    case NumType::kI32: return bc::ops::compare(op, a.i32, b.i32);
    case NumType::kI64: return bc::ops::compare(op, a.i64, b.i64);
    case NumType::kF32: return bc::ops::compare(op, a.f32, b.f32);
    case NumType::kF64: return bc::ops::compare(op, a.f64, b.f64);
    case NumType::kBool:
    case NumType::kBit: return bc::ops::compare(op, a.b, b.b);
  }
  return false;
}

inline KReg do_cast(NumType from, NumType to, KReg v) {
  KReg r{};
  auto convert = [&r, to](auto x) {
    switch (to) {
      case NumType::kI32: r.i32 = bc::ops::cast<int32_t>(x); break;
      case NumType::kI64: r.i64 = bc::ops::cast<int64_t>(x); break;
      case NumType::kF32: r.f32 = bc::ops::cast<float>(x); break;
      case NumType::kF64: r.f64 = bc::ops::cast<double>(x); break;
      case NumType::kBool: r.b = bc::ops::cast<bool>(x); break;
      case NumType::kBit: r.b = bc::ops::to_bit(x); break;
    }
  };
  // Widening an integer to long or a float to double is exact, so
  // converting the wide value gives Java's result for the narrow one.
  switch (from) {
    case NumType::kI32: convert(int64_t{v.i32}); break;
    case NumType::kI64: convert(v.i64); break;
    case NumType::kF32: convert(double{v.f32}); break;
    case NumType::kF64: convert(v.f64); break;
    case NumType::kBool:
    case NumType::kBit: convert(int64_t{v.b}); break;
  }
  return r;
}

inline KReg do_intrinsic(Intrinsic fn, NumType t, KReg a, KReg b) {
  KReg r{};
  switch (t) {
    case NumType::kI32: r.i32 = bc::ops::intrinsic(fn, a.i32, b.i32); break;
    case NumType::kI64: r.i64 = bc::ops::intrinsic(fn, a.i64, b.i64); break;
    case NumType::kF32: r.f32 = bc::ops::intrinsic(fn, a.f32, b.f32); break;
    case NumType::kF64: r.f64 = bc::ops::intrinsic(fn, a.f64, b.f64); break;
    case NumType::kBool:
    case NumType::kBit: throw RuntimeError("bad intrinsic type");
  }
  return r;
}

}  // namespace

void run_kernel_range(const KernelProgram& program,
                      const std::vector<KArg>& args, CValue& out,
                      size_t begin, size_t end) {
  LM_CHECK_MSG(args.size() == program.params.size(),
               "kernel launch argument count mismatch");
  std::vector<KReg> regs(static_cast<size_t>(program.num_regs));
  const size_t guard = 64u * 1024u * 1024u;  // watchdog: instrs per item

  for (size_t gid = begin; gid < end; ++gid) {
    size_t pc = 0;
    size_t executed = 0;
    for (;;) {
      if (pc >= program.code.size()) {
        throw RuntimeError("kernel " + program.task_id +
                           " fell off the end without returning");
      }
      if (++executed > guard) {
        throw RuntimeError("kernel " + program.task_id +
                           " exceeded the instruction watchdog");
      }
      const KInstr& k = program.code[pc];
      switch (k.op) {
        case KOp::kLoadParam: {
          const KArg& a = args[k.a];
          if (a.mode == KArg::Mode::kScalar) {
            regs[k.dst] = a.scalar;
          } else {
            LM_CHECK(a.mode == KArg::Mode::kElementwise && a.array);
            size_t i = gid * static_cast<size_t>(a.stride) +
                       static_cast<size_t>(a.offset);
            regs[k.dst] = load_elem(*a.array, i, program.params[k.a].type);
          }
          break;
        }
        case KOp::kLoadConst: {
          regs[k.dst] = program.consts[k.a].value;
          break;
        }
        case KOp::kLoadElem: {
          const KArg& a = args[k.a];
          LM_CHECK(a.array != nullptr);
          auto i = static_cast<size_t>(regs[k.b].i32);
          if (i >= a.array->count) {
            throw RuntimeError("kernel array index out of bounds");
          }
          regs[k.dst] = load_elem(*a.array, i, k.t);
          break;
        }
        case KOp::kArrayLen: {
          const KArg& a = args[k.a];
          LM_CHECK(a.array != nullptr);
          regs[k.dst].i32 = static_cast<int32_t>(a.array->count);
          break;
        }
        case KOp::kMov:
          regs[k.dst] = regs[k.a];
          break;
        case KOp::kArith:
          regs[k.dst] = do_arith(static_cast<ArithOp>(k.aux), k.t, regs[k.a],
                                 regs[k.b]);
          break;
        case KOp::kNeg:
          regs[k.dst] = do_arith(ArithOp::kNeg, k.t, regs[k.a], regs[k.a]);
          break;
        case KOp::kCmp:
          regs[k.dst].b = do_cmp(static_cast<CmpOp>(k.aux), k.t, regs[k.a],
                                 regs[k.b])
                              ? 1
                              : 0;
          break;
        case KOp::kNot:
          regs[k.dst].b = regs[k.a].b ? 0 : 1;
          break;
        case KOp::kBitFlip:
          regs[k.dst].b = regs[k.a].b ? 0 : 1;
          break;
        case KOp::kCast:
          regs[k.dst] = do_cast(k.t, k.t2, regs[k.a]);
          break;
        case KOp::kJump:
          pc = static_cast<size_t>(k.imm);
          continue;
        case KOp::kJumpIfFalse:
          if (!regs[k.a].b) {
            pc = static_cast<size_t>(k.imm);
            continue;
          }
          break;
        case KOp::kIntrinsic:
          regs[k.dst] = do_intrinsic(static_cast<Intrinsic>(k.aux), k.t,
                                     regs[k.a], regs[k.b]);
          break;
        case KOp::kRet:
          store_elem(out, gid, program.ret_type, regs[k.a]);
          goto next_item;
      }
      ++pc;
    }
  next_item:;
  }
}

GpuDevice::GpuDevice(GpuDeviceConfig config) : config_(config) {
  compute_units_ = config.compute_units > 0
                       ? config.compute_units
                       : static_cast<int>(std::thread::hardware_concurrency());
  if (compute_units_ < 1) compute_units_ = 1;
}

std::string GpuDevice::describe() const {
  return name_ + " (" + std::to_string(compute_units_) + " compute units, " +
         std::to_string(registry_.size()) + " native kernels)";
}

CValue GpuDevice::launch(const KernelProgram& program,
                         const std::vector<KArg>& args, size_t n) {
  stats_.launches.fetch_add(1, std::memory_order_relaxed);
  stats_.work_items.fetch_add(n, std::memory_order_relaxed);

  CValue out = CValue::make(elem_code_for(program.ret_type), true, n);

  const NativeKernelFn* native =
      config_.allow_native ? registry_.find(program.task_id) : nullptr;
  if (native) stats_.native_launches.fetch_add(1, std::memory_order_relaxed);

  obs::TraceSpan span;
  if (obs::TraceRecorder* rec = obs::TraceRecorder::current()) {
    span.begin(rec, "gpu", "launch:" + program.task_id);
    span.set_args(obs::JsonArgs()
                      .add("items", static_cast<uint64_t>(n))
                      .add("native", native != nullptr)
                      .str());
  }

  auto run_range = [&](size_t b, size_t e) {
    if (native) {
      (*native)(args, out, b, e);
    } else {
      run_kernel_range(program, args, out, b, e);
    }
  };

  if (n < config_.min_items_for_parallel || compute_units_ == 1) {
    run_range(0, n);
    return out;
  }

  size_t workers = static_cast<size_t>(compute_units_);
  if (workers > n) workers = n;
  size_t chunk = (n + workers - 1) / workers;
  std::vector<std::thread> threads;
  std::exception_ptr first_error;
  std::mutex error_mu;
  for (size_t w = 0; w < workers; ++w) {
    size_t b = w * chunk;
    size_t e = b + chunk < n ? b + chunk : n;
    if (b >= e) break;
    threads.emplace_back([&, b, e] {
      try {
        run_range(b, e);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
  return out;
}

}  // namespace lm::gpu
