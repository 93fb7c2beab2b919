#include "runtime/artifact.h"

#include <cstring>
#include <sstream>

#include "bytecode/compiler.h"
#include "obs/trace.h"
#include "serde/batch.h"
#include "util/error.h"

namespace lm::runtime {

using bc::ArrayRef;
using bc::ElemCode;
using bc::Value;
using serde::CValue;

const char* to_string(DeviceKind k) {
  switch (k) {
    case DeviceKind::kCpu: return "cpu/bytecode";
    case DeviceKind::kGpu: return "gpu/opencl";
    case DeviceKind::kFpga: return "fpga/verilog";
  }
  return "?";
}

namespace {

/// A batch that completed when it was issued.
class CompletedBatch final : public AsyncBatch {
 public:
  explicit CompletedBatch(std::vector<Value> out) : out_(std::move(out)) {}
  std::vector<Value> take_results() override { return std::move(out_); }

 private:
  std::vector<Value> out_;
};

}  // namespace

std::unique_ptr<AsyncBatch> Artifact::process_async(
    std::span<const Value> inputs, std::function<void()> on_done) {
  auto batch = std::make_unique<CompletedBatch>(process(inputs));
  on_done();
  return batch;
}

std::string ArtifactManifest::to_string() const {
  std::ostringstream os;
  os << "artifact " << task_id << " [" << lm::runtime::to_string(device)
     << "] (";
  for (size_t i = 0; i < param_types.size(); ++i) {
    if (i) os << ", ";
    os << param_types[i]->to_string();
  }
  os << ") -> " << (return_type ? return_type->to_string() : "void")
     << " arity=" << arity;
  return os.str();
}

namespace {

// Every buffer on these legs is on loan from serde::wire_pool() and goes
// back to it when its owner leaves scope, so a warm transfer allocates no
// buffer (serde/buffer_pool.h).

/// Step (1) of Fig. 3: `v` in the wire format.
serde::PooledBuffer to_wire(const serde::Serializer& ser, const Value& v) {
  serde::BufferPool& pool = serde::wire_pool();
  ByteWriter w(pool.acquire(ser.wire_size(v)));
  try {
    ser.serialize(v, w);
  } catch (...) {
    pool.release(w.take());
    throw;
  }
  return serde::PooledBuffer(pool, w.take());
}

/// Host → device leg of Fig. 3 for one value of `type`: serialize, cross
/// the boundary, convert to a dense C value.
CValue to_device(const Value& v, const lime::TypeRef& type,
                 serde::NativeBoundary& boundary, TransferStats& stats) {
  serde::PooledBuffer native =
      boundary.cross_to_native(to_wire(*serde::serializer_for(type), v));
  stats.bytes_to_device += native.size();
  return serde::unmarshal_native(native, type);
}

/// The same leg for boxed stream elements. The batch encode/decode lives in
/// serde/batch.h, shared with the remote transport (src/net/), so local and
/// remote artifacts move bit-identical bytes.
CValue elements_to_device(std::span<const Value> elems,
                          const lime::TypeRef& elem_type,
                          serde::NativeBoundary& boundary,
                          TransferStats& stats) {
  serde::PooledBuffer native = boundary.cross_to_native(serde::PooledBuffer(
      serde::wire_pool(),
      serde::pack_batch(elems, elem_type, serde::wire_pool())));
  stats.bytes_to_device += native.size();
  return serde::unmarshal_native(native, lime::Type::value_array(elem_type));
}

/// Device → host mirror path: marshal, cross back, deserialize into a fresh
/// host value of `type`.
Value from_device(const CValue& out, const lime::TypeRef& type,
                  serde::NativeBoundary& boundary, TransferStats& stats) {
  serde::PooledBuffer host =
      boundary.cross_to_host(serde::marshal_native(out));
  stats.bytes_from_device += host.size();
  ByteReader r(host);
  return serde::serializer_for(type)->deserialize(r);
}

/// The mirror path for a batch of stream elements.
std::vector<Value> elements_from_device(const CValue& out,
                                        const lime::TypeRef& elem_type,
                                        serde::NativeBoundary& boundary,
                                        TransferStats& stats) {
  serde::PooledBuffer host =
      boundary.cross_to_host(serde::marshal_native(out));
  stats.bytes_from_device += host.size();
  return serde::unpack_batch(host, elem_type);
}

gpu::KReg scalar_reg_from(const CValue& c) {
  gpu::KReg r{};
  switch (c.elem) {
    case ElemCode::kI32: r.i32 = c.i32s()[0]; break;
    case ElemCode::kI64: r.i64 = c.i64s()[0]; break;
    case ElemCode::kF32: r.f32 = c.f32s()[0]; break;
    case ElemCode::kF64: r.f64 = c.f64s()[0]; break;
    case ElemCode::kBool:
    case ElemCode::kBit: r.b = c.bytes()[0]; break;
    case ElemCode::kBoxed: throw InternalError("boxed scalar");
  }
  return r;
}

}  // namespace

// ---------------------------------------------------------------------------
// BytecodeArtifact
// ---------------------------------------------------------------------------

BytecodeArtifact::BytecodeArtifact(ArtifactManifest manifest,
                                   const bc::BytecodeModule& module,
                                   int method_index)
    : Artifact(std::move(manifest)),
      interp_(module),
      method_index_(method_index) {}

std::vector<Value> BytecodeArtifact::process(std::span<const Value> inputs) {
  size_t k = static_cast<size_t>(manifest_.arity);
  LM_CHECK(inputs.size() % k == 0);
  ++transfer_.batches;
  transfer_.elements_in += inputs.size();
  std::vector<Value> out;
  out.reserve(inputs.size() / k);
  std::vector<Value> args(k);
  for (size_t i = 0; i + k <= inputs.size(); i += k) {
    for (size_t j = 0; j < k; ++j) args[j] = inputs[i + j];
    out.push_back(interp_.call(method_index_, args));
  }
  transfer_.elements_out += out.size();
  return out;
}

std::string BytecodeArtifact::text() const {
  const bc::CompiledMethod& m =
      interp_.module().methods[static_cast<size_t>(method_index_)];
  std::ostringstream os;
  os << "// bytecode artifact for " << manifest_.task_id << "\n";
  for (size_t pc = 0; pc < m.code.size(); ++pc) {
    os << pc << ": " << bc::disassemble(m.code[pc]) << "\n";
  }
  return os.str();
}

Value BytecodeArtifact::apply(std::vector<Value> args) {
  return interp_.call(method_index_, std::move(args));
}

// ---------------------------------------------------------------------------
// GpuKernelArtifact
// ---------------------------------------------------------------------------

namespace {
const gpu::KernelProgram& non_null(
    const std::unique_ptr<gpu::KernelProgram>& program) {
  LM_CHECK(program != nullptr);
  return *program;
}
}  // namespace

GpuKernelArtifact::GpuKernelArtifact(ArtifactManifest manifest,
                                     std::unique_ptr<gpu::KernelProgram> program,
                                     std::shared_ptr<gpu::GpuDevice> device)
    : Artifact(std::move(manifest)),
      program_(std::move(program)),
      kernel_(non_null(program_)),
      device_(std::move(device)) {
  LM_CHECK(device_ != nullptr);
  if (program_->params.size() != manifest_.param_types.size()) {
    throw RuntimeError("kernel " + program_->task_id + " takes " +
                       std::to_string(program_->params.size()) +
                       " parameters, its task " +
                       std::to_string(manifest_.param_types.size()));
  }
  // The executor and FPGA synthesis read registers by these types and
  // arguments by these modes, and marshaling converts by the task's and
  // passes an array exactly where the task takes one.
  for (size_t i = 0; i < program_->params.size(); ++i) {
    const lime::TypeRef& t = manifest_.param_types[i];
    const gpu::KernelParam& kp = program_->params[i];
    if (kp.type != bc::num_type_for(t->is_array_like() ? t->elem : t) ||
        (kp.mode == gpu::ParamMode::kWholeArray) != t->is_array_like()) {
      throw RuntimeError("kernel " + program_->task_id + " parameter " +
                         std::to_string(i) + " disagrees with its task's type");
    }
  }
  if (program_->ret_type != bc::num_type_for(manifest_.return_type)) {
    throw RuntimeError("kernel " + program_->task_id +
                       " returns another type than its task");
  }
}

std::vector<Value> GpuKernelArtifact::process(
    std::span<const Value> inputs) {
  size_t k = static_cast<size_t>(manifest_.arity);
  LM_CHECK(inputs.size() % k == 0);
  size_t n = inputs.size() / k;
  ++transfer_.batches;
  transfer_.elements_in += inputs.size();

  serde::NativeBoundary boundary;
  // Stream elements all share one type (only values of the upstream element
  // type flow through a connection, §2.2).
  const lime::TypeRef& elem_type = manifest_.param_types[0];
  CValue dev_in =
      elements_to_device(inputs, elem_type, boundary, transfer_);

  std::vector<gpu::KArg> args;
  for (size_t p = 0; p < program_->params.size(); ++p) {
    args.push_back(gpu::KArg::elementwise(dev_in, static_cast<int>(k),
                                          static_cast<int>(p)));
  }
  CValue dev_out = device_->launch(kernel_, args, n);
  auto out = elements_from_device(dev_out, manifest_.return_type, boundary,
                                  transfer_);
  transfer_.elements_out += out.size();
  return out;
}

Value GpuKernelArtifact::run_map(std::span<const Value> args,
                                 uint32_t array_mask) {
  obs::TraceSpan span;
  if (obs::TraceRecorder* rec = obs::TraceRecorder::current()) {
    span.begin(rec, "gpu", "map:" + manifest_.task_id);
  }
  ++transfer_.batches;
  serde::NativeBoundary boundary;
  // Marshal each operand: arrays elementwise, scalars broadcast.
  size_t n = 0;
  std::vector<CValue> device_values;
  device_values.reserve(args.size());
  for (size_t i = 0; i < args.size(); ++i) {
    const lime::TypeRef& pt = manifest_.param_types[i];
    const bool elementwise = (array_mask & (1u << i)) != 0;
    device_values.push_back(
        to_device(args[i], elementwise ? lime::Type::value_array(pt) : pt,
                  boundary, transfer_));
    if (elementwise) n = device_values.back().count;
  }
  LM_CHECK_MSG(n > 0, "map launch needs at least one array operand");
  transfer_.elements_in += n;

  std::vector<gpu::KArg> kargs;
  for (size_t i = 0; i < args.size(); ++i) {
    if (array_mask & (1u << i)) {
      if (device_values[i].count != n) {
        throw RuntimeError("map arrays disagree on length");
      }
      kargs.push_back(gpu::KArg::elementwise(device_values[i]));
    } else if (manifest_.param_types[i]->is_array_like()) {
      // Whole-array broadcast: the kernel indexes it itself (matmul etc.).
      kargs.push_back(gpu::KArg::whole_array(device_values[i]));
    } else {
      gpu::KArg a;
      a.scalar = scalar_reg_from(device_values[i]);
      kargs.push_back(a);
    }
  }
  CValue dev_out = device_->launch(kernel_, kargs, n);
  Value result =
      from_device(dev_out, lime::Type::value_array(manifest_.return_type),
                  boundary, transfer_);
  transfer_.elements_out += n;
  return result;
}

Value GpuKernelArtifact::run_reduce(const Value& array) {
  LM_CHECK_MSG(manifest_.param_types.size() == 2,
               "reduce kernel must be binary");
  obs::TraceSpan span;
  if (obs::TraceRecorder* rec = obs::TraceRecorder::current()) {
    span.begin(rec, "gpu", "reduce:" + manifest_.task_id);
  }
  ++transfer_.batches;
  serde::NativeBoundary boundary;
  auto arr_t = lime::Type::value_array(manifest_.return_type);
  CValue cur = to_device(array, arr_t, boundary, transfer_);
  if (cur.count == 0) throw RuntimeError("reduce of an empty array");
  transfer_.elements_in += cur.count;

  size_t elem_size = cur.storage.size() / cur.count;
  while (cur.count > 1) {
    size_t pairs = cur.count / 2;
    bool odd = (cur.count % 2) != 0;
    std::vector<gpu::KArg> kargs = {gpu::KArg::elementwise(cur, 2, 0),
                                    gpu::KArg::elementwise(cur, 2, 1)};
    CValue next = device_->launch(kernel_, kargs, pairs);
    if (odd) {
      // Carry the unpaired trailing element into the next round.
      CValue grown = CValue::make(next.elem, true, pairs + 1);
      std::memcpy(grown.storage.data(), next.storage.data(),
                  next.storage.size());
      std::memcpy(grown.storage.data() + pairs * elem_size,
                  cur.storage.data() + (cur.count - 1) * elem_size,
                  elem_size);
      cur = std::move(grown);
    } else {
      cur = std::move(next);
    }
  }

  Value v = from_device(cur, arr_t, boundary, transfer_);
  transfer_.elements_out += 1;
  return bc::array_get(*v.as_array(), 0);
}

// ---------------------------------------------------------------------------
// ChainArtifact
// ---------------------------------------------------------------------------

ChainArtifact::ChainArtifact(ArtifactManifest manifest,
                             std::vector<Artifact*> stages)
    : Artifact(std::move(manifest)), stages_(std::move(stages)) {
  LM_CHECK_MSG(!stages_.empty(), "fallback chain needs at least one stage");
}

std::vector<Value> ChainArtifact::process(std::span<const Value> inputs) {
  ++transfer_.batches;
  transfer_.elements_in += inputs.size();
  std::vector<Value> cur(inputs.begin(), inputs.end());
  for (Artifact* stage : stages_) {
    size_t k = static_cast<size_t>(stage->manifest().arity);
    // Whole firings only — a trailing partial group is dropped, matching
    // the threaded scheduler's end-of-stream semantics.
    size_t usable = (cur.size() / k) * k;
    cur = stage->process(std::span<const Value>(cur.data(), usable));
  }
  transfer_.elements_out += cur.size();
  return cur;
}

// ---------------------------------------------------------------------------
// FpgaModuleArtifact
// ---------------------------------------------------------------------------

FpgaModuleArtifact::FpgaModuleArtifact(ArtifactManifest manifest,
                                       fpga::FpgaCompileResult rtl)
    : Artifact(std::move(manifest)), filter_(std::move(rtl)) {}

std::vector<Value> FpgaModuleArtifact::process(
    std::span<const Value> inputs) {
  size_t k = static_cast<size_t>(manifest_.arity);
  LM_CHECK(inputs.size() % k == 0);
  ++transfer_.batches;
  transfer_.elements_in += inputs.size();

  serde::NativeBoundary boundary;
  const lime::TypeRef& elem_type = manifest_.param_types[0];
  CValue dev_in = elements_to_device(inputs, elem_type, boundary, transfer_);

  fpga::FpgaRunStats stats;
  CValue dev_out;
  {
    obs::TraceSpan span;
    if (obs::TraceRecorder* rec = obs::TraceRecorder::current()) {
      span.begin(rec, "fpga", "rtl:" + manifest_.task_id);
    }
    dev_out = filter_.process(dev_in, &stats);
    if (span.active()) {
      span.set_args(obs::JsonArgs()
                        .add("elements", static_cast<uint64_t>(inputs.size()))
                        .add("cycles", stats.cycles)
                        .str());
    }
  }
  cycles_ += stats.cycles;

  auto out = elements_from_device(dev_out, manifest_.return_type, boundary,
                                  transfer_);
  transfer_.elements_out += out.size();
  return out;
}

}  // namespace lm::runtime
