#include "gpu/device.h"

#include <algorithm>
#include <thread>

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

/// Launches smaller than this run on the calling thread (models the fixed
/// cost floor of spinning up a grid for tiny problems).
constexpr size_t kMinItemsForParallel = 4096;

GpuDevice::GpuDevice()
    : compute_units_(
          std::max(1, static_cast<int>(std::thread::hardware_concurrency()))) {}

std::string GpuDevice::describe() const {
  return name_ + " (" + std::to_string(compute_units_) + " compute units, " +
         std::to_string(registry_.size()) + " native kernels)";
}

CValue GpuDevice::launch(const LoweredKernel& kernel,
                         const std::vector<KArg>& args, size_t n) {
  stats_.launches.fetch_add(1, std::memory_order_relaxed);
  stats_.work_items.fetch_add(n, std::memory_order_relaxed);

  CValue out = CValue::make(elem_code_for(kernel.ret_type()), true, n);

  const NativeKernelFn* native = registry_.find(kernel.task_id());
  if (native) stats_.native_launches.fetch_add(1, std::memory_order_relaxed);

  obs::TraceSpan span;
  if (obs::TraceRecorder* rec = obs::TraceRecorder::current()) {
    span.begin(rec, "gpu", "launch:" + kernel.task_id());
    span.set_args(obs::JsonArgs()
                      .add("items", static_cast<uint64_t>(n))
                      .add("native", native != nullptr)
                      .str());
  }

  auto run_range = [&](size_t b, size_t e) {
    if (native) {
      (*native)(args, out, b, e);
    } else {
      run_kernel_range(kernel, args, out, b, e);
    }
  };

  if (n < kMinItemsForParallel || compute_units_ == 1) {
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
