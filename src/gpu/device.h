// Simulated GPU device.
//
// Substitution note (DESIGN.md §1): the paper ran on real AMD/NVidia parts
// through OpenCL. Here the "device" is a software SIMT model: a launch
// spreads work items over compute units, each executing the lowered kernel
// (gpu/lowered.h), which its artifact built once from the kernel IR. The
// compute units are threads that live for the whole process, one pinned to
// each CPU the process may run on, shared by every GpuDevice (DESIGN.md
// §4). When the native-kernel registry holds an entry for
// the task id, the device runs that pre-compiled C++ function instead —
// playing the role of the vendor driver's JIT output, exactly as the
// paper's artifact repository holds device-toolflow outputs keyed by task
// identifier (§1). Both paths compute the same function; differential
// tests enforce it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "gpu/kernel_ir.h"
#include "gpu/lowered.h"
#include "serde/native.h"

namespace lm::gpu {

/// Launch-time binding for one kernel parameter.
struct KArg {
  enum class Mode { kElementwise, kScalar, kWholeArray };
  Mode mode = Mode::kScalar;
  KReg scalar{};                          // kScalar
  const serde::CValue* array = nullptr;   // kElementwise / kWholeArray
  int stride = 1;                         // kElementwise
  int offset = 0;                         // kElementwise

  static KArg scalar_i32(int32_t v) { KArg a; a.scalar.i32 = v; return a; }
  static KArg scalar_f32(float v) { KArg a; a.scalar.f32 = v; return a; }
  static KArg scalar_f64(double v) { KArg a; a.scalar.f64 = v; return a; }
  static KArg elementwise(const serde::CValue& cv, int stride = 1,
                          int offset = 0) {
    KArg a;
    a.mode = Mode::kElementwise;
    a.array = &cv;
    a.stride = stride;
    a.offset = offset;
    return a;
  }
  static KArg whole_array(const serde::CValue& cv) {
    KArg a;
    a.mode = Mode::kWholeArray;
    a.array = &cv;
    return a;
  }
};

/// A pre-compiled native kernel: processes work items [begin, end).
using NativeKernelFn = std::function<void(const std::vector<KArg>& args,
                                          serde::CValue& out, size_t begin,
                                          size_t end)>;

/// The "device toolflow output" repository: native implementations keyed by
/// task identifier (§1: artifacts "exist in a repository and identified via
/// a unique identifier").
class NativeKernelRegistry {
 public:
  void add(const std::string& task_id, NativeKernelFn fn);
  const NativeKernelFn* find(const std::string& task_id) const;
  size_t size() const { return kernels_.size(); }

  /// Process-wide registry used by workloads; tests may build private ones.
  static NativeKernelRegistry& global();

 private:
  std::unordered_map<std::string, NativeKernelFn> kernels_;
};

/// Atomic: one GpuDevice is shared by every GPU artifact of a program, so
/// device nodes stepping on different executor workers launch — and bump
/// these — from different threads at once.
struct GpuStats {
  std::atomic<uint64_t> launches{0};
  std::atomic<uint64_t> native_launches{0};
  std::atomic<uint64_t> work_items{0};
};

class GpuDevice {
 public:
  GpuDevice();

  /// Executes `n` work items of `kernel` and returns the output buffer
  /// (one element of its return type per item). A launch of at least 4096
  /// items is cut into chunks that the compute units claim while the
  /// calling thread waits; launches from several threads take turns in
  /// arrival order. An exception thrown in a chunk is rethrown here once
  /// every chunk has finished. Smaller launches run on the calling thread.
  serde::CValue launch(const LoweredKernel& kernel,
                       const std::vector<KArg>& args, size_t n);

  const std::string& name() const { return name_; }
  /// One-line device identity for listings and remote servers (lmdev):
  /// "simgpu0 (N compute units, M native kernels)".
  std::string describe() const;
  /// One per CPU in the process's affinity mask; with one, every launch
  /// runs on the calling thread.
  int compute_units() const { return compute_units_; }
  const GpuStats& stats() const { return stats_; }
  void reset_stats() {
    stats_.launches = 0;
    stats_.native_launches = 0;
    stats_.work_items = 0;
  }

  NativeKernelRegistry& registry() { return registry_; }

 private:
  std::string name_ = "simgpu0";
  int compute_units_;
  GpuStats stats_;
  NativeKernelRegistry registry_;
};

/// Output-buffer element code for a kernel's return type.
bc::ElemCode elem_code_for(NumType t);

}  // namespace lm::gpu
