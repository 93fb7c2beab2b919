#include "gpu/device.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
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

namespace {

/// The CPUs in the process's affinity mask when first asked.
const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) v.push_back(c);
      }
    }
    return v;
  }();
  return cpus;
}

using RangeFn = std::function<void(size_t begin, size_t end)>;

/// Chunks a launch is cut into per compute unit. Units claim chunks until
/// none are left, so a unit whose CPU is busy with another process holds up
/// no launch: the other units take its share.
constexpr size_t kChunksPerUnit = 4;

/// One launch: its items are claimed chunk by chunk. Shared with the units,
/// so a unit that wakes after the launch has returned finds no chunk left
/// instead of freed memory.
struct Launch {
  const RangeFn* fn = nullptr;  // called only for claimed chunks
  size_t n = 0;
  size_t chunk = 0;
  uint32_t chunks = 0;
  std::atomic<uint32_t> next{0};  // next chunk to claim
  std::atomic<uint32_t> done{0};  // chunks finished
  std::mutex error_mu;
  uint32_t error_chunk = UINT32_MAX;
  std::exception_ptr error;  // of the lowest chunk that threw

  /// Claims and runs chunks until none are left.
  void work() {
    for (uint32_t c; (c = next.fetch_add(1, std::memory_order_relaxed)) <
                     chunks;) {
      const size_t begin = c * chunk;
      try {
        (*fn)(begin, std::min(n, begin + chunk));
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (c < error_chunk) {
          error_chunk = c;
          error = std::current_exception();
        }
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks) {
        done.notify_one();
      }
    }
  }
};

/// The compute units every GpuDevice shares: one thread per CPU of the
/// affinity mask, pinned to it. Per-device units would put thread creation
/// back on each program's first large launch, since every compile() makes
/// its own device. Pinned, the units of one launch run in parallel; threads
/// a launch creates or wakes unpinned were seen to stay on the launching
/// thread's CPU and run one after another (DESIGN.md §4).
class ComputeUnits {
 public:
  /// Started by the first parallel launch; never torn down, like
  /// TraceRecorder::flight(), so no launch races process teardown.
  static ComputeUnits& shared() {
    static ComputeUnits* units = new ComputeUnits(allowed_cpus());
    return *units;
  }

  /// Runs `fn` over [0, n) on the units and waits for every chunk; rethrows
  /// the lowest chunk's exception once all of them have finished.
  void run(size_t n, const RangeFn& fn) {
    std::unique_lock<std::mutex> turn(turn_mu_);
    const uint64_t ticket = next_ticket_++;
    turn_cv_.wait(turn, [&] { return serving_ == ticket; });
    turn.unlock();

    auto launch = std::make_shared<Launch>();
    launch->fn = &fn;
    launch->n = n;
    const size_t target = units_ * kChunksPerUnit;
    launch->chunk = std::max<size_t>(1, (n + target - 1) / target);
    launch->chunks = static_cast<uint32_t>((n + launch->chunk - 1) /
                                           launch->chunk);
    {
      std::lock_guard<std::mutex> lock(current_mu_);
      current_ = launch;
    }
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    for (uint32_t d; (d = launch->done.load(std::memory_order_acquire)) !=
                     launch->chunks;) {
      launch->done.wait(d, std::memory_order_acquire);
    }

    turn.lock();
    ++serving_;
    turn.unlock();
    turn_cv_.notify_all();
    std::exception_ptr error;
    {
      std::lock_guard<std::mutex> lock(launch->error_mu);
      error = launch->error;
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  explicit ComputeUnits(const std::vector<int>& cpus) : units_(cpus.size()) {
    for (int cpu : cpus) {
      std::thread([this, cpu] {
        // A unit whose pin fails runs unpinned: slower, still correct.
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpu, &set);
        pthread_setaffinity_np(pthread_self(), sizeof set, &set);
        serve();
      }).detach();
    }
  }

  [[noreturn]] void serve() {
    for (uint32_t seen = 0;;) {
      epoch_.wait(seen, std::memory_order_acquire);
      seen = epoch_.load(std::memory_order_acquire);
      std::shared_ptr<Launch> launch;
      {
        std::lock_guard<std::mutex> lock(current_mu_);
        launch = current_;
      }
      launch->work();
    }
  }

  const size_t units_;
  /// Bumped once per launch; units sleep until it moves.
  std::atomic<uint32_t> epoch_{0};
  std::mutex current_mu_;
  std::shared_ptr<Launch> current_;  // the launch being run, or the last
  // Launches take turns in arrival order (a ticket lock).
  std::mutex turn_mu_;
  std::condition_variable turn_cv_;
  uint64_t next_ticket_ = 0;
  uint64_t serving_ = 0;
};

}  // namespace

GpuDevice::GpuDevice()
    : compute_units_(std::max(1, static_cast<int>(allowed_cpus().size()))) {}

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
  } else {
    ComputeUnits::shared().run(n, run_range);
  }
  return out;
}

}  // namespace lm::gpu
