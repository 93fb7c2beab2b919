// Artifacts and manifests (§3).
//
// "The result of a compilation with Liquid Metal is a collection of
// artifacts for different architectures, each labeled with the particular
// computational node that it implements." Every artifact here implements
// the same contract — consume a batch of stream elements, produce a batch
// of results — so the runtime can swap one for another ("packaged in such a
// way that it can be replaced at runtime with another artifact that is its
// semantic equivalent").
//
// Device artifacts (GPU/FPGA) speak bytes, not heap values: their process()
// runs the full Fig. 3 path — serialize to the wire format, cross the
// native boundary, convert to dense C values, compute, and mirror back.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bytecode/interp.h"
#include "fpga/device.h"
#include "gpu/device.h"
#include "serde/native.h"
#include "serde/wire.h"

namespace lm::obs {
class LatencyHistogram;
}

namespace lm::runtime {

enum class DeviceKind { kCpu, kGpu, kFpga };
const char* to_string(DeviceKind k);

/// The manifest a backend produces alongside each artifact (§3).
struct ArtifactManifest {
  std::string task_id;  // e.g. "Bitflip.flip" or "seg:P.a:P.b"
  DeviceKind device = DeviceKind::kCpu;
  std::vector<lime::TypeRef> param_types;
  lime::TypeRef return_type;
  /// Stream elements consumed per firing (the filter's arity; for fused
  /// segments, the arity of the first stage).
  int arity = 1;

  std::string to_string() const;
};

/// Transfer/marshaling statistics a device artifact accumulates. Atomic:
/// an artifact is looked up from the shared store, so two concurrently
/// running graphs (or a graph and the AccelHooks map path) may drive the
/// same instance from different threads.
struct TransferStats {
  std::atomic<uint64_t> batches{0};
  std::atomic<uint64_t> elements_in{0};
  std::atomic<uint64_t> elements_out{0};
  std::atomic<uint64_t> bytes_to_device{0};
  std::atomic<uint64_t> bytes_from_device{0};
};

/// An issued batch: returned by Artifact::process_async, resolved with
/// take_results() once the completion callback has fired. A remote batch
/// defers decoding — and any transport error — to take_results() so it
/// happens on an executor worker, never on the I/O thread that delivered
/// the reply.
class AsyncBatch {
 public:
  virtual ~AsyncBatch() = default;
  /// Call only after the completion callback fired. Returns the decoded
  /// outputs or rethrows the failure (TransportError, RemoteError, ...).
  virtual std::vector<bc::Value> take_results() = 0;
};

class Artifact {
 public:
  virtual ~Artifact() = default;

  const ArtifactManifest& manifest() const { return manifest_; }

  /// The generated artifact text (Fig. 2): disassembly for bytecode,
  /// OpenCL-C for GPU, Verilog for FPGA; empty for artifacts that have
  /// none (remote proxies, fallback chains). Rendered on each call from
  /// what the artifact holds, so nothing on the run path pays for it.
  virtual std::string text() const { return {}; }

  /// Processes a batch: `inputs` holds n*arity stream elements; returns n
  /// outputs, in order.
  virtual std::vector<bc::Value> process(
      std::span<const bc::Value> inputs) = 0;

  /// Issues a batch: the one way a device node runs one. `on_done` fires
  /// exactly once, from an arbitrary thread, when the result (or failure)
  /// is available; the caller then resolves it with
  /// AsyncBatch::take_results(). `inputs` must stay alive until
  /// take_results() returns. The base runs process() here, fires `on_done`
  /// and returns a completed batch, so a local artifact completes at issue
  /// and an exception from process() propagates from this call. Remote
  /// proxies override it to complete later, off the caller's thread.
  virtual std::unique_ptr<AsyncBatch> process_async(
      std::span<const bc::Value> inputs, std::function<void()> on_done);

  /// True when process() crosses a socket (src/net/ proxies). The runtime
  /// uses this to attach a local fallback artifact at substitution time.
  virtual bool is_remote() const { return false; }

  /// Where the computation runs: "local", or "host:port" for proxies.
  virtual std::string location() const { return "local"; }

  /// The device label this artifact's batches are recorded under in the
  /// cost-model registry. Remote proxies append their endpoint so a remote
  /// GPU and the local GPU keep separate cost histories.
  virtual std::string cost_label() const {
    return to_string(manifest_.device);
  }

  const TransferStats& transfer_stats() const { return transfer_; }

  /// Server-side device-execute latency, populated only by remote proxies
  /// from the telemetry their replies piggyback. The report path merges it
  /// (LatencyHistogram::merge) into the client's PerfReport, so "what the
  /// wire cost" and "what the device cost" stay separable per task.
  /// nullptr for local artifacts and for remote ones with no samples yet.
  virtual const obs::LatencyHistogram* server_histogram() const {
    return nullptr;
  }

 protected:
  explicit Artifact(ArtifactManifest manifest)
      : manifest_(std::move(manifest)) {}

  ArtifactManifest manifest_;
  TransferStats transfer_;
};

/// CPU artifact: direct interpretation, no marshaling (the JVM-side path).
/// Owns a private Interpreter so filter threads never race on one.
class BytecodeArtifact final : public Artifact {
 public:
  BytecodeArtifact(ArtifactManifest manifest, const bc::BytecodeModule& module,
                   int method_index);

  std::vector<bc::Value> process(std::span<const bc::Value> inputs) override;
  std::string text() const override;

  /// Single-element convenience used by tests.
  bc::Value apply(std::vector<bc::Value> args);

 private:
  bc::Interpreter interp_;
  int method_index_;
};

/// GPU artifact: kernel program + simulated device, fed through the wire
/// format and native boundary.
class GpuKernelArtifact final : public Artifact {
 public:
  /// Lowers `program` once, for all its launches (gpu/lowered.h). Throws
  /// RuntimeError when the program is malformed, or when its parameters or
  /// return type differ in number or type from the manifest's task.
  GpuKernelArtifact(ArtifactManifest manifest,
                    std::unique_ptr<gpu::KernelProgram> program,
                    std::shared_ptr<gpu::GpuDevice> device);

  std::vector<bc::Value> process(std::span<const bc::Value> inputs) override;
  std::string text() const override { return program_->opencl_source; }

  const gpu::KernelProgram& program() const { return *program_; }
  gpu::GpuDevice& device() { return *device_; }

  /// Executes a whole map operation (arrays + broadcast scalars) on the
  /// device — the data-parallel fast path behind the AccelHooks (§2.2).
  bc::Value run_map(std::span<const bc::Value> args, uint32_t array_mask);

  /// Tree-reduces an array with this (binary) kernel: log₂(n) rounds of
  /// pairwise launches. The kernel must implement T f(T, T).
  bc::Value run_reduce(const bc::Value& array);

 private:
  std::unique_ptr<gpu::KernelProgram> program_;
  gpu::LoweredKernel kernel_;
  std::shared_ptr<gpu::GpuDevice> device_;
};

/// CPU fallback for a fused segment: pipes each batch through the member
/// tasks' artifacts in graph order. Built by the runtime when a *remote*
/// fused-segment artifact is substituted — the store holds no monolithic
/// CPU artifact under "seg:..." ids, yet remote failure must still be able
/// to fall back to local execution without unfusing the graph mid-run.
class ChainArtifact final : public Artifact {
 public:
  /// `stages` are borrowed from the store (which outlives the runtime).
  ChainArtifact(ArtifactManifest manifest, std::vector<Artifact*> stages);

  std::vector<bc::Value> process(std::span<const bc::Value> inputs) override;

 private:
  std::vector<Artifact*> stages_;
};

/// FPGA artifact: synthesized module streamed through the RTL simulator.
class FpgaModuleArtifact final : public Artifact {
 public:
  FpgaModuleArtifact(ArtifactManifest manifest, fpga::FpgaCompileResult rtl);

  std::vector<bc::Value> process(std::span<const bc::Value> inputs) override;
  std::string text() const override { return filter_.verilog(); }

  fpga::FpgaFilter& filter() { return filter_; }
  uint64_t total_cycles() const {
    return cycles_.load(std::memory_order_relaxed);
  }

 private:
  fpga::FpgaFilter filter_;
  std::atomic<uint64_t> cycles_{0};
};

}  // namespace lm::runtime
